// bench_serve — multi-replica load harness for the evaluation service
// (src/serve).
//
// The parent starts N replica servers (Unix sockets by default, TCP with
// --tcp), then fork+execs M *client processes* (re-invoking this binary in
// a hidden --worker-client mode, so no threads cross a fork).  Each worker
// builds the same consistent-hash ring over the replica endpoints
// (serve::Router) and issues a stream of CTMC reachability solves with a
// configurable duplicate-request ratio through a serve::RoutedClient.
//
// The run self-validates:
//   - every response body is compared against the direct in-process solve
//     of the same request (serve::solve_request), so an R-replica run is
//     byte-identical to a single-replica run by transitivity — any
//     mismatch fails the bench;
//   - duplicates land on the replica that owns their cache entry: summed
//     over the fleet, each distinct model is solved exactly once, and the
//     observed routing locality (owner-served fraction) must be 1.0 with
//     every replica healthy;
//   - nothing is shed (the queues are sized for the offered load).
//
// Reported (and written to --json): throughput, client-observed latency
// p50/p99, shed rate, routing locality, failover/transport-error counts,
// and the fleet-summed cache/coalescing counters.
//
// Flags: --replicas N  --clients M (processes)  --requests N (per client)
//        --dup R (0..1)  --workers N (per replica)  --tcp
//        --smoke (tiny deterministic 2-replica run for CI)
//        --json PATH (machine-readable copy of the report)
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "core/report.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/solvers.hpp"

namespace {

using namespace multival;

std::string model_text(std::size_t id) {
  // Distinct rate -> distinct content hash -> distinct cache key.
  return "des (0, 3, 4)\n"
         "(0, \"rate " + std::to_string(id + 1) + ".0\", 1)\n"
         "(1, \"STEP; rate 2.0\", 2)\n"
         "(2, \"rate 1.0\", 3)\n";
}

serve::Request make_solve(std::size_t global_index, std::size_t distinct) {
  serve::Request r;
  r.id = global_index + 1;
  r.verb = serve::Verb::kReach;
  r.payload = model_text(global_index % distinct);
  return r;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size() - 1)));
  return samples[idx];
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ',') {
      if (i > start) {
        out.push_back(s.substr(start, i - start));
      }
      start = i + 1;
    }
  }
  return out;
}

// --- hidden worker mode --------------------------------------------------
//
// bench_serve --worker-client IDX --endpoints a,b --requests N --distinct D
//             --out PATH
//
// Runs the client stream for worker IDX and writes its samples and routing
// counters to PATH (one file per worker; the parent aggregates).

int run_worker(int argc, char** argv) {
  std::size_t idx = 0;
  std::size_t requests = 0;
  std::size_t distinct = 1;
  std::vector<std::string> endpoints;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--worker-client" && i + 1 < argc) {
      idx = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--endpoints" && i + 1 < argc) {
      endpoints = split_csv(argv[++i]);
    } else if (a == "--requests" && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--distinct" && i + 1 < argc) {
      distinct = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "worker: unknown flag " << a << "\n";
      return 2;
    }
  }
  if (endpoints.empty() || requests == 0 || distinct == 0 ||
      out_path.empty()) {
    std::cerr << "worker: missing --endpoints/--requests/--distinct/--out\n";
    return 2;
  }

  auto router = std::make_shared<serve::Router>(endpoints);
  serve::RoutedClient client(router, std::chrono::milliseconds(5000));

  std::vector<double> latencies;
  latencies.reserve(requests);
  std::uint64_t failures = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t overloaded = 0;
  std::unordered_map<std::size_t, std::string> expected;  // model -> body
  for (std::size_t j = 0; j < requests; ++j) {
    const std::size_t g = idx * requests + j;
    const serve::Request r = make_solve(g, distinct);
    const auto start = std::chrono::steady_clock::now();
    serve::Response resp;
    try {
      resp = client.call(r);
    } catch (const std::exception& e) {
      std::cerr << "worker " << idx << ": " << e.what() << "\n";
      ++failures;
      continue;
    }
    const auto end = std::chrono::steady_clock::now();
    latencies.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    if (resp.status == serve::Status::kOverloaded) {
      ++overloaded;
      continue;
    }
    if (resp.status != serve::Status::kOk) {
      ++failures;
      continue;
    }
    // Byte-identical check against the direct in-process solve (computed
    // once per distinct model).
    auto it = expected.find(g % distinct);
    if (it == expected.end()) {
      it = expected.emplace(g % distinct, serve::solve_request(r)).first;
    }
    if (resp.body != it->second) {
      std::cerr << "worker " << idx << ": body mismatch for model "
                << (g % distinct) << ": '" << resp.body << "' != '"
                << it->second << "'\n";
      ++mismatches;
    }
  }

  const serve::RoutedClientStats& s = client.stats();
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "worker " << idx << ": cannot write " << out_path << "\n";
    return 1;
  }
  out << "counts " << failures << " " << mismatches << " " << overloaded
      << "\n";
  out << "routing " << s.calls << " " << s.primary << " " << s.failover
      << " " << s.transport_errors << "\n";
  for (const double ms : latencies) {
    out << "lat " << serve::format_double(ms) << "\n";
  }
  return out.good() ? 0 : 1;
}

struct WorkerReport {
  std::uint64_t failures = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t calls = 0;
  std::uint64_t primary = 0;
  std::uint64_t failover = 0;
  std::uint64_t transport_errors = 0;
  std::vector<double> latencies;
};

bool read_worker_report(const std::string& path, WorkerReport& agg) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string tag;
  bool have_counts = false;
  bool have_routing = false;
  while (in >> tag) {
    if (tag == "counts") {
      std::uint64_t f = 0;
      std::uint64_t m = 0;
      std::uint64_t o = 0;
      in >> f >> m >> o;
      agg.failures += f;
      agg.mismatches += m;
      agg.overloaded += o;
      have_counts = true;
    } else if (tag == "routing") {
      std::uint64_t c = 0;
      std::uint64_t p = 0;
      std::uint64_t fo = 0;
      std::uint64_t te = 0;
      in >> c >> p >> fo >> te;
      agg.calls += c;
      agg.primary += p;
      agg.failover += fo;
      agg.transport_errors += te;
      have_routing = true;
    } else if (tag == "lat") {
      double ms = 0.0;
      in >> ms;
      agg.latencies.push_back(ms);
    } else {
      return false;
    }
  }
  return have_counts && have_routing;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--worker-client") {
      return run_worker(argc, argv);
    }
  }

  std::size_t replicas = 1;
  std::size_t clients = 4;
  std::size_t requests = 32;
  double dup_ratio = 0.5;
  unsigned workers = 0;
  bool tcp = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--replicas" && i + 1 < argc) {
      replicas = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--clients" && i + 1 < argc) {
      clients = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--requests" && i + 1 < argc) {
      requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--dup" && i + 1 < argc) {
      dup_ratio = std::strtod(argv[++i], nullptr);
    } else if (a == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--tcp") {
      tcp = true;
    } else if (a == "--smoke") {
      replicas = 2;
      clients = 2;
      requests = 8;
      dup_ratio = 0.5;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_serve [--replicas N] [--clients M] "
                   "[--requests N] [--dup R] [--workers N] [--tcp] "
                   "[--smoke] [--json PATH]\n";
      return 2;
    }
  }
  if (replicas == 0 || clients == 0 || requests == 0 || dup_ratio < 0.0 ||
      dup_ratio >= 1.0) {
    std::cerr << "bench_serve: need replicas>0, clients>0, requests>0, "
                 "0<=dup<1\n";
    return 2;
  }

  const std::size_t total = clients * requests;
  const std::size_t distinct = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(static_cast<double>(total) * (1.0 - dup_ratio))));

  // Start the replica fleet.  Binding happens in the Server constructor, so
  // every endpoint (including TCP ephemeral ports) is connectable before
  // any client process is spawned.
  // 0 resolves to the hardware thread count inside serve::Service; record
  // the actual per-replica worker-thread count for the JSON payload.
  const unsigned resolved_workers =
      workers != 0 ? workers : core::hardware_threads();
  const std::string tag = std::to_string(::getpid());
  std::vector<std::unique_ptr<serve::Server>> fleet;
  std::vector<std::thread> accept_threads;
  std::vector<std::string> endpoints;
  for (std::size_t rep = 0; rep < replicas; ++rep) {
    serve::ServerOptions opts;
    opts.endpoint = tcp ? "127.0.0.1:0"
                        : "/tmp/mvserve_bench_" + tag + "_" +
                              std::to_string(rep) + ".sock";
    opts.service.workers = workers;
    // This run measures caching/routing, not shedding: size the queue so
    // nothing is rejected (bench of the overload path is in serve_test).
    opts.service.queue_capacity = total + 16;
    fleet.push_back(std::make_unique<serve::Server>(std::move(opts)));
    endpoints.push_back(fleet.back()->bound_endpoint().to_string());
  }
  for (auto& server : fleet) {
    accept_threads.emplace_back([&server] { server->run(); });
  }
  std::string endpoint_csv;
  for (const std::string& e : endpoints) {
    endpoint_csv += (endpoint_csv.empty() ? "" : ",") + e;
  }

  // Spawn the client processes: fork + exec of this binary in worker mode.
  // exec (rather than running the stream in the forked child) keeps the
  // child single-threaded from the start — the parent runs server threads,
  // and forking a multithreaded process is only safe up to the exec.
  std::vector<pid_t> pids;
  std::vector<std::string> out_paths;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    out_paths.push_back("/tmp/mvserve_bench_" + tag + "_worker" +
                        std::to_string(c) + ".txt");
    std::vector<std::string> args = {
        argv[0],          "--worker-client", std::to_string(c),
        "--endpoints",    endpoint_csv,      "--requests",
        std::to_string(requests),            "--distinct",
        std::to_string(distinct),            "--out",
        out_paths.back()};
    std::vector<char*> cargs;
    cargs.reserve(args.size() + 1);
    for (std::string& a : args) {
      cargs.push_back(a.data());
    }
    cargs.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv(cargs[0], cargs.data());
      ::_exit(127);  // exec failed
    }
    if (pid < 0) {
      std::cerr << "bench_serve: fork failed\n";
      return 1;
    }
    pids.push_back(pid);
  }

  std::uint64_t worker_failures = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::cerr << "bench_serve: worker process " << pid << " failed\n";
      ++worker_failures;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (auto& server : fleet) {
    server->stop();
  }
  for (std::thread& t : accept_threads) {
    t.join();
  }

  WorkerReport agg;
  for (const std::string& path : out_paths) {
    if (!read_worker_report(path, agg)) {
      std::cerr << "bench_serve: missing/corrupt worker report " << path
                << "\n";
      ++worker_failures;
    }
    ::unlink(path.c_str());
  }

  // Fleet-summed service metrics.
  serve::ServiceMetrics m;
  std::vector<serve::ServiceMetrics> per_replica;
  for (auto& server : fleet) {
    const serve::ServiceMetrics r = server->service().metrics();
    per_replica.push_back(r);
    m.accepted += r.accepted;
    m.completed_ok += r.completed_ok;
    m.shed += r.shed;
    m.coalesced += r.coalesced;
    m.cache_hits += r.cache_hits;
    m.solves += r.solves;
    m.solve_errors += r.solve_errors;
  }
  const double locality =
      agg.primary + agg.failover == 0
          ? 0.0
          : static_cast<double>(agg.primary) /
                static_cast<double>(agg.primary + agg.failover);
  const double shed_rate =
      total == 0 ? 0.0
                 : static_cast<double>(agg.overloaded) /
                       static_cast<double>(total);

  core::Table t("serve load benchmark", {"metric", "value"});
  t.add_row({"transport", tcp ? "tcp" : "unix"});
  t.add_row({"replicas", std::to_string(replicas)});
  t.add_row({"client processes", std::to_string(clients)});
  t.add_row({"requests/client", std::to_string(requests)});
  t.add_row({"total requests", std::to_string(total)});
  t.add_row({"distinct models", std::to_string(distinct)});
  t.add_row({"duplicate ratio",
             core::fmt(1.0 - static_cast<double>(distinct) /
                                 static_cast<double>(total), 3)});
  t.add_row({"wall time (s)", core::fmt(wall, 3)});
  t.add_row({"throughput (req/s)",
             core::fmt(static_cast<double>(total) / wall, 1)});
  t.add_row({"latency p50 (ms)",
             core::fmt(percentile(agg.latencies, 0.50), 3)});
  t.add_row({"latency p99 (ms)",
             core::fmt(percentile(agg.latencies, 0.99), 3)});
  t.add_row({"routing locality", core::fmt(locality, 3)});
  t.add_row({"failover calls", std::to_string(agg.failover)});
  t.add_row({"transport errors", std::to_string(agg.transport_errors)});
  t.add_row({"shed rate", core::fmt(shed_rate, 3)});
  t.add_row({"solves (fleet)", std::to_string(m.solves)});
  t.add_row({"coalesced (fleet)", std::to_string(m.coalesced)});
  t.add_row({"cache hits (fleet)", std::to_string(m.cache_hits)});
  t.add_row({"cache hit rate",
             core::fmt(static_cast<double>(m.cache_hits + m.coalesced) /
                           static_cast<double>(total), 3)});
  t.print(std::cout);
  for (std::size_t rep = 0; rep < per_replica.size(); ++rep) {
    std::cout << "\nreplica " << rep << " (" << endpoints[rep] << "):\n";
    per_replica[rep].to_table().print(std::cout);
  }

  if (!json_path.empty()) {
    const auto num = [](double v) { return serve::format_double(v); };
    std::ostringstream os;
    os << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"transport\": \"" << (tcp ? "tcp" : "unix") << "\",\n"
       << "  \"replicas\": " << replicas << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"workers_per_replica\": " << resolved_workers << ",\n"
       << "  \"threads_used\": " << resolved_workers * replicas << ",\n"
       << "  \"client_processes\": " << clients << ",\n"
       << "  \"requests_per_client\": " << requests << ",\n"
       << "  \"total_requests\": " << total << ",\n"
       << "  \"distinct_models\": " << distinct << ",\n"
       << "  \"wall_s\": " << num(wall) << ",\n"
       << "  \"throughput_rps\": "
       << num(static_cast<double>(total) / wall) << ",\n"
       << "  \"latency_p50_ms\": " << num(percentile(agg.latencies, 0.50))
       << ",\n"
       << "  \"latency_p99_ms\": " << num(percentile(agg.latencies, 0.99))
       << ",\n"
       << "  \"routing_locality\": " << num(locality) << ",\n"
       << "  \"failover\": " << agg.failover << ",\n"
       << "  \"transport_errors\": " << agg.transport_errors << ",\n"
       << "  \"shed\": " << agg.overloaded << ",\n"
       << "  \"shed_rate\": " << num(shed_rate) << ",\n"
       << "  \"solves\": " << m.solves << ",\n"
       << "  \"coalesced\": " << m.coalesced << ",\n"
       << "  \"cache_hits\": " << m.cache_hits << ",\n"
       << "  \"failures\": " << (agg.failures + worker_failures) << ",\n"
       << "  \"mismatches\": " << agg.mismatches << "\n"
       << "}\n";
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "ERROR: cannot write " << json_path << "\n";
      return 1;
    }
    out << std::move(os).str();
  }

  // Self-validation: the acceptance properties of the routed, coalescing,
  // sharded cache.
  bool ok = true;
  if (worker_failures != 0 || agg.failures != 0) {
    std::cerr << "ERROR: " << (worker_failures + agg.failures)
              << " requests/workers failed\n";
    ok = false;
  }
  if (agg.mismatches != 0) {
    std::cerr << "ERROR: " << agg.mismatches
              << " responses differ from the direct in-process solve\n";
    ok = false;
  }
  if (m.solves != distinct) {
    std::cerr << "ERROR: expected exactly one solve per distinct model "
              << "across the fleet (" << distinct << "), got " << m.solves
              << " — duplicates did not all land on the owning replica\n";
    ok = false;
  }
  if (m.cache_hits + m.coalesced != total - distinct) {
    std::cerr << "ERROR: duplicates (" << (total - distinct)
              << ") != cache hits (" << m.cache_hits << ") + coalesced ("
              << m.coalesced << ")\n";
    ok = false;
  }
  if (agg.failover != 0 || locality < 1.0) {
    std::cerr << "ERROR: with every replica healthy all calls must hit the "
              << "ring owner (locality " << locality << ", failover "
              << agg.failover << ")\n";
    ok = false;
  }
  if (m.shed != 0 || agg.overloaded != 0) {
    std::cerr << "ERROR: " << (m.shed + agg.overloaded)
              << " requests shed with an oversized queue\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
