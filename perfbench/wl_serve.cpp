// Workload serve-solve: closed-loop traffic from two client threads, each
// holding one serve::Client connection, against an in-process serve::Server
// (2 service workers) on a Unix socket.  Every request is a distinct
// throughput request on a birth-death IMC (rho = 0.9, 250/500/1000 states in
// rotation, rates drawn from the seed), so every request misses the cache
// and is solved: the write side of the serve layer.
//
// A fresh server serves every timed phase.  The traced run times an
// untraced phase and a traced phase on two fresh servers, then splits the
// server-side work by calling prepare_request, Prepared::setup and
// Prepared::run_shared in-process on the same requests.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/report.hpp"
#include "dse/driver.hpp"
#include "serve/server.hpp"
#include "serve/solvers.hpp"

namespace perfbench {

namespace mv = multival;

namespace {

constexpr unsigned kServiceWorkers = 2;
constexpr unsigned kClients = 2;
/// ServiceMetrics keeps its first 65,536 latency samples only; a traced
/// phase stops short of that so the service percentiles stay live.
constexpr std::uint64_t kReservoir = 65536;
constexpr std::chrono::milliseconds kDeadline{30000};

/// An in-process server on a Unix socket, with its accept thread.
class LocalServer {
 public:
  LocalServer(std::string path, unsigned workers) : path_(std::move(path)) {
    mv::serve::ServerOptions so;
    so.endpoint = path_;
    so.service.workers = workers;
    server_ = std::make_unique<mv::serve::Server>(so);
    thread_ = std::thread([this] { server_->run(); });
    // Started means accepting: a ping must come back.
    try {
      mv::serve::Client probe(path_, std::chrono::milliseconds(5000));
      mv::serve::Request ping;
      ping.id = 1;
      ping.verb = mv::serve::Verb::kPing;
      if (probe.call(ping).status != mv::serve::Status::kOk) {
        throw std::runtime_error("server did not answer ping");
      }
    } catch (...) {
      shut_down();
      throw;
    }
  }
  ~LocalServer() { shut_down(); }
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] mv::serve::ServiceMetrics metrics() {
    return server_->service().metrics();
  }

 private:
  void shut_down() {
    server_->stop();
    // A connection wakes the accept loop, which otherwise sees the stop
    // only at its next 100 ms poll timeout.  If the connect fails, the loop
    // still stops at that timeout, so the error needs no handling.
    try {
      mv::serve::Client wake(path_, std::chrono::milliseconds(0));
    } catch (const std::exception&) {
    }
    thread_.join();
    ::unlink(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<mv::serve::Server> server_;
  std::thread thread_;
};

std::string socket_path(const Options& opts) {
  static int counter = 0;
  return opts.out_dir + "/mv-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

/// One request of the global sequence: its wire form plus what the check
/// needs to know about it.
using MakeRequest = std::function<mv::serve::Request(std::uint64_t)>;
/// Returns an error message when the response to request @p i is wrong.
using CheckResponse = std::function<std::optional<std::string>(
    std::uint64_t, const mv::serve::Response&)>;

struct Phase {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  double wall_s = 0.0;
};

/// Closed loop: each client sends its next request only after the previous
/// reply; clients draw request indices from one shared counter until the
/// time (or the request cap) runs out.
Phase run_clients(const std::string& path, double seconds,
                  std::uint64_t max_requests, const MakeRequest& make,
                  const CheckResponse& check, Trace& trace, bool traced,
                  Outcome& out) {
  std::atomic<std::uint64_t> next{0};
  std::mutex mu;  // guards the merge into `phase` and `out`
  Phase phase;
  const auto t0 = Clock::now();
  const auto stop_at =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<Lane*> lanes;
  for (unsigned c = 0; c < kClients; ++c) {
    lanes.push_back(traced ? &trace.lane() : &Trace::off());
  }
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Lane& lane = *lanes[c];
      std::vector<double> lat;
      std::uint64_t attempted = 0;
      std::vector<std::string> errors;
      try {
        mv::serve::Client client(path, std::chrono::milliseconds(5000));
        auto root = lane.open(kTimedRoot, c);
        for (;;) {
          if (Clock::now() >= stop_at) {
            break;
          }
          const std::uint64_t i = next.fetch_add(1);
          if (i >= max_requests) {
            break;
          }
          const mv::serve::Request request = make(i);
          ++attempted;
          mv::serve::Response response;
          const auto s0 = Clock::now();
          {
            auto s = lane.open("serve.call", i);
            response = client.call(request);
          }
          lat.push_back(ms_since(s0));
          if (auto err = check(i, response)) {
            errors.push_back(*err);
          }
        }
      } catch (const std::exception& e) {
        ++attempted;
        errors.push_back(std::string("transport: ") + e.what());
      }
      std::lock_guard<std::mutex> lock(mu);
      phase.latency_ms.insert(phase.latency_ms.end(), lat.begin(), lat.end());
      phase.attempted += attempted;
      for (const std::string& e : errors) {
        out.fail(e);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  phase.wall_s = ms_since(t0) / 1000.0;
  out.attempted += phase.attempted;
  return phase;
}

/// Adds the per-layer metrics read from the service of a traced phase.
void add_service_layers(const mv::serve::ServiceMetrics& m,
                        const Phase& traced, const Phase& untraced,
                        Trace& trace, Outcome& out) {
  const bool frozen = m.accepted >= kReservoir;
  if (frozen) {
    out.notes.push_back("service percentiles frozen: " +
                        std::to_string(m.accepted) + " samples >= " +
                        std::to_string(kReservoir));
  }
  const double client_p50 = median(traced.latency_ms);
  const double reused = static_cast<double>(m.cache_hits + m.coalesced);
  out.add("serve.service_p50_ms", m.latency_p50_ms, "ms");
  out.add("serve.queue_wait_p50_ms", m.queue_wait_p50_ms, "ms");
  out.add("serve.queue_wait_p99_ms", m.queue_wait_p99_ms, "ms");
  out.add("serve.transport_p50_ms", client_p50 - m.latency_p50_ms, "ms");
  out.add("serve.reservoir_full", frozen ? 1.0 : 0.0, "count");
  out.add("serve.solves", static_cast<double>(m.solves), "count");
  out.add("serve.reused", reused, "count");
  out.add("serve.hit_ratio",
          m.accepted == 0 ? 0.0 : reused / static_cast<double>(m.accepted),
          "ratio");
  out.add("trace.overhead_share",
          (client_p50 - median(untraced.latency_ms)) /
              median(untraced.latency_ms),
          "ratio");
  out.notes.push_back(
      "traced phase service: " + std::to_string(m.accepted) + " accepted, " +
      std::to_string(m.solves) + " solves, " + std::to_string(m.cache_hits) +
      " cache hits, " + std::to_string(m.coalesced) + " coalesced");
  const LayerRow prep = trace.row("serve.prepare_request");
  out.add("serve.prepare_us",
          prep.count == 0 ? 0.0 : prep.self_ms * 1000.0 / prep.count, "us");
}

/// End-to-end metrics of an untraced phase.
void add_client_metrics(const Phase& p, double setup_s, double rss_mib,
                        Outcome& out) {
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", rss_mib, "MiB");
  out.add("latency_p50_ms", median(p.latency_ms), "ms");
  out.add("ops_per_s", static_cast<double>(p.latency_ms.size()) / p.wall_s,
          "1/s");
  const double beyond =
      std::floor(static_cast<double>(p.latency_ms.size()) * 0.1);
  out.notes.push_back("quantiles p10 " + std::to_string(quantile(p.latency_ms, 0.1)) +
                      " p25 " + std::to_string(quantile(p.latency_ms, 0.25)) +
                      " p50 " + std::to_string(quantile(p.latency_ms, 0.5)));
  out.notes.push_back("p90 " + std::to_string(quantile(p.latency_ms, 0.9)) +
                      " ms over " + std::to_string(p.latency_ms.size()) +
                      " requests (" + std::to_string(static_cast<long>(beyond)) +
                      " beyond)");
}

constexpr double kRho = 0.9;

struct Chain {
  int n = 0;
  double lambda = 0.0;
  double mu = 0.0;

  /// Birth-death IMC over states 0..n-1: ARR at rate lambda up, DEP at
  /// rate mu down.
  [[nodiscard]] std::string payload() const {
    const std::string up = "\"ARR; rate " + mv::serve::format_double(lambda) + "\"";
    const std::string down = "\"DEP; rate " + mv::serve::format_double(mu) + "\"";
    std::ostringstream s;
    s << "des (0, " << 2 * (n - 1) << ", " << n << ")\n";
    for (int i = 0; i + 1 < n; ++i) {
      s << "(" << i << ", " << up << ", " << i + 1 << ")\n";
      s << "(" << i + 1 << ", " << down << ", " << i << ")\n";
    }
    return std::move(s).str();
  }

  /// Closed form of throughput(DEP): mu * (1 - pi_0), with
  /// pi_0 = (1 - rho) / (1 - rho^n).
  [[nodiscard]] double throughput() const {
    const double rho = lambda / mu;
    const double pi0 = (1.0 - rho) / (1.0 - std::pow(rho, n));
    return mu * (1.0 - pi0);
  }
};

/// Request i of the seed's sequence: sizes rotate so every run serves the
/// same mix; the rates are drawn from the seed, so every key is new.
Chain chain_for(const Options& opts, std::uint64_t i) {
  static const int kSizes[] = {250, 500, 1000};
  static const int kTinySizes[] = {20, 40, 80};
  std::mt19937_64 rng = make_rng(opts.seed, 1000 + i);
  Chain c;
  c.n = (opts.tiny ? kTinySizes : kSizes)[i % 3];
  c.mu = std::uniform_real_distribution<double>(1.0, 8.0)(rng);
  c.lambda = kRho * c.mu;
  return c;
}

mv::serve::Request solve_request_for(const Options& opts, std::uint64_t i) {
  mv::serve::Request r;
  r.id = i + 1;
  r.verb = mv::serve::Verb::kThroughput;
  r.deadline = kDeadline;
  r.arg = "DEP";
  r.payload = chain_for(opts, i).payload();
  return r;
}

}  // namespace

Outcome run_serve_solve(const Options& opts, Trace& trace) {
  using namespace mv;
  Outcome out;
  std::unique_ptr<LocalServer> server;
  SetupClock setup;
  const auto start = [&] {
    server.reset();  // untimed: the previous repetition's server stops
    setup.time([&] {
      server = std::make_unique<LocalServer>(socket_path(opts),
                                             kServiceWorkers);
    });
  };
  for (int i = 0; i < kSetupReps; ++i) {
    start();
  }

  std::mutex served_mu;
  std::map<std::uint64_t, std::string> served;  // traced phase bodies
  double max_abs_error = 0.0;
  bool keep_bodies = false;
  const MakeRequest make = [&](std::uint64_t i) {
    return solve_request_for(opts, i);
  };
  const CheckResponse check =
      [&](std::uint64_t i,
          const serve::Response& resp) -> std::optional<std::string> {
    serve::Status status = resp.status;
    std::string body = resp.body;
    if (i == 0 && opts.inject == Inject::kStatus) {
      status = serve::Status::kError;
    }
    if (i == 0 && opts.inject == Inject::kBody &&
        body.find("= ") != std::string::npos) {
      body[body.find("= ") + 2] ^= 1;  // the leading digit of the value
    }
    if (status != serve::Status::kOk) {
      return "serve-solve: request " + std::to_string(i + 1) + " status " +
             std::string(serve::to_string(status));
    }
    const double expect = chain_for(opts, i).throughput();
    double got = 0.0;
    try {
      got = dse::parse_throughput(body);
    } catch (const std::exception&) {
      return "serve-solve: request " + std::to_string(i + 1) +
             " body does not parse: " + body;
    }
    std::lock_guard<std::mutex> lock(served_mu);
    max_abs_error = std::max(max_abs_error, std::fabs(got - expect));
    if (keep_bodies) {
      served[i] = body;
    }
    if (!(std::fabs(got - expect) <= 1e-6 * expect)) {
      return "serve-solve: request " + std::to_string(i + 1) + " throughput " +
             serve::format_double(got) + ", closed form " +
             serve::format_double(expect);
    }
    return std::nullopt;
  };

  out.threads_used = {{"clients", kClients},
                      {"service_workers", kServiceWorkers}};
  reset_peak_rss();
  core::clear_solve_log();
  core::clear_generation_log();
  const double phase_s = trace.enabled() ? opts.seconds / 2 : opts.seconds;
  const Phase untraced = run_clients(server->path(), phase_s, UINT64_MAX, make,
                                     check, trace, false, out);
  if (!trace.enabled()) {
    // More set-up samples after the timed phase; the peak RSS is read first.
    const double rss = peak_rss_mib();
    for (int i = 0; i < kSetupReps; ++i) {
      start();
    }
    add_client_metrics(untraced, setup.median_s(), rss, out);
    return out;
  }
  // The traced phase continues the request sequence on a fresh server, so
  // its keys are new too.
  start();
  max_abs_error = 0.0;
  keep_bodies = true;
  const std::uint64_t base = untraced.attempted;
  const MakeRequest make_b = [&](std::uint64_t i) { return make(base + i); };
  const CheckResponse check_b = [&](std::uint64_t i,
                                    const serve::Response& r) {
    return check(base + i, r);
  };
  const Phase traced = run_clients(server->path(), phase_s, kReservoir, make_b,
                                   check_b, trace, true, out);
  const serve::ServiceMetrics m = server->metrics();
  server.reset();

  // Server-side split on the first requests of the traced phase (two of
  // each size): prepare, close the IMC (setup) and solve (run_shared);
  // each body must equal the served one byte for byte.
  core::clear_solve_log();
  std::size_t split = 0;
  {
    Lane& lane = trace.lane();
    auto root = lane.open("bench.split");
    for (std::uint64_t i = 0; i < 6 && i < traced.latency_ms.size(); ++i) {
      const serve::Request r = make_b(i);
      serve::Prepared p;
      std::shared_ptr<void> shared;
      std::string body;
      {
        auto s = lane.open("serve.prepare_request", i);
        p = serve::prepare_request(r);
      }
      {
        auto s = lane.open("imc.setup", i);
        shared = p.setup();
      }
      {
        auto s = lane.open("markov.run_shared", i);
        body = p.run_shared(shared.get());
      }
      ++split;
      const auto it = served.find(base + i);
      if (it == served.end() || it->second != body) {
        out.fail("serve-solve (traced): request " + std::to_string(base + i + 1) +
                 " served body differs from the in-process solve");
      }
    }
  }
  double iterations = 0.0;
  for (const core::SolveStat& s : core::solve_log()) {
    iterations += static_cast<double>(s.iterations);
  }
  const double k = split == 0 ? 1.0 : static_cast<double>(split);
  add_service_layers(m, traced, untraced, trace, out);
  out.add("imc.close_ms", trace.row("imc.setup").self_ms / k, "ms");
  out.add("markov.steady_ms", trace.row("markov.run_shared").self_ms / k, "ms");
  out.add("markov.iterations", iterations / k, "count");
  out.add("markov.abs_error", max_abs_error, "abs");
  out.add_uncalled({{"dse.expand_ms", "ms"},
                    {"dse.instantiate_ms", "ms"},
                    {"dse.instantiate.fame_ms", "ms"},
                    {"dse.instantiate.noc_ms", "ms"},
                    {"dse.instantiate.xmas_ms", "ms"},
                    {"dse.instantiate.xstream_ms", "ms"},
                    {"analyze.lint_ms", "ms"},
                    {"compose.cache_hits", "count"},
                    {"compose.cache_misses", "count"},
                    {"serve.dispatch.pass1_ms", "ms"},
                    {"serve.dispatch.pass2_ms", "ms"},
                    {"proc.generate_ms", "ms"},
                    {"proc.states_per_s", "1/s"},
                    {"explore.explore_ms", "ms"},
                    {"explore.peak_frontier", "count"},
                    {"explore.dedup_hits", "count"},
                    {"compose.evaluate_ms", "ms"},
                    {"compose.peak_states", "count"},
                    {"bisim.minimize_ms", "ms"},
                    {"bisim.states_out", "count"}});
  return out;
}

}  // namespace perfbench
