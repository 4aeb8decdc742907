// bench_dse — replays a fixed design-space sweep against the in-process
// evaluation service and records the repo's perf-trajectory files:
//
//   BENCH_DSE.json    sweep-level numbers (points/sec, probe latency
//                     p50/p99, shed rate, cache hit ratio, front size)
//   BENCH_SERVE.json  the raw serve::ServiceMetrics counter dump
//
// The sweep is submitted --repeat times (default 2): the first pass does
// the distinct solves, later passes are pure cache-hit traffic, so the
// run exercises exactly the duplicate-heavy load the service is built for.
//
// Self-validation (exit 1 on violation):
//   - every swept point evaluates to "ok" (no kInvalid / kTimeout / shed),
//   - the service solved each distinct content hash exactly once
//     (solves == distinct keys), i.e. duplicates never reach a solver.
//
// Flags: --smoke (tiny sweep for CI, <=30s)  --builtin <default|smoke>
//        -j N  --repeat N  --json PATH  --serve-json PATH
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "cli_util.hpp"
#include "core/sync.hpp"
#include "core/report.hpp"
#include "dse/driver.hpp"
#include "dse/grid.hpp"
#include "serve/solvers.hpp"

namespace {

using namespace multival;

std::string num(double v) { return serve::format_double(v); }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write " + path);
  }
  os << text;
}

std::string dse_json(const dse::SweepResult& r, unsigned repeat,
                     unsigned threads_used, double points_per_sec,
                     double cache_hit_ratio, double shed_rate) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"dse\",\n"
     << "  \"sweep\": \"" << r.name << "\",\n"
     << "  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n"
     << "  \"threads_used\": " << threads_used << ",\n"
     << "  \"raw_points\": " << r.raw_points << ",\n"
     << "  \"pruned\": " << r.pruned << ",\n"
     << "  \"evaluated\": " << r.points.size() << ",\n"
     << "  \"front_size\": " << r.front.size() << ",\n"
     << "  \"families\": {\n";
  // Per-family slice: how much of the grid each generator family
  // contributes, and how many of its points survive to the Pareto front.
  std::map<std::string, std::pair<std::size_t, std::size_t>> families;
  for (const dse::PointResult& p : r.points) {
    auto& [evaluated, on_front] = families[p.point.family];
    ++evaluated;
    if (p.rank == 0) ++on_front;
  }
  for (auto it = families.begin(); it != families.end(); ++it) {
    os << "    \"" << it->first << "\": {\"evaluated\": " << it->second.first
       << ", \"on_front\": " << it->second.second << "}"
       << (std::next(it) == families.end() ? "\n" : ",\n");
  }
  os << "  },\n"
     << "  \"probes_per_pass\": " << r.probes_submitted << ",\n"
     << "  \"repeat\": " << repeat << ",\n"
     << "  \"distinct_keys\": " << r.distinct_keys << ",\n"
     << "  \"solves\": " << r.service.solves << ",\n"
     << "  \"pipeline_hits\": " << r.pipeline.hits << ",\n"
     << "  \"pipeline_misses\": " << r.pipeline.misses << ",\n"
     << "  \"pipeline_evictions\": " << r.pipeline.evictions << ",\n"
     << "  \"cache_hit_ratio\": " << num(cache_hit_ratio) << ",\n"
     << "  \"shed_rate\": " << num(shed_rate) << ",\n"
     << "  \"latency_p50_ms\": " << num(r.service.latency_p50_ms) << ",\n"
     << "  \"latency_p99_ms\": " << num(r.service.latency_p99_ms) << ",\n"
     << "  \"wall_ms\": " << num(r.wall_ms) << ",\n"
     << "  \"points_per_sec\": " << num(points_per_sec) << "\n"
     << "}\n";
  return std::move(os).str();
}

std::string serve_json(const serve::ServiceMetrics& m) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"serve\",\n"
     << "  \"accepted\": " << m.accepted << ",\n"
     << "  \"completed_ok\": " << m.completed_ok << ",\n"
     << "  \"failed\": " << m.failed << ",\n"
     << "  \"invalid\": " << m.invalid << ",\n"
     << "  \"shed\": " << m.shed << ",\n"
     << "  \"timed_out\": " << m.timed_out << ",\n"
     << "  \"coalesced\": " << m.coalesced << ",\n"
     << "  \"cache_hits\": " << m.cache_hits << ",\n"
     << "  \"solves\": " << m.solves << ",\n"
     << "  \"solve_errors\": " << m.solve_errors << ",\n"
     << "  \"queue_wait_p50_ms\": " << num(m.queue_wait_p50_ms) << ",\n"
     << "  \"queue_wait_p99_ms\": " << num(m.queue_wait_p99_ms) << ",\n"
     << "  \"solve_p50_ms\": " << num(m.solve_p50_ms) << ",\n"
     << "  \"solve_p99_ms\": " << num(m.solve_p99_ms) << ",\n"
     << "  \"latency_p50_ms\": " << num(m.latency_p50_ms) << ",\n"
     << "  \"latency_p99_ms\": " << num(m.latency_p99_ms) << ",\n"
     << "  \"cache_insertions\": " << m.cache.insertions << ",\n"
     << "  \"cache_evictions\": " << m.cache.evictions << "\n"
     << "}\n";
  return std::move(os).str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string builtin = "default";
  std::string json_path = "BENCH_DSE.json";
  std::string serve_json_path = "BENCH_SERVE.json";
  dse::DriverOptions opts;
  opts.repeat = 2;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--smoke") {
        builtin = "smoke";
      } else if (a == "--builtin" && i + 1 < argc) {
        builtin = argv[++i];
      } else if (a == "-j" && i + 1 < argc) {
        opts.workers = cli::parse_unsigned(argv[++i], "worker count");
      } else if (a == "--repeat" && i + 1 < argc) {
        opts.repeat = cli::parse_unsigned(argv[++i], "repeat count");
        if (opts.repeat == 0) {
          throw cli::UsageError("bench_dse: --repeat must be >= 1");
        }
      } else if (a == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else if (a == "--serve-json" && i + 1 < argc) {
        serve_json_path = argv[++i];
      } else {
        throw cli::UsageError("bench_dse: unknown flag " + a);
      }
    }
  } catch (const cli::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n"
              << "usage: bench_dse [--smoke] [--builtin <default|smoke>] "
                 "[-j N] [--repeat N] [--json PATH] [--serve-json PATH]\n";
    return 2;
  }

  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec(builtin));
  const dse::SweepResult r = dse::run_sweep(spec, opts);

  const double total_requests = static_cast<double>(r.service.accepted);
  const double cache_hit_ratio =
      total_requests > 0.0
          ? static_cast<double>(r.service.cache_hits + r.service.coalesced) /
                total_requests
          : 0.0;
  const double shed_rate =
      total_requests > 0.0
          ? static_cast<double>(r.service.shed) / total_requests
          : 0.0;
  const double points_per_sec =
      r.wall_ms > 0.0
          ? static_cast<double>(r.points.size()) / (r.wall_ms / 1000.0)
          : 0.0;

  core::Table t("dse sweep benchmark (" + r.name + ")", {"metric", "value"});
  t.add_row({"grid points", std::to_string(r.raw_points)});
  t.add_row({"pruned", std::to_string(r.pruned)});
  t.add_row({"evaluated", std::to_string(r.points.size())});
  t.add_row({"Pareto front", std::to_string(r.front.size())});
  t.add_row({"probes/pass", std::to_string(r.probes_submitted)});
  t.add_row({"passes", std::to_string(opts.repeat)});
  t.add_row({"distinct sub-models", std::to_string(r.distinct_keys)});
  t.add_row({"solves", std::to_string(r.service.solves)});
  t.add_row({"cache hit ratio", core::fmt(cache_hit_ratio, 3)});
  t.add_row({"shed rate", core::fmt(shed_rate, 3)});
  t.add_row({"latency p50 (ms)", core::fmt(r.service.latency_p50_ms, 3)});
  t.add_row({"latency p99 (ms)", core::fmt(r.service.latency_p99_ms, 3)});
  t.add_row({"wall (ms)", core::fmt(r.wall_ms, 1)});
  t.add_row({"points/sec", core::fmt(points_per_sec, 1)});
  t.print(std::cout);

  write_file(json_path,
             dse_json(r, opts.repeat,
                      opts.workers != 0 ? opts.workers
                                        : core::hardware_threads(),
                      points_per_sec, cache_hit_ratio, shed_rate));
  write_file(serve_json_path, serve_json(r.service));
  std::cout << "written to " << json_path << " and " << serve_json_path
            << "\n";

  // Self-validation.
  bool ok = true;
  for (const dse::PointResult& p : r.points) {
    if (p.status != "ok") {
      std::cerr << "ERROR: point " << p.point.id << " ended '" << p.status
                << "'\n";
      ok = false;
    }
  }
  if (r.service.solves != r.distinct_keys) {
    std::cerr << "ERROR: expected exactly one solve per distinct content "
                 "hash ("
              << r.distinct_keys << "), got " << r.service.solves << "\n";
    ok = false;
  }
  if (r.service.shed != 0 || r.service.timed_out != 0 ||
      r.service.invalid != 0 || r.service.failed != 0) {
    std::cerr << "ERROR: service rejected work (shed " << r.service.shed
              << ", timeout " << r.service.timed_out << ", invalid "
              << r.service.invalid << ", failed " << r.service.failed
              << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
