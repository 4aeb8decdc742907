// The DSE orchestrator: expand the sweep grid, gate every point through the
// analyze lint, run all probes concurrently through the serve tier, and
// rank the metric vectors into Pareto fronts.
//
// Evaluation backends:
//   - in-process (default): one serve::Service owns the worker pool; all
//     probes of the sweep are submitted asynchronously, so duplicate
//     sub-models coalesce and hit the content-addressed cache, and the
//     service counters (solves, cache hits, shed...) are reported in the
//     SweepResult;
//   - socket (DriverOptions::socket non-empty): one serve::RoutedClient per
//     driver worker thread against one or more running `multival_cli serve`
//     replicas (Unix or TCP, comma-separated), routed by content hash;
//     service counters live server-side and are not included.
//
// Determinism contract: expansion order, probe content hashes, solve
// bodies, metric vectors, Pareto ranks and the JSON/CSV renderings (with
// include_timing=false) are byte-identical across reruns, worker counts and
// backends.  Only "_ms"-suffixed fields and the raw service counter block
// depend on scheduling; to_json() drops exactly those when timing is off.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "dse/grid.hpp"
#include "dse/pareto.hpp"
#include "dse/scenario.hpp"
#include "serve/service.hpp"

namespace multival::dse {

struct DriverOptions {
  /// Service worker threads (in-process) or client threads (socket);
  /// 0 = core::parallel_threads().
  unsigned workers = 0;
  /// Non-empty: evaluate over the serve transport instead of in-process.
  /// One endpoint (Unix path or "host:port"), or a comma-separated replica
  /// list — probes are then routed by their content hash over the
  /// consistent-hash ring (serve::Router), so duplicate sub-models land on
  /// the replica that owns their cache entry.
  std::string socket;
  /// Waiting budget when connecting to --socket (exponential backoff).
  std::chrono::milliseconds connect_timeout{5000};
  /// Per-probe solve deadline.
  std::chrono::milliseconds deadline{30000};
  /// Submissions of the full probe set; passes beyond the first are served
  /// from the cache (bench_dse uses this to generate cache-hit traffic).
  unsigned repeat = 1;
  /// How the probe payload LTSs are built: planned generate–minimise–
  /// compose (default) or the monolithic flat baseline (`dse --flat`).
  compose::Strategy strategy = compose::Strategy::kPlanned;
  /// Byte budget of the pipeline (minimisation/subtree) cache shared by all
  /// points of the sweep.
  std::size_t pipeline_cache_bytes = 32u << 20;
};

/// Provenance of one serve request derived from a point.
struct ProbeResult {
  std::string name;          ///< "latency" | "throughput"
  std::string verb;
  std::string key;           ///< content hash of the prepared request (hex)
  std::size_t imc_states = 0;
  bool duplicate = false;    ///< an earlier probe in this sweep has the same
                             ///< key, so this one never reaches a solver
  serve::Status status = serve::Status::kError;
  std::string body;
  double wall_ms = 0.0;      ///< submit-to-completion (timing field)
};

struct PointResult {
  Point point;
  /// "ok" | "gated" (lint errors; never submitted) | "error" (a probe
  /// returned a non-kOk status).
  std::string status;
  std::vector<std::string> gate_errors;  ///< rendered blocking diagnostics
  std::size_t model_states = 0;
  Metrics metrics;   ///< valid when status == "ok"
  int rank = -1;     ///< Pareto rank over the "ok" points; -1 otherwise
  std::vector<ProbeResult> probes;
};

struct SweepResult {
  std::string name;
  std::vector<Objective> objectives;
  std::size_t raw_points = 0;  ///< cross-product size before pruning
  std::size_t pruned = 0;      ///< points removed by constraints
  std::vector<PointResult> points;  ///< expansion order
  std::vector<std::string> front;   ///< rank-0 point ids, expansion order
  std::size_t distinct_keys = 0;    ///< distinct probe content hashes
  std::size_t probes_submitted = 0; ///< per pass; repeat passes multiply
  bool have_service_metrics = false;  ///< in-process backend only
  serve::ServiceMetrics service;
  /// The service's solver totals (in-process backend only).
  core::SolveAggregate solver;
  /// Counters of the sweep-wide pipeline cache (instantiation reuses
  /// minimised components across points; deterministic, both backends).
  compose::MinimizeCache::Stats pipeline;
  double wall_ms = 0.0;

  /// True when every evaluated point reached "ok".
  [[nodiscard]] bool all_ok() const;
};

/// Runs the sweep.  Throws SpecError on a malformed spec (unknown family,
/// axis or metric) — per-point solver failures are reported in the result,
/// not thrown.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const DriverOptions& options = {});

[[nodiscard]] std::string to_json(const SweepResult& r, bool include_timing);
[[nodiscard]] std::string to_csv(const SweepResult& r);

/// Human-readable ranking: all "ok" points sorted by (rank, expansion
/// order) with their metric vectors.
[[nodiscard]] core::Table front_table(const SweepResult& r);

}  // namespace multival::dse
