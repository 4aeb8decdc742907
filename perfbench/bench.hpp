// Shared pieces of the Multival benchmark program (mvbench): options, the
// result record every workload fills, small statistics helpers, and the
// span recorder behind the traced run.
//
// The benchmark measures the multival library from the outside: every span
// wraps one call the benchmark makes into a module's public function, and
// is named "<module>.<function>" so the per-layer table groups by module.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Fault planted at the observation boundary, so the checker's self-test
/// can show that each kind of wrong output raises the failure count.
enum class Inject { kNone, kBody, kStates, kStatus };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the checker self-test (every check still runs).
  bool tiny = false;
  Inject inject = Inject::kNone;
  /// Directory for the socket, the Chrome trace and the layer table.
  std::string out_dir = ".";
  /// Threads the statespace workload's exploration may use: the host's
  /// hardware concurrency.
  unsigned threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `failed` counts operations whose output
/// failed a check (or that returned a non-ok status), and `failures` keeps
/// the first messages; `notes` are extra lines for the human-readable log.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  /// Threads the run used, by role (for the provenance record).
  std::vector<std::pair<std::string, unsigned>> threads_used;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Reports the per-layer metrics of layers the workload never calls as
  /// explicit zeros ({name, unit} pairs).  run.py refuses a per-layer metric
  /// that is missing, so a metric a workload stops reporting cannot pass
  /// for zero work.
  void add_uncalled(
      std::initializer_list<std::pair<const char*, const char*>> uncalled) {
    for (const auto& [name, unit] : uncalled) {
      add(name, 0.0, unit);
    }
  }
  /// Records one failed check (keeps the first few messages).
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(what);
    }
  }
};

// ---- statistics ---------------------------------------------------------------

/// Quantile by linear interpolation between closest ranks (q in [0, 1]);
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mib();
/// Returns freed heap to the kernel and resets its peak-RSS mark to the
/// current RSS, so the next peak_rss_mib() covers only what follows.  Where
/// the kernel refuses, the peak also covers set-up.
void reset_peak_rss();

/// Deterministic generator for a workload's free choices.
[[nodiscard]] inline std::mt19937_64 make_rng(std::uint64_t seed,
                                              std::uint64_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream)};
  return std::mt19937_64(seq);
}

/// Set-up repetitions a workload takes before the timed phase, and again
/// after it.  Every workload's set-up takes a few milliseconds at most.
inline constexpr int kSetupReps = 40;

/// Set-up time samples, reported as their median.  Workloads repeat their
/// set-up before and after the timed phase, so that the median does not
/// rest on one moment of the host's load.
class SetupClock {
 public:
  template <typename Setup>
  void time(Setup&& setup) {
    const auto t0 = Clock::now();
    setup();
    samples_.push_back(ms_since(t0) / 1000.0);
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

// ---- tracing ------------------------------------------------------------------

struct Span {
  const char* name = "";   ///< "module.function"; static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same lane; -1 = root
  std::uint64_t id = 0;      ///< iteration or request id
};

class Trace;

/// The spans of one thread.  Not thread-safe: each thread records into its
/// own lane, and lanes are read only after their threads have joined.
class Lane {
 public:
  /// Closes its span when destroyed.  A disabled trace hands out empty
  /// scopes, so the untraced run pays one branch per call site.
  class Scope {
   public:
    Scope() = default;
    Scope(Lane* lane, std::size_t index) : lane_(lane), index_(index) {}
    ~Scope() {
      if (lane_ != nullptr) {
        lane_->close(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Lane* lane_ = nullptr;
    std::size_t index_ = 0;
  };

  Lane(const Trace* trace, bool enabled, int tid)
      : trace_(trace), enabled_(enabled), tid_(tid) {}

  [[nodiscard]] Scope open(const char* name, std::uint64_t id = 0);
  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::size_t index);

  const Trace* trace_;
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Per-name (or per-module) aggregate of the recorded spans.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time covered by child spans
};

/// Name of the root span around each timed operation; coverage is computed
/// under these roots only.
inline constexpr const char* kTimedRoot = "bench.timed";

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// A fresh lane for the calling thread (stable address).
  [[nodiscard]] Lane& lane();
  /// A lane whose spans are never recorded (for untraced iterations).
  [[nodiscard]] static Lane& off();

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Self time and counts per span name (by_module=false) or per module,
  /// the name up to its first '.' (by_module=true).  Only spans under
  /// kTimedRoot roots when @p timed_only.
  [[nodiscard]] std::vector<LayerRow> rows(bool by_module,
                                           bool timed_only) const;
  /// Total self time (ms) of spans named @p name, and their count.
  [[nodiscard]] LayerRow row(const std::string& name) const;
  /// Share of the kTimedRoot wall time covered by the self time of spans
  /// outside the benchmark's own "bench" module.
  [[nodiscard]] double coverage() const;
  [[nodiscard]] std::size_t span_count() const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<Lane> lanes_;  // guarded by mu_ for insertion only
};

// ---- workloads ----------------------------------------------------------------

Outcome run_dse_sweep(const Options& opts, Trace& trace);
Outcome run_statespace(const Options& opts, Trace& trace);
Outcome run_serve_solve(const Options& opts, Trace& trace);

}  // namespace perfbench
