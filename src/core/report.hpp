// Small text-report helpers shared by the examples and the benchmark
// harness: aligned tables and number formatting, so every experiment binary
// prints its rows the same way.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/sync.hpp"

namespace multival::core {

/// A titled table with aligned columns.
class Table {
 public:
  Table(std::string title, std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// ---- generation log ---------------------------------------------------------
//
// Every state-space generation (case-study models, compositional pipeline
// steps, the exploration engine) reports its wall time and sizes here, so
// that the different generation paths stay comparable in one table.

/// One model-generation measurement.
struct GenerationStat {
  std::string model;
  std::size_t states = 0;
  std::size_t transitions = 0;
  double seconds = 0.0;
};

/// Appends @p stat to the process-wide generation log.  Thread-safe.
void record_generation(GenerationStat stat);

/// Snapshot of the log, in recording order.  Thread-safe.
[[nodiscard]] std::vector<GenerationStat> generation_log();

/// Clears the log (tests and benchmark sections).
void clear_generation_log();

/// Renders the log: model | states | transitions | time (ms) | states/s.
[[nodiscard]] Table generation_table();

/// Runs @p build, records its wall time and the result's
/// num_states()/num_transitions() under @p model, and returns the result.
template <typename Build>
auto timed_generation(const std::string& model, Build&& build) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = build();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  record_generation(GenerationStat{model, result.num_states(),
                                   result.num_transitions(), seconds});
  return result;
}

// ---- solver log -------------------------------------------------------------
//
// Every numerical solve (steady state, transient, absorption, interval
// iteration over schedulers) reports its iteration count, certified
// residual / interval width and wall time here, so solver behaviour is
// observable from every experiment binary and from the CLI.

/// One numerical-solve measurement.
struct SolveStat {
  std::string solver;    ///< e.g. "interval_reach[max]"
  std::string context;   ///< model label from the enclosing SolveContext
  std::size_t states = 0;
  std::size_t iterations = 0;
  /// Final certified interval width (interval iteration) or last sweep
  /// delta (classical iterations).
  double residual = 0.0;
  double seconds = 0.0;
};

/// Appends @p stat to the process-wide solve log (tagging it with the
/// current SolveContext), or folds it into this thread's SolveSink when one
/// is installed.  Thread-safe; the log is capped, see solve_log_dropped().
void record_solve(SolveStat stat);

/// Snapshot of the log, in recording order.  Thread-safe.
[[nodiscard]] std::vector<SolveStat> solve_log();

/// Number of records dropped because the log cap was reached.
[[nodiscard]] std::size_t solve_log_dropped();

/// Clears the log and the dropped counter.
void clear_solve_log();

/// Renders the log: solver | model | states | iters | residual | time (ms).
[[nodiscard]] Table solve_table();

/// RAII label for solve records: solves performed while a SolveContext is
/// alive on this thread carry its name in their `context` column.  Nests
/// (innermost wins).
class SolveContext {
 public:
  explicit SolveContext(std::string name);
  ~SolveContext();
  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;

  /// The innermost active context name on this thread ("" if none).
  [[nodiscard]] static const std::string& current();

 private:
  std::string previous_;
};

/// Order-independent fold of solve records: how many, their summed
/// iterations and their largest residual.
struct SolveAggregate {
  std::size_t solves = 0;
  std::size_t iterations = 0;
  double max_residual = 0.0;
};

/// A thread-safe SolveAggregate that a long-lived component (a serve
/// Service) folds its solves into instead of the capped process-wide log.
/// Installed per thread by SolveSink::Scope.
class SolveSink {
 public:
  /// RAII: while alive, record_solve on this thread folds into the sink and
  /// leaves the process-wide log alone.  Nests (innermost wins).
  class Scope {
   public:
    explicit Scope(SolveSink& sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SolveSink* previous_;
  };

  void fold(const SolveStat& stat);
  [[nodiscard]] SolveAggregate totals() const;

 private:
  mutable Mutex mu_;
  SolveAggregate totals_ MV_GUARDED_BY(mu_);
};

/// Fixed-precision formatting of a double ("3.1416"); "inf" for infinities.
[[nodiscard]] std::string fmt(double v, int precision = 4);

/// Scientific-ish compact formatting ("1.2e-05").
[[nodiscard]] std::string fmt_sci(double v, int precision = 2);

/// "x (+/- y)" for simulation estimates.
[[nodiscard]] std::string fmt_ci(double mean, double half_width,
                                 int precision = 4);

}  // namespace multival::core
