// Interval iteration: the one loop behind every certified unbounded-horizon
// solve (CTMC reachability, expected time and rewards, and the IMC
// scheduler bounds).  A solver brings its graph precomputation, its
// Gauss–Seidel units and its backup Φ; this kernel owns the sweeps, the
// two bound vectors, the stop rule, the max_iterations budget, the failure
// and the core::solve_log record.
//
// Φ is monotone, so a lower vector stays below the fixpoint under
// Gauss–Seidel sweeps and an upper vector with Φ(U) ≤ U stays above it.
// Iteration stops only when every unit's interval is narrower than the
// tolerance, so the returned midpoints are certified to tolerance/2.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "markov/steady.hpp"

namespace multival::markov::interval {

/// What the iterated values are; it fixes the stop rule.
enum class Quantity {
  /// Values in [0, 1]: stop on absolute width.
  kProbability,
  /// Unbounded values: stop on width relative to max(1, largest value),
  /// since an absolute tolerance of ~1e-12 sits below one ulp of values
  /// ~1e3 and would never trigger.
  kTime,
};

/// Gauss–Seidel units in sweep order.  A unit is usually one state; a
/// unit of several states shares one value (min expected time over IMC
/// schedulers collapses each zero-delay interactive SCC into one).
class Units {
 public:
  void add(std::uint32_t state) { add({&state, 1}); }
  void add(std::span<const std::uint32_t> states) {
    states_.insert(states_.end(), states.begin(), states.end());
    offsets_.push_back(static_cast<std::uint32_t>(states_.size()));
  }
  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] std::span<const std::uint32_t> operator[](std::size_t u) const {
    return {states_.data() + offsets_[u], states_.data() + offsets_[u + 1]};
  }

 private:
  std::vector<std::uint32_t> states_;
  std::vector<std::uint32_t> offsets_{0};
};

/// The default after-sweeps hook of Solve::contract.
struct NoHook {
  void operator()(std::vector<double>&, std::vector<double>&) const {}
};

/// One certified solve, timed from construction (so the record covers the
/// caller's precomputation) to the record written when it returns.
/// Backup(x, unit) returns Φ(x) for the unit's states.
class Solve {
 public:
  Solve(const char* solver, Quantity quantity, const SolverOptions& opts)
      : solver_(solver), quantity_(quantity), opts_(opts) {}

  /// Two-sided iteration from known bounds: sweeps @p lower and then
  /// @p upper over @p units and calls after_sweeps(lower, upper) (where
  /// max-reachability deflates its end components) until certified.
  /// Returns the midpoint of every state's interval.
  template <typename Backup, typename AfterSweeps = NoHook>
  std::vector<double> contract(const Units& units, std::vector<double> lower,
                               std::vector<double> upper, Backup&& backup,
                               AfterSweeps&& after_sweeps = {}) {
    double width = 0.0;
    if (units.size() > 0) {
      for (;; ++iterations_) {
        width = 0.0;
        for (std::size_t u = 0; u < units.size(); ++u) {
          const std::uint32_t s = units[u][0];
          width = std::max(width, upper[s] - lower[s]);
        }
        if (width < limit()) {
          break;
        }
        if (iterations_ >= opts_.max_iterations) {
          fail("interval iteration did not converge");
        }
        (void)sweep(units, lower, backup);
        (void)sweep(units, upper, backup);
        after_sweeps(lower, upper);
      }
    }
    for (std::size_t s = 0; s < lower.size(); ++s) {
      lower[s] = 0.5 * (lower[s] + upper[s]);  // the midpoint
    }
    core::record_solve(core::SolveStat{
        solver_, {}, lower.size(), iterations_, width,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
            .count()});
    return lower;
  }

  /// Least fixpoint with no known upper bound, over @p states states (0
  /// outside the units): raises the lower vector L from 0 until a sweep
  /// moves it by less than the tolerance, starts the upper vector
  /// optimistically at U = L + ε(w + L), w = @p weight or 1, and verifies
  /// Φ(U) ≤ U with one Jacobi pass (on failure: multiply ε by 8, sweep L
  /// 16 more times), then contracts both.  Verification needs a margin
  /// w_s − Σ_d P(s,d) w_d plus the gain earned in s to be positive at
  /// every state; w = 1 leaves none at a state that earns nothing and
  /// cannot absorb in one jump.
  template <typename Backup>
  std::vector<double> from_below(std::size_t states, const Units& units,
                                 Backup&& backup,
                                 std::span<const double> weight = {}) {
    std::vector<double> lower(states, 0.0);
    std::vector<double> upper(states, 0.0);
    if (units.size() > 0) {
      for (;; ++iterations_) {
        if (iterations_ >= opts_.max_iterations) {
          fail("value iteration did not converge");
        }
        const double delta = sweep(units, lower, backup);
        if (delta < limit()) {
          break;
        }
      }
      double inflation = std::max(opts_.tolerance, 1e-12);
      for (bool verified = false; !verified;) {
        for (std::size_t u = 0; u < units.size(); ++u) {
          for (const std::uint32_t s : units[u]) {
            const double w = weight.empty() ? 1.0 : weight[s];
            upper[s] = lower[s] + inflation * (w + lower[s]);
          }
        }
        verified = true;
        for (std::size_t u = 0; u < units.size(); ++u) {
          if (backup(upper, units[u]) > upper[units[u][0]]) {
            verified = false;
            break;
          }
        }
        if (!verified) {
          inflation *= 8.0;
          for (int extra = 0; extra < 16; ++extra, ++iterations_) {
            (void)sweep(units, lower, backup);
          }
          if (iterations_ >= opts_.max_iterations) {
            fail("no verified upper bound");
          }
        }
      }
    }
    return contract(units, std::move(lower), std::move(upper), backup);
  }

 private:
  /// One Gauss–Seidel sweep of @p x; returns the largest change.
  template <typename Backup>
  double sweep(const Units& units, std::vector<double>& x, Backup& backup) {
    double delta = 0.0;
    for (std::size_t u = 0; u < units.size(); ++u) {
      const std::span<const std::uint32_t> unit = units[u];
      const double next = backup(x, unit);
      delta = std::max(delta, std::abs(next - x[unit[0]]));
      for (const std::uint32_t s : unit) {
        x[s] = next;
      }
      scale_ = std::max(scale_, next);
    }
    return delta;
  }

  [[nodiscard]] double limit() const {
    return quantity_ == Quantity::kTime ? opts_.tolerance * scale_
                                        : opts_.tolerance;
  }

  [[noreturn]] void fail(const char* what) const {
    throw SolverFailure(std::string(solver_) + ": " + what + " within " +
                        std::to_string(opts_.max_iterations) + " iterations");
  }

  const char* solver_;
  Quantity quantity_;
  SolverOptions opts_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::size_t iterations_ = 0;
  double scale_ = 1.0;
};

}  // namespace multival::markov::interval
