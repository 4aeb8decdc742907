// Discrete-event Monte-Carlo simulation of CTMCs, used to cross-validate
// the numerical solvers (bench exp_t9).  Deterministically seeded.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "markov/ctmc.hpp"

namespace multival::sim {

/// A point estimate with a symmetric 95% confidence half-width.
struct Estimate {
  double mean = 0.0;
  double half_width = 0.0;  ///< 95% CI is mean +/- half_width
  std::size_t samples = 0;

  [[nodiscard]] bool contains(double value) const {
    return value >= mean - half_width && value <= mean + half_width;
  }
};

struct SimOptions {
  std::uint64_t seed = 20080310;  ///< DATE'08 ;-)
  /// Batch-means parameters for steady-state estimation.
  double horizon = 5000.0;
  std::size_t batches = 20;
  /// Replications for transient / absorption estimation.
  std::size_t replications = 2000;
};

/// Long-run time-average of @p reward (batch means).
[[nodiscard]] Estimate simulate_steady_reward(const markov::Ctmc& c,
                                              std::span<const double> reward,
                                              const SimOptions& opts = {});

/// Long-run rate of transitions whose label matches @p label_glob.
[[nodiscard]] Estimate simulate_throughput(const markov::Ctmc& c,
                                           std::string_view label_glob,
                                           const SimOptions& opts = {});

/// Mean time to absorption from the initial distribution (replications).
[[nodiscard]] Estimate simulate_absorption_time(const markov::Ctmc& c,
                                                const SimOptions& opts = {});

/// P[state in @p set at time @p t] (replications).
[[nodiscard]] Estimate simulate_transient_probability(
    const markov::Ctmc& c, const std::vector<bool>& set, double t,
    const SimOptions& opts = {});

}  // namespace multival::sim
