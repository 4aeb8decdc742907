// Transient analysis of CTMCs by uniformisation (the role of BCG_TRANSIENT
// in CADP), with Fox–Glynn-style Poisson weight computation.
#pragma once

#include <cstddef>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/sparse.hpp"
#include "markov/steady.hpp"

namespace multival::markov {

/// Truncated, normalised Poisson(lambda_t) weights: weights[k] approximates
/// P[N = left + k].  The two-sided truncation error is below epsilon.
struct PoissonWeights {
  std::size_t left = 0;
  std::vector<double> weights;
};

[[nodiscard]] PoissonWeights poisson_weights(double lambda_t,
                                             double epsilon = 1e-12);

/// The uniformised DTMC of a chain: P = I + Q / lambda, where lambda is
/// the largest exit rate times a fixed factor of 1.02 (at least 1e-9).
struct Uniformized {
  SparseMatrix p;
  double lambda = 0.0;
};

[[nodiscard]] Uniformized uniformize(const Ctmc& c);

/// State distribution at time @p t, starting from the initial distribution.
[[nodiscard]] std::vector<double> transient_distribution(
    const Ctmc& c, double t, double epsilon = 1e-12);

/// State distribution at time @p t, starting from @p pi0, of the chain
/// that @p u uniformises.  A caller that solves one chain at many times
/// builds @p u once (absorption_time_quantile does).
[[nodiscard]] std::vector<double> transient_distribution(
    const Uniformized& u, std::vector<double> pi0, double t,
    double epsilon = 1e-12);

/// Probability of being in @p set at time @p t.
[[nodiscard]] double transient_probability(const Ctmc& c,
                                           const std::vector<bool>& set,
                                           double t, double epsilon = 1e-12);

/// Time-bounded reachability P[ reach @p target within time t ] (the CSL
/// operator P(true U<=t target)): computed by making the target absorbing
/// and taking the transient probability of sitting in it at t.
[[nodiscard]] double bounded_reachability(const Ctmc& c,
                                          const std::vector<bool>& target,
                                          double t, double epsilon = 1e-12);

}  // namespace multival::markov
