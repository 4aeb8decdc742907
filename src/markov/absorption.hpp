// Absorption analysis: expected time to absorption, first-passage times,
// absorption probabilities.  Used for latency predictions (e.g. the expected
// round-trip time of the FAME2 MPI ping-pong benchmark).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/steady.hpp"

namespace multival::markov {

inline constexpr double kInfiniteTime = std::numeric_limits<double>::infinity();

/// The states with no outgoing transition, in one pass over the
/// transitions.
[[nodiscard]] std::vector<bool> absorbing_states(const Ctmc& c);

/// Expected time, from each state, until reaching an absorbing state
/// (no outgoing transitions).  States that do not absorb almost surely get
/// kInfiniteTime.
[[nodiscard]] std::vector<double> expected_time_to_absorption(
    const Ctmc& c, const SolverOptions& opts = {});

/// Expected time, from each state, until first hitting @p target (the
/// target states are made absorbing).  kInfiniteTime where unreachable.
[[nodiscard]] std::vector<double> mean_first_passage_time(
    const Ctmc& c, const std::vector<bool>& target,
    const SolverOptions& opts = {});

/// The solve behind expected time and the reward measures (rewards.hpp):
/// the expected total of @p gain, a rate earned per unit of time in each
/// state, until absorption, from each state, by certified interval
/// iteration logged as @p solver.  States that do not absorb almost surely
/// get kInfiniteTime; states that reach no state with a positive gain get
/// exactly 0.  Every gain must be finite and >= 0: the lower bound starts
/// at 0.
[[nodiscard]] std::vector<double> expected_gain_to_absorption(
    const Ctmc& c, std::span<const double> gain, const char* solver,
    const SolverOptions& opts = {});

/// Expected time to absorption from the initial distribution.
[[nodiscard]] double expected_absorption_time_from_initial(
    const Ctmc& c, const SolverOptions& opts = {});

/// P[absorbed by time t] from the initial distribution (transient
/// probability of the absorbing set).
[[nodiscard]] double absorption_probability_by(const Ctmc& c, double t,
                                               double epsilon = 1e-12);

/// The @p q-quantile of the absorption-time distribution (e.g. q = 0.99
/// gives the 99th-percentile latency), found by bisection.  Requires
/// 0 < q < 1 and almost-sure absorption; throws SolverFailure if the
/// quantile is not bracketed within @p max_horizon.
[[nodiscard]] double absorption_time_quantile(const Ctmc& c, double q,
                                              double max_horizon = 1e7);

}  // namespace multival::markov
