// Reward-based measures on CTMCs: accumulated state rewards and expected
// transition counts until absorption.  Used for cost/energy-style
// predictions on the latency scenarios (e.g. "interconnect messages per
// MPI round").
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/steady.hpp"

namespace multival::markov {

/// Expected total accumulated reward until absorption, from each state:
/// E[ integral of reward(X_t) dt until absorption ].  States that do not
/// absorb almost surely get +infinity; absorbing states accumulate 0.
/// Both measures are certified like expected time (absorption.hpp) and
/// throw SolverFailure where it cannot finish within max_iterations.
/// Throws std::invalid_argument unless every reward is finite and >= 0.
[[nodiscard]] std::vector<double> expected_accumulated_reward(
    const Ctmc& c, std::span<const double> reward,
    const SolverOptions& opts = {});

/// Expected number of transitions matching @p label_glob taken until
/// absorption, from each state (+infinity where absorption is not almost
/// sure).
[[nodiscard]] std::vector<double> expected_transition_count(
    const Ctmc& c, std::string_view label_glob,
    const SolverOptions& opts = {});

}  // namespace multival::markov
