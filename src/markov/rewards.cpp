#include "markov/rewards.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "markov/absorption.hpp"
#include "mc/formula.hpp"

namespace multival::markov {

std::vector<double> expected_accumulated_reward(const Ctmc& c,
                                                std::span<const double> reward,
                                                const SolverOptions& opts) {
  if (reward.size() != c.num_states()) {
    throw std::invalid_argument("expected_accumulated_reward: size mismatch");
  }
  if (!std::ranges::all_of(reward, [](double r) {
        return std::isfinite(r) && r >= 0.0;
      })) {
    throw std::invalid_argument(
        "expected_accumulated_reward: rewards must be finite and >= 0");
  }
  // The sojourn integral earns reward(s) per unit of time in s.
  return expected_gain_to_absorption(c, reward, "accumulated_reward[interval]",
                                     opts);
}

std::vector<double> expected_transition_count(const Ctmc& c,
                                              std::string_view label_glob,
                                              const SolverOptions& opts) {
  // gain(s) = sum of matching outgoing rates: the expected number of
  // matching jumps per unit of time in s.
  std::vector<double> gain(c.num_states(), 0.0);
  for (const RateTransition& t : c.transitions()) {
    if (mc::glob_match(label_glob, t.label)) {
      gain[t.src] += t.rate;
    }
  }
  return expected_gain_to_absorption(c, gain, "transition_count[interval]",
                                     opts);
}

}  // namespace multival::markov
