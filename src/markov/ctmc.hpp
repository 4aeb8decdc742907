// Continuous-Time Markov Chains with optionally-labelled transitions.
//
// Labels serve throughput queries in the style of CADP's BCG_STEADY: the
// throughput of label L under steady-state distribution pi is
// sum over transitions (s -rate,L-> t) of pi(s) * rate.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace multival::markov {

using MState = std::uint32_t;

struct RateTransition {
  MState src = 0;
  MState dst = 0;
  double rate = 0.0;
  std::string label;  // empty = unlabelled
};

class Ctmc {
 public:
  Ctmc() = default;

  MState add_state();
  MState add_states(std::size_t n);

  /// Adds a transition with positive @p rate.
  void add_transition(MState src, MState dst, double rate,
                      std::string_view label = {});

  [[nodiscard]] std::size_t num_states() const { return num_states_; }
  [[nodiscard]] std::size_t num_transitions() const {
    return transitions_.size();
  }
  [[nodiscard]] const std::vector<RateTransition>& transitions() const {
    return transitions_;
  }

  void set_initial_state(MState s);
  /// Sets a full initial distribution (must sum to ~1).
  void set_initial_distribution(std::vector<double> pi0);
  [[nodiscard]] std::vector<double> initial_distribution() const;

  /// Total outgoing rate of each state.
  [[nodiscard]] std::vector<double> exit_rates() const;

 private:
  void check_state(MState s, const char* what) const;

  std::size_t num_states_ = 0;
  std::vector<RateTransition> transitions_;
  std::vector<double> initial_;  // empty = point mass on initial_state_
  MState initial_state_ = 0;
};

/// Expected value of @p reward under distribution @p pi.
[[nodiscard]] double expected_reward(std::span<const double> pi,
                                     std::span<const double> reward);

/// Throughput of all transitions whose label matches @p label_glob
/// ('*'/'?' wildcards, as in mc::glob_match) under distribution @p pi.
[[nodiscard]] double throughput(const Ctmc& c, std::span<const double> pi,
                                std::string_view label_glob);

}  // namespace multival::markov
