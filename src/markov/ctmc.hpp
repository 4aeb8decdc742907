// Continuous-Time Markov Chains with optionally-labelled transitions.
//
// Labels serve throughput queries in the style of CADP's BCG_STEADY: the
// throughput of label L under steady-state distribution pi is
// sum over transitions (s -rate,L-> t) of pi(s) * rate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.hpp"
#include "markov/sparse.hpp"

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

  /// Uniformised DTMC P = I + Q/lambda with lambda = factor * max exit rate
  /// (at least kMinLambda); returns P and stores lambda in @p lambda_out.
  /// Built on first use and cached per @p factor, so repeated transient
  /// solves (e.g. quantile bisection) do not rebuild the triplets; the
  /// reference stays valid until the chain is mutated.
  [[nodiscard]] const SparseMatrix& uniformized_dtmc(double& lambda_out,
                                                     double factor = 1.02) const;

 private:
  void check_state(MState s, const char* what) const;
  void invalidate_cache();

  std::size_t num_states_ = 0;
  std::vector<RateTransition> transitions_;
  std::vector<double> initial_;  // empty = point mass on initial_state_
  MState initial_state_ = 0;

  // Derived-matrix cache.  Copying a chain drops the cache (it is rebuilt
  // on demand); mutation invalidates it.  Guarded so concurrent *solves*
  // on one const chain are safe; concurrent mutation is not (as before).
  struct MatrixCache {
    std::unique_ptr<const SparseMatrix> uniformized;
    double lambda = 0.0;
    double factor = 0.0;
  };
  mutable core::Mutex cache_mutex_;
  mutable MatrixCache cache_ MV_GUARDED_BY(cache_mutex_);

 public:
  Ctmc(const Ctmc& other);
  Ctmc& operator=(const Ctmc& other);
  Ctmc(Ctmc&& other) noexcept;
  Ctmc& operator=(Ctmc&& other) noexcept;
};

/// Expected value of @p reward under distribution @p pi.
[[nodiscard]] double expected_reward(std::span<const double> pi,
                                     std::span<const double> reward);

/// Throughput of all transitions whose label matches @p label_glob
/// ('*'/'?' wildcards, as in mc::glob_match) under distribution @p pi.
[[nodiscard]] double throughput(const Ctmc& c, std::span<const double> pi,
                                std::string_view label_glob);

}  // namespace multival::markov
