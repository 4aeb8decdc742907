#include "markov/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mc/formula.hpp"

namespace multival::markov {

namespace {
constexpr double kMinLambda = 1e-9;
}

Ctmc::Ctmc(const Ctmc& other)
    : num_states_(other.num_states_),
      transitions_(other.transitions_),
      initial_(other.initial_),
      initial_state_(other.initial_state_) {}

Ctmc& Ctmc::operator=(const Ctmc& other) {
  if (this != &other) {
    num_states_ = other.num_states_;
    transitions_ = other.transitions_;
    initial_ = other.initial_;
    initial_state_ = other.initial_state_;
    invalidate_cache();
  }
  return *this;
}

Ctmc::Ctmc(Ctmc&& other) noexcept
    : num_states_(other.num_states_),
      transitions_(std::move(other.transitions_)),
      initial_(std::move(other.initial_)),
      initial_state_(other.initial_state_) {}

Ctmc& Ctmc::operator=(Ctmc&& other) noexcept {
  if (this != &other) {
    num_states_ = other.num_states_;
    transitions_ = std::move(other.transitions_);
    initial_ = std::move(other.initial_);
    initial_state_ = other.initial_state_;
    invalidate_cache();
  }
  return *this;
}

void Ctmc::invalidate_cache() {
  const core::MutexLock lock(cache_mutex_);
  cache_.uniformized.reset();
  cache_.lambda = 0.0;
  cache_.factor = 0.0;
}

MState Ctmc::add_state() {
  return add_states(1);
}

MState Ctmc::add_states(std::size_t n) {
  const auto first = static_cast<MState>(num_states_);
  num_states_ += n;
  invalidate_cache();
  return first;
}

void Ctmc::check_state(MState s, const char* what) const {
  if (s >= num_states_) {
    throw std::out_of_range(std::string("Ctmc: unknown state in ") + what);
  }
}

void Ctmc::add_transition(MState src, MState dst, double rate,
                          std::string_view label) {
  check_state(src, "add_transition(src)");
  check_state(dst, "add_transition(dst)");
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument("Ctmc::add_transition: rate must be > 0");
  }
  transitions_.push_back(
      RateTransition{src, dst, rate, std::string(label)});
  invalidate_cache();
}

void Ctmc::set_initial_state(MState s) {
  check_state(s, "set_initial_state");
  initial_state_ = s;
  initial_.clear();
}

void Ctmc::set_initial_distribution(std::vector<double> pi0) {
  if (pi0.size() != num_states_) {
    throw std::invalid_argument("set_initial_distribution: size mismatch");
  }
  double sum = 0.0;
  for (const double p : pi0) {
    if (p < 0.0) {
      throw std::invalid_argument(
          "set_initial_distribution: negative probability");
    }
    sum += p;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    throw std::invalid_argument(
        "set_initial_distribution: probabilities must sum to 1");
  }
  initial_ = std::move(pi0);
}

std::vector<double> Ctmc::initial_distribution() const {
  if (!initial_.empty()) {
    return initial_;
  }
  std::vector<double> pi0(num_states_, 0.0);
  if (num_states_ > 0) {
    pi0[initial_state_] = 1.0;
  }
  return pi0;
}

std::vector<double> Ctmc::exit_rates() const {
  std::vector<double> e(num_states_, 0.0);
  for (const RateTransition& t : transitions_) {
    e[t.src] += t.rate;
  }
  return e;
}

const SparseMatrix& Ctmc::uniformized_dtmc(double& lambda_out,
                                           double factor) const {
  const core::MutexLock lock(cache_mutex_);
  if (!cache_.uniformized || cache_.factor != factor) {
    const std::vector<double> exits = exit_rates();
    double max_exit = 0.0;
    for (const double e : exits) {
      max_exit = std::max(max_exit, e);
    }
    const double lambda = std::max(max_exit * factor, kMinLambda);

    std::vector<Triplet> ts;
    ts.reserve(transitions_.size() + num_states_);
    for (const RateTransition& t : transitions_) {
      ts.push_back(Triplet{t.src, t.dst, t.rate / lambda});
    }
    for (MState s = 0; s < num_states_; ++s) {
      const double self = 1.0 - exits[s] / lambda;
      if (self > 0.0) {
        ts.push_back(Triplet{s, s, self});
      }
    }
    cache_.uniformized = std::make_unique<const SparseMatrix>(
        SparseMatrix::from_triplets(num_states_, num_states_, std::move(ts)));
    cache_.lambda = lambda;
    cache_.factor = factor;
  }
  lambda_out = cache_.lambda;
  return *cache_.uniformized;
}

double expected_reward(std::span<const double> pi,
                       std::span<const double> reward) {
  if (pi.size() != reward.size()) {
    throw std::invalid_argument("expected_reward: size mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < pi.size(); ++i) {
    acc += pi[i] * reward[i];
  }
  return acc;
}

double throughput(const Ctmc& c, std::span<const double> pi,
                  std::string_view label_glob) {
  if (pi.size() != c.num_states()) {
    throw std::invalid_argument("throughput: size mismatch");
  }
  double acc = 0.0;
  for (const RateTransition& t : c.transitions()) {
    if (mc::glob_match(label_glob, t.label)) {
      acc += pi[t.src] * t.rate;
    }
  }
  return acc;
}

}  // namespace multival::markov
