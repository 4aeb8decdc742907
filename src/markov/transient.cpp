#include "markov/transient.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/report.hpp"

namespace multival::markov {

namespace {

// lambda exceeds the largest exit rate by this factor, so that every state
// of P keeps a self-loop; kMinLambda keeps P defined on a chain without
// transitions.
constexpr double kUniformizationFactor = 1.02;
constexpr double kMinLambda = 1e-9;

}  // namespace

PoissonWeights poisson_weights(double lambda_t, double epsilon) {
  if (lambda_t < 0.0 || !std::isfinite(lambda_t)) {
    throw std::invalid_argument("poisson_weights: bad lambda*t");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    throw std::invalid_argument("poisson_weights: epsilon must be in (0,1)");
  }
  PoissonWeights out;
  if (lambda_t == 0.0) {
    out.weights = {1.0};
    return out;
  }
  // Work outwards from the mode with the ratio recurrence
  // p(k+1)/p(k) = lambda_t/(k+1), in scaled arithmetic (mode weight = 1),
  // then normalise.  Truncation is controlled by the *total dropped mass*:
  // the weight ratios shrink monotonically away from the mode, so once the
  // next ratio r is below 1 the untruncated remainder of that side is
  // bounded by the geometric tail w * r / (1 - r).  Each side cuts when
  // that bound drops below (epsilon/2) of the scaled mass accumulated so
  // far (a lower bound on the final normaliser), which keeps the two-sided
  // relative truncation error below epsilon.  The previous per-weight
  // cutoff (epsilon * 1e-4 relative to the mode weight) bounded no such
  // total.
  const auto mode = static_cast<long long>(std::floor(lambda_t));
  constexpr double kUnderflow = 1e-300;  // stop once scaled weights vanish

  double total = 1.0;  // scaled mass kept so far (mode weight included)

  std::vector<double> down;  // weights for k = mode-1, mode-2, ...
  double w = 1.0;
  for (long long k = mode; k > 0; --k) {
    const double r = static_cast<double>(k) / lambda_t;  // w(k-1) / w(k)
    if (r < 1.0 && w * r / (1.0 - r) <= 0.5 * epsilon * total) {
      break;  // the whole remaining lower tail is negligible
    }
    w *= r;
    if (w < kUnderflow) {
      break;
    }
    down.push_back(w);
    total += w;
  }
  std::vector<double> up;  // weights for k = mode+1, ...
  w = 1.0;
  for (long long k = mode;; ++k) {
    const double r = lambda_t / static_cast<double>(k + 1);  // w(k+1) / w(k)
    // r < 1 always holds here: k >= mode = floor(lambda_t).
    if (w * r / (1.0 - r) <= 0.5 * epsilon * total) {
      break;
    }
    w *= r;
    if (w < kUnderflow) {
      break;
    }
    up.push_back(w);
    total += w;
  }

  out.left = static_cast<std::size_t>(mode - static_cast<long long>(down.size()));
  out.weights.reserve(down.size() + 1 + up.size());
  for (auto it = down.rbegin(); it != down.rend(); ++it) {
    out.weights.push_back(*it);
  }
  out.weights.push_back(1.0);
  for (const double u : up) {
    out.weights.push_back(u);
  }
  for (double& x : out.weights) {
    x /= total;
  }
  return out;
}

Uniformized uniformize(const Ctmc& c) {
  const std::vector<double> exits = c.exit_rates();
  double max_exit = 0.0;
  for (const double e : exits) {
    max_exit = std::max(max_exit, e);
  }
  Uniformized u;
  u.lambda = std::max(max_exit * kUniformizationFactor, kMinLambda);
  std::vector<Triplet> ts;
  ts.reserve(c.num_transitions() + c.num_states());
  for (const RateTransition& t : c.transitions()) {
    ts.push_back(Triplet{t.src, t.dst, t.rate / u.lambda});
  }
  for (MState s = 0; s < c.num_states(); ++s) {
    const double self = 1.0 - exits[s] / u.lambda;
    if (self > 0.0) {
      ts.push_back(Triplet{s, s, self});
    }
  }
  u.p = SparseMatrix::from_triplets(c.num_states(), c.num_states(),
                                    std::move(ts));
  return u;
}

std::vector<double> transient_distribution(const Ctmc& c, double t,
                                           double epsilon) {
  return transient_distribution(uniformize(c), c.initial_distribution(), t,
                                epsilon);
}

std::vector<double> transient_distribution(const Uniformized& u,
                                           std::vector<double> pi0, double t,
                                           double epsilon) {
  if (t < 0.0) {
    throw std::invalid_argument("transient_distribution: negative time");
  }
  const std::size_t n = u.p.num_rows();
  if (pi0.size() != n) {
    throw std::invalid_argument("transient_distribution: size mismatch");
  }
  if (t == 0.0 || n == 0) {
    return pi0;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const PoissonWeights pw = poisson_weights(u.lambda * t, epsilon);

  std::vector<double> v = std::move(pi0);
  std::vector<double> acc(n, 0.0);
  const std::size_t last = pw.left + pw.weights.size() - 1;
  for (std::size_t k = 0; k <= last; ++k) {
    if (k >= pw.left) {
      const double w = pw.weights[k - pw.left];
      for (std::size_t s = 0; s < n; ++s) {
        acc[s] += w * v[s];
      }
    }
    if (k < last) {
      v = u.p.multiply_left(v);
    }
  }
  core::record_solve(core::SolveStat{
      "transient[uniformization]", {}, n, last, epsilon,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count()});
  return acc;
}

double transient_probability(const Ctmc& c, const std::vector<bool>& set,
                             double t, double epsilon) {
  if (set.size() != c.num_states()) {
    throw std::invalid_argument("transient_probability: size mismatch");
  }
  const std::vector<double> pi = transient_distribution(c, t, epsilon);
  double acc = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    if (set[s]) {
      acc += pi[s];
    }
  }
  return acc;
}

double bounded_reachability(const Ctmc& c, const std::vector<bool>& target,
                            double t, double epsilon) {
  if (target.size() != c.num_states()) {
    throw std::invalid_argument("bounded_reachability: size mismatch");
  }
  // Make the target absorbing: once reached, stay.
  Ctmc cut;
  cut.add_states(c.num_states());
  for (const RateTransition& tr : c.transitions()) {
    if (!target[tr.src]) {
      cut.add_transition(tr.src, tr.dst, tr.rate, tr.label);
    }
  }
  cut.set_initial_distribution(c.initial_distribution());
  return transient_probability(cut, target, t, epsilon);
}

}  // namespace multival::markov
