#include "markov/absorption.hpp"

#include "markov/transient.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/report.hpp"

namespace multival::markov {

std::vector<double> expected_time_to_absorption(const Ctmc& c,
                                                const SolverOptions& opts) {
  const std::size_t n = c.num_states();
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<double> exits = c.exit_rates();

  std::vector<bool> absorbing(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    absorbing[s] = exits[s] <= 0.0;
  }
  // Exact graph-based divergence classification: a state has finite
  // expected time iff it absorbs almost surely, i.e. iff it cannot reach a
  // bottom SCC that is not an absorbing singleton.  (The previous
  // numeric test `reach > 1 - 1e-9` could misclassify whenever the
  // reachability solve converged to a coarser tolerance.)
  const BsccDecomposition d = bscc_decomposition(c);
  std::vector<bool> bad(n, false);
  {
    std::vector<std::uint32_t> comp_size(d.num_components, 0);
    for (std::size_t s = 0; s < n; ++s) {
      ++comp_size[d.component_of[s]];
    }
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t comp = d.component_of[s];
      bad[s] = d.is_bottom[comp] &&
               (comp_size[comp] > 1 || !absorbing[s]);
    }
  }
  const std::vector<bool> diverging =
      core::reach(transition_graph(c).transpose(), bad);

  std::vector<std::vector<Entry>> out(n);
  for (const RateTransition& t : c.transitions()) {
    out[t.src].push_back(Entry{t.dst, t.rate});
  }

  // Interval (two-sided) value iteration over the finite states.  The
  // Bellman backup  x[s] = (1 + sum_{d != s} rate * x[d]) / (exit - self)
  // is monotone, so a vector started at 0 stays a lower bound under
  // asynchronous sweeps, and any pre-fixpoint (Phi(U) <= U) stays an upper
  // bound.  The upper start is found optimistically: inflate the lower
  // vector and verify the pre-fixpoint property with one Jacobi sweep.
  std::vector<std::uint32_t> active;  // finite, non-absorbing states
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!absorbing[s] && !diverging[s]) {
      active.push_back(s);
    }
  }
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, 0.0);

  const auto backup = [&](const std::vector<double>& x, std::uint32_t s) {
    double acc = 1.0;  // one expected sojourn numerator
    double self = 0.0;
    for (const Entry& e : out[s]) {
      if (e.col == s) {
        self += e.value;
      } else if (!diverging[e.col]) {
        acc += e.value * x[e.col];
      }
      // diverging successors are unreachable from finite states
    }
    const double denom = exits[s] - self;
    if (denom <= 0.0) {
      throw SolverFailure(
          "expected_time_to_absorption: self-loop-only state classified "
          "finite");
    }
    return acc / denom;
  };
  // Expected times are unbounded, so the tolerance is relative: all stopping
  // tests scale by max(1, ||x||_inf).  An absolute test would sit below the
  // floating-point resolution of the iterates themselves once values reach
  // ~1e3 / tolerance ~1e-12 (one ulp of 1000 is ~1.1e-13) and never trigger.
  double scale = 1.0;
  const auto sweep = [&](std::vector<double>& x) {
    double delta = 0.0;
    for (const std::uint32_t s : active) {
      const double next = backup(x, s);
      delta = std::max(delta, std::abs(next - x[s]));
      x[s] = next;
      scale = std::max(scale, next);
    }
    return delta;
  };

  std::size_t iterations = 0;
  double width = 0.0;
  if (!active.empty()) {
    // Phase 1: lower iteration to near-convergence.
    for (;; ++iterations) {
      if (iterations >= opts.max_iterations) {
        throw SolverFailure("expected_time_to_absorption: did not converge");
      }
      if (sweep(lower) < opts.tolerance * scale) {
        break;
      }
    }
    // Phase 2: optimistic upper start, verified as a pre-fixpoint.
    double inflation = std::max(opts.tolerance, 1e-12);
    bool verified = false;
    while (!verified) {
      for (const std::uint32_t s : active) {
        upper[s] = lower[s] + inflation * (1.0 + lower[s]);
      }
      verified = true;
      for (const std::uint32_t s : active) {
        if (backup(upper, s) > upper[s]) {  // Jacobi check against old upper
          verified = false;
          break;
        }
      }
      if (!verified) {
        inflation *= 8.0;
        for (int extra = 0; extra < 16; ++extra, ++iterations) {
          (void)sweep(lower);
        }
        if (iterations >= opts.max_iterations) {
          throw SolverFailure(
              "expected_time_to_absorption: no verified upper bound");
        }
      }
    }
    // Phase 3: contract both bounds until the interval is certified.
    for (;; ++iterations) {
      width = 0.0;
      for (const std::uint32_t s : active) {
        width = std::max(width, upper[s] - lower[s]);
      }
      if (width < opts.tolerance * scale) {
        break;
      }
      if (iterations >= opts.max_iterations) {
        throw SolverFailure("expected_time_to_absorption: did not converge");
      }
      (void)sweep(lower);
      (void)sweep(upper);
    }
  }

  std::vector<double> time(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    if (diverging[s]) {
      time[s] = kInfiniteTime;
    } else if (!absorbing[s]) {
      time[s] = 0.5 * (lower[s] + upper[s]);
    }
  }
  core::record_solve(core::SolveStat{
      "absorption_time[interval]", {}, n, iterations, width,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count()});
  return time;
}

std::vector<double> mean_first_passage_time(const Ctmc& c,
                                            const std::vector<bool>& target,
                                            const SolverOptions& opts) {
  const std::size_t n = c.num_states();
  if (target.size() != n) {
    throw std::invalid_argument("mean_first_passage_time: size mismatch");
  }
  // Copy the chain with target states made absorbing.
  Ctmc cut;
  cut.add_states(n);
  for (const RateTransition& t : c.transitions()) {
    if (!target[t.src]) {
      cut.add_transition(t.src, t.dst, t.rate, t.label);
    }
  }
  return expected_time_to_absorption(cut, opts);
}

namespace {

std::vector<bool> absorbing_set(const Ctmc& c) {
  // One pass over the transitions instead of is_absorbing per state
  // (which rescans the whole transition list each call).
  std::vector<bool> absorbing(c.num_states(), true);
  for (const RateTransition& t : c.transitions()) {
    absorbing[t.src] = false;
  }
  return absorbing;
}

}  // namespace

double absorption_probability_by(const Ctmc& c, double t, double epsilon) {
  return transient_probability(c, absorbing_set(c), t, epsilon);
}

double absorption_time_quantile(const Ctmc& c, double q, double max_horizon) {
  if (!(q > 0.0) || !(q < 1.0)) {
    throw std::invalid_argument(
        "absorption_time_quantile: q must be in (0, 1)");
  }
  // Bracket the quantile by doubling, then bisect.  The absorbing set is
  // computed once and every probe reuses the chain's cached uniformised
  // DTMC; only the Poisson weights differ per probe.
  const std::vector<bool> absorbing = absorbing_set(c);
  const auto probe = [&](double horizon) {
    return transient_probability(c, absorbing, horizon, 1e-12);
  };
  double lo = 0.0;
  double hi = std::max(1e-6, expected_absorption_time_from_initial(c));
  if (std::isinf(hi)) {
    throw SolverFailure(
        "absorption_time_quantile: absorption is not almost sure");
  }
  while (probe(hi) < q) {
    hi *= 2.0;
    if (hi > max_horizon) {
      throw SolverFailure(
          "absorption_time_quantile: quantile beyond max horizon");
    }
  }
  for (int iter = 0; iter < 60 && (hi - lo) > 1e-9 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double expected_absorption_time_from_initial(const Ctmc& c,
                                             const SolverOptions& opts) {
  const std::vector<double> time = expected_time_to_absorption(c, opts);
  const std::vector<double> pi0 = c.initial_distribution();
  double acc = 0.0;
  for (std::size_t s = 0; s < time.size(); ++s) {
    if (pi0[s] > 0.0) {
      if (std::isinf(time[s])) {
        return kInfiniteTime;
      }
      acc += pi0[s] * time[s];
    }
  }
  return acc;
}

}  // namespace multival::markov
