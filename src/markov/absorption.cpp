#include "markov/absorption.hpp"

#include "markov/transient.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "markov/interval.hpp"

namespace multival::markov {

std::vector<bool> absorbing_states(const Ctmc& c) {
  std::vector<bool> absorbing(c.num_states(), true);
  for (const RateTransition& t : c.transitions()) {
    absorbing[t.src] = false;
  }
  return absorbing;
}

std::vector<double> expected_gain_to_absorption(const Ctmc& c,
                                               std::span<const double> gain,
                                               const char* solver,
                                               const SolverOptions& opts) {
  const std::size_t n = c.num_states();
  interval::Solve solve(solver, interval::Quantity::kTime, opts);
  const std::vector<double> exits = c.exit_rates();
  const std::vector<bool> absorbing = absorbing_states(c);
  // Exact graph-based divergence classification: a state has a finite
  // value iff it absorbs almost surely, i.e. iff it cannot reach a bottom
  // SCC that is not an absorbing singleton.  No numeric probability
  // threshold is involved.
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
  const core::Digraph pred = transition_graph(c).transpose();
  const std::vector<bool> diverging = core::reach(pred, bad);
  // Equally exact: a state that reaches no earning state earns 0.
  std::vector<bool> earning(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    earning[s] = !absorbing[s] && gain[s] > 0.0;
  }
  const std::vector<bool> earns = core::reach(pred, earning);

  std::vector<std::vector<Entry>> out(n);
  for (const RateTransition& t : c.transitions()) {
    out[t.src].push_back(Entry{t.dst, t.rate});
  }

  // The finite states that earn are swept; the Bellman backup is
  // x[s] = (gain[s] + sum_{d != s} rate * x[d]) / (exit - self).
  interval::Units units;
  bool earns_nothing_somewhere = false;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (earns[s] && !diverging[s]) {
      units.add(s);
      earns_nothing_somewhere = earns_nothing_somewhere || gain[s] == 0.0;
    }
  }
  const auto backup_of = [&](std::span<const double> g) {
    return [&, g](const std::vector<double>& x,
                  std::span<const std::uint32_t> unit) {
      const std::uint32_t s = unit[0];
      double acc = g[s];
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
        throw SolverFailure(std::string(solver) +
                            ": self-loop-only state classified finite");
      }
      return acc / denom;
    };
  };
  // A swept state that earns nothing leaves the optimistic upper start no
  // margin with weight 1 (interval.hpp); weight 1 + T, T the expected time
  // spent in swept states, gives each one a margin of at least its mean
  // sojourn.
  std::vector<double> weight;
  if (earns_nothing_somewhere) {
    const std::vector<double> one_per_sojourn(n, 1.0);
    interval::Solve time_solve("absorption_time[interval]",
                               interval::Quantity::kTime, opts);
    weight = time_solve.from_below(n, units, backup_of(one_per_sojourn));
    for (double& w : weight) {
      w += 1.0;
    }
  }
  std::vector<double> value =
      solve.from_below(n, units, backup_of(gain), weight);
  for (std::size_t s = 0; s < n; ++s) {
    if (diverging[s]) {
      value[s] = kInfiniteTime;
    }
  }
  return value;
}

std::vector<double> expected_time_to_absorption(const Ctmc& c,
                                                const SolverOptions& opts) {
  const std::vector<double> one_per_sojourn(c.num_states(), 1.0);
  return expected_gain_to_absorption(c, one_per_sojourn,
                                     "absorption_time[interval]", opts);
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


double absorption_probability_by(const Ctmc& c, double t, double epsilon) {
  return transient_probability(c, absorbing_states(c), t, epsilon);
}

double absorption_time_quantile(const Ctmc& c, double q, double max_horizon) {
  if (!(q > 0.0) || !(q < 1.0)) {
    throw std::invalid_argument(
        "absorption_time_quantile: q must be in (0, 1)");
  }
  // Bracket the quantile by doubling, then bisect.  The absorbing set is
  // computed once and every probe reuses the chain's cached uniformised
  // DTMC; only the Poisson weights differ per probe.
  const std::vector<bool> absorbing = absorbing_states(c);
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
