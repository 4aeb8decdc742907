#include "markov/steady.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/report.hpp"
#include "markov/interval.hpp"

namespace multival::markov {

core::Digraph transition_graph(const Ctmc& c) {
  return core::Digraph::build(c.num_states(), [&](auto&& add) {
    for (const RateTransition& t : c.transitions()) {
      add(t.src, t.dst);
    }
  });
}

BsccDecomposition bscc_decomposition(const Ctmc& c) {
  const core::Digraph g = transition_graph(c);
  core::Components scc = core::scc(g);
  std::vector<bool> bottom = core::bottom_components(g, scc);
  return BsccDecomposition{std::move(scc.component_of), scc.num_components,
                           std::move(bottom)};
}

namespace {

/// Gauss–Seidel solve of the local steady state of an irreducible sub-chain
/// given by @p members (global state ids).  Accumulates sweeps into
/// @p iterations for solve telemetry.
std::vector<double> solve_bscc(const Ctmc& c,
                               const std::vector<std::uint32_t>& members,
                               const SolverOptions& opts,
                               std::size_t& iterations) {
  const std::size_t m = members.size();
  if (m == 1) {
    return {1.0};
  }
  std::vector<std::uint32_t> local(c.num_states(),
                                   static_cast<std::uint32_t>(-1));
  for (std::size_t i = 0; i < m; ++i) {
    local[members[i]] = static_cast<std::uint32_t>(i);
  }
  // Incoming edges within the BSCC and local exit rates.
  std::vector<std::vector<Entry>> in(m);
  std::vector<double> exit(m, 0.0);
  for (const RateTransition& t : c.transitions()) {
    const std::uint32_t ls = local[t.src];
    const std::uint32_t ld = local[t.dst];
    if (ls == static_cast<std::uint32_t>(-1)) {
      continue;
    }
    // BSCC: all successors stay inside.
    exit[ls] += t.rate;
    in[ld].push_back(Entry{ls, t.rate});
  }
  std::vector<double> pi(m, 1.0 / static_cast<double>(m));
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    ++iterations;
    double delta = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double inflow = 0.0;
      for (const Entry& e : in[i]) {
        if (e.col != i) {
          inflow += pi[e.col] * e.value;
        }
      }
      // Self-loops contribute equally to inflow and exit; drop them.
      double self_rate = 0.0;
      for (const Entry& e : in[i]) {
        if (e.col == i) {
          self_rate += e.value;
        }
      }
      const double denom = exit[i] - self_rate;
      if (denom <= 0.0) {
        throw SolverFailure("steady_state: zero exit rate inside a BSCC");
      }
      const double next = inflow / denom;
      delta = std::max(delta, std::abs(next - pi[i]));
      pi[i] = next;
    }
    // Normalise.
    double sum = 0.0;
    for (const double p : pi) {
      sum += p;
    }
    if (sum <= 0.0) {
      throw SolverFailure("steady_state: distribution collapsed to zero");
    }
    for (double& p : pi) {
      p /= sum;
    }
    if (delta < opts.tolerance * sum) {
      return pi;
    }
  }
  throw SolverFailure("steady_state: Gauss-Seidel did not converge");
}

}  // namespace

std::vector<double> reachability_probability(const Ctmc& c,
                                             const std::vector<bool>& target,
                                             const SolverOptions& opts) {
  const std::size_t n = c.num_states();
  if (target.size() != n) {
    throw std::invalid_argument("reachability_probability: size mismatch");
  }
  interval::Solve solve("reachability[interval]",
                        interval::Quantity::kProbability, opts);

  // Exact qualitative precomputation on the graph:
  //  prob0 = states that cannot reach the target at all;
  //  prob1 = states that cannot reach prob0 without first passing through
  //          the target (closure computed with target states made
  //          absorbing), i.e. states that reach the target almost surely.
  const core::Digraph pred = transition_graph(c).transpose();
  std::vector<bool> prob0 = core::reach(pred, target);
  prob0.flip();
  const std::vector<bool> not_prob1 =
      core::reach(pred, prob0, /*blocked=*/target);

  const std::vector<double> exits = c.exit_rates();
  std::vector<std::vector<Entry>> out(n);
  for (const RateTransition& t : c.transitions()) {
    out[t.src].push_back(Entry{t.dst, t.rate});
  }

  // The lower vector starts at the qualitative 0/1 assignment, the upper
  // vector at 1 on every quantitative "?" state, and only those are swept.
  interval::Units units;
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (target[s] || !not_prob1[s]) {
      lower[s] = upper[s] = 1.0;
    } else if (!prob0[s]) {
      upper[s] = 1.0;
      units.add(s);
    }
  }
  const auto backup = [&](const std::vector<double>& x,
                          std::span<const std::uint32_t> unit) {
    const std::uint32_t s = unit[0];
    double acc = 0.0;
    double self = 0.0;
    for (const Entry& e : out[s]) {
      if (e.col == s) {
        self += e.value;
      } else {
        acc += e.value * x[e.col];
      }
    }
    const double denom = exits[s] - self;
    if (denom <= 0.0) {
      throw SolverFailure(
          "reachability_probability: self-loop-only state escaped "
          "prob0 precomputation");
    }
    return acc / denom;
  };
  return solve.contract(units, std::move(lower), std::move(upper), backup);
}

std::vector<double> steady_state(const Ctmc& c, const SolverOptions& opts) {
  const std::size_t n = c.num_states();
  if (n == 0) {
    return {};
  }
  const auto t0 = std::chrono::steady_clock::now();
  const BsccDecomposition d = bscc_decomposition(c);
  const std::vector<double> pi0 = c.initial_distribution();

  // Group states by component.
  std::vector<std::vector<std::uint32_t>> members(d.num_components);
  for (std::uint32_t s = 0; s < n; ++s) {
    members[d.component_of[s]].push_back(s);
  }

  std::size_t iterations = 0;
  std::vector<double> pi(n, 0.0);
  for (std::uint32_t comp = 0; comp < d.num_components; ++comp) {
    if (!d.is_bottom[comp]) {
      continue;
    }
    // Weight = probability of reaching this BSCC.
    std::vector<bool> target(n, false);
    for (const std::uint32_t s : members[comp]) {
      target[s] = true;
    }
    double weight = 0.0;
    bool need_solve = false;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (pi0[s] > 0.0 && !target[s]) {
        need_solve = true;
      }
    }
    if (need_solve) {
      const std::vector<double> h = reachability_probability(c, target, opts);
      for (std::uint32_t s = 0; s < n; ++s) {
        weight += pi0[s] * h[s];
      }
    } else {
      for (const std::uint32_t s : members[comp]) {
        weight += pi0[s];
      }
    }
    if (weight <= 0.0) {
      continue;
    }
    const std::vector<double> local =
        solve_bscc(c, members[comp], opts, iterations);
    for (std::size_t i = 0; i < members[comp].size(); ++i) {
      pi[members[comp][i]] += weight * local[i];
    }
  }
  core::record_solve(core::SolveStat{
      "steady_state[bscc]", {}, n, iterations, opts.tolerance,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count()});
  return pi;
}

}  // namespace multival::markov
