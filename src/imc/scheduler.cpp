#include "imc/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/graph.hpp"
#include "markov/interval.hpp"

namespace multival::imc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

bool is_decision(const Imc& m, StateId s) {
  return !m.interactive(s).empty();
}

/// Successors under maximal progress: interactive edges win, Markovian
/// edges only count at states without interactive transitions.
template <typename F>
void for_each_successor(const Imc& m, StateId s, F&& f) {
  const auto inter = m.interactive(s);
  if (!inter.empty()) {
    for (const InterEdge& e : inter) {
      f(e.dst);
    }
    return;
  }
  for (const MarkEdge& e : m.markovian(s)) {
    f(e.dst);
  }
}

/// The maximal-progress successor graph, restricted to the edges
/// @p keep(src, dst) accepts.
template <typename Keep>
core::Digraph successor_graph(const Imc& m, Keep&& keep) {
  return core::Digraph::build(m.num_states(), [&](auto&& add) {
    for (StateId s = 0; s < m.num_states(); ++s) {
      for_each_successor(m, s, [&](StateId d) {
        if (keep(s, d)) {
          add(s, d);
        }
      });
    }
  });
}

/// Predecessors under maximal progress, for backward closures.
core::Digraph predecessor_graph(const Imc& m) {
  return successor_graph(m, [](StateId, StateId) { return true; })
      .transpose();
}

/// Prob1E: states where SOME scheduler reaches @p target almost surely
/// (the standard nu X. mu Y double fixpoint; each interactive edge is a
/// separate choice, a Markovian state has its one race distribution).
std::vector<bool> prob1_exists(const Imc& m, const std::vector<bool>& target) {
  const std::size_t n = m.num_states();
  std::vector<bool> x(n, true);
  for (;;) {
    std::vector<bool> y = target;
    bool grew = true;
    while (grew) {
      grew = false;
      for (StateId s = 0; s < n; ++s) {
        if (y[s]) {
          continue;
        }
        bool add = false;
        const auto inter = m.interactive(s);
        if (!inter.empty()) {
          for (const InterEdge& e : inter) {
            if (y[e.dst]) {  // Y subset of X: the X-constraint is implied
              add = true;
              break;
            }
          }
        } else {
          const auto mark = m.markovian(s);
          if (!mark.empty()) {
            bool all_x = true;
            bool some_y = false;
            for (const MarkEdge& e : mark) {
              all_x = all_x && x[e.dst];
              some_y = some_y || y[e.dst];
            }
            add = all_x && some_y;
          }
        }
        if (add) {
          y[s] = true;
          grew = true;
        }
      }
    }
    if (y == x) {
      return x;
    }
    x = std::move(y);
  }
}

/// Least fixpoint F = {s : EVERY scheduler reaches @p target with positive
/// probability}; its complement is Prob0A (min-reach = 0).  Dead states
/// (no transitions at all) behave like self-loop absorbing states: they
/// are in F only if they are targets themselves.
std::vector<bool> positive_min_reach(const Imc& m,
                                     const std::vector<bool>& target) {
  const std::size_t n = m.num_states();
  std::vector<bool> f = target;
  bool grew = true;
  while (grew) {
    grew = false;
    for (StateId s = 0; s < n; ++s) {
      if (f[s]) {
        continue;
      }
      bool add = false;
      const auto inter = m.interactive(s);
      if (!inter.empty()) {
        add = true;  // every choice must hit F
        for (const InterEdge& e : inter) {
          add = add && f[e.dst];
        }
      } else {
        for (const MarkEdge& e : m.markovian(s)) {
          if (f[e.dst]) {  // the single race hits F with positive prob
            add = true;
            break;
          }
        }
      }
      if (add) {
        f[s] = true;
        grew = true;
      }
    }
  }
  return f;
}

/// A maximal end component of the sub-MDP restricted to @p region, plus
/// the destinations of the interactive edges that leave it (the only way
/// out: a Markovian state whose race leaves the component cannot be a
/// member at all).
struct Mec {
  std::vector<std::uint32_t> members;
  std::vector<StateId> exits;
};

std::vector<Mec> max_end_components(const Imc& m,
                                    const std::vector<bool>& region) {
  const std::size_t n = m.num_states();
  std::vector<bool> alive = region;
  std::vector<std::uint32_t> comp(n, kNone);
  for (;;) {
    bool changed = false;
    // A Markovian state's single action must stay inside entirely; a dead
    // state has no action; a decision state needs at least one edge in.
    for (StateId s = 0; s < n; ++s) {
      if (!alive[s]) {
        continue;
      }
      bool keep;
      const auto inter = m.interactive(s);
      if (!inter.empty()) {
        keep = false;
        for (const InterEdge& e : inter) {
          keep = keep || alive[e.dst];
        }
      } else {
        const auto mark = m.markovian(s);
        keep = !mark.empty();
        for (const MarkEdge& e : mark) {
          keep = keep && alive[e.dst];
        }
      }
      if (!keep) {
        alive[s] = false;
        changed = true;
      }
    }
    comp = core::scc(successor_graph(m, [&](StateId s, StateId d) {
             return alive[s] && alive[d];
           })).component_of;
    // Refine: every kept action must stay within its own component.
    for (StateId s = 0; s < n; ++s) {
      if (!alive[s]) {
        continue;
      }
      bool keep;
      const auto inter = m.interactive(s);
      if (!inter.empty()) {
        keep = false;
        for (const InterEdge& e : inter) {
          keep = keep || (alive[e.dst] && comp[e.dst] == comp[s]);
        }
      } else {
        keep = true;
        for (const MarkEdge& e : m.markovian(s)) {
          keep = keep && alive[e.dst] && comp[e.dst] == comp[s];
        }
      }
      if (!keep) {
        alive[s] = false;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
  std::vector<std::uint32_t> mec_of(n, kNone);
  std::vector<Mec> mecs;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!alive[s]) {
      continue;
    }
    std::uint32_t id = kNone;
    for (std::uint32_t t = 0; t < mecs.size(); ++t) {
      if (comp[mecs[t].members.front()] == comp[s]) {
        id = t;
        break;
      }
    }
    if (id == kNone) {
      id = static_cast<std::uint32_t>(mecs.size());
      mecs.push_back(Mec{});
    }
    mecs[id].members.push_back(s);
    mec_of[s] = id;
  }
  for (Mec& mec : mecs) {
    for (const std::uint32_t s : mec.members) {
      for (const InterEdge& e : m.interactive(s)) {
        if (mec_of[e.dst] != mec_of[s]) {
          mec.exits.push_back(e.dst);
        }
      }
    }
  }
  return mecs;
}

/// Every scheduler-bounds solve stops at a certified interval width of
/// 1e-10 (absolute for probabilities, relative to max(1, largest value)
/// for expected times), within 200,000 sweeps.
constexpr markov::SolverOptions kBoundsSolve{1e-10, 200000};

/// Bellman backup of Markovian state @p s over the values @p x: @p gain
/// (0 for probabilities, 1 for expected times) plus the rate-weighted
/// values of its successors, divided by its exit rate, self-loops
/// excluded.  @p solver names the caller when a self-loop-only state,
/// which the precomputation must have fixed, reaches it.
double markovian_backup(const Imc& m, StateId s, const std::vector<double>& x,
                        double gain, const char* solver) {
  double exit = 0.0;
  double self = 0.0;
  double acc = gain;
  for (const MarkEdge& e : m.markovian(s)) {
    exit += e.rate;
    if (e.dst == s) {
      self += e.rate;
    } else {
      acc += e.rate * x[e.dst];
    }
  }
  const double denom = exit - self;
  if (denom <= 0.0) {
    throw std::runtime_error(std::string(solver) +
                             ": self-loop-only state escaped precomputation");
  }
  return acc / denom;
}

/// Sound min/max reachability values via interval (two-sided) value
/// iteration: exact graph precomputation fixes the qualitative states, the
/// lower vector rises from 0, the upper falls from 1, and (for max) the
/// upper is deflated on every maximal end component so it cannot stall
/// above the least fixpoint.  Terminates only when sup |upper - lower| is
/// below the tolerance, so the returned midpoints are certified to
/// tolerance/2.
std::vector<double> solve_reach_interval(const Imc& m,
                                         const std::vector<bool>& target,
                                         bool maximise) {
  const std::size_t n = m.num_states();
  markov::interval::Solve solve(maximise ? "imc_reach[max]" : "imc_reach[min]",
                                markov::interval::Quantity::kProbability,
                                kBoundsSolve);

  std::vector<bool> zero;
  std::vector<bool> one;
  if (maximise) {
    zero = core::reach(predecessor_graph(m), target);
    zero.flip();
    one = prob1_exists(m, target);
  } else {
    // Prob0A: some scheduler avoids the target forever.
    zero = positive_min_reach(m, target);
    zero.flip();
    // Prob1A: no target-free path into Prob0A exists (paths may not leave
    // a target state).
    one = core::reach(predecessor_graph(m), zero, /*blocked=*/target);
    one.flip();
  }

  markov::interval::Units units;
  std::vector<bool> region(n, false);
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    if (!zero[s] && !one[s]) {
      units.add(s);
      region[s] = true;
    }
    lower[s] = one[s] ? 1.0 : 0.0;
    upper[s] = zero[s] ? 0.0 : 1.0;
  }

  const auto backup = [&](const std::vector<double>& x,
                          std::span<const std::uint32_t> unit) {
    const StateId s = unit[0];
    const auto inter = m.interactive(s);
    if (!inter.empty()) {
      double next = maximise ? 0.0 : 1.0;
      for (const InterEdge& e : inter) {
        next = maximise ? std::max(next, x[e.dst]) : std::min(next, x[e.dst]);
      }
      return next;
    }
    return markovian_backup(m, s, x, 0.0, "reachability_bounds");
  };
  if (!maximise) {
    return solve.contract(units, std::move(lower), std::move(upper), backup);
  }
  // Deflate the upper bound on every maximal end component, so it cannot
  // stall above the least fixpoint.
  const std::vector<Mec> mecs = max_end_components(m, region);
  return solve.contract(units, std::move(lower), std::move(upper), backup,
                        [&](std::vector<double>&, std::vector<double>& up) {
                          for (const Mec& mec : mecs) {
                            double exit_val = 0.0;
                            for (const StateId d : mec.exits) {
                              exit_val = std::max(exit_val, up[d]);
                            }
                            for (const std::uint32_t s : mec.members) {
                              up[s] = std::min(up[s], exit_val);
                            }
                          }
                        });
}

/// Sound min/max expected time to absorption.  The feasible set is exact:
/// min time is finite iff SOME scheduler absorbs almost surely (Prob1E of
/// the absorbing states), max time is finite iff EVERY scheduler does
/// (Prob1A).  Infeasible states get +infinity.  For min, interactive
/// strongly connected components are collapsed into single units (their
/// zero-delay cycles would otherwise trap value iteration below the true
/// value); the upper bound starts from an optimistically inflated lower
/// vector verified as a pre-fixpoint, and both bounds contract until the
/// interval is below the tolerance (relative to the largest value, since
/// expected times are unbounded).
std::vector<double> solve_time_interval(const Imc& m, bool maximise) {
  const std::size_t n = m.num_states();
  markov::interval::Solve solve(maximise ? "imc_time[max]" : "imc_time[min]",
                                markov::interval::Quantity::kTime,
                                kBoundsSolve);

  std::vector<bool> absorbing(n, false);
  for (StateId s = 0; s < n; ++s) {
    absorbing[s] = m.interactive(s).empty() && m.markovian(s).empty();
  }
  std::vector<bool> feasible;
  if (maximise) {
    std::vector<bool> avoidable = positive_min_reach(m, absorbing);
    avoidable.flip();
    feasible = core::reach(predecessor_graph(m), avoidable);
    feasible.flip();
  } else {
    feasible = prob1_exists(m, absorbing);
  }

  // Units of the Gauss-Seidel sweep: every active Markovian state is its
  // own unit; for min, feasible decision states are grouped by the SCCs of
  // the interactive edges among them and updated as one block.
  std::vector<std::uint32_t> unit_of(n, kNone);  // decision-group id
  markov::interval::Units units;
  std::vector<bool> active(n, false);
  for (StateId s = 0; s < n; ++s) {
    active[s] = feasible[s] && !absorbing[s];
  }
  if (maximise) {
    for (std::uint32_t s = 0; s < n; ++s) {
      if (active[s]) {
        units.add(s);
      }
    }
  } else {
    const auto grouped = [&](StateId s) {
      return active[s] && is_decision(m, s);
    };
    const core::Components scc =
        core::scc(successor_graph(m, [&](StateId s, StateId d) {
          return grouped(s) && grouped(d);
        }));
    const std::vector<std::uint32_t>& comp = scc.component_of;
    const std::size_t ncomp = scc.num_components;
    std::vector<std::vector<std::uint32_t>> members(ncomp);
    for (std::uint32_t s = 0; s < n; ++s) {
      if (active[s] && is_decision(m, s)) {
        members[comp[s]].push_back(s);
      }
    }
    std::vector<bool> emitted(ncomp, false);
    for (std::uint32_t s = 0; s < n; ++s) {
      if (!active[s]) {
        continue;
      }
      if (!is_decision(m, s)) {
        units.add(s);
      } else if (!emitted[comp[s]]) {
        emitted[comp[s]] = true;
        for (const std::uint32_t t : members[comp[s]]) {
          unit_of[t] = static_cast<std::uint32_t>(units.size());
        }
        units.add(members[comp[s]]);
      }
    }
  }

  const auto backup = [&](const std::vector<double>& x,
                          std::span<const std::uint32_t> unit) {
    const std::uint32_t s0 = unit[0];
    if (is_decision(m, s0)) {
      double v = maximise ? 0.0 : kInf;
      for (const std::uint32_t s : unit) {
        for (const InterEdge& e : m.interactive(s)) {
          if (!maximise && unit_of[e.dst] != kNone &&
              unit_of[e.dst] == unit_of[s]) {
            continue;  // zero-delay edge within the collapsed component
          }
          const double xv = feasible[e.dst] ? x[e.dst] : kInf;
          v = maximise ? std::max(v, xv) : std::min(v, xv);
        }
      }
      if (v == kInf) {
        throw std::runtime_error(
            "absorption_time_bounds: interactive component without a "
            "finite exit escaped precomputation");
      }
      return v;
    }
    return markovian_backup(m, s0, x, 1.0, "absorption_time_bounds");
  };
  std::vector<double> value = solve.from_below(n, units, backup);
  for (StateId s = 0; s < n; ++s) {
    if (!feasible[s]) {
      value[s] = kInf;
    }
  }
  return value;
}

}  // namespace

Bounds reachability_bounds(const Imc& m, const std::vector<bool>& target) {
  if (target.size() != m.num_states()) {
    throw std::invalid_argument("reachability_bounds: size mismatch");
  }
  if (m.num_states() == 0) {
    return Bounds{0.0, 0.0};
  }
  const StateId init = m.initial_state();
  Bounds b;
  b.min = solve_reach_interval(m, target, /*maximise=*/false)[init];
  b.max = solve_reach_interval(m, target, /*maximise=*/true)[init];
  return b;
}

Scheduler extract_time_scheduler(const Imc& m, bool maximise) {
  Scheduler sched(m.num_states(), 0);
  if (m.num_states() == 0) {
    return sched;
  }
  const std::vector<double> t = solve_time_interval(m, maximise);
  for (StateId s = 0; s < m.num_states(); ++s) {
    const auto inter = m.interactive(s);
    if (inter.empty()) {
      continue;
    }
    std::size_t best = 0;
    for (std::size_t k = 1; k < inter.size(); ++k) {
      const bool better = maximise ? t[inter[k].dst] > t[inter[best].dst]
                                   : t[inter[k].dst] < t[inter[best].dst];
      if (better) {
        best = k;
      }
    }
    sched[s] = best;
  }
  return sched;
}

Imc apply_scheduler(const Imc& m, const Scheduler& sched) {
  if (sched.size() != m.num_states()) {
    throw std::invalid_argument("apply_scheduler: size mismatch");
  }
  Imc out;
  out.add_states(m.num_states());
  if (m.num_states() > 0) {
    out.set_initial_state(m.initial_state());
  }
  for (StateId s = 0; s < m.num_states(); ++s) {
    const auto inter = m.interactive(s);
    if (!inter.empty()) {
      if (sched[s] >= inter.size()) {
        throw std::invalid_argument(
            "apply_scheduler: choice index out of range at state " +
            std::to_string(s));
      }
      const InterEdge& e = inter[sched[s]];
      out.add_interactive(s, m.actions().name(e.action), e.dst);
    }
    for (const MarkEdge& e : m.markovian(s)) {
      out.add_markovian(s, e.rate, e.dst, e.label);
    }
  }
  return out;
}

Bounds absorption_time_bounds(const Imc& m) {
  if (m.num_states() == 0) {
    return Bounds{0.0, 0.0};
  }
  // Divergence is decided exactly on the graph (inside the solves): min
  // time is finite iff some scheduler absorbs almost surely, max time iff
  // every scheduler does.  No numeric probability threshold is involved.
  const StateId init = m.initial_state();
  Bounds b;
  b.min = solve_time_interval(m, /*maximise=*/false)[init];
  if (std::isinf(b.min)) {
    b.max = kInf;
    return b;
  }
  b.max = solve_time_interval(m, /*maximise=*/true)[init];
  return b;
}

}  // namespace multival::imc
