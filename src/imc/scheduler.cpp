#include "imc/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/graph.hpp"
#include "core/report.hpp"

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

void record(const char* solver, std::size_t states, std::size_t iterations,
            double width,
            const std::chrono::steady_clock::time_point& t0) {
  core::record_solve(core::SolveStat{
      solver, {}, states, iterations, width,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count()});
}

/// Sound min/max reachability values via interval (two-sided) value
/// iteration: exact graph precomputation fixes the qualitative states, the
/// lower vector rises from 0, the upper falls from 1, and (for max) the
/// upper is deflated on every maximal end component so it cannot stall
/// above the least fixpoint.  Terminates only when sup |upper - lower| is
/// below the tolerance, so the returned midpoints are certified to
/// tolerance/2 -- unlike the previous delta-based stop.
std::vector<double> solve_reach_interval(const Imc& m,
                                         const std::vector<bool>& target,
                                         bool maximise,
                                         const SchedulerBoundsOptions& opts) {
  const std::size_t n = m.num_states();
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<bool> zero(n, false);
  std::vector<bool> one(n, false);
  if (maximise) {
    const std::vector<bool> can = core::reach(predecessor_graph(m), target);
    for (StateId s = 0; s < n; ++s) {
      zero[s] = !can[s];
    }
    one = prob1_exists(m, target);
  } else {
    const std::vector<bool> f = positive_min_reach(m, target);
    for (StateId s = 0; s < n; ++s) {
      zero[s] = !f[s];  // Prob0A: some scheduler avoids the target forever
    }
    // Prob1A: no target-free path into Prob0A exists (paths may not leave
    // a target state).
    const std::vector<bool> not_one =
        core::reach(predecessor_graph(m), zero, /*blocked=*/target);
    for (StateId s = 0; s < n; ++s) {
      one[s] = !not_one[s];
    }
  }

  std::vector<std::uint32_t> active;
  std::vector<bool> region(n, false);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!zero[s] && !one[s]) {
      active.push_back(s);
      region[s] = true;
    }
  }
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    lower[s] = one[s] ? 1.0 : 0.0;
    upper[s] = zero[s] ? 0.0 : 1.0;
  }

  const std::vector<Mec> mecs =
      maximise ? max_end_components(m, region) : std::vector<Mec>{};

  const auto sweep = [&](std::vector<double>& x) {
    for (const std::uint32_t s : active) {
      const auto inter = m.interactive(s);
      double next;
      if (!inter.empty()) {
        next = maximise ? 0.0 : 1.0;
        for (const InterEdge& e : inter) {
          next = maximise ? std::max(next, x[e.dst])
                          : std::min(next, x[e.dst]);
        }
      } else {
        double exit = 0.0;
        double self = 0.0;
        double acc = 0.0;
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
          throw std::runtime_error(
              "reachability_bounds: self-loop-only state escaped "
              "precomputation");
        }
        next = acc / denom;
      }
      x[s] = next;
    }
  };

  std::size_t iterations = 0;
  double width = 0.0;
  if (!active.empty()) {
    for (;; ++iterations) {
      width = 0.0;
      for (const std::uint32_t s : active) {
        width = std::max(width, upper[s] - lower[s]);
      }
      if (width < opts.tolerance) {
        break;
      }
      if (iterations >= opts.max_iterations) {
        throw std::runtime_error(
            "reachability_bounds: interval iteration did not converge");
      }
      sweep(lower);
      sweep(upper);
      for (const Mec& mec : mecs) {
        double exit_val = 0.0;
        for (const StateId d : mec.exits) {
          exit_val = std::max(exit_val, upper[d]);
        }
        for (const std::uint32_t s : mec.members) {
          upper[s] = std::min(upper[s], exit_val);
        }
      }
    }
  }
  std::vector<double> mid(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    mid[s] = 0.5 * (lower[s] + upper[s]);
  }
  record(maximise ? "imc_reach[max]" : "imc_reach[min]", n, iterations, width,
         t0);
  return mid;
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
std::vector<double> solve_time_interval(const Imc& m, bool maximise,
                                        const SchedulerBoundsOptions& opts) {
  const std::size_t n = m.num_states();
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<bool> absorbing(n, false);
  for (StateId s = 0; s < n; ++s) {
    absorbing[s] = m.interactive(s).empty() && m.markovian(s).empty();
  }
  std::vector<bool> feasible;
  if (maximise) {
    const std::vector<bool> f = positive_min_reach(m, absorbing);
    std::vector<bool> avoidable(n, false);
    for (StateId s = 0; s < n; ++s) {
      avoidable[s] = !f[s];
    }
    const std::vector<bool> not_sure =
        core::reach(predecessor_graph(m), avoidable);
    feasible.assign(n, false);
    for (StateId s = 0; s < n; ++s) {
      feasible[s] = !not_sure[s];
    }
  } else {
    feasible = prob1_exists(m, absorbing);
  }

  // Units of the Gauss-Seidel sweep: every active Markovian state is its
  // own unit; for min, feasible decision states are grouped by the SCCs of
  // the interactive edges among them and updated as one block.
  struct Unit {
    std::vector<std::uint32_t> states;
  };
  std::vector<std::uint32_t> unit_of(n, kNone);  // decision-group id
  std::vector<Unit> units;
  std::vector<bool> active(n, false);
  for (StateId s = 0; s < n; ++s) {
    active[s] = feasible[s] && !absorbing[s];
  }
  if (maximise) {
    for (std::uint32_t s = 0; s < n; ++s) {
      if (active[s]) {
        units.push_back(Unit{{s}});
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
        units.push_back(Unit{{s}});
      } else if (!emitted[comp[s]]) {
        emitted[comp[s]] = true;
        const std::uint32_t id = static_cast<std::uint32_t>(units.size());
        units.push_back(Unit{members[comp[s]]});
        for (const std::uint32_t t : members[comp[s]]) {
          unit_of[t] = id;
        }
      }
    }
  }

  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, 0.0);

  const auto backup = [&](const std::vector<double>& x, const Unit& u) {
    const std::uint32_t s0 = u.states[0];
    if (is_decision(m, s0)) {
      double v = maximise ? 0.0 : kInf;
      for (const std::uint32_t s : u.states) {
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
    double exit = 0.0;
    double self = 0.0;
    double acc = 1.0;
    for (const MarkEdge& e : m.markovian(s0)) {
      exit += e.rate;
      if (e.dst == s0) {
        self += e.rate;
      } else {
        acc += e.rate * x[e.dst];
      }
    }
    const double denom = exit - self;
    if (denom <= 0.0) {
      throw std::runtime_error(
          "absorption_time_bounds: self-loop-only state escaped "
          "precomputation");
    }
    return acc / denom;
  };
  // Expected times are unbounded, so stopping tests are relative: they
  // scale by max(1, ||x||_inf).  An absolute test would drop below the
  // floating-point resolution of large iterates and never trigger.
  double scale = 1.0;
  const auto sweep = [&](std::vector<double>& x) {
    double delta = 0.0;
    for (const Unit& u : units) {
      const double next = backup(x, u);
      delta = std::max(delta, std::abs(next - x[u.states[0]]));
      for (const std::uint32_t s : u.states) {
        x[s] = next;
      }
      scale = std::max(scale, next);
    }
    return delta;
  };

  std::size_t iterations = 0;
  double width = 0.0;
  if (!units.empty()) {
    // Phase 1: raise the lower bound to near-convergence.
    for (;; ++iterations) {
      if (iterations >= opts.max_iterations) {
        throw std::runtime_error(
            "absorption_time_bounds: value iteration did not converge");
      }
      if (sweep(lower) < opts.tolerance * scale) {
        break;
      }
    }
    // Phase 2: optimistic upper start, verified as a pre-fixpoint
    // (Phi(U) <= U implies U bounds the least fixpoint from above).
    double inflation = std::max(opts.tolerance, 1e-12);
    bool verified = false;
    while (!verified) {
      for (const Unit& u : units) {
        for (const std::uint32_t s : u.states) {
          upper[s] = lower[s] + inflation * (1.0 + lower[s]);
        }
      }
      verified = true;
      for (const Unit& u : units) {
        if (backup(upper, u) > upper[u.states[0]]) {
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
          throw std::runtime_error(
              "absorption_time_bounds: no verified upper bound");
        }
      }
    }
    // Phase 3: contract both bounds until the interval is certified.
    for (;; ++iterations) {
      width = 0.0;
      for (const Unit& u : units) {
        width = std::max(width, upper[u.states[0]] - lower[u.states[0]]);
      }
      if (width < opts.tolerance * scale) {
        break;
      }
      if (iterations >= opts.max_iterations) {
        throw std::runtime_error(
            "absorption_time_bounds: interval iteration did not converge");
      }
      (void)sweep(lower);
      (void)sweep(upper);
    }
  }

  std::vector<double> value(n, kInf);
  for (StateId s = 0; s < n; ++s) {
    if (!feasible[s]) {
      continue;
    }
    value[s] = absorbing[s] ? 0.0 : 0.5 * (lower[s] + upper[s]);
  }
  record(maximise ? "imc_time[max]" : "imc_time[min]", n, iterations, width,
         t0);
  return value;
}

}  // namespace

Bounds reachability_bounds(const Imc& m, const std::vector<bool>& target,
                           const SchedulerBoundsOptions& opts) {
  if (target.size() != m.num_states()) {
    throw std::invalid_argument("reachability_bounds: size mismatch");
  }
  if (m.num_states() == 0) {
    return Bounds{0.0, 0.0};
  }
  Bounds b;
  b.min = solve_reach_interval(m, target, /*maximise=*/false,
                               opts)[m.initial_state()];
  b.max = solve_reach_interval(m, target, /*maximise=*/true,
                               opts)[m.initial_state()];
  return b;
}

Scheduler extract_time_scheduler(const Imc& m, bool maximise,
                                 const SchedulerBoundsOptions& opts) {
  Scheduler sched(m.num_states(), 0);
  if (m.num_states() == 0) {
    return sched;
  }
  const std::vector<double> t = solve_time_interval(m, maximise, opts);
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

Bounds absorption_time_bounds(const Imc& m,
                              const SchedulerBoundsOptions& opts) {
  if (m.num_states() == 0) {
    return Bounds{0.0, 0.0};
  }
  // Divergence is decided exactly on the graph (inside the solves): min
  // time is finite iff some scheduler absorbs almost surely, max time iff
  // every scheduler does.  No numeric probability threshold is involved
  // (the previous `reach < 1 - 1e-9` test misclassified whenever the
  // requested tolerance was coarser than 1e-9).
  const StateId init = m.initial_state();
  Bounds b;
  b.min = solve_time_interval(m, /*maximise=*/false, opts)[init];
  if (std::isinf(b.min)) {
    b.max = kInf;
    return b;
  }
  b.max = solve_time_interval(m, /*maximise=*/true, opts)[init];
  return b;
}

}  // namespace multival::imc
