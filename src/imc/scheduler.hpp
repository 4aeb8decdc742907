// Scheduler bounds for nondeterministic IMCs.
//
// The paper's conclusion names "new algorithms to handle nondeterminism
// (currently not accepted by the Markov solvers of CADP)" as an open work
// item.  This module implements the natural baseline: interpret a closed
// IMC with residual interactive nondeterminism as a continuous-time Markov
// decision process (vanishing states are decision states) and compute, over
// all memoryless schedulers,
//   - min / max probability of eventually reaching a target set, and
//   - min / max expected time to absorption,
// by interval (two-sided) value iteration: qualitative states are fixed by
// exact graph precomputations (Prob0/Prob1 in both senses), a lower bound
// rises from 0 while an upper bound falls towards the fixpoint (deflated
// over maximal end components for max-reachability; obtained by verified
// optimistic inflation for expected time), and iteration stops only when
// the two are within 1e-10 (absolute for probabilities, relative to
// max(1, largest value) for expected times).  The returned values are
// midpoints of those certified intervals.  The solves run the one interval
// kernel of markov/interval.hpp; a solve that needs more than 200,000
// sweeps throws markov::SolverFailure.  A uniformly-randomising scheduler
// (the kUniform policy of to_ctmc) always lies between the two bounds.
#pragma once

#include <vector>

#include "imc/imc.hpp"

namespace multival::imc {

struct Bounds {
  double min = 0.0;
  double max = 0.0;
};

/// Min/max probability, over memoryless schedulers, of eventually reaching
/// a state in @p target (indexed by IMC state id) from the initial state.
[[nodiscard]] Bounds reachability_bounds(const Imc& m,
                                         const std::vector<bool>& target);

/// Min/max expected time to reach a state with no outgoing transition at
/// all (absorbing).  Divergence is decided exactly on the graph: the min
/// bound is finite iff some scheduler absorbs almost surely, the max bound
/// iff every scheduler does; infinite cases return +infinity.
[[nodiscard]] Bounds absorption_time_bounds(const Imc& m);

/// A memoryless scheduler: for every state with interactive transitions,
/// the index of the chosen transition (0 for other states).
using Scheduler = std::vector<std::size_t>;

/// Extracts the optimal memoryless scheduler for expected absorption time
/// (@p maximise false = time-optimal, true = worst case).  Meaningful only
/// when the corresponding bound is finite.
[[nodiscard]] Scheduler extract_time_scheduler(const Imc& m, bool maximise);

/// Resolves every interactive choice according to @p sched, yielding a
/// deterministic IMC (at most one interactive transition per state).
[[nodiscard]] Imc apply_scheduler(const Imc& m, const Scheduler& sched);

}  // namespace multival::imc
