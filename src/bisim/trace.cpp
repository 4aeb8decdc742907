#include "bisim/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "bisim/equivalence.hpp"
#include "core/graph.hpp"
#include "lts/analysis.hpp"

namespace multival::bisim {

namespace {

using lts::ActionId;
using lts::Lts;
using lts::StateId;

using Subset = std::vector<StateId>;  // sorted, deduplicated

Subset tau_closure(core::Closure& tau, const Subset& seed) {
  const auto found = tau.from(seed);
  Subset out(found.begin(), found.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

lts::Lts determinize(const Lts& l, const DeterminizeOptions& opts) {
  Lts d;
  if (l.num_states() == 0) {
    return d;
  }
  std::map<Subset, StateId> ids;
  std::vector<Subset> worklist;

  const auto subset_state = [&](Subset subset) {
    const auto it = ids.find(subset);
    if (it != ids.end()) {
      return it->second;
    }
    if (ids.size() >= opts.max_states) {
      throw std::runtime_error("determinize: subset construction exceeds " +
                               std::to_string(opts.max_states) + " states");
    }
    const StateId s = d.add_state();
    ids.emplace(subset, s);
    worklist.push_back(std::move(subset));
    return s;
  };

  const core::Digraph tau_edges = lts::tau_graph(l);
  core::Closure tau(tau_edges);
  d.set_initial_state(subset_state(tau_closure(tau, {l.initial_state()})));

  while (!worklist.empty()) {
    const Subset subset = std::move(worklist.back());
    worklist.pop_back();
    const StateId src = ids.at(subset);
    // Collect visible successors per action.
    std::map<ActionId, Subset> succ;
    for (const StateId s : subset) {
      for (const lts::OutEdge& e : l.out(s)) {
        if (!lts::ActionTable::is_tau(e.action)) {
          succ[e.action].push_back(e.dst);
        }
      }
    }
    for (auto& [action, states] : succ) {
      std::sort(states.begin(), states.end());
      states.erase(std::unique(states.begin(), states.end()), states.end());
      const Subset closed = tau_closure(tau, states);
      const StateId dst = subset_state(closed);
      d.add_transition(src, l.actions().name(action), dst);
    }
  }
  return d;
}

bool weak_trace_equivalent(const Lts& a, const Lts& b,
                           const DeterminizeOptions& opts) {
  // For deterministic LTSs, strong bisimilarity coincides with trace-set
  // equality; determinise both and compare.
  const Lts da = determinize(a, opts);
  const Lts db = determinize(b, opts);
  return equivalent(da, db, Equivalence::kStrong);
}

}  // namespace multival::bisim
