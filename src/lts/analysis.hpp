// Basic graph analyses over LTSs: reachability trimming, deadlock and
// livelock (tau-cycle) detection, strongly connected components.  All of
// them run on the core graph kernel (core/graph.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/graph.hpp"
#include "lts/lts.hpp"

namespace multival::lts {

/// Result of restricting an LTS to its reachable part.
struct TrimResult {
  Lts lts;
  /// old state id -> new state id, or kNoState if unreachable.
  std::vector<StateId> old_to_new;
  std::size_t removed_states = 0;
};

/// Returns the sub-LTS reachable from the initial state.
[[nodiscard]] TrimResult trim(const Lts& l);

/// States reachable from the initial state (bitmap indexed by state id).
[[nodiscard]] std::vector<bool> reachable_states(const Lts& l);

/// All deadlock states (no outgoing transition) reachable from the initial
/// state.
[[nodiscard]] std::vector<StateId> deadlock_states(const Lts& l);

/// The transition graph of @p l restricted to the edges @p keep accepts
/// (called as keep(src, edge)); each state keeps its edges in insertion
/// order.
template <class Keep>
[[nodiscard]] core::Digraph transition_graph(const Lts& l, Keep&& keep) {
  return core::Digraph::build(l.num_states(), [&](auto&& add) {
    for (StateId s = 0; s < l.num_states(); ++s) {
      for (const OutEdge& e : l.out(s)) {
        if (keep(s, e)) {
          add(s, e.dst);
        }
      }
    }
  });
}

/// The graph of the invisible ("i") transitions of @p l.
[[nodiscard]] core::Digraph tau_graph(const Lts& l);

/// Strongly connected components over all transitions, numbered by
/// core::scc: every transition goes from a higher-or-equal to a
/// lower-or-equal component id.
using SccResult = core::Components;
[[nodiscard]] SccResult strongly_connected_components(const Lts& l);

/// The tau-SCCs of @p l, contracted to single nodes numbered by core::scc.
/// A tau edge joins its ends only if @p same_block accepts them (unset:
/// always).  Branching refinement, branching lumping (on an IMC's
/// interactive part) and divergence detection run on it.
struct TauContraction {
  std::vector<StateId> node_of;  // state -> node
  std::size_t num_nodes = 0;
  /// node -> (action, node) edges; tau edges inside a node are dropped.
  std::vector<std::vector<OutEdge>> out;
  /// The node lies on a tau cycle (size > 1, or a tau self-loop).
  std::vector<bool> divergent;
};
[[nodiscard]] TauContraction contract_tau_cycles(
    const Lts& l, const std::function<bool(StateId, StateId)>& same_block = {});

/// True if some reachable state lies on a cycle of invisible ("i")
/// transitions — a potential livelock / divergence.
[[nodiscard]] bool has_tau_cycle(const Lts& l);

/// All reachable states lying on a tau cycle.
[[nodiscard]] std::vector<StateId> divergent_states(const Lts& l);

/// Sorted, deduplicated list of action ids actually used by transitions.
[[nodiscard]] std::vector<ActionId> used_actions(const Lts& l);

}  // namespace multival::lts
