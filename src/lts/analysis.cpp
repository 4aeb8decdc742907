#include "lts/analysis.hpp"

namespace multival::lts {

namespace {

bool any_edge(StateId /*src*/, const OutEdge& /*e*/) { return true; }

}  // namespace

core::Digraph tau_graph(const Lts& l) {
  return transition_graph(l, [](StateId, const OutEdge& e) {
    return ActionTable::is_tau(e.action);
  });
}

std::vector<bool> reachable_states(const Lts& l) {
  std::vector<bool> seed(l.num_states(), false);
  if (l.num_states() > 0) {
    seed[l.initial_state()] = true;
  }
  return core::reach(transition_graph(l, any_edge), seed);
}

TrimResult trim(const Lts& l) {
  const std::vector<bool> seen = reachable_states(l);
  TrimResult r;
  r.old_to_new.assign(l.num_states(), kNoState);
  // Copy the action table wholesale so ids stay valid.
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (seen[s]) {
      r.old_to_new[s] = r.lts.add_state();
    } else {
      ++r.removed_states;
    }
  }
  for (ActionId a = 0; a < l.actions().size(); ++a) {
    r.lts.actions().intern(l.actions().name(a));
  }
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (!seen[s]) {
      continue;
    }
    for (const OutEdge& e : l.out(s)) {
      r.lts.add_transition(r.old_to_new[s], e.action, r.old_to_new[e.dst]);
    }
  }
  if (l.num_states() > 0) {
    r.lts.set_initial_state(r.old_to_new[l.initial_state()]);
  }
  return r;
}

std::vector<StateId> deadlock_states(const Lts& l) {
  const std::vector<bool> seen = reachable_states(l);
  std::vector<StateId> out;
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (seen[s] && l.is_deadlock(s)) {
      out.push_back(s);
    }
  }
  return out;
}

SccResult strongly_connected_components(const Lts& l) {
  return core::scc(transition_graph(l, any_edge));
}

TauContraction contract_tau_cycles(
    const Lts& l, const std::function<bool(StateId, StateId)>& same_block) {
  const std::size_t n = l.num_states();
  core::Components scc =
      core::scc(transition_graph(l, [&](StateId s, const OutEdge& e) {
        return ActionTable::is_tau(e.action) &&
               (!same_block || same_block(s, e.dst));
      }));
  TauContraction c;
  c.node_of = std::move(scc.component_of);
  c.num_nodes = scc.num_components;
  c.out.resize(c.num_nodes);
  c.divergent.assign(c.num_nodes, false);
  std::vector<std::size_t> size(c.num_nodes, 0);
  for (StateId s = 0; s < n; ++s) {
    ++size[c.node_of[s]];
  }
  for (StateId s = 0; s < n; ++s) {
    const StateId cs = c.node_of[s];
    for (const OutEdge& e : l.out(s)) {
      const StateId ct = c.node_of[e.dst];
      if (ActionTable::is_tau(e.action) && cs == ct) {
        c.divergent[cs] = c.divergent[cs] || size[cs] > 1 || e.dst == s;
        continue;
      }
      c.out[cs].push_back(OutEdge{e.action, ct});
    }
  }
  return c;
}

std::vector<StateId> divergent_states(const Lts& l) {
  const TauContraction c = contract_tau_cycles(l);
  const std::vector<bool> seen = reachable_states(l);
  std::vector<StateId> out;
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (seen[s] && c.divergent[c.node_of[s]]) {
      out.push_back(s);
    }
  }
  return out;
}

bool has_tau_cycle(const Lts& l) { return !divergent_states(l).empty(); }

std::vector<ActionId> used_actions(const Lts& l) {
  std::vector<bool> used(l.actions().size(), false);
  for (StateId s = 0; s < l.num_states(); ++s) {
    for (const OutEdge& e : l.out(s)) {
      used[e.action] = true;
    }
  }
  std::vector<ActionId> out;
  for (ActionId a = 0; a < used.size(); ++a) {
    if (used[a]) {
      out.push_back(a);
    }
  }
  return out;
}

}  // namespace multival::lts
