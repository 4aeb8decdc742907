#include "lts/product.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>

namespace multival::lts {

std::string_view label_gate(std::string_view label) {
  const auto pos = label.find(' ');
  return pos == std::string_view::npos ? label : label.substr(0, pos);
}

namespace {

using PairKey = std::uint64_t;

PairKey pair_key(StateId a, StateId b) {
  return (static_cast<PairKey>(a) << 32) | b;
}

std::unordered_set<std::string> to_set(std::span<const std::string> gates) {
  return {gates.begin(), gates.end()};
}

bool gate_in(const std::unordered_set<std::string>& set,
             std::string_view gate) {
  return set.find(std::string(gate)) != set.end();
}

}  // namespace

Lts parallel(const Lts& a, const Lts& b,
             std::span<const std::string> sync_gates, std::size_t max_states,
             const ProductHook& hook) {
  const auto sync = to_set(sync_gates);
  const auto must_sync = [&](const Lts& side, ActionId act) {
    if (ActionTable::is_tau(act)) {
      return false;
    }
    if (ActionTable::is_exit(act)) {
      return true;
    }
    return gate_in(sync, label_gate(side.actions().name(act)));
  };

  Lts result;
  std::unordered_map<PairKey, StateId> ids;
  std::vector<std::pair<StateId, StateId>> worklist;

  const auto state_of = [&](StateId sa, StateId sb) {
    const PairKey key = pair_key(sa, sb);
    const auto it = ids.find(key);
    if (it != ids.end()) {
      return it->second;
    }
    if (result.num_states() >= max_states) {
      throw StateSpaceLimit("parallel: state space exceeds " +
                            std::to_string(max_states) + " states");
    }
    const StateId ns = result.add_state();
    ids.emplace(key, ns);
    worklist.emplace_back(sa, sb);
    return ns;
  };

  const StateId init = state_of(a.initial_state(), b.initial_state());
  result.set_initial_state(init);
  const PairState pair_state = hook ? PairState(state_of) : PairState();

  // Cache label translation a/b action id -> result action id.
  std::vector<ActionId> map_a(a.actions().size(), kNoState);
  std::vector<ActionId> map_b(b.actions().size(), kNoState);
  const auto xlat = [&](const Lts& side, std::vector<ActionId>& cache,
                        ActionId act) {
    if (cache[act] == kNoState) {
      cache[act] = result.actions().intern(side.actions().name(act));
    }
    return cache[act];
  };

  while (!worklist.empty()) {
    const auto [sa, sb] = worklist.back();
    worklist.pop_back();
    const StateId src = ids.at(pair_key(sa, sb));
    if (hook) {
      hook(src, sa, sb, pair_state);
    }

    // Independent moves of a.
    for (const OutEdge& ea : a.out(sa)) {
      if (must_sync(a, ea.action)) {
        continue;
      }
      result.add_transition(src, xlat(a, map_a, ea.action),
                            state_of(ea.dst, sb));
    }
    // Independent moves of b.
    for (const OutEdge& eb : b.out(sb)) {
      if (must_sync(b, eb.action)) {
        continue;
      }
      result.add_transition(src, xlat(b, map_b, eb.action),
                            state_of(sa, eb.dst));
    }
    // Synchronised moves: full label equality (value matching).
    for (const OutEdge& ea : a.out(sa)) {
      if (!must_sync(a, ea.action)) {
        continue;
      }
      const std::string_view label = a.actions().name(ea.action);
      for (const OutEdge& eb : b.out(sb)) {
        if (!must_sync(b, eb.action)) {
          continue;
        }
        if (b.actions().name(eb.action) != label) {
          continue;
        }
        result.add_transition(src, xlat(a, map_a, ea.action),
                              state_of(ea.dst, eb.dst));
      }
    }
  }
  return result;
}

Lts relabel(const Lts& l,
            const std::function<std::string(std::string_view)>& f) {
  Lts out;
  out.add_states(l.num_states());
  if (l.num_states() > 0) {
    out.set_initial_state(l.initial_state());
  }
  std::vector<ActionId> cache(l.actions().size(), kNoState);
  for (StateId s = 0; s < l.num_states(); ++s) {
    for (const OutEdge& e : l.out(s)) {
      if (cache[e.action] == kNoState) {
        cache[e.action] = out.actions().intern(f(l.actions().name(e.action)));
      }
      out.add_transition(s, cache[e.action], e.dst);
    }
  }
  return out;
}

Lts hide(const Lts& l, std::span<const std::string> gates) {
  const auto set = to_set(gates);
  return relabel(l, [&](std::string_view label) -> std::string {
    if (label == "i" || label == "exit") {
      return std::string(label);
    }
    return gate_in(set, label_gate(label)) ? "i" : std::string(label);
  });
}

Lts rename(const Lts& l,
           const std::unordered_map<std::string, std::string>& gate_map) {
  return relabel(l, [&](std::string_view label) -> std::string {
    if (label == "i" || label == "exit") {
      return std::string(label);
    }
    const std::string_view gate = label_gate(label);
    const auto it = gate_map.find(std::string(gate));
    if (it == gate_map.end()) {
      return std::string(label);
    }
    return it->second + std::string(label.substr(gate.size()));
  });
}

}  // namespace multival::lts
