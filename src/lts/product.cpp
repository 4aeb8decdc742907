#include "lts/product.hpp"

#include <array>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/id_table.hpp"

namespace multival::lts {

std::string_view label_gate(std::string_view label) {
  const auto pos = label.find(' ');
  return pos == std::string_view::npos ? label : label.substr(0, pos);
}

namespace {

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
  // The per-join tables: which actions of each side synchronise, and for
  // each synchronising action of b the id of a's action with its label.
  // Equal labels have equal gates (and "i"/"exit" have fixed ids), so the
  // two sides' flags agree on a shared label and the edge loops below
  // compare ids only.
  const auto sync = to_set(sync_gates);
  const auto sync_flags = [&](const Lts& side) {
    std::vector<char> flags(side.actions().size(), 0);
    for (ActionId act = 0; act < flags.size(); ++act) {
      flags[act] = !ActionTable::is_tau(act) &&
                   (ActionTable::is_exit(act) ||
                    gate_in(sync, label_gate(side.actions().name(act))));
    }
    return flags;
  };
  const std::vector<char> sync_a = sync_flags(a);
  const std::vector<char> sync_b = sync_flags(b);
  std::vector<ActionId> partner(b.actions().size(), kNoState);
  for (ActionId act = 0; act < partner.size(); ++act) {
    if (sync_b[act]) {
      partner[act] =
          a.actions().find(b.actions().name(act)).value_or(kNoState);
    }
  }

  // The pair numbering: product state id -> its pair, interned through an
  // open-addressing table; new pairs go on the worklist by id.
  Lts result;
  std::vector<std::array<StateId, 2>> pairs;
  core::IdTable ids;
  std::vector<StateId> worklist;

  const auto state_of = [&](StateId sa, StateId sb) {
    const std::array<StateId, 2> pair{sa, sb};
    const auto fresh = static_cast<StateId>(pairs.size());
    const StateId id = ids.find_or_add(
        core::hash_words(pair), fresh,
        [&](StateId known) { return pairs[known] == pair; });
    if (id != fresh) {
      return id;
    }
    if (result.num_states() >= max_states) {
      throw StateSpaceLimit("parallel: state space exceeds " +
                            std::to_string(max_states) + " states");
    }
    pairs.push_back(pair);
    worklist.push_back(result.add_state());
    return id;
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
    const StateId src = worklist.back();
    worklist.pop_back();
    const auto [sa, sb] = pairs[src];
    if (hook) {
      hook(src, sa, sb, pair_state);
    }

    // Independent moves of a.
    for (const OutEdge& ea : a.out(sa)) {
      if (sync_a[ea.action]) {
        continue;
      }
      result.add_transition(src, xlat(a, map_a, ea.action),
                            state_of(ea.dst, sb));
    }
    // Independent moves of b.
    for (const OutEdge& eb : b.out(sb)) {
      if (sync_b[eb.action]) {
        continue;
      }
      result.add_transition(src, xlat(b, map_b, eb.action),
                            state_of(sa, eb.dst));
    }
    // Synchronised moves: full label equality (value matching), which is
    // equality of a's id with the partner of b's.
    for (const OutEdge& ea : a.out(sa)) {
      if (!sync_a[ea.action]) {
        continue;
      }
      for (const OutEdge& eb : b.out(sb)) {
        if (partner[eb.action] != ea.action) {
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
