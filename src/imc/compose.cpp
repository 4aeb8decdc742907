#include "imc/compose.hpp"

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/graph.hpp"
#include "lts/product.hpp"

namespace multival::imc {

namespace {

using lts::ActionTable;

using PairKey = std::uint64_t;

PairKey pair_key(StateId a, StateId b) {
  return (static_cast<PairKey>(a) << 32) | b;
}

bool gate_in(const std::unordered_set<std::string>& set,
             std::string_view gate) {
  return set.find(std::string(gate)) != set.end();
}

}  // namespace

Imc parallel(const Imc& a, const Imc& b,
             std::span<const std::string> sync_gates) {
  const std::unordered_set<std::string> sync(sync_gates.begin(),
                                             sync_gates.end());
  const auto must_sync = [&](const Imc& side, ActionId act) {
    if (ActionTable::is_tau(act)) {
      return false;
    }
    if (ActionTable::is_exit(act)) {
      return true;
    }
    return gate_in(sync, lts::label_gate(side.actions().name(act)));
  };

  Imc result;
  std::unordered_map<PairKey, StateId> ids;
  std::vector<std::pair<StateId, StateId>> worklist;

  const auto state_of = [&](StateId sa, StateId sb) {
    const PairKey key = pair_key(sa, sb);
    const auto it = ids.find(key);
    if (it != ids.end()) {
      return it->second;
    }
    const StateId ns = result.add_state();
    ids.emplace(key, ns);
    worklist.emplace_back(sa, sb);
    return ns;
  };

  result.set_initial_state(state_of(a.initial_state(), b.initial_state()));

  std::vector<ActionId> map_a(a.actions().size(), lts::kNoState);
  std::vector<ActionId> map_b(b.actions().size(), lts::kNoState);
  const auto xlat = [&](const Imc& side, std::vector<ActionId>& cache,
                        ActionId act) {
    if (cache[act] == lts::kNoState) {
      cache[act] = result.actions().intern(side.actions().name(act));
    }
    return cache[act];
  };

  while (!worklist.empty()) {
    const auto [sa, sb] = worklist.back();
    worklist.pop_back();
    const StateId src = ids.at(pair_key(sa, sb));

    // Markovian transitions interleave unconditionally (memorylessness).
    for (const MarkEdge& e : a.markovian(sa)) {
      result.add_markovian(src, e.rate, state_of(e.dst, sb), e.label);
    }
    for (const MarkEdge& e : b.markovian(sb)) {
      result.add_markovian(src, e.rate, state_of(sa, e.dst), e.label);
    }
    // Independent interactive moves.
    for (const InterEdge& ea : a.interactive(sa)) {
      if (!must_sync(a, ea.action)) {
        result.add_interactive(src, xlat(a, map_a, ea.action),
                               state_of(ea.dst, sb));
      }
    }
    for (const InterEdge& eb : b.interactive(sb)) {
      if (!must_sync(b, eb.action)) {
        result.add_interactive(src, xlat(b, map_b, eb.action),
                               state_of(sa, eb.dst));
      }
    }
    // Synchronised interactive moves (full-label value matching).
    for (const InterEdge& ea : a.interactive(sa)) {
      if (!must_sync(a, ea.action)) {
        continue;
      }
      const std::string_view label = a.actions().name(ea.action);
      for (const InterEdge& eb : b.interactive(sb)) {
        if (!must_sync(b, eb.action) ||
            b.actions().name(eb.action) != label) {
          continue;
        }
        result.add_interactive(src, xlat(a, map_a, ea.action),
                               state_of(ea.dst, eb.dst));
      }
    }
  }
  return result;
}

namespace {

std::unordered_set<std::string> interactive_gates_of(const Imc& m) {
  std::unordered_set<std::string> gates;
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (const InterEdge& e : m.interactive(s)) {
      gates.emplace(lts::label_gate(m.actions().name(e.action)));
    }
  }
  return gates;
}

}  // namespace

Imc parallel_all(std::span<const Imc> components,
                 std::span<const std::string> sync_gates) {
  if (components.empty()) {
    throw std::invalid_argument("imc::parallel_all: no components");
  }
  Imc acc = components[0];
  auto acc_gates = interactive_gates_of(acc);
  for (std::size_t i = 1; i < components.size(); ++i) {
    const auto next_gates = interactive_gates_of(components[i]);
    std::vector<std::string> join;
    for (const std::string& g : sync_gates) {
      if (acc_gates.count(g) > 0 && next_gates.count(g) > 0) {
        join.push_back(g);
      }
    }
    acc = parallel(acc, components[i], join);
    acc_gates.insert(next_gates.begin(), next_gates.end());
  }
  return acc;
}

namespace {

Imc relabel_interactive(
    const Imc& m, const std::function<std::string(std::string_view)>& f) {
  Imc out;
  out.add_states(m.num_states());
  if (m.num_states() > 0) {
    out.set_initial_state(m.initial_state());
  }
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (const InterEdge& e : m.interactive(s)) {
      out.add_interactive(s, f(m.actions().name(e.action)), e.dst);
    }
    for (const MarkEdge& e : m.markovian(s)) {
      out.add_markovian(s, e.rate, e.dst, e.label);
    }
  }
  return out;
}

}  // namespace

Imc hide(const Imc& m, std::span<const std::string> gates) {
  const std::unordered_set<std::string> set(gates.begin(), gates.end());
  return relabel_interactive(m, [&](std::string_view label) -> std::string {
    if (label == "i" || label == "exit") {
      return std::string(label);
    }
    return gate_in(set, lts::label_gate(label)) ? "i" : std::string(label);
  });
}

Imc hide_all(const Imc& m) {
  return relabel_interactive(m, [](std::string_view label) -> std::string {
    if (label == "exit") {
      return std::string(label);
    }
    return "i";
  });
}

Imc maximal_progress(const Imc& m) {
  Imc out;
  out.add_states(m.num_states());
  if (m.num_states() > 0) {
    out.set_initial_state(m.initial_state());
  }
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (const InterEdge& e : m.interactive(s)) {
      out.add_interactive(s, m.actions().name(e.action), e.dst);
    }
    if (m.is_stable(s)) {
      for (const MarkEdge& e : m.markovian(s)) {
        out.add_markovian(s, e.rate, e.dst, e.label);
      }
    }
  }
  return out;
}

Imc trim(const Imc& m) {
  const std::size_t n = m.num_states();
  const core::Digraph g = core::Digraph::build(n, [&](auto&& add) {
    for (StateId s = 0; s < n; ++s) {
      for (const InterEdge& e : m.interactive(s)) {
        add(s, e.dst);
      }
      for (const MarkEdge& e : m.markovian(s)) {
        add(s, e.dst);
      }
    }
  });
  std::vector<bool> seed(n, false);
  if (n > 0) {
    seed[m.initial_state()] = true;
  }
  const std::vector<bool> seen = core::reach(g, seed);
  Imc out;
  std::vector<StateId> map(n, lts::kNoState);
  for (StateId s = 0; s < n; ++s) {
    if (seen[s]) {
      map[s] = out.add_state();
    }
  }
  for (StateId s = 0; s < n; ++s) {
    if (!seen[s]) {
      continue;
    }
    for (const InterEdge& e : m.interactive(s)) {
      out.add_interactive(map[s], m.actions().name(e.action), map[e.dst]);
    }
    for (const MarkEdge& e : m.markovian(s)) {
      out.add_markovian(map[s], e.rate, map[e.dst], e.label);
    }
  }
  if (n > 0) {
    out.set_initial_state(map[m.initial_state()]);
  }
  return out;
}

// ------------------------------------------------------------ CTMC extraction --

namespace {

/// Distribution over markovian-only ("tangible") states reached instantly
/// from a state by following interactive transitions.
class VanishingResolver {
 public:
  VanishingResolver(const Imc& m, NondetPolicy policy)
      : m_(m), policy_(policy), memo_(m.num_states()) {}

  /// Sparse distribution: pairs (tangible imc state, probability).
  const std::vector<std::pair<StateId, double>>& resolve(StateId s) {
    if (memo_[s].done) {
      return memo_[s].dist;
    }
    if (memo_[s].visiting) {
      throw TimelockError(
          "to_ctmc: cycle of interactive transitions (zero-time divergence) "
          "through state " +
          std::to_string(s));
    }
    memo_[s].visiting = true;
    std::vector<std::pair<StateId, double>> dist;
    const auto edges = m_.interactive(s);
    if (edges.empty()) {
      dist.emplace_back(s, 1.0);
    } else {
      if (edges.size() > 1 && policy_ == NondetPolicy::kReject) {
        throw NondeterminismError(
            "to_ctmc: interactive nondeterminism at state " +
            std::to_string(s) +
            " (" + std::to_string(edges.size()) +
            " outgoing interactive transitions); use NondetPolicy::kUniform "
            "or resolve by lumping first");
      }
      const double w = 1.0 / static_cast<double>(edges.size());
      std::unordered_map<StateId, double> acc;
      for (const InterEdge& e : edges) {
        for (const auto& [t, p] : resolve(e.dst)) {
          acc[t] += w * p;
        }
      }
      dist.assign(acc.begin(), acc.end());
    }
    memo_[s].visiting = false;
    memo_[s].done = true;
    memo_[s].dist = std::move(dist);
    return memo_[s].dist;
  }

 private:
  struct Memo {
    bool visiting = false;
    bool done = false;
    std::vector<std::pair<StateId, double>> dist;
  };
  const Imc& m_;
  NondetPolicy policy_;
  std::vector<Memo> memo_;
};

}  // namespace

CtmcExtraction to_ctmc(const Imc& m, NondetPolicy policy) {
  CtmcExtraction out;
  if (m.num_states() == 0) {
    return out;
  }
  VanishingResolver resolver(m, policy);

  // Tangible states become CTMC states.
  std::vector<markov::MState> ctmc_of(m.num_states(),
                                      static_cast<markov::MState>(-1));
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (m.is_markovian_only(s)) {
      ctmc_of[s] = out.ctmc.add_state();
      out.imc_state_of.push_back(s);
    }
  }
  if (out.imc_state_of.empty()) {
    throw TimelockError("to_ctmc: no tangible (markovian-only) state");
  }

  for (StateId s = 0; s < m.num_states(); ++s) {
    if (!m.is_markovian_only(s)) {
      continue;
    }
    for (const MarkEdge& e : m.markovian(s)) {
      for (const auto& [t, p] : resolver.resolve(e.dst)) {
        out.ctmc.add_transition(ctmc_of[s], ctmc_of[t], e.rate * p, e.label);
      }
    }
  }

  // Initial distribution: resolve the IMC initial state.
  std::vector<double> pi0(out.ctmc.num_states(), 0.0);
  for (const auto& [t, p] : resolver.resolve(m.initial_state())) {
    pi0[ctmc_of[t]] += p;
  }
  out.ctmc.set_initial_distribution(std::move(pi0));
  return out;
}

}  // namespace multival::imc
