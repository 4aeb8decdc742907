#include "imc/compose.hpp"

#include <limits>
#include <unordered_map>
#include <utility>

#include "core/graph.hpp"
#include "lts/product.hpp"

namespace multival::imc {

namespace {

/// @p inter, a relabelling of @p m's interactive part, with @p m's
/// Markovian edges: at every state, or at its stable states only.
Imc with_markovian_of(lts::Lts inter, const Imc& m, bool stable_only) {
  Imc out(std::move(inter));
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (stable_only && !m.is_stable(s)) {
      continue;
    }
    for (const MarkEdge& e : m.markovian(s)) {
      out.add_markovian(s, e.rate, e.dst, e.label);
    }
  }
  return out;
}

}  // namespace

Imc parallel(const Imc& a, const Imc& b,
             std::span<const std::string> sync_gates) {
  // Markovian transitions interleave unconditionally (memorylessness).  The
  // hook numbers their targets before the state's interactive moves; the
  // edges are added once the interactive product is built.
  struct Move {
    StateId src;
    const MarkEdge* edge;
    StateId dst;
  };
  std::vector<Move> moves;
  lts::Lts inter = lts::parallel(
      a.interactive_lts(), b.interactive_lts(), sync_gates,
      std::numeric_limits<std::size_t>::max(),
      [&](StateId src, StateId sa, StateId sb,
          const lts::PairState& state_of) {
        for (const MarkEdge& e : a.markovian(sa)) {
          moves.push_back(Move{src, &e, state_of(e.dst, sb)});
        }
        for (const MarkEdge& e : b.markovian(sb)) {
          moves.push_back(Move{src, &e, state_of(sa, e.dst)});
        }
      });
  Imc out(std::move(inter));
  for (const Move& m : moves) {
    out.add_markovian(m.src, m.edge->rate, m.dst, m.edge->label);
  }
  return out;
}

Imc hide(const Imc& m, std::span<const std::string> gates) {
  return with_markovian_of(lts::hide(m.interactive_lts(), gates), m, false);
}

Imc hide_all(const Imc& m) {
  return with_markovian_of(
      lts::relabel(m.interactive_lts(),
                   [](std::string_view label) -> std::string {
                     return label == "exit" ? "exit" : "i";
                   }),
      m, false);
}

Imc maximal_progress(const Imc& m) {
  // The identity relabelling, not a copy: every operator interns labels in
  // first-use order, which quotient_imc's edge order depends on.
  return with_markovian_of(
      lts::relabel(m.interactive_lts(),
                   [](std::string_view label) { return std::string(label); }),
      m, true);
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
