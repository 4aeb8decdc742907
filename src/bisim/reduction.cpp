#include "bisim/reduction.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bisim/refine.hpp"

namespace multival::bisim {

namespace {

using lts::ActionId;
using lts::StateId;

}  // namespace

lts::Lts canonical_form(const lts::Lts& l) {
  const std::size_t n = l.num_states();
  lts::Lts out;
  if (n == 0) {
    return out;
  }

  // Order actions by label text (isomorphism-invariant, unlike interning
  // order) for use inside signatures.
  const std::size_t num_actions = l.actions().size();
  std::vector<ActionId> by_label(num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    by_label[a] = a;
  }
  std::sort(by_label.begin(), by_label.end(), [&](ActionId a, ActionId b) {
    return l.actions().name(a) < l.actions().name(b);
  });
  std::vector<std::uint32_t> action_rank(num_actions);
  for (std::uint32_t i = 0; i < by_label.size(); ++i) {
    action_rank[by_label[i]] = i;
  }

  // Iterated signature refinement.  sig_{k+1}(s) = (rank_k(s), sorted
  // multiset of (action label rank, rank_k(dst))); new ranks are the
  // lexicographic order of signatures, so rank 0 stays with the initial
  // state and the whole order is isomorphism-invariant whenever refinement
  // reaches singletons (always, on a bisimulation-minimal LTS).
  std::vector<BlockId> initial_rank(n, 1);
  initial_rank[l.initial_state()] = 0;
  const Partition rank = refine<std::uint64_t>(
      Partition(std::move(initial_rank), n == 1 ? 1 : 2),
      SigOrder::kLexicographic,
      PredecessorGraph{},
      [&](StateId s, const std::vector<BlockId>& block,
          SigSink<std::uint64_t>& sig) {
        for (const auto& e : l.out(s)) {
          sig.add((static_cast<std::uint64_t>(action_rank[e.action]) << 32) |
                  block[e.dst]);
        }
      });

  // Total order: rank, ties (non-minimal inputs only) by old id.
  std::vector<StateId> order(n);
  for (StateId s = 0; s < n; ++s) {
    order[s] = s;
  }
  std::stable_sort(order.begin(), order.end(), [&](StateId a, StateId b) {
    return rank.block_of(a) < rank.block_of(b);
  });
  std::vector<StateId> new_id(n);
  for (StateId i = 0; i < n; ++i) {
    new_id[order[i]] = i;
  }

  // Rebuild: "i"/"exit" keep their fixed ids, every other label is interned
  // in sorted order; per-state transitions sorted by (label rank, dst).
  out.add_states(n);
  out.set_initial_state(new_id[l.initial_state()]);
  for (const ActionId a : by_label) {
    out.actions().intern(l.actions().name(a));
  }
  std::vector<lts::OutEdge> edges;
  for (StateId i = 0; i < n; ++i) {
    const StateId s = order[i];
    edges.clear();
    for (const auto& e : l.out(s)) {
      edges.push_back({e.action, new_id[e.dst]});
    }
    std::sort(edges.begin(), edges.end(), [&](const auto& a, const auto& b) {
      return action_rank[a.action] != action_rank[b.action]
                 ? action_rank[a.action] < action_rank[b.action]
                 : a.dst < b.dst;
    });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (const auto& e : edges) {
      out.add_transition(i, l.actions().name(e.action), e.dst);
    }
  }
  return out;
}

lts::Lts canonical_minimized(const lts::Lts& l, Equivalence e) {
  return canonical_form(minimize(l, e).quotient);
}

}  // namespace multival::bisim
