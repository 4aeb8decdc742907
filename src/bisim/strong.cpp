#include "bisim/strong.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bisim/refine.hpp"
#include "core/graph.hpp"
#include "core/id_table.hpp"
#include "lts/analysis.hpp"

namespace multival::bisim {

namespace {

using lts::ActionId;
using lts::Lts;
using lts::OutEdge;
using lts::StateId;

}  // namespace

Partition strong_partition(const Lts& l, const Partition& initial) {
  if (initial.num_states() != l.num_states()) {
    throw std::invalid_argument("strong_partition: partition size mismatch");
  }
  Partition p = initial;
  p.normalize();
  return refine<std::uint64_t>(
      p, SigOrder::kFirstSeen,
      [&] {
        return core::Digraph::build(l.num_states(), [&](auto&& add) {
          for (StateId s = 0; s < l.num_states(); ++s) {
            for (const OutEdge& e : l.out(s)) {
              add(e.dst, s);
            }
          }
        });
      },
      [&](StateId s, const std::vector<BlockId>& block,
          SigSink<std::uint64_t>& sig) {
        for (const OutEdge& e : l.out(s)) {
          sig.add((static_cast<std::uint64_t>(e.action) << 32) |
                  block[e.dst]);
        }
      });
}

Partition strong_partition(const Lts& l) {
  return strong_partition(l, Partition(l.num_states()));
}

lts::Lts quotient_lts(const Lts& l, const Partition& p, bool skip_inert_tau) {
  Lts q;
  q.add_states(p.num_blocks());
  if (l.num_states() > 0) {
    q.set_initial_state(p.block_of(l.initial_state()));
  }
  std::vector<ActionId> amap(l.actions().size(), lts::kNoState);
  // Exact (block, action, block) dedup: one open-addressing table over the
  // triples emitted so far, which are its records.
  using Triple = std::array<std::uint32_t, 3>;
  std::vector<Triple> emitted;
  core::IdTable seen;
  for (StateId s = 0; s < l.num_states(); ++s) {
    const BlockId bs = p.block_of(s);
    for (const OutEdge& e : l.out(s)) {
      const BlockId bt = p.block_of(e.dst);
      if (skip_inert_tau && lts::ActionTable::is_tau(e.action) && bs == bt) {
        continue;
      }
      const Triple t{bs, e.action, bt};
      const auto fresh = static_cast<std::uint32_t>(emitted.size());
      if (seen.find_or_add(core::hash_words(t), fresh, [&](std::uint32_t id) {
            return emitted[id] == t;
          }) != fresh) {
        continue;
      }
      emitted.push_back(t);
      if (amap[e.action] == lts::kNoState) {
        amap[e.action] = q.actions().intern(l.actions().name(e.action));
      }
      q.add_transition(bs, amap[e.action], bt);
    }
  }
  return q;
}

namespace {

/// Tau-saturation: the weak transition relation as an explicit LTS.
Lts saturate(const Lts& l) {
  const std::size_t n = l.num_states();
  // Forward tau-closure of every state, stored flat: the closure of s is
  // closed[first[s], first[s + 1]).  One Closure serves every state, so
  // each closure costs its own size, not n.
  const core::Digraph tau = lts::tau_graph(l);
  core::Closure closure(tau);
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<StateId> closed;
  for (StateId s = 0; s < n; ++s) {
    const auto c = closure.from(std::span<const StateId>(&s, 1));
    closed.insert(closed.end(), c.begin(), c.end());
    first[s + 1] = closed.size();
  }
  const auto closure_of = [&](StateId s) {
    return std::span<const StateId>(closed.data() + first[s],
                                    first[s + 1] - first[s]);
  };

  Lts w;
  w.add_states(n);
  if (n > 0) {
    w.set_initial_state(l.initial_state());
  }
  std::vector<ActionId> amap(l.actions().size(), lts::kNoState);
  std::vector<std::pair<ActionId, StateId>> moves;
  for (StateId s = 0; s < n; ++s) {
    moves.clear();
    for (const StateId sp : closure_of(s)) {
      // Weak tau move s =tau*=> sp (including the empty move).
      moves.emplace_back(lts::ActionTable::kTau, sp);
      // Weak visible moves: s =tau*=> sp -a-> t =tau*=> u.
      for (const OutEdge& e : l.out(sp)) {
        if (lts::ActionTable::is_tau(e.action)) {
          continue;
        }
        if (amap[e.action] == lts::kNoState) {
          amap[e.action] = w.actions().intern(l.actions().name(e.action));
        }
        for (const StateId u : closure_of(e.dst)) {
          moves.emplace_back(amap[e.action], u);
        }
      }
    }
    std::sort(moves.begin(), moves.end());
    moves.erase(std::unique(moves.begin(), moves.end()), moves.end());
    for (const auto& [a, u] : moves) {
      w.add_transition(s, a, u);
    }
  }
  return w;
}

}  // namespace

Partition weak_partition(const Lts& l) {
  return strong_partition(saturate(l));
}

MinimizeResult minimize_weak(const Lts& l) {
  Partition p = weak_partition(l);
  Lts q = quotient_lts(l, p, /*skip_inert_tau=*/true);
  return MinimizeResult{std::move(q), std::move(p)};
}

MinimizeResult minimize_strong(const Lts& l) {
  Partition p = strong_partition(l);
  Lts q = quotient_lts(l, p, /*skip_inert_tau=*/false);
  return MinimizeResult{std::move(q), std::move(p)};
}

}  // namespace multival::bisim
