#include "bisim/branching.hpp"

#include <cstdint>
#include <stdexcept>

#include "bisim/refine.hpp"
#include "lts/analysis.hpp"

namespace multival::bisim {

namespace {

using lts::ActionId;
using lts::ActionTable;
using lts::Lts;
using lts::OutEdge;
using lts::StateId;

// Signature element tags (upper bits) keep the element kinds disjoint.
constexpr std::uint64_t kEdgeTag = 1ull << 63;
constexpr std::uint64_t kDivergentMark = 1ull << 62;

std::uint64_t edge_elem(ActionId a, BlockId b) {
  return kEdgeTag | (static_cast<std::uint64_t>(a) << 32) | b;
}

/// The coarsest branching-bisimulation partition refining @p p
/// (normalised), computed over @p c, a tau contraction of the LTS that
/// joins only states of one block of @p p.
Partition refine_contracted(const lts::TauContraction& c, const Partition& p,
                            const BranchingOptions& opts) {
  const std::size_t n = p.num_states();
  if (n == 0) {
    return Partition(0);
  }
  // Refine over components, seeded from the initial state partition (every
  // state of a component shares the initial block by construction).
  // Divergence is handled in the signatures, where the marker propagates
  // backwards over inert tau -- a state that can silently reach a
  // divergence is divergence-equivalent to it.
  std::vector<BlockId> comp_block(c.num_nodes, 0);
  for (StateId s = 0; s < n; ++s) {
    comp_block[c.node_of[s]] = p.block_of(s);
  }
  const auto predecessors = [&] {
    return core::Digraph::build(c.num_nodes, [&](auto&& add) {
      for (StateId comp = 0; comp < c.num_nodes; ++comp) {
        for (const OutEdge& e : c.out[comp]) {
          add(e.dst, comp);
        }
      }
    });
  };
  const Partition comps = refine<std::uint64_t>(
      Partition(std::move(comp_block), p.num_blocks()), SigOrder::kFirstSeen,
      predecessors,
      [&](StateId comp, const std::vector<BlockId>& block,
          SigSink<std::uint64_t>& sig) {
        if (opts.divergence_sensitive && c.divergent[comp]) {
          sig.add(kDivergentMark);
        }
        for (const OutEdge& e : c.out[comp]) {
          if (ActionTable::is_tau(e.action) && block[e.dst] == block[comp]) {
            sig.inert(e.dst);
          } else {
            sig.add(edge_elem(e.action, block[e.dst]));
          }
        }
      });

  std::vector<BlockId> block_of(n, 0);
  for (StateId s = 0; s < n; ++s) {
    block_of[s] = comps.block_of(c.node_of[s]);
  }
  return Partition(std::move(block_of), comps.num_blocks());
}

}  // namespace

Partition branching_partition(const Lts& l, const Partition& initial,
                              const BranchingOptions& opts) {
  if (initial.num_states() != l.num_states()) {
    throw std::invalid_argument(
        "branching_partition: partition size mismatch");
  }
  Partition p = initial;
  p.normalize();
  const lts::TauContraction c = lts::contract_tau_cycles(
      l, [&](StateId a, StateId b) { return p.block_of(a) == p.block_of(b); });
  return refine_contracted(c, p, opts);
}

Partition branching_partition(const Lts& l, const BranchingOptions& opts) {
  return branching_partition(l, Partition(l.num_states()), opts);
}

MinimizeResult minimize_branching(const Lts& l, const BranchingOptions& opts) {
  // One contraction serves the refinement and the divergent blocks: under
  // the trivial initial partition, the block-restricted contraction that
  // branching_partition builds is this unrestricted one.
  const lts::TauContraction c = lts::contract_tau_cycles(l);
  Partition p = refine_contracted(c, Partition(l.num_states()), opts);
  Lts q = quotient_lts(l, p, /*skip_inert_tau=*/true);
  if (opts.divergence_sensitive) {
    // Re-add a tau self-loop on every divergent block so livelocks survive.
    std::vector<bool> block_divergent(p.num_blocks(), false);
    for (StateId s = 0; s < l.num_states(); ++s) {
      if (c.divergent[c.node_of[s]]) {
        block_divergent[p.block_of(s)] = true;
      }
    }
    for (BlockId b = 0; b < block_divergent.size(); ++b) {
      if (block_divergent[b]) {
        q.add_transition(b, ActionTable::kTau, b);
      }
    }
  }
  return MinimizeResult{std::move(q), std::move(p)};
}

}  // namespace multival::bisim
