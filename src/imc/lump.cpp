#include "imc/lump.hpp"

#include "imc/compose.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "bisim/refine.hpp"
#include "lts/analysis.hpp"

namespace multival::imc {

namespace {

using bisim::BlockId;
using lts::ActionTable;

/// Quantises a rate for signature comparison: ~1e-12 relative resolution,
/// robust against summation-order noise.
std::uint64_t quantize_rate(double r) {
  int exp = 0;
  const double m = std::frexp(r, &exp);  // m in [0.5, 1)
  const auto mant = static_cast<std::uint64_t>(
      std::llround(m * static_cast<double>(1ull << 40)));
  return (mant << 12) ^ static_cast<std::uint64_t>(exp + 2048);
}

// Signature element: (key, aux).  Interactive: key = tag|action|block,
// aux = 0.  Markovian: key = tag|label|block, aux = quantised aggregate
// rate.
using bisim::SigPair;

constexpr std::uint64_t kInterTag = 1ull << 62;
constexpr std::uint64_t kMarkTag = 1ull << 63;

/// A Markovian edge of the refinement graph: target node, rate, and the
/// interned measurement label (labels take part in lumping so that
/// throughput probes survive minimisation, as in BCG_MIN).
struct MarkRef {
  StateId dst = 0;
  double rate = 0.0;
  std::uint32_t label = 0;
};

/// The (possibly contracted) graph the refinement runs on.
struct Graph {
  std::vector<StateId> node_of;  // original state -> node
  std::size_t num_nodes = 0;
  std::vector<std::vector<InterEdge>> inter;  // node-level, no intra-node tau
  std::vector<std::vector<MarkRef>> mark;
};

/// Interns Markovian labels of @p m into dense ids (0 = unlabelled).
std::unordered_map<std::string, std::uint32_t> label_ids(const Imc& m) {
  std::unordered_map<std::string, std::uint32_t> ids;
  ids.emplace("", 0);
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (const MarkEdge& e : m.markovian(s)) {
      ids.emplace(e.label, static_cast<std::uint32_t>(ids.size()));
    }
  }
  return ids;
}

/// The graph refinement runs on: every state its own node, or (branching)
/// the tau-SCCs inside each block of @p initial contracted.
Graph refinement_graph(const Imc& m, const Partition& initial,
                       bool branching) {
  const std::size_t n = m.num_states();
  Graph g;
  if (branching) {
    lts::TauContraction c = lts::contract_tau_cycles(
        m.interactive_lts(), [&](StateId a, StateId b) {
          return initial.block_of(a) == initial.block_of(b);
        });
    g.node_of = std::move(c.node_of);
    g.num_nodes = c.num_nodes;
    g.inter = std::move(c.out);
  } else {
    g.num_nodes = n;
    g.node_of.resize(n);
    g.inter.resize(n);
    for (StateId s = 0; s < n; ++s) {
      g.node_of[s] = s;
      g.inter[s].assign(m.interactive(s).begin(), m.interactive(s).end());
    }
  }
  const auto labels = label_ids(m);
  g.mark.resize(g.num_nodes);
  for (StateId s = 0; s < n; ++s) {
    for (const MarkEdge& e : m.markovian(s)) {
      g.mark[g.node_of[s]].push_back(
          MarkRef{g.node_of[e.dst], e.rate, labels.at(e.label)});
    }
  }
  return g;
}

/// Lumps @p m; with @p branching, tau edges inside a block are inert and
/// their source inherits the target's signature.
Partition lump(const Imc& m, const Partition& initial, bool branching) {
  const std::size_t n = m.num_states();
  if (initial.num_states() != n) {
    throw std::invalid_argument(
        std::string(branching ? "lump_branching" : "lump_strong") +
        ": partition size mismatch");
  }
  if (n == 0) {
    return Partition(0);
  }
  const Graph g = refinement_graph(m, initial, branching);
  Partition p = initial;
  p.normalize();
  std::vector<BlockId> node_block(g.num_nodes, 0);
  for (StateId s = 0; s < n; ++s) {
    node_block[g.node_of[s]] = p.block_of(s);
  }

  const auto predecessors = [&] {
    return core::Digraph::build(g.num_nodes, [&](auto&& add) {
      for (StateId node = 0; node < g.num_nodes; ++node) {
        for (const MarkRef& e : g.mark[node]) {
          add(e.dst, node);
        }
        for (const InterEdge& e : g.inter[node]) {
          add(e.dst, node);
        }
      }
    });
  };
  std::vector<std::pair<std::uint64_t, double>> per_key;
  const Partition nodes = bisim::refine<SigPair>(
      Partition(std::move(node_block), p.num_blocks()),
      bisim::SigOrder::kFirstSeen, predecessors,
      [&](StateId node, const std::vector<BlockId>& block,
          bisim::SigSink<SigPair>& sig) {
        // Aggregate own Markovian rates per (label, target block).  Sorting
        // by (key, rate) sums each key's rates in ascending order, so the
        // total does not depend on which ids the kernel gave the blocks.
        per_key.clear();
        for (const MarkRef& e : g.mark[node]) {
          per_key.emplace_back(
              (static_cast<std::uint64_t>(e.label) << 32) | block[e.dst],
              e.rate);
        }
        std::sort(per_key.begin(), per_key.end());
        for (std::size_t i = 0; i < per_key.size();) {
          double total = 0.0;
          std::size_t j = i;
          while (j < per_key.size() && per_key[j].first == per_key[i].first) {
            total += per_key[j].second;
            ++j;
          }
          sig.add(SigPair{kMarkTag | per_key[i].first, quantize_rate(total)});
          i = j;
        }
        for (const InterEdge& e : g.inter[node]) {
          if (branching && ActionTable::is_tau(e.action) &&
              block[e.dst] == block[node]) {
            sig.inert(e.dst);
          } else {
            sig.add(SigPair{kInterTag |
                                (static_cast<std::uint64_t>(e.action) << 32) |
                                block[e.dst],
                            0});
          }
        }
      });

  std::vector<BlockId> block_of(n, 0);
  for (StateId s = 0; s < n; ++s) {
    block_of[s] = nodes.block_of(g.node_of[s]);
  }
  return Partition(std::move(block_of), nodes.num_blocks());
}

}  // namespace

Partition lump_strong(const Imc& m, const Partition& initial) {
  return lump(m, initial, /*branching=*/false);
}

Partition lump_strong(const Imc& m) {
  return lump_strong(m, Partition(m.num_states()));
}

Partition lump_branching(const Imc& m, const Partition& initial) {
  return lump(m, initial, /*branching=*/true);
}

Partition lump_branching(const Imc& m) {
  return lump_branching(m, Partition(m.num_states()));
}

Imc quotient_imc(const Imc& m, const Partition& p, bool branching) {
  Imc q;
  q.add_states(p.num_blocks());
  if (m.num_states() > 0) {
    q.set_initial_state(p.block_of(m.initial_state()));
  }

  // Pick one representative per block: a state with no inert tau, so its
  // own transitions describe the whole block's observable behaviour.
  const std::size_t nb = p.num_blocks();
  std::vector<StateId> rep(nb, lts::kNoState);
  for (StateId s = 0; s < m.num_states(); ++s) {
    const BlockId b = p.block_of(s);
    if (rep[b] != lts::kNoState) {
      continue;
    }
    bool has_inert_tau = false;
    for (const InterEdge& e : m.interactive(s)) {
      if (ActionTable::is_tau(e.action) && p.block_of(e.dst) == b) {
        has_inert_tau = true;
        break;
      }
    }
    if (!branching || !has_inert_tau) {
      rep[b] = s;
    }
  }
  // Fallback (can only happen for partitions not produced by lumping):
  // any member.
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (rep[p.block_of(s)] == lts::kNoState) {
      rep[p.block_of(s)] = s;
    }
  }

  for (BlockId b = 0; b < nb; ++b) {
    const StateId s = rep[b];
    // Interactive edges (dedup; skip inert tau when branching).
    std::vector<std::pair<ActionId, BlockId>> iedges;
    for (const InterEdge& e : m.interactive(s)) {
      const BlockId bt = p.block_of(e.dst);
      if (branching && ActionTable::is_tau(e.action) && bt == b) {
        continue;
      }
      iedges.emplace_back(e.action, bt);
    }
    std::sort(iedges.begin(), iedges.end());
    iedges.erase(std::unique(iedges.begin(), iedges.end()), iedges.end());
    for (const auto& [a, bt] : iedges) {
      q.add_interactive(b, m.actions().name(a), bt);
    }
    // Markovian edges: aggregate per (target block, label).
    std::map<std::pair<BlockId, std::string>, double> rates;
    for (const MarkEdge& e : m.markovian(s)) {
      rates[{p.block_of(e.dst), e.label}] += e.rate;
    }
    for (const auto& [key, rate] : rates) {
      q.add_markovian(b, rate, key.first, key.second);
    }
  }
  return q;
}

LumpResult minimize_imc(const Imc& m) {
  const Imc mp = maximal_progress(m);
  Partition p = lump_branching(mp);
  Imc q = quotient_imc(mp, p, /*branching=*/true);
  return LumpResult{std::move(q), std::move(p)};
}

}  // namespace multival::imc
