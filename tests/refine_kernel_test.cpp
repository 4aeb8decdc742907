// The refinement kernel against the loop it replaced: bisim::refine keeps
// block ids stable and re-signs only the nodes a split can affect, and it
// must still group every node as a round that re-signs every node does,
// and number the result the same way.  The reference below is that loop,
// kept here verbatim in substance: every round re-signs every node as
// (block, elements), groups by first occurrence and, for lexicographic
// order, ranks the groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bisim/refine.hpp"
#include "core/graph.hpp"

namespace {

using namespace multival;
using bisim::BlockId;
using bisim::Partition;
using bisim::SigOrder;
using bisim::SigPair;
using Node = std::uint32_t;

template <class Elem>
Partition reference_refine(const Partition& initial, SigOrder order,
                           const bisim::SigEmitter<Elem>& emit) {
  const std::size_t n = initial.num_states();
  const bool sets = order == SigOrder::kFirstSeen;
  std::vector<BlockId> block(n);
  for (Node v = 0; v < n; ++v) {
    block[v] = initial.block_of(v);
  }
  std::size_t num_blocks = initial.num_blocks();
  std::vector<std::vector<Elem>> sig(n);
  std::vector<Node> inert;
  std::vector<Elem> own;
  bisim::SigSink<Elem> sink(own, inert);
  while (true) {
    for (Node v = 0; v < n; ++v) {
      own.clear();
      inert.clear();
      emit(v, block, sink);
      for (const Node w : inert) {
        EXPECT_LT(w, v);
        own.insert(own.end(), sig[w].begin(), sig[w].end());
      }
      std::sort(own.begin(), own.end());
      if (sets) {
        own.erase(std::unique(own.begin(), own.end()), own.end());
      }
      sig[v] = own;
    }
    std::map<std::pair<BlockId, std::vector<Elem>>, BlockId> first_seen;
    std::vector<BlockId> next(n);
    for (Node v = 0; v < n; ++v) {
      next[v] = first_seen
                    .emplace(std::make_pair(block[v], sig[v]),
                             static_cast<BlockId>(first_seen.size()))
                    .first->second;
    }
    if (!sets) {
      // std::map iterates keys in (block, signature) order: the ranks.
      std::vector<BlockId> rank(first_seen.size());
      BlockId r = 0;
      for (const auto& [key, id] : first_seen) {
        rank[id] = r++;
      }
      for (Node v = 0; v < n; ++v) {
        next[v] = rank[next[v]];
      }
    }
    const bool stable = first_seen.size() == num_blocks;
    block.swap(next);
    num_blocks = first_seen.size();
    if (stable || num_blocks == n) {
      break;
    }
  }
  return Partition(std::move(block), num_blocks);
}

struct Edge {
  Node src;
  Node dst;
  std::uint32_t label;  // 0 = tau
  double rate;
};

struct Graph {
  std::size_t n = 0;
  std::vector<std::vector<Edge>> out;

  [[nodiscard]] core::Digraph predecessors() const {
    return core::Digraph::build(n, [&](auto&& add) {
      for (const auto& edges : out) {
        for (const Edge& e : edges) {
          add(e.dst, e.src);
        }
      }
    });
  }
};

/// A random graph; tau edges only go to lower nodes, so that they may be
/// inert successors.
Graph random_graph(std::mt19937& rng) {
  Graph g;
  g.n = std::uniform_int_distribution<std::size_t>(1, 60)(rng);
  g.out.resize(g.n);
  const std::uint32_t labels =
      std::uniform_int_distribution<std::uint32_t>(1, 3)(rng);
  const int degree = std::uniform_int_distribution<int>(0, 3)(rng);
  std::uniform_int_distribution<Node> node(0, static_cast<Node>(g.n - 1));
  std::uniform_int_distribution<std::uint32_t> label(0, labels);
  std::uniform_int_distribution<int> rate(1, 3);
  for (Node v = 0; v < g.n; ++v) {
    const int d = std::uniform_int_distribution<int>(0, degree)(rng);
    for (int k = 0; k < d; ++k) {
      const std::uint32_t a = label(rng);
      if (a == 0 && v == 0) {
        continue;
      }
      const Node w = a == 0 ? std::uniform_int_distribution<Node>(0, v - 1)(rng)
                            : node(rng);
      g.out[v].push_back(Edge{v, w, a, 0.5 * rate(rng)});
    }
  }
  return g;
}

/// A random chain: mostly one label forward, tau edges one node back (so
/// long inert paths form) and a few edges anywhere.  Such graphs refine in
/// many rounds that each split a few nodes off large blocks.
Graph random_chain(std::mt19937& rng) {
  Graph g;
  g.n = std::uniform_int_distribution<std::size_t>(20, 200)(rng);
  g.out.resize(g.n);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<Node> node(0, static_cast<Node>(g.n - 1));
  for (Node v = 0; v < g.n; ++v) {
    if (v + 1 < g.n && coin(rng) < 0.9) {
      g.out[v].push_back(Edge{v, v + 1, 1, 1.0});
    }
    if (v > 0 && coin(rng) < 0.5) {
      g.out[v].push_back(Edge{v, v - 1, 0, 0.5});
    }
    if (coin(rng) < 0.03) {
      g.out[v].push_back(Edge{v, node(rng), 2, 1.5});
    }
  }
  return g;
}

/// A birth-death chain: rate lambda up, mu down, one label each.
Graph birth_death(std::size_t n, double lambda, double mu) {
  Graph g;
  g.n = n;
  g.out.resize(n);
  for (Node v = 0; v + 1 < n; ++v) {
    g.out[v].push_back(Edge{v, v + 1, 1, lambda});
    g.out[v + 1].push_back(Edge{v + 1, v, 2, mu});
  }
  return g;
}

Partition random_initial(std::size_t n, std::mt19937& rng) {
  const BlockId k = std::uniform_int_distribution<BlockId>(
      1, static_cast<BlockId>(std::min<std::size_t>(n, 3)))(rng);
  std::vector<BlockId> block(n);
  for (BlockId b = 0; b < k; ++b) {
    block[b] = b;  // every id used
  }
  for (std::size_t v = k; v < n; ++v) {
    block[v] = std::uniform_int_distribution<BlockId>(0, k - 1)(rng);
  }
  return Partition(std::move(block), k);
}

/// Set signatures: (label, target block), with tau edges inside a block
/// inert when @p branching.
bisim::SigEmitter<std::uint64_t> set_emitter(const Graph& g, bool branching) {
  return [&g, branching](Node v, const std::vector<BlockId>& block,
                         bisim::SigSink<std::uint64_t>& sig) {
    for (const Edge& e : g.out[v]) {
      if (branching && e.label == 0 && block[e.dst] == block[v]) {
        sig.inert(e.dst);
      } else {
        sig.add((static_cast<std::uint64_t>(e.label) << 32) | block[e.dst]);
      }
    }
  };
}

/// Pair signatures as IMC lumping emits them: rates summed per (label,
/// target block) in (key, rate) order.
bisim::SigEmitter<SigPair> pair_emitter(const Graph& g) {
  return [&g](Node v, const std::vector<BlockId>& block,
              bisim::SigSink<SigPair>& sig) {
    std::vector<std::pair<std::uint64_t, double>> per_key;
    for (const Edge& e : g.out[v]) {
      per_key.emplace_back(
          (static_cast<std::uint64_t>(e.label) << 32) | block[e.dst], e.rate);
    }
    std::sort(per_key.begin(), per_key.end());
    for (std::size_t i = 0; i < per_key.size();) {
      double total = 0.0;
      std::size_t j = i;
      while (j < per_key.size() && per_key[j].first == per_key[i].first) {
        total += per_key[j].second;
        ++j;
      }
      std::uint64_t bits = 0;
      static_assert(sizeof bits == sizeof total);
      std::memcpy(&bits, &total, sizeof bits);
      sig.add(SigPair{per_key[i].first, bits});
      i = j;
    }
  };
}

void expect_same_partition(const Partition& got, const Partition& want,
                           const std::string& what) {
  ASSERT_EQ(got.num_states(), want.num_states()) << what;
  EXPECT_EQ(got.num_blocks(), want.num_blocks()) << what;
  for (Node v = 0; v < got.num_states(); ++v) {
    ASSERT_EQ(got.block_of(v), want.block_of(v)) << what << ", node " << v;
  }
}

TEST(RefineKernel, MatchesAllNodeRounds) {
  std::mt19937 rng(20261019);
  // A re-signed node whose signature comes out unchanged while its block
  // splits is rare: three of these 4,500 graphs have one, and a kernel
  // that mishandles it passes on the first 2,000.
  for (int seed = 0; seed < 4500; ++seed) {
    const Graph g = seed % 3 == 2 ? random_chain(rng) : random_graph(rng);
    const Partition initial = random_initial(g.n, rng);
    const bisim::PredecessorGraph pred = [&g] { return g.predecessors(); };
    const std::string what = "random graph " + std::to_string(seed);
    for (const bool branching : {false, true}) {
      const auto emit = set_emitter(g, branching);
      expect_same_partition(
          bisim::refine<std::uint64_t>(initial, SigOrder::kFirstSeen, pred,
                                       emit),
          reference_refine<std::uint64_t>(initial, SigOrder::kFirstSeen,
                                           emit),
          what + (branching ? " (inert tau)" : " (sets)"));
    }
    // Every lexicographic round is dense: no predecessor graph needed.
    const auto multiset = set_emitter(g, false);
    expect_same_partition(
        bisim::refine<std::uint64_t>(initial, SigOrder::kLexicographic,
                                     bisim::PredecessorGraph{}, multiset),
        reference_refine<std::uint64_t>(initial, SigOrder::kLexicographic,
                                        multiset),
        what + " (lexicographic)");
    const auto pairs = pair_emitter(g);
    expect_same_partition(
        bisim::refine<SigPair>(initial, SigOrder::kFirstSeen, pred, pairs),
        reference_refine<SigPair>(initial, SigOrder::kFirstSeen, pairs),
        what + " (rates)");
  }
  for (std::size_t n = 2; n <= 300; n += (n < 20 ? 1 : 17)) {
    const Graph g = birth_death(n, 0.9, 1.0);
    const auto pairs = pair_emitter(g);
    const Partition initial(n);
    expect_same_partition(
        bisim::refine<SigPair>(initial, SigOrder::kFirstSeen,
                               [&g] { return g.predecessors(); }, pairs),
        reference_refine<SigPair>(initial, SigOrder::kFirstSeen, pairs),
        "birth-death chain of " + std::to_string(n));
  }
}

TEST(RefineKernel, BirthDeathResignsLinearly) {
  // A birth-death chain splits one node off each end per round, so it
  // takes n/2 rounds; re-signing every node each round would sign n^2/2.
  const Graph g = birth_death(1000, 0.9, 1.0);
  const auto pairs = pair_emitter(g);
  std::size_t calls = 0;
  const Partition p = bisim::refine<SigPair>(
      Partition(g.n), SigOrder::kFirstSeen, [&g] { return g.predecessors(); },
      [&](Node v, const std::vector<BlockId>& block,
          bisim::SigSink<SigPair>& sig) {
        ++calls;
        pairs(v, block, sig);
      });
  EXPECT_EQ(p.num_blocks(), 1000u);
  EXPECT_LE(calls, 8000u);
}

}  // namespace
