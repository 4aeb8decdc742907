// Tests for the graph kernel (core/graph): SCCs, bottom components and
// reachability closures against naive references on seeded random
// digraphs (empty, single-node, self-loops, parallel edges), plus the
// numbering contract every caller depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/graph.hpp"

namespace {

using multival::core::Closure;
using multival::core::Components;
using multival::core::Digraph;
using Node = Digraph::Node;
using Edges = std::vector<std::pair<Node, Node>>;

Digraph from_edges(std::size_t n, const Edges& edges) {
  return Digraph::build(n, [&](auto&& add) {
    for (const auto& [src, dst] : edges) {
      add(src, dst);
    }
  });
}

/// Random digraph with n nodes; edges are drawn in random source order, so
/// sources are interleaved, and repeats give parallel edges and self-loops.
Edges random_edges(std::uint32_t seed, std::size_t n) {
  Edges edges;
  if (n == 0) {
    return edges;
  }
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Node> node(0, static_cast<Node>(n - 1));
  std::uniform_int_distribution<std::size_t> count(0, 2 * n);
  const std::size_t m = count(rng);
  for (std::size_t k = 0; k < m; ++k) {
    const Node src = node(rng);
    const Node dst = node(rng);
    edges.emplace_back(src, dst);
    if (k % 7 == 0) {
      edges.emplace_back(src, dst);  // parallel edge
    }
    if (k % 5 == 0) {
      edges.emplace_back(dst, dst);  // self-loop
    }
  }
  return edges;
}

/// Naive closure: relax every edge until nothing changes.
std::vector<bool> naive_reach(std::size_t n, const Edges& edges,
                              std::vector<bool> in,
                              const std::vector<bool>& blocked) {
  in.resize(n, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [src, dst] : edges) {
      if (in[src] && !in[dst] && (blocked.empty() || !blocked[dst])) {
        in[dst] = true;
        changed = true;
      }
    }
  }
  return in;
}

/// reaches[v][w]: w is reachable from v (v itself included).
std::vector<std::vector<bool>> naive_reachability(std::size_t n,
                                                  const Edges& edges) {
  std::vector<std::vector<bool>> reaches(n);
  for (Node v = 0; v < n; ++v) {
    std::vector<bool> seed(n, false);
    seed[v] = true;
    reaches[v] = naive_reach(n, edges, seed, {});
  }
  return reaches;
}

std::vector<std::pair<std::uint32_t, std::size_t>> cases() {
  std::vector<std::pair<std::uint32_t, std::size_t>> out;
  const std::size_t sizes[] = {0, 1, 2, 3, 5, 8, 13, 21, 34, 55};
  for (std::uint32_t seed = 1; seed <= 30; ++seed) {
    out.emplace_back(seed, sizes[seed % 10]);
  }
  return out;
}

TEST(Graph, BuildKeepsInsertionOrderPerSource) {
  const Edges edges = {{1, 2}, {0, 1}, {1, 0}, {0, 0}, {1, 2}, {2, 1}};
  const Digraph g = from_edges(3, edges);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), edges.size());
  EXPECT_EQ(std::vector<Node>(g.out(0).begin(), g.out(0).end()),
            (std::vector<Node>{1, 0}));
  EXPECT_EQ(std::vector<Node>(g.out(1).begin(), g.out(1).end()),
            (std::vector<Node>{2, 0, 2}));
  EXPECT_EQ(std::vector<Node>(g.out(2).begin(), g.out(2).end()),
            (std::vector<Node>{1}));
  const Digraph t = g.transpose();
  EXPECT_EQ(std::vector<Node>(t.out(2).begin(), t.out(2).end()),
            (std::vector<Node>{1, 1}));
  EXPECT_EQ(std::vector<Node>(t.out(0).begin(), t.out(0).end()),
            (std::vector<Node>{0, 1}));
}

TEST(Graph, SccMatchesMutualReachability) {
  for (const auto& [seed, n] : cases()) {
    const Edges edges = random_edges(seed, n);
    const Digraph g = from_edges(n, edges);
    const Components c = multival::core::scc(g);
    const auto reaches = naive_reachability(n, edges);
    ASSERT_EQ(c.component_of.size(), n);
    std::vector<bool> used(c.num_components, false);
    for (Node v = 0; v < n; ++v) {
      ASSERT_LT(c.component_of[v], c.num_components);
      used[c.component_of[v]] = true;
      for (Node w = 0; w < n; ++w) {
        EXPECT_EQ(c.component_of[v] == c.component_of[w],
                  reaches[v][w] && reaches[w][v])
            << "seed " << seed << " nodes " << v << "," << w;
      }
    }
    for (const bool u : used) {
      EXPECT_TRUE(u) << "seed " << seed << ": component ids not dense";
    }
  }
}

TEST(Graph, SccIdsAreReverseTopological) {
  for (const auto& [seed, n] : cases()) {
    const Edges edges = random_edges(seed, n);
    const Components c = multival::core::scc(from_edges(n, edges));
    for (const auto& [src, dst] : edges) {
      EXPECT_GE(c.component_of[src], c.component_of[dst]) << "seed " << seed;
    }
  }
}

TEST(Graph, BottomComponentsHaveNoWayOut) {
  for (const auto& [seed, n] : cases()) {
    const Edges edges = random_edges(seed, n);
    const Digraph g = from_edges(n, edges);
    const Components c = multival::core::scc(g);
    const std::vector<bool> bottom = multival::core::bottom_components(g, c);
    ASSERT_EQ(bottom.size(), c.num_components);
    const auto reaches = naive_reachability(n, edges);
    std::vector<bool> expected(c.num_components, true);
    for (Node v = 0; v < n; ++v) {
      for (Node w = 0; w < n; ++w) {
        if (reaches[v][w] && c.component_of[w] != c.component_of[v]) {
          expected[c.component_of[v]] = false;
        }
      }
    }
    EXPECT_EQ(bottom, expected) << "seed " << seed;
  }
}

TEST(Graph, ReachMatchesNaiveClosure) {
  for (const auto& [seed, n] : cases()) {
    const Edges edges = random_edges(seed, n);
    const Digraph g = from_edges(n, edges);
    std::mt19937 rng(seed + 1000);
    std::bernoulli_distribution pick(0.2);
    std::vector<bool> seed_set(n, false);
    std::vector<bool> blocked(n, false);
    for (Node v = 0; v < n; ++v) {
      seed_set[v] = pick(rng);
      blocked[v] = pick(rng);
    }
    EXPECT_EQ(multival::core::reach(g, seed_set),
              naive_reach(n, edges, seed_set, {}))
        << "seed " << seed;
    EXPECT_EQ(multival::core::reach(g, seed_set, blocked),
              naive_reach(n, edges, seed_set, blocked))
        << "seed " << seed;
    // Backward closure: reach over the transpose.
    Edges reversed;
    for (const auto& [src, dst] : edges) {
      reversed.emplace_back(dst, src);
    }
    EXPECT_EQ(multival::core::reach(g.transpose(), seed_set, blocked),
              naive_reach(n, reversed, seed_set, blocked))
        << "seed " << seed;
  }
}

TEST(Graph, ClosureIsReusableAcrossCalls) {
  const Edges edges = random_edges(7, 34);
  const Digraph g = from_edges(34, edges);
  Closure closure(g);
  for (Node v = 0; v < 34; ++v) {
    std::vector<bool> seed(34, false);
    seed[v] = true;
    std::vector<bool> got(34, false);
    const auto found = closure.from(std::vector<Node>{v});
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found.front(), v);
    for (const Node w : found) {
      EXPECT_FALSE(got[w]) << "node listed twice";
      got[w] = true;
    }
    EXPECT_EQ(got, naive_reach(34, edges, seed, {})) << "from " << v;
  }
}

}  // namespace
