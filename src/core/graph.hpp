// The graph kernel: every SCC, bottom-component and closure question in
// the library (divergence, branching contraction, lumping contraction,
// BSCC decomposition, end components, qualitative reachability, weak
// saturation, subset construction) runs on one compressed-sparse-row
// digraph with one iterative Tarjan and one reachability closure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace multival::core {

/// A digraph over nodes 0..n-1 in compressed sparse row form.  Each node
/// keeps its out-edges in the order they were added.
class Digraph {
 public:
  using Node = std::uint32_t;

  Digraph() = default;

  /// Builds the graph from @p for_each_edge, which is called twice with an
  /// `add(src, dst)` sink and must add the same edges in the same order
  /// both times (once to count, once to fill).
  template <class ForEachEdge>
  static Digraph build(std::size_t n, ForEachEdge&& for_each_edge) {
    Digraph g;
    g.offset_.assign(n + 1, 0);
    for_each_edge([&](Node src, Node) { ++g.offset_[src + 1]; });
    for (std::size_t v = 0; v < n; ++v) {
      g.offset_[v + 1] += g.offset_[v];
    }
    g.dst_.resize(g.offset_[n]);
    std::vector<std::size_t> next(g.offset_.begin(), g.offset_.end() - 1);
    for_each_edge([&](Node src, Node dst) { g.dst_[next[src]++] = dst; });
    return g;
  }

  [[nodiscard]] std::size_t num_nodes() const {
    return offset_.empty() ? 0 : offset_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const { return dst_.size(); }

  /// Successors of @p v in insertion order.
  [[nodiscard]] std::span<const Node> out(Node v) const {
    return {dst_.data() + offset_[v], dst_.data() + offset_[v + 1]};
  }

  /// The reversed graph; each node's predecessors in ascending order.
  [[nodiscard]] Digraph transpose() const;

 private:
  std::vector<std::size_t> offset_;  // n + 1 entries
  std::vector<Node> dst_;
};

/// Strongly connected components.
struct Components {
  std::vector<std::uint32_t> component_of;  // node -> component id
  std::size_t num_components = 0;
};

/// SCCs by one iterative Tarjan.  Roots are tried in ascending order and
/// edges in insertion order; components are numbered in completion order,
/// so every edge goes from a higher-or-equal to a lower-or-equal component
/// id (reverse topological order).  Callers' outputs depend on this
/// numbering, so it is part of the contract.
[[nodiscard]] Components scc(const Digraph& g);

/// For each component of @p c, whether no edge of @p g leaves it.
[[nodiscard]] std::vector<bool> bottom_components(const Digraph& g,
                                                  const Components& c);

/// Reachability closures over one graph.  Each call clears only the marks
/// of the previous call, so one Closure serves many small closures (weak
/// saturation, subset construction) at the cost of each closure's size
/// rather than the graph's.  @p g must outlive the Closure.
class Closure {
 public:
  explicit Closure(const Digraph& g);

  /// Nodes reachable from @p seeds (seeds first), in breadth-first
  /// discovery order, never entering a node marked in @p blocked (empty:
  /// none blocked).  The span is valid until the next call.
  [[nodiscard]] std::span<const Digraph::Node> from(
      std::span<const Digraph::Node> seeds,
      const std::vector<bool>& blocked = {});

 private:
  const Digraph& g_;
  std::vector<char> seen_;
  std::vector<Digraph::Node> found_;
};

/// Closure::from as a bitmap: the nodes reachable from those marked in
/// @p seed, never entering one marked in @p blocked.  Over g.transpose()
/// it is the backward closure.
[[nodiscard]] std::vector<bool> reach(const Digraph& g,
                                      const std::vector<bool>& seed,
                                      const std::vector<bool>& blocked = {});

}  // namespace multival::core
