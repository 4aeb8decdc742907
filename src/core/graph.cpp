#include "core/graph.hpp"

#include <algorithm>

namespace multival::core {

using Node = Digraph::Node;

Digraph Digraph::transpose() const {
  const std::size_t n = num_nodes();
  return build(n, [&](auto&& add) {
    for (Node v = 0; v < n; ++v) {
      for (const Node w : out(v)) {
        add(w, v);
      }
    }
  });
}

Components scc(const Digraph& g) {
  const std::size_t n = g.num_nodes();
  constexpr Node kUnvisited = static_cast<Node>(-1);
  Components result;
  result.component_of.assign(n, kUnvisited);

  std::vector<Node> index(n, kUnvisited);
  std::vector<Node> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<Node> scc_stack;
  struct Frame {
    Node v;
    std::size_t edge;
  };
  std::vector<Frame> call;
  Node next_index = 0;

  for (Node root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) {
      continue;
    }
    call.push_back(Frame{root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;
    while (!call.empty()) {
      Frame& fr = call.back();
      const Node v = fr.v;
      const auto succ = g.out(v);
      bool descended = false;
      while (fr.edge < succ.size()) {
        const Node w = succ[fr.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          call.push_back(Frame{w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      }
      if (descended) {
        continue;
      }
      if (lowlink[v] == index[v]) {
        const auto comp = static_cast<std::uint32_t>(result.num_components++);
        Node w = kUnvisited;
        do {
          w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = false;
          result.component_of[w] = comp;
        } while (w != v);
      }
      call.pop_back();
      if (!call.empty()) {
        Node& parent = lowlink[call.back().v];
        parent = std::min(parent, lowlink[v]);
      }
    }
  }
  return result;
}

std::vector<bool> bottom_components(const Digraph& g, const Components& c) {
  std::vector<bool> bottom(c.num_components, true);
  for (Node v = 0; v < g.num_nodes(); ++v) {
    for (const Node w : g.out(v)) {
      if (c.component_of[w] != c.component_of[v]) {
        bottom[c.component_of[v]] = false;
      }
    }
  }
  return bottom;
}

Closure::Closure(const Digraph& g) : g_(g), seen_(g.num_nodes(), 0) {}

std::span<const Node> Closure::from(std::span<const Node> seeds,
                                    const std::vector<bool>& blocked) {
  for (const Node v : found_) {
    seen_[v] = 0;
  }
  found_.clear();
  for (const Node s : seeds) {
    if (seen_[s] == 0) {
      seen_[s] = 1;
      found_.push_back(s);
    }
  }
  // found_ doubles as the work queue.
  for (std::size_t i = 0; i < found_.size(); ++i) {
    for (const Node w : g_.out(found_[i])) {
      if (seen_[w] == 0 && (blocked.empty() || !blocked[w])) {
        seen_[w] = 1;
        found_.push_back(w);
      }
    }
  }
  return found_;
}

std::vector<bool> reach(const Digraph& g, const std::vector<bool>& seed,
                        const std::vector<bool>& blocked) {
  std::vector<Node> seeds;
  for (Node v = 0; v < seed.size(); ++v) {
    if (seed[v]) {
      seeds.push_back(v);
    }
  }
  std::vector<bool> out(g.num_nodes(), false);
  Closure closure(g);
  for (const Node v : closure.from(seeds, blocked)) {
    out[v] = true;
  }
  return out;
}

}  // namespace multival::core
