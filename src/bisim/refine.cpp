#include "bisim/refine.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <span>
#include <stdexcept>

namespace multival::bisim {

namespace {

using Node = std::uint32_t;

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// A round whose dirty nodes are at least 1/kDenseShare of all re-signs
/// every node instead: a dense round costs less per node.
constexpr std::size_t kDenseShare = 4;

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h = (h ^ x) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

std::uint64_t mix(std::uint64_t h, const SigPair& x) {
  return mix(mix(h, x.first), x.second);
}

/// One variable-length record per node (a signature, or a list of inert
/// successors) in one buffer.  A dense round rebuilds the buffer; a
/// sparse round appends the new records of the nodes it re-signs, and
/// compact() drops the old ones once they outweigh the live ones.
template <class T>
struct Records {
  struct Span {
    std::size_t first = 0;
    std::size_t last = 0;
  };
  std::vector<T> data;
  std::vector<Span> span;  // empty: every record is empty
  std::size_t live = 0;

  explicit Records(std::size_t n) : span(n) {}

  [[nodiscard]] auto begin(Node v) const {
    return data.begin() + static_cast<std::ptrdiff_t>(span[v].first);
  }
  [[nodiscard]] auto end(Node v) const {
    return data.begin() + static_cast<std::ptrdiff_t>(span[v].last);
  }
  [[nodiscard]] bool same(Node v, std::size_t from) const {
    return std::equal(begin(v), end(v),
                      data.begin() + static_cast<std::ptrdiff_t>(from),
                      data.end());
  }
  /// Makes data[from, end) the record of @p v.
  void assign(Node v, std::size_t from) {
    live = live - (span[v].last - span[v].first) + (data.size() - from);
    span[v] = Span{from, data.size()};
  }
  void compact() {
    if (data.size() <= 2 * live + span.size()) {
      return;
    }
    std::vector<T> kept;
    kept.reserve(live);
    for (Node v = 0; v < span.size(); ++v) {
      const std::size_t from = kept.size();
      kept.insert(kept.end(), begin(v), end(v));
      span[v] = Span{from, kept.size()};
    }
    data.swap(kept);
  }
};

}  // namespace

template <class Elem>
Partition refine(const Partition& initial, SigOrder order,
                 const PredecessorGraph& predecessors_of,
                 const SigEmitter<Elem>& emit) {
  const std::size_t n = initial.num_states();
  const bool sets = order == SigOrder::kFirstSeen;
  std::vector<BlockId> block(n);
  for (Node v = 0; v < n; ++v) {
    block[v] = initial.block_of(v);
  }
  std::size_t num_blocks = n == 0 ? 0 : initial.num_blocks();
  // Block sizes, kept for the sparse rounds only.
  std::vector<std::uint32_t> block_size;
  bool sizes_valid = false;

  // Each node's signature as of its last signing, inherited elements
  // included, and its inert successors then (no records until some node
  // has one).
  Records<Elem> sig(n);
  Records<Node> inert(0);
  std::vector<Node> inert_now;
  std::vector<Elem> inherited;
  SigSink<Elem> sink(sig.data, inert_now);

  // A round re-signs every node (dense) or the dirty ones, ascending, with
  // the inert predecessors of changed nodes joining as it goes (sparse).
  bool dense = true;
  std::vector<Node> dirty;
  std::priority_queue<Node, std::vector<Node>, std::greater<>> joined;
  std::uint32_t round = 0;
  // Built for the first sparse round: predecessors, and the round that
  // last marked each node dirty.
  core::Digraph predecessors;
  std::vector<std::uint32_t> stamp;

  std::vector<Node> changed;  // sparse: re-signed nodes whose signature changed
  std::vector<Node> slot;     // open addressing: node + 1, 0 = empty
  std::vector<std::uint32_t> group_of(n, 0);
  std::vector<Node> group_rep;
  std::vector<std::uint32_t> group_size;
  std::vector<BlockId> group_block;
  // Per old block that some group falls in: the members in groups and the
  // largest group (the first of equals).
  struct Split {
    std::uint32_t in_groups = 0;
    std::uint32_t largest = kNone;
  };
  std::vector<Split> split;
  std::vector<BlockId> touched;
  std::vector<Node> moved;

  while (n > 0) {
    ++round;
    if (dense) {
      sig.data.clear();
      inert.data.clear();
    }
    changed.clear();
    std::size_t next = 0;
    while (dense ? next < n : next < dirty.size() || !joined.empty()) {
      Node v = 0;
      if (dense) {
        v = static_cast<Node>(next++);
      } else if (!joined.empty() &&
                 (next == dirty.size() || joined.top() < dirty[next])) {
        v = joined.top();
        joined.pop();
      } else {
        v = dirty[next++];
      }
      const std::size_t from = sig.data.size();
      inert_now.clear();
      emit(v, block, sink);
      // Inert successors precede v (core::scc numbers a contracted graph
      // so), so their signatures are already this round's.
      inherited.clear();
      for (const Node w : inert_now) {
        if (w >= v) {
          throw std::logic_error("bisim::refine: inert successor not below");
        }
        inherited.insert(inherited.end(), sig.begin(w), sig.end(w));
      }
      sig.data.insert(sig.data.end(), inherited.begin(), inherited.end());
      const auto own = sig.data.begin() + static_cast<std::ptrdiff_t>(from);
      std::sort(own, sig.data.end());
      if (sets) {
        sig.data.erase(std::unique(own, sig.data.end()), sig.data.end());
      }
      if (!inert_now.empty() && inert.span.empty()) {
        inert = Records<Node>(n);  // the first inert successor seen
      }
      const std::size_t inert_from = inert.data.size();
      if (!inert.span.empty()) {
        inert.data.insert(inert.data.end(), inert_now.begin(), inert_now.end());
      }
      if (dense) {
        sig.span[v] = {from, sig.data.size()};
        if (!inert.span.empty()) {
          inert.span[v] = {inert_from, inert.data.size()};
        }
        continue;
      }
      if (!inert.span.empty()) {
        if (inert.same(v, inert_from)) {
          inert.data.resize(inert_from);
        } else {
          inert.assign(v, inert_from);
        }
      }
      if (sig.same(v, from)) {
        sig.data.resize(from);
        continue;
      }
      sig.assign(v, from);
      changed.push_back(v);
      // A later node that inherits v's signature changes with it.
      for (const Node u : inert.span.empty() ? std::span<const Node>()
                                               : predecessors.out(v)) {
        if (u > v && stamp[u] != round &&
            std::find(inert.begin(u), inert.end(u), v) != inert.end(u)) {
          stamp[u] = round;
          joined.push(u);
        }
      }
    }
    if (dense) {
      sig.live = sig.data.size();
      inert.live = inert.data.size();
    } else {
      sig.compact();
      inert.compact();
    }

    // Group the candidates (every node, or the changed ones) by (block,
    // signature), in order of first occurrence; a block's other members
    // keep its stored signature.
    const std::size_t num_candidates = dense ? n : changed.size();
    std::size_t capacity = 1;
    while (capacity < 2 * num_candidates) {
      capacity <<= 1;
    }
    slot.assign(capacity, 0);
    group_rep.clear();
    const auto same = [&](Node a, Node b) {
      return block[a] == block[b] &&
             std::equal(sig.begin(a), sig.end(a), sig.begin(b), sig.end(b));
    };
    for (std::size_t c = 0; c < num_candidates; ++c) {
      const Node v = dense ? static_cast<Node>(c) : changed[c];
      std::uint64_t h = block[v];
      for (auto it = sig.begin(v); it != sig.end(v); ++it) {
        h = mix(h, *it);
      }
      std::size_t i = h & (capacity - 1);
      while (slot[i] != 0 && !same(slot[i] - 1, v)) {
        i = (i + 1) & (capacity - 1);
      }
      if (slot[i] == 0) {
        slot[i] = v + 1;
        group_of[v] = static_cast<std::uint32_t>(group_rep.size());
        group_rep.push_back(v);
      } else {
        group_of[v] = group_of[slot[i] - 1];
      }
    }

    if (!sets) {
      // Rank the groups by (block, signature); every block is renumbered.
      std::vector<Node> sorted = group_rep;
      std::sort(sorted.begin(), sorted.end(), [&](Node a, Node b) {
        if (block[a] != block[b]) {
          return block[a] < block[b];
        }
        return std::lexicographical_compare(sig.begin(a), sig.end(a),
                                            sig.begin(b), sig.end(b));
      });
      std::vector<BlockId> rank(group_rep.size());
      for (std::size_t r = 0; r < sorted.size(); ++r) {
        rank[group_of[sorted[r]]] = static_cast<BlockId>(r);
      }
      for (Node v = 0; v < n; ++v) {
        block[v] = rank[group_of[v]];
      }
      const bool stable = group_rep.size() == num_blocks;
      num_blocks = group_rep.size();
      if (stable || num_blocks == n) {
        break;
      }
      continue;
    }

    const std::size_t num_groups = group_rep.size();
    if (dense && num_groups == num_blocks) {
      break;  // no block split
    }
    // Between two dense rounds the ids need not be stable: the groups are
    // numbered in order of first occurrence.
    const auto renumber_groups = [&] {
      block.swap(group_of);
      num_blocks = num_groups;
      sizes_valid = false;
    };
    // The next round is dense as well if the new blocks alone (each moves
    // a node at least) are too many for a sparse round, or if there are
    // more than n/2 blocks before the predecessor graph is built: so near
    // a discrete partition too few splits are left to pay for building it.
    if (dense && (kDenseShare * (num_groups - num_blocks) >= n ||
                  (stamp.empty() && 2 * num_groups > n))) {
      renumber_groups();
      if (num_blocks == n) {
        break;
      }
      continue;
    }

    // A group keeps its block's id if it holds every member and is the
    // largest of the block's groups; members outside every group keep
    // their block's id anyway.  The members of the other groups move.
    group_size.assign(num_groups, 0);
    for (std::size_t c = 0; c < num_candidates; ++c) {
      ++group_size[group_of[dense ? static_cast<Node>(c) : changed[c]]];
    }
    split.resize(std::max(split.size(), num_blocks));
    touched.clear();
    for (std::uint32_t g = 0; g < num_groups; ++g) {
      Split& t = split[block[group_rep[g]]];
      if (t.largest == kNone) {
        touched.push_back(block[group_rep[g]]);
        t.largest = g;
      } else if (group_size[g] > group_size[t.largest]) {
        t.largest = g;
      }
      t.in_groups += group_size[g];
    }
    const auto whole = [&](BlockId b) {
      return dense || split[b].in_groups == block_size[b];
    };
    std::size_t num_moved = 0;
    for (const BlockId b : touched) {
      num_moved += split[b].in_groups;
      if (whole(b)) {
        num_moved -= group_size[split[b].largest];
      }
    }
    if (num_moved == 0) {
      break;  // no block split
    }

    // The next round is sparse if the moved nodes and their predecessors
    // are few, as estimated from the mean signature length until the
    // predecessors are known.
    const std::size_t fan_in =
        stamp.empty() ? sig.live : predecessors.num_edges();
    bool next_dense = static_cast<double>(kDenseShare * num_moved) *
                          static_cast<double>(n + fan_in) >=
                      static_cast<double>(n) * static_cast<double>(n);
    if (dense && next_dense) {
      renumber_groups();
    } else {
      group_block.resize(num_groups);
      for (std::uint32_t g = 0; g < num_groups; ++g) {
        const BlockId b = block[group_rep[g]];
        group_block[g] = whole(b) && split[b].largest == g
                             ? b
                             : static_cast<BlockId>(num_blocks++);
      }
      moved.clear();
      for (std::size_t c = 0; c < num_candidates; ++c) {
        const Node v = dense ? static_cast<Node>(c) : changed[c];
        const BlockId b = group_block[group_of[v]];
        if (b != block[v]) {
          if (sizes_valid) {
            --block_size[block[v]];
            ++block_size[b];
          }
          block[v] = b;
          moved.push_back(v);
        }
      }
    }
    for (const BlockId b : touched) {
      split[b] = Split{};
    }
    if (num_blocks == n) {
      break;
    }
    if (!next_dense) {
      if (stamp.empty()) {
        predecessors = predecessors_of();
        if (predecessors.num_nodes() != n) {
          throw std::invalid_argument(
              "bisim::refine: predecessor graph size mismatch");
        }
        stamp.assign(n, 0);
      }
      dirty.clear();
      const auto mark = [&](Node v) {
        if (stamp[v] != round + 1) {
          stamp[v] = round + 1;
          dirty.push_back(v);
        }
      };
      for (const Node v : moved) {
        mark(v);
        for (const Node u : predecessors.out(v)) {
          mark(u);
        }
      }
      next_dense = kDenseShare * dirty.size() >= n;
      std::sort(dirty.begin(), dirty.end());
    }
    if (!next_dense && !sizes_valid) {
      block_size.assign(n, 0);
      for (Node v = 0; v < n; ++v) {
        ++block_size[block[v]];
      }
      sizes_valid = true;
    }
    dense = next_dense;
  }

  // Number the blocks in order of first occurrence over the nodes
  // (lexicographic ranks are final as they stand).
  if (sets) {
    std::vector<BlockId> renumber(num_blocks, kNone);
    BlockId next = 0;
    for (Node v = 0; v < n; ++v) {
      if (renumber[block[v]] == kNone) {
        renumber[block[v]] = next++;
      }
      block[v] = renumber[block[v]];
    }
    num_blocks = next;
  }
  return Partition(std::move(block), num_blocks);
}

template Partition refine<std::uint64_t>(const Partition&, SigOrder,
                                         const PredecessorGraph&,
                                         const SigEmitter<std::uint64_t>&);
template Partition refine<SigPair>(const Partition&, SigOrder,
                                   const PredecessorGraph&,
                                   const SigEmitter<SigPair>&);

}  // namespace multival::bisim
