#include "bisim/refine.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace multival::bisim {

namespace {

using Node = std::uint32_t;

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h = (h ^ x) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

std::uint64_t mix(std::uint64_t h, const SigPair& x) {
  return mix(mix(h, x.first), x.second);
}

}  // namespace

template <class Elem>
Partition refine(const Partition& initial, SigOrder order,
                 const SigEmitter<Elem>& emit) {
  const std::size_t n = initial.num_states();
  const bool sets = order == SigOrder::kFirstSeen;
  std::vector<BlockId> block(n);
  for (Node v = 0; v < n; ++v) {
    block[v] = initial.block_of(v);
  }
  std::size_t num_blocks = initial.num_blocks();

  // Flat signature storage, rebuilt every round: the signature of node v
  // is elems[first[v], first[v + 1]), its inherited elements included.
  std::vector<Elem> elems;
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<Node> inert;
  std::vector<Elem> inherited;
  SigSink<Elem> sink(elems, inert);
  const auto sig_begin = [&](Node v) {
    return elems.begin() + static_cast<std::ptrdiff_t>(first[v]);
  };
  const auto sig_end = [&](Node v) { return sig_begin(v + 1); };

  std::vector<BlockId> next(n, 0);
  std::vector<Node> slot;  // open addressing: node + 1, 0 = empty
  std::vector<Node> rep;   // first node of each new block
  while (true) {
    elems.clear();
    for (Node v = 0; v < n; ++v) {
      first[v] = elems.size();
      inert.clear();
      emit(v, block, sink);
      // Inert successors precede v (core::scc numbers a contracted graph
      // so), so their signatures are already final.
      inherited.clear();
      for (const Node w : inert) {
        if (w >= v) {
          throw std::logic_error("bisim::refine: inert successor not below");
        }
        inherited.insert(inherited.end(), sig_begin(w), sig_end(w));
      }
      elems.insert(elems.end(), inherited.begin(), inherited.end());
      std::sort(sig_begin(v), elems.end());
      if (sets) {
        elems.erase(std::unique(sig_begin(v), elems.end()), elems.end());
      }
    }
    first[n] = elems.size();

    // Group nodes by (block, signature), numbered in order of first
    // occurrence.
    std::size_t capacity = 1;
    while (capacity < 2 * n) {
      capacity <<= 1;
    }
    slot.assign(capacity, 0);
    rep.clear();
    const auto same = [&](Node a, Node b) {
      return block[a] == block[b] &&
             std::equal(sig_begin(a), sig_end(a), sig_begin(b), sig_end(b));
    };
    for (Node v = 0; v < n; ++v) {
      std::uint64_t h = block[v];
      for (auto it = sig_begin(v); it != sig_end(v); ++it) {
        h = mix(h, *it);
      }
      std::size_t i = h & (capacity - 1);
      while (slot[i] != 0 && !same(slot[i] - 1, v)) {
        i = (i + 1) & (capacity - 1);
      }
      if (slot[i] == 0) {
        slot[i] = v + 1;
        next[v] = static_cast<BlockId>(rep.size());
        rep.push_back(v);
      } else {
        next[v] = next[slot[i] - 1];
      }
    }
    if (order == SigOrder::kLexicographic) {
      std::vector<Node> sorted = rep;
      std::sort(sorted.begin(), sorted.end(), [&](Node a, Node b) {
        if (block[a] != block[b]) {
          return block[a] < block[b];
        }
        return std::lexicographical_compare(sig_begin(a), sig_end(a),
                                            sig_begin(b), sig_end(b));
      });
      std::vector<BlockId> rank(rep.size());
      for (std::size_t r = 0; r < sorted.size(); ++r) {
        rank[next[sorted[r]]] = static_cast<BlockId>(r);
      }
      for (Node v = 0; v < n; ++v) {
        next[v] = rank[next[v]];
      }
    }

    const bool stable = rep.size() == num_blocks;
    block.swap(next);
    num_blocks = rep.size();
    if (stable || num_blocks == n) {
      break;
    }
  }
  return Partition(std::move(block), num_blocks);
}

template Partition refine<std::uint64_t>(const Partition&, SigOrder,
                                         const SigEmitter<std::uint64_t>&);
template Partition refine<SigPair>(const Partition&, SigOrder,
                                   const SigEmitter<SigPair>&);

}  // namespace multival::bisim
