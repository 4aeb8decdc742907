// The partition-refinement kernel (BCG_MIN's signature approach) behind
// strong and branching bisimulation, IMC lumping and canonical forms.  A
// caller only emits the signature elements of one node from the current
// blocks; the kernel owns the round loop, the flat signature storage, the
// propagation of signatures across inert successors and the numbering of
// blocks.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "bisim/partition.hpp"

namespace multival::bisim {

/// How signatures compare and how each round numbers its blocks.
enum class SigOrder {
  /// Set signatures; blocks are numbered in order of first occurrence
  /// over the nodes.
  kFirstSeen,
  /// Multiset signatures; blocks are ranked by the lexicographic order of
  /// (current block, sorted elements), which is isomorphism-invariant
  /// whenever the elements are.
  kLexicographic,
};

/// Receives the signature of one node for one round.
template <class Elem>
class SigSink {
 public:
  SigSink(std::vector<Elem>& elems, std::vector<std::uint32_t>& inert)
      : elems_(elems), inert_(inert) {}

  /// One element; elements compare by value.
  void add(const Elem& e) { elems_.push_back(e); }
  /// An inert successor, which must be a lower node: this node's signature
  /// also holds every element of @p node's (set signatures only).
  void inert(std::uint32_t node) { inert_.push_back(node); }

 private:
  std::vector<Elem>& elems_;
  std::vector<std::uint32_t>& inert_;
};

/// Emits the signature elements of @p node given every node's block.
template <class Elem>
using SigEmitter = std::function<void(
    std::uint32_t node, const std::vector<BlockId>& block, SigSink<Elem>&)>;

/// Two-word signature element (IMC lumping: key and quantised rate).
using SigPair = std::pair<std::uint64_t, std::uint64_t>;

/// Coarsest refinement of @p initial (a partition of the nodes whose
/// num_blocks() is exact) in which all nodes of a block have the same
/// signature.  Rounds re-sign every node as (block, elements) until the
/// number of blocks stops growing or every node is alone; the result is
/// numbered per @p order, and that numbering is part of the contract.
template <class Elem>
[[nodiscard]] Partition refine(const Partition& initial, SigOrder order,
                               const SigEmitter<Elem>& emit);

extern template Partition refine<std::uint64_t>(
    const Partition&, SigOrder, const SigEmitter<std::uint64_t>&);
extern template Partition refine<SigPair>(const Partition&, SigOrder,
                                          const SigEmitter<SigPair>&);

}  // namespace multival::bisim
