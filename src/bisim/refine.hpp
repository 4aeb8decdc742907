// The partition-refinement kernel (BCG_MIN's signature approach) behind
// strong and branching bisimulation, IMC lumping and canonical forms.  A
// caller only emits the signature elements of one node from the current
// blocks, and can build the graph of the predecessors that read a node's
// block; the kernel owns the round loop, the signature storage, the
// propagation of signatures across inert successors and the numbering of
// blocks.
//
// Set-signature rounds are incremental (Valmari and Franceschinis, TACAS
// 2010; Groote, Jansen, Keiren and Wijs, TOCL 2017).  A sparse round
// re-signs, in ascending node order, only the nodes that moved in the last
// round, their predecessors, and the inert predecessors of any re-signed
// node whose signature changed (the kernel keeps each node's inert
// successors from its last signing); every other node's stored signature
// is still its signature.  For that, block ids stay stable from the round
// before a sparse round on: when a block splits, its members outside every
// new group, which share the block's stored signature, keep its id (if
// there are none, the largest group does, the first of equals) and the
// other groups take fresh ids.  A round re-signs every node instead, at
// the cost of a plain round, when its dirty nodes would be a quarter of
// all or more, or when the round before it left more than n/2 blocks and
// the predecessor graph is not built yet (the first sparse round builds
// it, and so many blocks leave too few splits to pay for it); between two
// such dense rounds the blocks are renumbered by first occurrence, as
// before.  Every lexicographic round is dense, as its ranks renumber every
// block.  Each round so groups the nodes exactly as a round that re-signs
// every node does, and numbering the final blocks by first occurrence
// once, at the end, reproduces every partition bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "bisim/partition.hpp"
#include "core/graph.hpp"

namespace multival::bisim {

/// How signatures compare and how blocks are numbered.
enum class SigOrder {
  /// Set signatures; the final blocks are numbered in order of first
  /// occurrence over the nodes.
  kFirstSeen,
  /// Multiset signatures; every round ranks its blocks by the
  /// lexicographic order of (current block, sorted elements), which is
  /// isomorphism-invariant whenever the elements are.
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

/// Emits the signature elements of @p node given every node's block.  It
/// may read the blocks of @p node and of its successors only.  With set
/// signatures the elements may depend on the block ids only through which
/// blocks are equal, as the kernel does not renumber every round.
template <class Elem>
using SigEmitter = std::function<void(
    std::uint32_t node, const std::vector<BlockId>& block, SigSink<Elem>&)>;

/// Builds the predecessor graph of the nodes: for each node, every node
/// for which the emitter reads its block.  The kernel calls it once, for
/// the first sparse round, if there is one; as every lexicographic round
/// is dense, kLexicographic callers may pass none.
using PredecessorGraph = std::function<core::Digraph()>;

/// Two-word signature element (IMC lumping: key and quantised rate).
using SigPair = std::pair<std::uint64_t, std::uint64_t>;

/// Coarsest refinement of @p initial (a partition of the nodes whose
/// num_blocks() is exact) in which all nodes of a block have the same
/// signature.  @p predecessors builds, for each node, every node for which
/// @p emit reads its block.  Rounds re-sign nodes as (block, elements) until
/// the number of blocks stops growing or every node is alone; the result
/// is numbered per @p order, and that numbering is part of the contract.
template <class Elem>
[[nodiscard]] Partition refine(const Partition& initial, SigOrder order,
                               const PredecessorGraph& predecessors,
                               const SigEmitter<Elem>& emit);

extern template Partition refine<std::uint64_t>(
    const Partition&, SigOrder, const PredecessorGraph&,
    const SigEmitter<std::uint64_t>&);
extern template Partition refine<SigPair>(const Partition&, SigOrder,
                                          const PredecessorGraph&,
                                          const SigEmitter<SigPair>&);

}  // namespace multival::bisim
