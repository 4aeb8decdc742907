// State partitions for bisimulation minimisation.
//
// A Partition maps every state of an LTS (or IMC) to a block id in
// 0..num_blocks()-1.  Partition-refinement algorithms start from an initial
// partition (a single block, or a reward-compatible grouping) and split
// blocks until signatures stabilise.
#pragma once

#include <cstdint>
#include <vector>

#include "lts/lts.hpp"

namespace multival::bisim {

using BlockId = std::uint32_t;

class Partition {
 public:
  /// Trivial partition: all @p n states in block 0 (no block if n == 0).
  explicit Partition(std::size_t n);

  /// Partition from an explicit assignment.  Block ids must be dense
  /// (every id in 0..max used at least once is not verified; callers use
  /// normalize() when needed).
  Partition(std::vector<BlockId> block_of, std::size_t num_blocks);

  [[nodiscard]] BlockId block_of(lts::StateId s) const {
    return block_of_[s];
  }
  [[nodiscard]] std::size_t num_blocks() const { return num_blocks_; }
  [[nodiscard]] std::size_t num_states() const { return block_of_.size(); }

  /// Renumbers block ids densely (0..k-1) preserving the grouping; returns
  /// the number of blocks.
  std::size_t normalize();

 private:
  std::vector<BlockId> block_of_;
  std::size_t num_blocks_ = 0;
};

}  // namespace multival::bisim
