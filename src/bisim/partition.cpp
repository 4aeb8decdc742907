#include "bisim/partition.hpp"

#include <stdexcept>
#include <unordered_map>

namespace multival::bisim {

Partition::Partition(std::size_t n)
    : block_of_(n, 0), num_blocks_(n == 0 ? 0 : 1) {}

Partition::Partition(std::vector<BlockId> block_of, std::size_t num_blocks)
    : block_of_(std::move(block_of)), num_blocks_(num_blocks) {
  for (const BlockId b : block_of_) {
    if (b >= num_blocks_) {
      throw std::invalid_argument("Partition: block id out of range");
    }
  }
}

std::size_t Partition::normalize() {
  std::unordered_map<BlockId, BlockId> remap;
  remap.reserve(num_blocks_);
  for (BlockId& b : block_of_) {
    const auto it = remap.find(b);
    if (it == remap.end()) {
      const auto nb = static_cast<BlockId>(remap.size());
      remap.emplace(b, nb);
      b = nb;
    } else {
      b = it->second;
    }
  }
  num_blocks_ = remap.size();
  return num_blocks_;
}

}  // namespace multival::bisim
