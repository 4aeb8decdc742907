// Open-addressing interning of dense ids: the hash-consing table behind the
// generator's configurations and actions, the product's pair numbering and
// the quotient's (block, action, block) deduplication.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace multival::core {

/// One mixing step of a word hash: folds @p w into @p h.
inline std::uint64_t hash_mix(std::uint64_t h, std::uint32_t w) {
  h = (h ^ w) * 0xff51afd7ed558ccdull;
  return h ^ (h >> 32);
}

/// Hash of a record of 32-bit words.
inline std::uint64_t hash_words(std::span<const std::uint32_t> words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ words.size();
  for (const std::uint32_t w : words) {
    h = hash_mix(h, w);
  }
  return h;
}

/// Open-addressing (linear probing) set of dense ids whose records live in
/// the caller's arena.  Each slot keeps 32 bits of the record's hash next
/// to its id, so growing never touches the records and most probes that
/// miss never touch them either.
class IdTable {
 public:
  /// Returns the id whose record @p same accepts, or adds @p fresh.
  template <class Same>
  std::uint32_t find_or_add(std::uint64_t hash, std::uint32_t fresh,
                            Same&& same) {
    if ((count_ + 1) * 4 > slots_.size() * 3) {
      grow();
    }
    const auto tag = static_cast<std::uint32_t>(hash ^ (hash >> 32));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s = Slot{tag, fresh};
        ++count_;
        return fresh;
      }
      if (s.tag == tag && same(s.id)) {
        return s.id;
      }
    }
  }

  /// Returns the id whose record @p same accepts, if there is one.
  template <class Same>
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint64_t hash,
                                                  Same&& same) const {
    if (slots_.empty()) {
      return std::nullopt;
    }
    const auto tag = static_cast<std::uint32_t>(hash ^ (hash >> 32));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNone) {
        return std::nullopt;
      }
      if (s.tag == tag && same(s.id)) {
        return s.id;
      }
    }
  }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNone;
  };

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, slots_.size() * 2));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNone) {
        continue;
      }
      std::size_t i = s.tag & mask;
      while (slots_[i].id != kNone) {
        i = (i + 1) & mask;
      }
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

}  // namespace multival::core
