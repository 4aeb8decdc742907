// The byte-bounded least-recently-used map behind both in-memory caches:
// serve::ResultCache's memory tier and compose::MinimizeCache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

namespace multival::core {

struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

/// An LRU map bounded by the total cost its owner assigns to the entries
/// (typically their resident bytes).  Not thread-safe: the owner guards it
/// with its own lock.
template <class Key, class Value, class Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// The value under @p key, which becomes the most recently used entry.
  /// Counts a hit or a miss.
  [[nodiscard]] std::optional<Value> get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    ++stats_.hits;
    return it->second->value;
  }

  /// Inserts or replaces @p key as the most recently used entry, costing
  /// @p bytes, then evicts least recently used entries while over budget.
  /// The newest entry always stays, even when it alone is over budget.
  void put(const Key& key, Value value, std::size_t bytes) {
    ++stats_.insertions;
    if (const auto it = index_.find(key); it != index_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      entries_.splice(entries_.begin(), entries_, it->second);
    } else {
      entries_.push_front(Entry{key, std::move(value), bytes});
      index_.emplace(key, entries_.begin());
    }
    bytes_ += bytes;
    while (bytes_ > capacity_ && entries_.size() > 1) {
      bytes_ -= entries_.back().bytes;
      index_.erase(entries_.back().key);
      entries_.pop_back();
      ++stats_.evictions;
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] const LruStats& stats() const { return stats_; }

 private:
  struct Entry {
    Key key;
    Value value;
    std::size_t bytes = 0;
  };

  std::size_t capacity_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::size_t bytes_ = 0;
  LruStats stats_;
};

}  // namespace multival::core
