// Content-addressed result cache for the evaluation service.
//
// Two tiers:
//   - an in-memory tier, bounded in bytes, thread-safe.  A new result
//     enters a probation LRU that holds 1/kProbationShare of the budget,
//     and moves on its first hit to the main LRU, which holds the rest.
//     Results nobody asks for again so take at most the probation slice;
//     a result first asked for again after a slice's worth of newer
//     results has left the memory tier;
//   - an optional on-disk tier (one file per key under Options::disk_dir)
//     using the same record-oriented binary framing as explore/lts_stream:
//
//       magic "MVCR", version byte (1)
//       records (integers LEB128 varints):
//         0x01  key:     16 raw bytes (hi, lo big-endian)
//         0x02  payload: <len> <bytes>
//         0x00  end of file
//
// A disk entry whose framing, key or end record does not validate is
// treated as a miss (and counted in Stats::disk_errors), never as corrupt
// data handed to a caller.  Evicted memory entries stay on disk, so the
// disk tier acts as a second-chance store across process restarts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "core/lru.hpp"
#include "core/sync.hpp"
#include "serve/hash.hpp"

namespace multival::serve {

class ResultCache {
 public:
  /// Resident bytes a memory-tier entry costs beyond its payload: the LRU
  /// list node, the index node and bucket, and the payload's heap block.
  /// Measured with glibc on x86-64 at 154-162 bytes for 36- to 300-byte
  /// payloads.
  static constexpr std::size_t kEntryOverhead = 160;
  /// The probation segment gets 1/kProbationShare of the budget.
  static constexpr std::size_t kProbationShare = 64;

  struct Options {
    /// Memory-tier budget over both segments: payload bytes plus
    /// kEntryOverhead per entry.
    std::size_t capacity_bytes = 64u << 20;
    /// Empty = no disk tier.  The directory must already exist.
    std::string disk_dir;
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< lookups served (memory or disk)
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   ///< memory-tier entries dropped
    std::uint64_t disk_hits = 0;   ///< hits that came from the disk tier
    std::uint64_t disk_writes = 0;
    std::uint64_t disk_errors = 0; ///< unreadable / corrupt disk entries
    std::uint64_t tmp_swept = 0;   ///< orphaned *.tmp.* files removed on open
  };

  ResultCache();
  explicit ResultCache(Options opts);

  /// Returns the payload for @p key as the main segment's most recently
  /// used entry (moved there from probation, or loaded from disk on a
  /// disk hit).
  [[nodiscard]] std::optional<std::string> lookup(const CacheKey& key);

  /// Inserts (or refreshes) @p key -> @p payload, into probation unless the
  /// key is in the main segment, evicting that segment's least recently
  /// used entries until it fits its share of the budget.
  void insert(const CacheKey& key, std::string payload);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t bytes() const;

 private:
  void sweep_stale_tmp() MV_REQUIRES(mu_);
  [[nodiscard]] std::string disk_path(const CacheKey& key) const;
  // The disk tier maintains the disk_* counters in stats_, so both run
  // under the lock (file I/O under mu_ is acceptable here: the disk tier
  // is an optional cold path).
  [[nodiscard]] std::optional<std::string> disk_load(const CacheKey& key)
      MV_REQUIRES(mu_);
  void disk_store(const CacheKey& key, const std::string& payload)
      MV_REQUIRES(mu_);

  using Segment = core::LruCache<CacheKey, std::string, CacheKeyHash>;

  Options opts_;
  mutable core::Mutex mu_;
  Segment probation_ MV_GUARDED_BY(mu_);
  Segment main_ MV_GUARDED_BY(mu_);
  // Every counter but evictions, which stats() sums over the segments.
  Stats stats_ MV_GUARDED_BY(mu_);
};

}  // namespace multival::serve
