// Content-addressed result cache for the evaluation service.
//
// Two tiers:
//   - an in-memory LRU tier, bounded in bytes, thread-safe;
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

#include "bisim/equivalence.hpp"
#include "core/lru.hpp"
#include "core/sync.hpp"
#include "compose/pipeline.hpp"
#include "serve/hash.hpp"

namespace multival::serve {

class ResultCache {
 public:
  struct Options {
    /// Memory-tier budget (payload bytes + fixed per-entry overhead).
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

  /// Returns the payload for @p key, promoting it to most-recently-used
  /// (and from disk into memory on a disk hit).
  [[nodiscard]] std::optional<std::string> lookup(const CacheKey& key);

  /// Inserts (or refreshes) @p key -> @p payload, evicting least-recently
  /// used entries until the memory tier fits its budget.
  void insert(const CacheKey& key, std::string payload);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t bytes() const;

 private:
  void insert_locked(const CacheKey& key, std::string payload)
      MV_REQUIRES(mu_);
  void sweep_stale_tmp() MV_REQUIRES(mu_);
  [[nodiscard]] std::string disk_path(const CacheKey& key) const;
  // The disk tier maintains the disk_* counters in stats_, so both run
  // under the lock (file I/O under mu_ is acceptable here: the disk tier
  // is an optional cold path).
  [[nodiscard]] std::optional<std::string> disk_load(const CacheKey& key)
      MV_REQUIRES(mu_);
  void disk_store(const CacheKey& key, const std::string& payload)
      MV_REQUIRES(mu_);

  Options opts_;
  mutable core::Mutex mu_;
  core::LruCache<CacheKey, std::string, CacheKeyHash> memory_
      MV_GUARDED_BY(mu_);
  // Disk-tier counters; hits, misses, insertions and evictions are
  // derived from memory_ in stats().
  Stats stats_ MV_GUARDED_BY(mu_);
};

/// compose::MinimizeCache implementation backed by a ResultCache: the key
/// is the content hash of the pre-minimisation LTS plus the equivalence,
/// the payload is the quotient serialised in the lts_stream binary format.
class PipelineCache final : public compose::MinimizeCache {
 public:
  explicit PipelineCache(ResultCache::Options opts = {});

  [[nodiscard]] std::optional<lts::Lts> lookup(const lts::Lts& input,
                                               bisim::Equivalence e) override;
  void store(const lts::Lts& input, bisim::Equivalence e,
             const lts::Lts& reduced) override;

  /// Plan-keyed subtree tier (compose::Plan sets Node::plan_key): whole
  /// minimised subtrees addressed by their *structural* key, so re-planning
  /// a changed model skips generation of every untouched subtree.
  [[nodiscard]] std::optional<lts::Lts> lookup_subtree(
      const std::string& plan_key) override;
  void store_subtree(const std::string& plan_key,
                     const lts::Lts& reduced) override;

  [[nodiscard]] std::uint64_t hits() const { return cache_.stats().hits; }
  [[nodiscard]] std::uint64_t misses() const { return cache_.stats().misses; }
  [[nodiscard]] ResultCache& result_cache() { return cache_; }

 private:
  ResultCache cache_;
};

}  // namespace multival::serve
