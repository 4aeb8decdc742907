#include "serve/cache.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <ctime>
#include <fstream>


namespace multival::serve {

namespace {

// Amortised cost of the list node, map slot and key bookkeeping per entry,
// so capacity_bytes also bounds caches full of tiny payloads.
constexpr std::size_t kEntryOverhead = 128;

// A temporary younger than this may belong to a live writer (another
// process sharing disk_dir mid-publish); only older orphans are swept.
constexpr std::time_t kTmpSweepAgeSeconds = 60;

constexpr char kMagic[4] = {'M', 'V', 'C', 'R'};
constexpr std::uint8_t kVersion = 1;

enum Record : std::uint8_t {
  kEnd = 0x00,
  kKey = 0x01,
  kPayload = 0x02,
};

void put_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    os.put(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  os.put(static_cast<char>(v));
}

// Returns false on truncation / overlong input instead of throwing: a
// corrupt cache entry is a miss, not an error.
bool get_varint(std::istream& is, std::uint64_t& out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    const int c = is.get();
    if (c == std::istream::traits_type::eof() || shift > 63) {
      return false;
    }
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
  }
}

void put_u64_be(std::ostream& os, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    os.put(static_cast<char>((v >> (i * 8)) & 0xff));
  }
}

bool get_u64_be(std::istream& is, std::uint64_t& out) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    const int c = is.get();
    if (c == std::istream::traits_type::eof()) {
      return false;
    }
    v = (v << 8) | static_cast<std::uint64_t>(c & 0xff);
  }
  out = v;
  return true;
}

}  // namespace

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options opts)
    : opts_(std::move(opts)), memory_(opts_.capacity_bytes) {
  core::MutexLock lock(mu_);  // satisfies sweep's REQUIRES; no contention yet
  if (!opts_.disk_dir.empty()) {
    sweep_stale_tmp();
  }
}

// A crash between writing "<key>.mvcr.tmp.<pid>.<seq>" and the rename()
// leaks the temporary forever (nothing ever refers to that name again).
// Opening the cache is the natural point to collect such orphans: any tmp
// file old enough that its writer cannot still be mid-publish is deleted.
void ResultCache::sweep_stale_tmp() {
  DIR* dir = ::opendir(opts_.disk_dir.c_str());
  if (dir == nullptr) {
    return;  // best-effort, like the rest of the disk tier
  }
  const std::time_t now = std::time(nullptr);
  while (const dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name.find(".mvcr.tmp.") == std::string::npos) {
      continue;
    }
    const std::string path = opts_.disk_dir + "/" + name;
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0 ||
        now - st.st_mtime < kTmpSweepAgeSeconds) {
      continue;
    }
    if (std::remove(path.c_str()) == 0) {
      ++stats_.tmp_swept;
    }
  }
  ::closedir(dir);
}

std::optional<std::string> ResultCache::lookup(const CacheKey& key) {
  core::MutexLock lock(mu_);
  if (std::optional<std::string> payload = memory_.get(key)) {
    return payload;
  }
  if (!opts_.disk_dir.empty()) {
    if (std::optional<std::string> payload = disk_load(key)) {
      ++stats_.disk_hits;
      // Promote into the memory tier without re-writing the disk entry.
      insert_locked(key, *payload);
      return payload;
    }
  }
  return std::nullopt;
}

void ResultCache::insert(const CacheKey& key, std::string payload) {
  core::MutexLock lock(mu_);
  if (!opts_.disk_dir.empty()) {
    disk_store(key, payload);
  }
  insert_locked(key, std::move(payload));
}

void ResultCache::insert_locked(const CacheKey& key, std::string payload) {
  const std::size_t cost = payload.size() + kEntryOverhead;
  memory_.put(key, std::move(payload), cost);
}

ResultCache::Stats ResultCache::stats() const {
  core::MutexLock lock(mu_);
  const core::LruStats& m = memory_.stats();
  Stats s = stats_;
  // Every disk hit was first a memory-tier miss.
  s.hits = m.hits + stats_.disk_hits;
  s.misses = m.misses - stats_.disk_hits;
  s.insertions = m.insertions;
  s.evictions = m.evictions;
  return s;
}

std::size_t ResultCache::entries() const {
  core::MutexLock lock(mu_);
  return memory_.size();
}

std::size_t ResultCache::bytes() const {
  core::MutexLock lock(mu_);
  return memory_.bytes();
}

std::string ResultCache::disk_path(const CacheKey& key) const {
  return opts_.disk_dir + "/" + key.hex() + ".mvcr";
}

std::optional<std::string> ResultCache::disk_load(const CacheKey& key) {
  std::ifstream is(disk_path(key), std::ios::binary);
  if (!is) {
    return std::nullopt;  // plain miss: entry was never written
  }
  char magic[4] = {};
  is.read(magic, sizeof magic);
  if (!is || std::string_view(magic, 4) != std::string_view(kMagic, 4) ||
      is.get() != kVersion) {
    ++stats_.disk_errors;
    return std::nullopt;
  }
  std::optional<std::string> payload;
  bool saw_key = false;
  while (true) {
    const int rec = is.get();
    if (rec == kEnd) {
      break;
    }
    if (rec == kKey) {
      CacheKey stored;
      if (!get_u64_be(is, stored.hi) || !get_u64_be(is, stored.lo) ||
          stored != key) {
        ++stats_.disk_errors;
        return std::nullopt;
      }
      saw_key = true;
    } else if (rec == kPayload) {
      std::uint64_t len = 0;
      if (!get_varint(is, len)) {
        ++stats_.disk_errors;
        return std::nullopt;
      }
      std::string data(len, '\0');
      is.read(data.data(), static_cast<std::streamsize>(len));
      if (!is) {
        ++stats_.disk_errors;
        return std::nullopt;
      }
      payload = std::move(data);
    } else {
      ++stats_.disk_errors;
      return std::nullopt;
    }
  }
  if (!saw_key || !payload.has_value()) {
    ++stats_.disk_errors;
    return std::nullopt;
  }
  return payload;
}

void ResultCache::disk_store(const CacheKey& key, const std::string& payload) {
  const std::string path = disk_path(key);
  // Unique per process and per call: two caches racing to publish the same
  // key (separate processes sharing disk_dir, or concurrent inserts) each
  // write their own temporary and the rename()s land whole files — readers
  // never observe a half-written entry under the final name.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(tmp_seq.fetch_add(1));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      ++stats_.disk_errors;
      return;  // disk tier is best-effort; memory tier still serves
    }
    os.write(kMagic, sizeof kMagic);
    os.put(static_cast<char>(kVersion));
    os.put(static_cast<char>(kKey));
    put_u64_be(os, key.hi);
    put_u64_be(os, key.lo);
    os.put(static_cast<char>(kPayload));
    put_varint(os, payload.size());
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.put(static_cast<char>(kEnd));
    os.flush();
    if (!os) {
      ++stats_.disk_errors;
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ++stats_.disk_errors;
    std::remove(tmp.c_str());
    return;
  }
  ++stats_.disk_writes;
}

}  // namespace multival::serve
