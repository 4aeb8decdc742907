// Consistent-hash routing across serve replicas.
//
// A Router owns a hash ring built from the replica endpoint strings (each
// replica contributes 64 virtual points, hashed with the same
// canonical Hasher the cache keys use).  A request's 128-bit content
// CacheKey maps to a ring position; the owning replica is the first ring
// node at or clockwise after that position.  Identical models therefore
// always land on the replica that owns their cache entry — routing locality
// is what turns N independent caches into one sharded cache.
//
// Health is shared: a transport failure marks the replica down for
// Options::down_cooldown, and routing falls over to the next *distinct*
// live replica on the ring (the classic consistent-hash failover order, so
// only keys owned by the dead replica move).  One Router is meant to be
// shared by many RoutedClients (e.g. one per thread); the Router itself is
// thread-safe and holds no connections.
//
// A RoutedClient adds the per-replica connections (serve::Client is
// one-outstanding-request, so use one RoutedClient per thread), retries a
// failed call on the failover replica, and keeps routing metrics: how many
// calls landed on the owning replica (locality), how many fell over, and
// per-replica request/failure counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sync.hpp"
#include "serve/hash.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace multival::serve {

struct RouterOptions {
  /// How long a replica stays out of the rotation after a failure.
  std::chrono::milliseconds down_cooldown{2000};
};

class Router {
 public:
  /// At least one endpoint is required; duplicates are rejected.
  explicit Router(std::vector<std::string> endpoints, RouterOptions opts = {});

  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }
  [[nodiscard]] const std::string& endpoint(std::size_t replica) const {
    return endpoints_[replica];
  }

  /// The ring owner of @p key, ignoring health: the replica whose cache
  /// should hold this entry.
  [[nodiscard]] std::size_t owner(const CacheKey& key) const;

  /// All replicas in ring order starting at @p key's owner, each exactly
  /// once — the failover order.
  [[nodiscard]] std::vector<std::size_t> preference(const CacheKey& key) const;

  /// The first live replica in preference order.  Throws std::runtime_error
  /// when every replica is down.
  [[nodiscard]] std::size_t route(const CacheKey& key) const;

  void mark_down(std::size_t replica);
  void mark_up(std::size_t replica);
  [[nodiscard]] bool is_down(std::size_t replica) const;

 private:
  struct Node {
    std::uint64_t point;
    std::size_t replica;
  };
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] static std::uint64_t key_point(const CacheKey& key);
  /// Index into ring_ of the first node at or after the key's position.
  [[nodiscard]] std::size_t ring_start(const CacheKey& key) const;

  RouterOptions opts_;
  std::vector<std::string> endpoints_;
  std::vector<Node> ring_;  // sorted by point

  mutable core::Mutex mu_;
  std::vector<Clock::time_point> down_until_ MV_GUARDED_BY(mu_);
};

/// Per-replica counters of one RoutedClient (single-threaded like the
/// client itself).
struct RoutedClientStats {
  std::uint64_t calls = 0;      ///< requests attempted
  std::uint64_t primary = 0;    ///< answered by the ring owner
  std::uint64_t failover = 0;   ///< answered by a non-owner (owner down)
  std::uint64_t transport_errors = 0;  ///< connect/send/receive failures
  std::vector<std::uint64_t> per_replica;  ///< answered per replica

  /// Fraction of answered calls served by the key's owning replica.
  [[nodiscard]] double locality() const {
    const std::uint64_t answered = primary + failover;
    return answered == 0 ? 0.0
                         : static_cast<double>(primary) /
                               static_cast<double>(answered);
  }
};

class RoutedClient {
 public:
  /// @p connect_timeout / @p receive_timeout are per-replica Client
  /// settings (see serve::Client).
  explicit RoutedClient(std::shared_ptr<Router> router,
                        std::chrono::milliseconds connect_timeout =
                            std::chrono::milliseconds{0},
                        std::chrono::milliseconds receive_timeout =
                            std::chrono::milliseconds{0});

  RoutedClient(const RoutedClient&) = delete;
  RoutedClient& operator=(const RoutedClient&) = delete;

  /// Routes by the request's canonical content key (computed via
  /// prepare_request; control verbs route by their encoded line instead).
  [[nodiscard]] Response call(const Request& r);

  /// Routes by a key the caller already computed (dse does, per slot).
  /// Walks the preference ring: a replica that fails the transport is
  /// marked down in the shared Router and the call retries on the next
  /// distinct replica; throws only when every replica failed.
  [[nodiscard]] Response call(const Request& r, const CacheKey& key);

  [[nodiscard]] const RoutedClientStats& stats() const { return stats_; }
  [[nodiscard]] Router& router() { return *router_; }

 private:
  std::shared_ptr<Router> router_;
  std::chrono::milliseconds connect_timeout_;
  std::chrono::milliseconds receive_timeout_;
  std::vector<std::unique_ptr<Client>> clients_;  // lazy, per replica
  RoutedClientStats stats_;
};

}  // namespace multival::serve
