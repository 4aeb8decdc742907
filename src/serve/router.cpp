#include "serve/router.hpp"

#include <algorithm>
#include <stdexcept>

#include "serve/solvers.hpp"

namespace multival::serve {

namespace {

// Virtual ring points per replica; more points = smoother key spread.
constexpr unsigned kVnodes = 64;

}  // namespace

Router::Router(std::vector<std::string> endpoints, RouterOptions opts)
    : opts_(opts), endpoints_(std::move(endpoints)) {
  if (endpoints_.empty()) {
    throw std::runtime_error("serve router: no replica endpoints");
  }
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    for (std::size_t j = i + 1; j < endpoints_.size(); ++j) {
      if (endpoints_[i] == endpoints_[j]) {
        throw std::runtime_error("serve router: duplicate replica endpoint '" +
                                 endpoints_[i] + "'");
      }
    }
  }
  ring_.reserve(endpoints_.size() * kVnodes);
  for (std::size_t r = 0; r < endpoints_.size(); ++r) {
    for (unsigned v = 0; v < kVnodes; ++v) {
      Hasher h;
      h.str("ring-v1");
      h.str(endpoints_[r]);
      h.u64(v);
      // One 64-bit lane of the canonical 128-bit digest is the ring point.
      ring_.push_back(Node{h.key().hi, r});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Node& a, const Node& b) {
    return a.point != b.point ? a.point < b.point : a.replica < b.replica;
  });
  core::MutexLock lock(mu_);  // satisfies the annotation; ctor is serial
  down_until_.assign(endpoints_.size(), Clock::time_point{});
}

std::uint64_t Router::key_point(const CacheKey& key) {
  // The cache key is already a mixed content digest; fold both lanes so the
  // ring position uses all 128 bits.
  return CacheKeyHash{}(key);
}

std::size_t Router::ring_start(const CacheKey& key) const {
  const std::uint64_t point = key_point(key);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const Node& n, std::uint64_t p) { return n.point < p; });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

std::size_t Router::owner(const CacheKey& key) const {
  return ring_[ring_start(key)].replica;
}

std::vector<std::size_t> Router::preference(const CacheKey& key) const {
  std::vector<std::size_t> order;
  order.reserve(endpoints_.size());
  std::vector<bool> seen(endpoints_.size(), false);
  const std::size_t start = ring_start(key);
  for (std::size_t i = 0; i < ring_.size() && order.size() < endpoints_.size();
       ++i) {
    const std::size_t replica = ring_[(start + i) % ring_.size()].replica;
    if (!seen[replica]) {
      seen[replica] = true;
      order.push_back(replica);
    }
  }
  return order;
}

std::size_t Router::route(const CacheKey& key) const {
  for (const std::size_t replica : preference(key)) {
    if (!is_down(replica)) {
      return replica;
    }
  }
  throw std::runtime_error("serve router: every replica is down");
}

void Router::mark_down(std::size_t replica) {
  core::MutexLock lock(mu_);
  down_until_[replica] = Clock::now() + opts_.down_cooldown;
}

void Router::mark_up(std::size_t replica) {
  core::MutexLock lock(mu_);
  down_until_[replica] = Clock::time_point{};
}

bool Router::is_down(std::size_t replica) const {
  core::MutexLock lock(mu_);
  return Clock::now() < down_until_[replica];
}

RoutedClient::RoutedClient(std::shared_ptr<Router> router,
                           std::chrono::milliseconds connect_timeout,
                           std::chrono::milliseconds receive_timeout)
    : router_(std::move(router)),
      connect_timeout_(connect_timeout),
      receive_timeout_(receive_timeout) {
  clients_.resize(router_->size());
  stats_.per_replica.assign(router_->size(), 0);
}

Response RoutedClient::call(const Request& r) {
  if (is_solve_verb(r.verb)) {
    return call(r, prepare_request(r).key);
  }
  // Control verbs (ping/stats/shutdown) have no content key; spread them by
  // their encoded line so e.g. repeated stats probes cover the fleet.
  Hasher h;
  h.str(encode_request(r));
  return call(r, h.key());
}

Response RoutedClient::call(const Request& r, const CacheKey& key) {
  ++stats_.calls;
  const std::vector<std::size_t> order = router_->preference(key);
  const std::size_t owner = order.front();
  std::string last_error;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t replica = order[rank];
    // A cooled-down replica re-enters the rotation automatically: is_down
    // flips back to false after the cooldown, and the next owning call
    // probes it again.  Non-owners are only skipped while marked down.
    if (router_->is_down(replica) && rank + 1 < order.size()) {
      continue;
    }
    try {
      if (!clients_[replica]) {
        clients_[replica] = std::make_unique<Client>(
            router_->endpoint(replica), connect_timeout_, receive_timeout_);
      }
      const Response response = clients_[replica]->call(r);
      router_->mark_up(replica);
      ++stats_.per_replica[replica];
      if (replica == owner) {
        ++stats_.primary;
      } else {
        ++stats_.failover;
      }
      return response;
    } catch (const std::exception& e) {
      // Transport failure (connect refused, send failed, receive timeout):
      // this connection is unusable — drop it, quarantine the replica and
      // try the next ring node.
      ++stats_.transport_errors;
      clients_[replica].reset();
      router_->mark_down(replica);
      last_error = e.what();
    }
  }
  throw std::runtime_error("serve router: all " +
                           std::to_string(order.size()) +
                           " replicas failed; last: " + last_error);
}

}  // namespace multival::serve
