// Parallel on-the-fly state-space exploration engine.
//
// Level-synchronous parallel BFS: the frontier of each depth level is
// split over N worker threads, each driving its own clone of the
// SuccessorOracle; discovered states are deduplicated through one shared
// lock-striped StateStore.  Every state is expanded by exactly one worker
// (the one whose insert created its id), so the explored graph is
// identical regardless of thread count or scheduling — and a final
// deterministic breadth-first renumbering makes the *emitted* LTS
// byte-for-byte reproducible across 1..N workers.
//
// A sequential depth-first order is also available (Order::kDfs); it
// yields the same LTS (renumbering normalises the order away) but trades
// peak frontier size for depth, which matters for deep narrow models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "explore/oracle.hpp"
#include "explore/state_store.hpp"
#include "lts/lts.hpp"

namespace multival::explore {

enum class Order {
  kBfs,
  kDfs,  ///< sequential; workers forced to 1
};

struct ExploreOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned workers = 1;
  Order order = Order::kBfs;
  StoreMode store = StoreMode::kExact;
  int fingerprint_bits = 64;
  /// Hard cap on distinct states; exceeded -> throws LimitExceeded.
  std::size_t max_states = 1u << 22;
};

/// Thrown when the state space exceeds ExploreOptions::max_states.
using LimitExceeded = lts::StateSpaceLimit;

struct WorkerStats {
  std::size_t states_expanded = 0;
  std::size_t transitions = 0;
};

struct ExploreStats {
  std::size_t num_states = 0;
  std::size_t num_transitions = 0;
  double seconds = 0.0;
  double states_per_sec = 0.0;
  std::size_t peak_frontier = 0;
  std::size_t levels = 0;          ///< BFS depth (DFS: number of pops)
  std::uint64_t dedup_hits = 0;
  std::uint64_t collisions = 0;    ///< fingerprint mode only
  std::vector<WorkerStats> workers;

  /// Two-column metric/value table for core::report-style printing.
  [[nodiscard]] core::Table to_table(const std::string& model) const;
};

struct ExploreResult {
  lts::Lts lts;
  ExploreStats stats;
};

/// Explores the full reachable state space of @p oracle and returns the
/// deterministically renumbered LTS plus statistics.  @p oracle itself is
/// only cloned, never driven.
[[nodiscard]] ExploreResult explore(const SuccessorOracle& oracle,
                                    const ExploreOptions& options = {});

}  // namespace multival::explore
