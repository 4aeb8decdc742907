// The concurrent evaluation service: a bounded job queue drained by a
// worker pool, fronted by the content-addressed ResultCache and a request
// coalescer.
//
// Life of a solve request (submit_async):
//   1. prepare: parse and lint the model, derive the canonical CacheKey
//      (ill-formed input completes immediately with kInvalid and the
//      rendered MV0xx diagnostics; see serve/solvers.hpp);
//   2. cache: a hit completes immediately with kOk (checked under the
//      service lock, atomically with steps 3-4, so a result being published
//      can never be missed *and* re-queued);
//   3. coalesce: if the key is already queued or solving, the request joins
//      that flight's waiter list — the solve runs exactly once and fans its
//      result out to every waiter;
//   4. enqueue: if the queue is full the request is *shed* immediately with
//      kOverloaded (bounded memory, no unbounded queueing, the caller
//      learns about saturation within its deadline instead of hanging).
//
// A worker takes one flight at a time from the head of the queue.
// Deadlines are enforced then: waiters whose deadline has passed get
// kTimeout, and if no live waiter remains the solve is skipped entirely.
// Otherwise the worker runs Prepared::run once and publishes the result to
// the cache and to every waiter.  A result that completes after a waiter's
// deadline is still delivered (it is already paid for).
//
// Per-request metrics (queue wait, solve time, end-to-end latency with
// p50/p99 from constant-memory histograms, cache/coalescing/shed counters,
// and the solver totals of every solve the workers ran) are surfaced as a
// core::report table via ServiceMetrics::to_table().
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/report.hpp"
#include "core/sync.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/solvers.hpp"

namespace multival::serve {

struct ServiceOptions {
  /// Worker threads; 0 = one per hardware thread
  /// (core::hardware_threads()).
  unsigned workers = 0;
  /// Maximum queued (not yet solving) flights before shedding.
  std::size_t queue_capacity = 256;
  /// Deadline applied to requests that do not carry their own.
  std::chrono::milliseconds default_deadline{10000};
  /// Admission gate: a solve request whose model header declares more than
  /// this many states is rejected with Status::kInvalid and an MV042
  /// diagnostic before its payload is parsed (it never reaches a worker).
  /// 0 disables the gate.
  std::size_t admission_budget = 0;
  ResultCache::Options cache;
  /// Test seam: invoked by a worker after dequeuing a flight, before the
  /// deadline check and solve.  Lets tests hold a worker to build up
  /// coalescing / saturation deterministically.  Leave empty in production.
  std::function<void(const CacheKey&)> pre_solve_hook;
};

/// Constant-memory latency histogram: 512 buckets, log-spaced by 2^(1/16)
/// (about 4.4% wide) from 1 µs up to about 65 minutes, with the first
/// bucket holding everything below 1 µs and the last everything above.
/// A percentile is read by a cumulative walk and lies within one bucket of
/// the exact sample percentile, however many samples were added.
class LatencyHistogram {
 public:
  void add(double ms);
  /// The @p q-quantile (0 <= q <= 1) in milliseconds: the geometric middle
  /// of the bucket holding the sample of rank ceil(q·(count − 1)); 0 when
  /// empty.
  [[nodiscard]] double percentile(double q) const;

 private:
  static constexpr std::size_t kBuckets = 512;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// Snapshot of the service counters and latency percentiles (milliseconds).
struct ServiceMetrics {
  std::uint64_t accepted = 0;      ///< submissions (including failed ones)
  std::uint64_t completed_ok = 0;
  std::uint64_t failed = 0;        ///< solver or service error
  std::uint64_t invalid = 0;       ///< ill-formed, rejected pre-flight
  std::uint64_t shed = 0;          ///< rejected with kOverloaded
  std::uint64_t timed_out = 0;
  std::uint64_t coalesced = 0;     ///< joined an existing flight
  std::uint64_t cache_hits = 0;
  std::uint64_t solves = 0;        ///< solver invocations (≤ distinct keys)
  std::uint64_t solve_errors = 0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  ResultCache::Stats cache;
  /// Every numerical solve the workers ran (see core::SolveSink); these
  /// never reach the process-wide core::solve_log.
  core::SolveAggregate solver;

  [[nodiscard]] core::Table to_table() const;
  /// Machine-readable form (flat JSON object), served by the stats verb
  /// when the request arg is "json".
  [[nodiscard]] std::string to_json() const;
};

class Service {
 public:
  explicit Service(ServiceOptions opts = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Completion-callback form (the primitive).  @p done is invoked exactly
  /// once, possibly on the calling thread (cache hit / rejection) or on a
  /// worker thread; it must not block for long and must not re-enter the
  /// service synchronously with a lock held by the caller.
  void submit_async(Request r, std::function<void(Response)> done);

  /// Future form.
  [[nodiscard]] std::shared_future<Response> submit(Request r);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] Response evaluate(const Request& r);

  [[nodiscard]] ServiceMetrics metrics() const;
  [[nodiscard]] ResultCache& cache() { return cache_; }

  /// Stops accepting new work, drains the queue (each remaining flight is
  /// still solved) and joins the workers.  Idempotent; called by the
  /// destructor.
  void shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  struct Waiter {
    std::uint64_t id = 0;
    Clock::time_point submitted;
    Clock::time_point deadline;
    std::function<void(Response)> done;
  };

  struct Flight {
    CacheKey key;
    std::function<std::string()> run;
    std::vector<Waiter> waiters;
  };
  using FlightPtr = std::shared_ptr<Flight>;

  void worker_loop();

  ServiceOptions opts_;
  ResultCache cache_;
  core::SolveSink solve_sink_;

  mutable core::Mutex mu_;
  core::CondVar cv_;
  // Flight::waiters is also guarded by mu_ once the flight is queued (the
  // annotation cannot express a member of a pointed-to struct guarded by
  // the owner's mutex, so that part stays a comment).
  std::deque<FlightPtr> queue_ MV_GUARDED_BY(mu_);
  std::unordered_map<CacheKey, FlightPtr, CacheKeyHash> in_flight_
      MV_GUARDED_BY(mu_);
  bool stopping_ MV_GUARDED_BY(mu_) = false;
  bool joined_ MV_GUARDED_BY(mu_) = false;

  // Counters and latency histograms.
  std::uint64_t accepted_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ok_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t failed_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t invalid_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t shed_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t timed_out_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t coalesced_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t cache_hits_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t solves_ MV_GUARDED_BY(mu_) = 0;
  std::uint64_t solve_errors_ MV_GUARDED_BY(mu_) = 0;
  LatencyHistogram queue_wait_ms_ MV_GUARDED_BY(mu_);
  LatencyHistogram solve_ms_ MV_GUARDED_BY(mu_);
  LatencyHistogram latency_ms_ MV_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
};

}  // namespace multival::serve
