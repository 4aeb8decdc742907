#include "serve/service.hpp"

#include <cmath>

#include "core/diag.hpp"
#include "core/parallel.hpp"

namespace multival::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Bucket b >= 1 of a LatencyHistogram holds [kFloorMs·2^((b−1)/16),
// kFloorMs·2^(b/16)); bucket 0 holds everything below kFloorMs.
constexpr double kFloorMs = 1e-3;
constexpr double kBucketsPerOctave = 16.0;

}  // namespace

void LatencyHistogram::add(double ms) {
  std::size_t b = 0;
  if (ms >= kFloorMs) {
    const double octaves = std::log2(ms / kFloorMs);
    b = octaves * kBucketsPerOctave >= static_cast<double>(kBuckets - 2)
            ? kBuckets - 1
            : 1 + static_cast<std::size_t>(octaves * kBucketsPerOctave);
  }
  ++buckets_[b];
  ++count_;
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_ - 1)));
  std::uint64_t seen = 0;
  std::size_t b = 0;
  for (; b + 1 < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      break;
    }
  }
  if (b == 0) {
    return 0.0;
  }
  // The last bucket is open above: report its lower edge.
  const double middle = b + 1 == kBuckets ? static_cast<double>(b) - 1.0
                                          : static_cast<double>(b) - 0.5;
  return kFloorMs * std::exp2(middle / kBucketsPerOctave);
}

core::Table ServiceMetrics::to_table() const {
  core::Table t("serve metrics", {"metric", "value"});
  t.add_row({"accepted", std::to_string(accepted)});
  t.add_row({"completed ok", std::to_string(completed_ok)});
  t.add_row({"failed", std::to_string(failed)});
  t.add_row({"invalid (rejected)", std::to_string(invalid)});
  t.add_row({"shed (overloaded)", std::to_string(shed)});
  t.add_row({"timed out", std::to_string(timed_out)});
  t.add_row({"coalesced", std::to_string(coalesced)});
  t.add_row({"cache hits", std::to_string(cache_hits)});
  t.add_row({"solves", std::to_string(solves)});
  t.add_row({"solve errors", std::to_string(solve_errors)});
  const std::uint64_t keyed = cache_hits + coalesced + solves;
  t.add_row({"cache hit rate",
             keyed == 0 ? "n/a"
                        : core::fmt(static_cast<double>(cache_hits) /
                                        static_cast<double>(keyed),
                                    4)});
  t.add_row({"queue wait p50/p99 (ms)", core::fmt(queue_wait_p50_ms, 3) +
                                            " / " +
                                            core::fmt(queue_wait_p99_ms, 3)});
  t.add_row({"solve p50/p99 (ms)",
             core::fmt(solve_p50_ms, 3) + " / " + core::fmt(solve_p99_ms, 3)});
  t.add_row({"latency p50/p99 (ms)", core::fmt(latency_p50_ms, 3) + " / " +
                                         core::fmt(latency_p99_ms, 3)});
  t.add_row({"solver solves / iterations / max residual",
             std::to_string(solver.solves) + " / " +
                 std::to_string(solver.iterations) + " / " +
                 core::fmt_sci(solver.max_residual)});
  t.add_row({"cache insertions/evictions",
             std::to_string(cache.insertions) + " / " +
                 std::to_string(cache.evictions)});
  t.add_row({"cache disk hits/writes/errors",
             std::to_string(cache.disk_hits) + " / " +
                 std::to_string(cache.disk_writes) + " / " +
                 std::to_string(cache.disk_errors)});
  t.add_row({"cache tmp files swept", std::to_string(cache.tmp_swept)});
  return t;
}

std::string ServiceMetrics::to_json() const {
  std::string s = "{";
  const auto u64 = [&s](const char* k, std::uint64_t v) {
    s += "\"";
    s += k;
    s += "\":";
    s += std::to_string(v);
    s += ",";
  };
  const auto ms = [&s](const char* k, double v) {
    s += "\"";
    s += k;
    s += "\":";
    s += core::fmt(v, 3);
    s += ",";
  };
  u64("accepted", accepted);
  u64("completed_ok", completed_ok);
  u64("failed", failed);
  u64("invalid", invalid);
  u64("shed", shed);
  u64("timed_out", timed_out);
  u64("coalesced", coalesced);
  u64("cache_hits", cache_hits);
  u64("solves", solves);
  u64("solve_errors", solve_errors);
  ms("queue_wait_p50_ms", queue_wait_p50_ms);
  ms("queue_wait_p99_ms", queue_wait_p99_ms);
  ms("solve_p50_ms", solve_p50_ms);
  ms("solve_p99_ms", solve_p99_ms);
  ms("latency_p50_ms", latency_p50_ms);
  ms("latency_p99_ms", latency_p99_ms);
  s += "\"result_cache\":{";
  s += "\"hits\":" + std::to_string(cache.hits) + ",";
  s += "\"misses\":" + std::to_string(cache.misses) + ",";
  s += "\"insertions\":" + std::to_string(cache.insertions) + ",";
  s += "\"evictions\":" + std::to_string(cache.evictions) + ",";
  s += "\"disk_hits\":" + std::to_string(cache.disk_hits) + ",";
  s += "\"disk_writes\":" + std::to_string(cache.disk_writes) + ",";
  s += "\"disk_errors\":" + std::to_string(cache.disk_errors) + ",";
  s += "\"tmp_swept\":" + std::to_string(cache.tmp_swept) + "},";
  s += "\"solver\":{";
  s += "\"solves\":" + std::to_string(solver.solves) + ",";
  s += "\"iterations\":" + std::to_string(solver.iterations) + ",";
  s += "\"max_residual\":" + core::fmt_sci(solver.max_residual, 3) + "}}";
  return s;
}

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cache) {
  const unsigned n =
      opts_.workers == 0 ? core::parallel_threads() : opts_.workers;
  workers_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { shutdown(); }

void Service::shutdown() {
  {
    core::MutexLock lock(mu_);
    if (joined_) {
      return;
    }
    stopping_ = true;
    joined_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void Service::submit_async(Request r, std::function<void(Response)> done) {
  const auto now = Clock::now();
  if (r.verb == Verb::kPing) {
    done(Response{r.id, Status::kOk, "pong"});
    return;
  }
  if (r.verb == Verb::kStats) {
    const ServiceMetrics m = metrics();
    done(Response{r.id, Status::kOk,
                  r.arg == "json" ? m.to_json() : m.to_table().to_string()});
    return;
  }
  if (!is_solve_verb(r.verb)) {
    done(Response{r.id, Status::kError,
                  "verb '" + std::string(to_string(r.verb)) +
                      "' is not served by the evaluation service"});
    return;
  }

  Prepared prepared;
  try {
    prepared = prepare_request(r);
  } catch (const InvalidRequest& e) {
    // Ill-formed request: rejected by the pre-flight checks before any
    // worker touches it; the body carries the rendered lint diagnostics.
    {
      core::MutexLock lock(mu_);
      ++accepted_;
      ++invalid_;
    }
    done(Response{r.id, Status::kInvalid, e.what()});
    return;
  } catch (const std::exception& e) {
    {
      core::MutexLock lock(mu_);
      ++accepted_;
      ++failed_;
    }
    done(Response{r.id, Status::kError, e.what()});
    return;
  }

  if (opts_.admission_budget > 0 &&
      prepared.model_states > opts_.admission_budget) {
    // Over-budget model: the size is known exactly before queuing (the
    // payload is an already-generated model), so reject it the same way
    // the static bound analyzer steers the compositional planner (MV042).
    {
      core::MutexLock lock(mu_);
      ++accepted_;
      ++invalid_;
    }
    core::Diagnostic d;
    d.code = "MV042";
    d.severity = core::Severity::kAdvice;
    d.message = "model has " + std::to_string(prepared.model_states) +
                " states, above the admission budget of " +
                std::to_string(opts_.admission_budget);
    d.hint =
        "minimise or decompose the model before submitting, or raise the "
        "service's admission budget";
    const std::vector<core::Diagnostic> diags{d};
    done(Response{r.id, Status::kInvalid, core::render_text(diags)});
    return;
  }

  const auto deadline =
      now + (r.deadline.count() > 0 ? r.deadline : opts_.default_deadline);

  Response immediate;
  bool respond_now = false;
  {
    core::MutexLock lock(mu_);
    ++accepted_;
    if (stopping_) {
      ++failed_;
      immediate = Response{r.id, Status::kError, "service is shutting down"};
      respond_now = true;
    } else if (std::optional<std::string> hit = cache_.lookup(prepared.key)) {
      ++cache_hits_;
      ++completed_ok_;
      queue_wait_ms_.add(0.0);
      latency_ms_.add(ms_between(now, Clock::now()));
      immediate = Response{r.id, Status::kOk, *std::move(hit)};
      respond_now = true;
    } else if (const auto it = in_flight_.find(prepared.key);
               it != in_flight_.end()) {
      ++coalesced_;
      it->second->waiters.push_back(
          Waiter{r.id, now, deadline, std::move(done)});
      return;
    } else if (queue_.size() >= opts_.queue_capacity) {
      ++shed_;
      immediate =
          Response{r.id, Status::kOverloaded,
                   "queue full (capacity " +
                       std::to_string(opts_.queue_capacity) + ")"};
      respond_now = true;
    } else {
      auto flight = std::make_shared<Flight>();
      flight->key = prepared.key;
      flight->run = std::move(prepared.run);
      flight->waiters.push_back(Waiter{r.id, now, deadline, std::move(done)});
      in_flight_.emplace(prepared.key, flight);
      queue_.push_back(std::move(flight));
    }
  }
  if (respond_now) {
    done(std::move(immediate));
    return;
  }
  cv_.notify_one();
}

std::shared_future<Response> Service::submit(Request r) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::shared_future<Response> future = promise->get_future().share();
  submit_async(std::move(r), [promise](Response resp) {
    promise->set_value(std::move(resp));
  });
  return future;
}

Response Service::evaluate(const Request& r) {
  return submit(r).get();
}

void Service::worker_loop() {
  const core::SolveSink::Scope solves_to_sink(solve_sink_);
  for (;;) {
    FlightPtr flight;
    {
      core::MutexLock lock(mu_);
      cv_.wait(mu_, [this]() MV_REQUIRES(mu_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_) {
          return;
        }
        continue;
      }
      flight = std::move(queue_.front());
      queue_.pop_front();
    }
    if (opts_.pre_solve_hook) {
      opts_.pre_solve_hook(flight->key);
    }

    // Deadline check at solve start: expired waiters get kTimeout; a flight
    // with no live waiter left is not solved (shed work, not just shed
    // queueing).
    const auto start = Clock::now();
    std::vector<Waiter> expired;
    bool live = true;
    {
      core::MutexLock lock(mu_);
      auto& waiters = flight->waiters;
      for (auto it = waiters.begin(); it != waiters.end();) {
        if (it->deadline < start) {
          expired.push_back(std::move(*it));
          it = waiters.erase(it);
        } else {
          ++it;
        }
      }
      if (waiters.empty()) {
        in_flight_.erase(flight->key);
        live = false;
      }
      timed_out_ += expired.size();
      for (const Waiter& w : expired) {
        queue_wait_ms_.add(ms_between(w.submitted, start));
        latency_ms_.add(ms_between(w.submitted, start));
      }
    }
    for (Waiter& w : expired) {
      w.done(Response{w.id, Status::kTimeout,
                      "deadline expired before the solve started"});
    }
    if (!live) {
      continue;
    }

    std::string body;
    bool ok = true;
    try {
      body = flight->run();
    } catch (const std::exception& e) {
      ok = false;
      body = e.what();
    }
    const auto end = Clock::now();

    std::vector<Waiter> waiters;
    {
      core::MutexLock lock(mu_);
      ++solves_;
      if (ok) {
        cache_.insert(flight->key, body);
      } else {
        ++solve_errors_;
      }
      // Publishing the result and retiring the flight happen atomically
      // with respect to submit_async's cache-or-coalesce check, so a
      // concurrent identical request either joined this flight or will
      // hit the cache — never a second solve.
      in_flight_.erase(flight->key);
      waiters = std::move(flight->waiters);
      solve_ms_.add(ms_between(start, end));
      for (const Waiter& w : waiters) {
        queue_wait_ms_.add(ms_between(w.submitted, start));
        latency_ms_.add(ms_between(w.submitted, end));
        if (ok) {
          ++completed_ok_;
        } else {
          ++failed_;
        }
      }
    }
    const Status status = ok ? Status::kOk : Status::kError;
    for (Waiter& w : waiters) {
      w.done(Response{w.id, status, body});
    }
  }
}

ServiceMetrics Service::metrics() const {
  ServiceMetrics m;
  {
    core::MutexLock lock(mu_);
    m.accepted = accepted_;
    m.completed_ok = completed_ok_;
    m.failed = failed_;
    m.invalid = invalid_;
    m.shed = shed_;
    m.timed_out = timed_out_;
    m.coalesced = coalesced_;
    m.cache_hits = cache_hits_;
    m.solves = solves_;
    m.solve_errors = solve_errors_;
    m.queue_wait_p50_ms = queue_wait_ms_.percentile(0.50);
    m.queue_wait_p99_ms = queue_wait_ms_.percentile(0.99);
    m.solve_p50_ms = solve_ms_.percentile(0.50);
    m.solve_p99_ms = solve_ms_.percentile(0.99);
    m.latency_p50_ms = latency_ms_.percentile(0.50);
    m.latency_p99_ms = latency_ms_.percentile(0.99);
  }
  m.cache = cache_.stats();
  m.solver = solve_sink_.totals();
  return m;
}

}  // namespace multival::serve
