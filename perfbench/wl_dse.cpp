// Workload dse-sweep: cold in-process sweeps of the builtin default grid.
//
// Untraced: each iteration is one dse::run_sweep call (fresh Service, fresh
// pipeline cache, repeat 2), checked against the set-up reference.
// Traced: the sweep is performed by calling the dse module's public steps in
// its order (expand, instantiate, lint_program, prepare_request,
// Service::submit_async, derive_metrics, pareto_ranks), with a span around
// each call; its front and metric vectors must equal run_sweep's.
#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "analyze/analyze.hpp"
#include "bench.hpp"
#include "core/report.hpp"
#include "dse/driver.hpp"
#include "proc/process.hpp"
#include "serve/solvers.hpp"

namespace perfbench {

namespace mv = multival;

namespace {

constexpr unsigned kRepeat = 2;
/// Service workers of each sweep.  Dispatch is under a tenth of a sweep, so
/// a fixed small pool keeps the figures comparable across hosts.
constexpr unsigned kServiceWorkers = 2;

/// The builtin sweep text with the value order of every axis shuffled by
/// the seed.  Shuffling the text keeps every value exactly as written
/// ("2" stays an integer, "2.0" a real).
std::string generated_spec(std::uint64_t seed, bool tiny) {
  std::mt19937_64 rng = make_rng(seed, 1);
  std::istringstream in(mv::dse::builtin_sweep_spec(tiny ? "smoke" : "default"));
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (line.find("axis ") == std::string::npos || eq == std::string::npos) {
      out << line << "\n";
      continue;
    }
    std::vector<std::string> values;
    std::istringstream vs(line.substr(eq + 1));
    std::string v;
    while (std::getline(vs, v, ',')) {
      v.erase(0, v.find_first_not_of(' '));
      v.erase(v.find_last_not_of(' ') + 1);
      values.push_back(v);
    }
    std::shuffle(values.begin(), values.end(), rng);
    out << line.substr(0, eq + 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i == 0 ? " " : ", ") << values[i];
    }
    out << "\n";
  }
  return out.str();
}

const char* instantiate_span(const std::string& family) {
  if (family == "fame") {
    return "dse.instantiate.fame";
  }
  if (family == "noc") {
    return "dse.instantiate.noc";
  }
  if (family == "xmas") {
    return "dse.instantiate.xmas";
  }
  return "dse.instantiate.xstream";
}

/// The points of a sweep, instantiated and lint-gated as dse::run_sweep does
/// (planned strategy, one pipeline cache across the sweep).
struct SweepInputs {
  std::vector<mv::dse::Point> points;
  std::vector<mv::dse::Instantiated> inst;
  std::vector<std::string> status;  ///< "ok" | "gated", per point
  mv::compose::LruMinimizeCache::Stats pipeline;
};

/// One probe request of an "ok" point.
struct ProbeSlot {
  std::size_t point = 0;
  std::string probe;  ///< "latency" | "throughput"
  mv::serve::Request request;
};

/// What the step-by-step sweep produces, in the shape the check compares.
struct StepSweep {
  std::vector<std::string> status;
  std::vector<mv::dse::Metrics> metrics;
  std::vector<std::string> front;
  std::size_t distinct_keys = 0;
  mv::compose::LruMinimizeCache::Stats pipeline;
  mv::serve::ServiceMetrics service;
  std::size_t solver_iterations = 0;
};

/// Expands and instantiates @p spec, with a span around each call.
SweepInputs instantiate_sweep(const mv::dse::SweepSpec& spec, Lane& lane,
                              std::uint64_t iter) {
  using namespace mv;
  SweepInputs in;
  {
    auto s = lane.open("dse.expand", iter);
    in.points = dse::expand(spec, &dse::derived_quantities);
  }
  compose::LruMinimizeCache cache(dse::DriverOptions{}.pipeline_cache_bytes);
  in.inst.resize(in.points.size());
  in.status.assign(in.points.size(), "ok");
  for (std::size_t i = 0; i < in.points.size(); ++i) {
    {
      auto s = lane.open(instantiate_span(in.points[i].family), iter);
      in.inst[i] = dse::instantiate(in.points[i], compose::Strategy::kPlanned,
                                    &cache);
    }
    for (const dse::GateModel& gate : in.inst[i].gates) {
      auto s = lane.open("analyze.lint_program", iter);
      if (!analyze::lint_program(gate.program, proc::call(gate.entry, {}))
               .clean()) {
        in.status[i] = "gated";
      }
    }
  }
  in.pipeline = cache.stats();
  return in;
}

/// The probe requests of the "ok" points, in run_sweep's submission order.
std::vector<ProbeSlot> probe_slots(const SweepInputs& in) {
  const mv::dse::DriverOptions defaults;
  std::vector<ProbeSlot> slots;
  for (std::size_t i = 0; i < in.points.size(); ++i) {
    if (in.status[i] != "ok") {
      continue;
    }
    for (const mv::dse::Probe& probe : in.inst[i].probes) {
      ProbeSlot slot;
      slot.point = i;
      slot.probe = probe.name;
      slot.request.id = slots.size() + 1;
      slot.request.verb = probe.verb;
      slot.request.deadline = defaults.deadline;
      slot.request.arg = probe.arg;
      slot.request.payload = probe.payload;
      slots.push_back(std::move(slot));
    }
  }
  return slots;
}

/// One sweep through the dse module's public steps, mirroring dse::run_sweep
/// (in-process backend, planned strategy, default cache budget).
StepSweep step_sweep(const mv::dse::SweepSpec& spec, unsigned workers,
                     Lane& lane, std::uint64_t iter) {
  using namespace mv;
  StepSweep out;
  auto root = lane.open(kTimedRoot, iter);
  const SweepInputs in = instantiate_sweep(spec, lane, iter);
  out.status = in.status;
  out.pipeline = in.pipeline;
  const std::vector<ProbeSlot> slots = probe_slots(in);
  std::unordered_set<serve::CacheKey, serve::CacheKeyHash> seen;
  for (const ProbeSlot& slot : slots) {
    auto s = lane.open("serve.prepare_request", iter);
    seen.insert(serve::prepare_request(slot.request).key);
  }
  out.distinct_keys = seen.size();

  std::vector<serve::Response> responses(slots.size());
  {
    serve::ServiceOptions sopts;
    sopts.workers = workers;
    sopts.queue_capacity = std::max<std::size_t>(slots.size(), 256);
    sopts.default_deadline = dse::DriverOptions{}.deadline;
    std::unique_ptr<serve::Service> service;
    {
      auto s = lane.open("serve.service_start", iter);
      service = std::make_unique<serve::Service>(sopts);
    }
    for (unsigned pass = 0; pass < kRepeat; ++pass) {
      auto s = lane.open(
          pass == 0 ? "serve.dispatch.pass1" : "serve.dispatch.pass2", iter);
      std::mutex mu;
      std::condition_variable cv;
      std::size_t remaining = slots.size();
      for (std::size_t k = 0; k < slots.size(); ++k) {
        service->submit_async(slots[k].request, [&, k](serve::Response r) {
          responses[k] = std::move(r);
          std::lock_guard<std::mutex> lock(mu);
          --remaining;
          cv.notify_one();
        });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return remaining == 0; });
    }
    out.service = service->metrics();
    auto s = lane.open("serve.service_stop", iter);
    service.reset();
  }

  const std::vector<dse::Point>& points = in.points;
  std::vector<std::map<std::string, std::string>> bodies(points.size());
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (responses[k].status != serve::Status::kOk) {
      out.status[slots[k].point] = "error";
    } else {
      bodies[slots[k].point][slots[k].probe] = responses[k].body;
    }
  }
  out.metrics.assign(points.size(), dse::Metrics{});
  std::vector<std::size_t> ok_index;
  std::vector<dse::Metrics> ok_metrics;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (out.status[i] != "ok") {
      continue;
    }
    try {
      auto s = lane.open("dse.derive_metrics", iter);
      out.metrics[i] = dse::derive_metrics(points[i], in.inst[i], bodies[i]);
      ok_index.push_back(i);
      ok_metrics.push_back(out.metrics[i]);
    } catch (const std::exception&) {
      out.status[i] = "error";
    }
  }
  std::vector<int> ranks;
  {
    auto s = lane.open("dse.pareto_ranks", iter);
    ranks = dse::pareto_ranks(ok_metrics,
                              dse::resolve_objectives(spec.objectives));
  }
  for (std::size_t k = 0; k < ok_index.size(); ++k) {
    if (ranks[k] == 0) {
      out.front.push_back(points[ok_index[k]].id);
    }
  }
  for (const core::SolveStat& s : core::solve_log()) {
    out.solver_iterations += s.iterations;
  }
  return out;
}

std::string metric_text(const mv::dse::Metrics& m) {
  using mv::serve::format_double;
  return format_double(m.latency) + " " + format_double(m.latency_width) +
         " " + format_double(m.throughput) + " " +
         format_double(m.occupancy) + " " + format_double(m.states);
}

/// The checks of one run_sweep result, given its --no-timing JSON, against
/// the set-up reference.  At most one failure per sweep.
void check_sweep(const mv::dse::SweepResult& r, const std::string& json,
                 const std::string& reference, Outcome& out) {
  if (!r.all_ok()) {
    out.fail("dse-sweep: a point is not ok");
  } else if (!r.have_service_metrics || r.service.solves != r.distinct_keys) {
    out.fail("dse-sweep: solves " + std::to_string(r.service.solves) +
             " != distinct keys " + std::to_string(r.distinct_keys));
  } else if (json != reference) {
    out.fail("dse-sweep: --no-timing JSON differs from the reference");
  }
}

/// The checks of one step-by-step sweep against run_sweep's result.
void check_steps(const StepSweep& s, const mv::dse::SweepResult& ref,
                 Outcome& out) {
  if (s.front != ref.front) {
    out.fail("dse-sweep (traced): Pareto front differs from run_sweep");
    return;
  }
  if (s.status.size() != ref.points.size()) {
    out.fail("dse-sweep (traced): point count differs from run_sweep");
    return;
  }
  for (std::size_t i = 0; i < s.status.size(); ++i) {
    if (s.status[i] != "ok" || s.status[i] != ref.points[i].status ||
        metric_text(s.metrics[i]) != metric_text(ref.points[i].metrics)) {
      out.fail("dse-sweep (traced): point " + ref.points[i].point.id +
               " differs from run_sweep");
      return;
    }
  }
  if (s.service.solves != s.distinct_keys) {
    out.fail("dse-sweep (traced): solves != distinct keys");
  }
}

void clear_logs() {
  mv::core::clear_solve_log();
  mv::core::clear_generation_log();
}

}  // namespace

Outcome run_dse_sweep(const Options& opts, Trace& trace) {
  using namespace mv;
  Outcome out;
  // Set-up is the program's parse of the spec; generating its text is the
  // benchmark's work.
  const std::string spec_text = generated_spec(opts.seed, opts.tiny);
  dse::SweepSpec spec;
  SetupClock setup;
  const auto build_spec = [&] {
    setup.time([&] { spec = dse::parse_sweep_spec(spec_text); });
  };
  for (int i = 0; i < kSetupReps; ++i) {
    build_spec();
  }

  dse::DriverOptions dopts;
  dopts.workers = kServiceWorkers;
  dopts.repeat = kRepeat;
  // Reference (and warm-up) sweep, outside set-up and timing.
  clear_logs();
  const dse::SweepResult reference = dse::run_sweep(spec, dopts);
  const std::string reference_json = dse::to_json(reference, false);
  out.notes.push_back("sweep: " + std::to_string(reference.raw_points) +
                      " raw points, " + std::to_string(reference.points.size()) +
                      " evaluated, " +
                      std::to_string(reference.probes_submitted) +
                      " probes per pass, repeat " + std::to_string(kRepeat) +
                      ", " + std::to_string(dopts.workers) + " service workers");
  if (!reference.all_ok()) {
    out.fail("dse-sweep: reference sweep has a point that is not ok");
  }

  out.threads_used = {{"service_workers", dopts.workers}};
  reset_peak_rss();
  std::vector<double> sweep_ms;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> service_p50, wait_p50, wait_p99;
  double hits = 0, misses = 0, iterations = 0, solves = 0, reused = 0,
         accepted = 0;
  Lane& lane = trace.enabled() ? trace.lane() : Trace::off();
  const auto t0 = Clock::now();
  std::uint64_t iter = 0;
  while (iter < 2 || ms_since(t0) < opts.seconds * 1000.0) {
    ++iter;
    ++out.attempted;
    clear_logs();
    if (!trace.enabled()) {
      const auto s0 = Clock::now();
      dse::SweepResult r = dse::run_sweep(spec, dopts);
      sweep_ms.push_back(ms_since(s0));
      if (iter == 1 && opts.inject == Inject::kStatus) {
        r.points.front().status = "error";
      }
      if (iter == 1 && opts.inject == Inject::kStates) {
        r.points.front().model_states += 1;
      }
      std::string json = dse::to_json(r, false);
      if (iter == 1 && opts.inject == Inject::kBody) {
        json[json.size() / 2] ^= 1;
      }
      check_sweep(r, json, reference_json, out);
      continue;
    }
    // Traced run: alternate an untraced and a traced step-by-step sweep, so
    // the difference of their medians is the tracing overhead.
    const bool traced = iter % 2 == 0;
    Lane& l = traced ? lane : Trace::off();
    const auto s0 = Clock::now();
    StepSweep s = step_sweep(spec, dopts.workers, l, iter);
    (traced ? traced_ms : untraced_ms).push_back(ms_since(s0));
    if (iter <= 2 && opts.inject == Inject::kStatus) {
      s.status.front() = "error";
    }
    check_steps(s, reference, out);
    if (traced) {
      hits += static_cast<double>(s.pipeline.hits);
      misses += static_cast<double>(s.pipeline.misses);
      iterations += static_cast<double>(s.solver_iterations);
      solves += static_cast<double>(s.service.solves);
      reused += static_cast<double>(s.service.cache_hits + s.service.coalesced);
      accepted += static_cast<double>(s.service.accepted);
      service_p50.push_back(s.service.latency_p50_ms);
      wait_p50.push_back(s.service.queue_wait_p50_ms);
      wait_p99.push_back(s.service.queue_wait_p99_ms);
    }
  }

  const double wall_s = ms_since(t0) / 1000.0;
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  for (int i = 0; i < kSetupReps; ++i) {
    build_spec();
  }
  out.add("setup_s", setup.median_s(), "s");
  if (!trace.enabled()) {
    out.add("latency_p50_ms", median(sweep_ms), "ms");
    out.add("ops_per_s", static_cast<double>(sweep_ms.size()) / wall_s, "1/s");
    out.notes.push_back("quantiles p10 " + std::to_string(quantile(sweep_ms, 0.1)) +
                        " p25 " + std::to_string(quantile(sweep_ms, 0.25)) +
                        " p50 " + std::to_string(quantile(sweep_ms, 0.5)));
    out.notes.push_back("sweeps timed: " + std::to_string(sweep_ms.size()) +
                        ", p90 " + std::to_string(quantile(sweep_ms, 0.9)) +
                        " ms");
    return out;
  }
  const double n = static_cast<double>(traced_ms.size());
  const auto per_sweep = [&](const char* name) {
    return trace.row(name).self_ms / n;
  };
  const double inst_fame = per_sweep("dse.instantiate.fame");
  const double inst_noc = per_sweep("dse.instantiate.noc");
  const double inst_xmas = per_sweep("dse.instantiate.xmas");
  const double inst_xstream = per_sweep("dse.instantiate.xstream");
  const LayerRow prep = trace.row("serve.prepare_request");
  out.add("dse.expand_ms", per_sweep("dse.expand"), "ms");
  out.add("dse.instantiate_ms", inst_fame + inst_noc + inst_xmas + inst_xstream,
          "ms");
  out.add("dse.instantiate.fame_ms", inst_fame, "ms");
  out.add("dse.instantiate.noc_ms", inst_noc, "ms");
  out.add("dse.instantiate.xmas_ms", inst_xmas, "ms");
  out.add("dse.instantiate.xstream_ms", inst_xstream, "ms");
  out.add("analyze.lint_ms", per_sweep("analyze.lint_program"), "ms");
  out.add("serve.prepare_us",
          prep.count == 0 ? 0.0 : prep.self_ms * 1000.0 / prep.count, "us");
  out.add("serve.dispatch.pass1_ms", per_sweep("serve.dispatch.pass1"), "ms");
  out.add("serve.dispatch.pass2_ms", per_sweep("serve.dispatch.pass2"), "ms");
  out.add("compose.cache_hits", hits / n, "count");
  out.add("compose.cache_misses", misses / n, "count");
  out.add("markov.iterations", iterations / n, "count");
  out.add("serve.service_p50_ms", median(service_p50), "ms");
  out.add("serve.queue_wait_p50_ms", median(wait_p50), "ms");
  out.add("serve.queue_wait_p99_ms", median(wait_p99), "ms");
  out.add("serve.solves", solves / n, "count");
  out.add("serve.reused", reused / n, "count");
  out.add("serve.hit_ratio", accepted > 0 ? reused / accepted : 0.0, "ratio");
  // The sweep never generates flat, explores, minimises a flat LTS, goes
  // over a socket or solves outside its service; one sweep's service takes
  // a few hundred samples, far below the 65,536 its percentiles keep.
  out.add_uncalled({{"proc.generate_ms", "ms"},
                    {"proc.states_per_s", "1/s"},
                    {"explore.explore_ms", "ms"},
                    {"explore.peak_frontier", "count"},
                    {"explore.dedup_hits", "count"},
                    {"compose.evaluate_ms", "ms"},
                    {"compose.peak_states", "count"},
                    {"bisim.minimize_ms", "ms"},
                    {"bisim.states_out", "count"},
                    {"serve.transport_p50_ms", "ms"},
                    {"serve.reservoir_full", "count"},
                    {"imc.close_ms", "ms"},
                    {"markov.steady_ms", "ms"},
                    {"markov.abs_error", "abs"}});
  out.add("trace.overhead_share",
          (median(traced_ms) - median(untraced_ms)) / median(untraced_ms),
          "ratio");
  out.notes.push_back("traced sweeps: " + std::to_string(traced_ms.size()) +
                      ", untraced step sweeps: " +
                      std::to_string(untraced_ms.size()) + "; hit ratio base: " +
                      std::to_string(static_cast<long>(accepted / n)) +
                      " accepted requests per sweep");
  return out;
}

}  // namespace perfbench
