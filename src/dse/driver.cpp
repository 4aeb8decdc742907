#include "dse/driver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "analyze/analyze.hpp"
#include "core/diag.hpp"
#include "core/parallel.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/solvers.hpp"

namespace multival::dse {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One prepared probe submission: which point/probe it belongs to plus the
/// ready-to-send request.
struct Slot {
  std::size_t point = 0;
  std::size_t probe = 0;
  serve::Request request;
  serve::CacheKey key;  ///< content hash, reused for replica routing
};

std::vector<std::string> blocking_diagnostics(const analyze::Analysis& a) {
  std::vector<std::string> rendered;
  for (const core::Diagnostic& d : a.diagnostics) {
    if (d.severity == core::Severity::kError) {
      rendered.push_back(d.to_text());
    }
  }
  return rendered;
}

void dispatch_in_process(const DriverOptions& options,
                         std::vector<Slot>& slots,
                         std::vector<ProbeResult*>& results,
                         SweepResult& out) {
  serve::ServiceOptions sopts;
  sopts.workers = options.workers;
  // The whole sweep is submitted at once and every probe matters: size the
  // queue so saturation shedding cannot reject sweep points.
  sopts.queue_capacity = std::max<std::size_t>(slots.size(), 256);
  sopts.default_deadline = options.deadline;
  serve::Service service(sopts);

  for (unsigned pass = 0; pass < std::max(1u, options.repeat); ++pass) {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = slots.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const auto t0 = Clock::now();
      service.submit_async(
          slots[i].request, [&, i, t0](serve::Response response) {
            ProbeResult* pr = results[i];
            pr->status = response.status;
            pr->body = std::move(response.body);
            pr->wall_ms = ms_since(t0);
            std::lock_guard<std::mutex> lock(mu);
            --remaining;
            cv.notify_one();
          });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }

  out.have_service_metrics = true;
  out.service = service.metrics();
  out.solver = out.service.solver;
}

std::vector<std::string> split_endpoints(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= csv.size(); ++i) {
    if (i == csv.size() || csv[i] == ',') {
      if (i > start) {
        out.push_back(csv.substr(start, i - start));
      }
      start = i + 1;
    }
  }
  return out;
}

void dispatch_socket(const DriverOptions& options, std::vector<Slot>& slots,
                     std::vector<ProbeResult*>& results) {
  const unsigned workers =
      options.workers != 0 ? options.workers : core::parallel_threads();
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, workers), std::max<std::size_t>(slots.size(), 1)));
  // One shared ring (and shared replica-health state), one RoutedClient —
  // hence one connection per replica — per worker thread.  With a single
  // endpoint the ring is trivial and this degrades to the old direct path.
  const auto router =
      std::make_shared<serve::Router>(split_endpoints(options.socket));
  for (unsigned pass = 0; pass < std::max(1u, options.repeat); ++pass) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    std::mutex error_mu;
    std::string first_error;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        try {
          serve::RoutedClient client(router, options.connect_timeout);
          for (std::size_t i = next.fetch_add(1); i < slots.size();
               i = next.fetch_add(1)) {
            const auto t0 = Clock::now();
            serve::Response response =
                client.call(slots[i].request, slots[i].key);
            ProbeResult* pr = results[i];
            pr->status = response.status;
            pr->body = std::move(response.body);
            pr->wall_ms = ms_since(t0);
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.empty()) {
            first_error = e.what();
          }
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
    if (!first_error.empty()) {
      throw std::runtime_error("dse: socket evaluation failed: " +
                               first_error);
    }
  }
}

// ---- rendering --------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "\"" + serve::format_double(v) + "\"";  // inf/nan are not JSON
  }
  return serve::format_double(v);
}

std::string json_axis_value(const AxisValue& v) {
  if (const long* l = std::get_if<long>(&v)) {
    return std::to_string(*l);
  }
  if (const double* d = std::get_if<double>(&v)) {
    return json_number(*d);
  }
  return core::json_string(std::get<std::string>(v));
}

}  // namespace

bool SweepResult::all_ok() const {
  return std::all_of(points.begin(), points.end(),
                     [](const PointResult& p) { return p.status == "ok"; });
}

SweepResult run_sweep(const SweepSpec& spec, const DriverOptions& options) {
  const auto t0 = Clock::now();
  SweepResult out;
  out.name = spec.name;
  out.objectives = resolve_objectives(spec.objectives);
  for (const Space& space : spec.spaces) {
    if (!known_family(space.family)) {
      throw SpecError("unknown family '" + space.family +
                      "' (known: noc, fame, xstream)");
    }
    out.raw_points += space.raw_size();
  }

  const std::vector<Point> points =
      expand(spec, &derived_quantities, &out.pruned);

  // Instantiate and lint-gate every point before anything is submitted:
  // a gated point never costs a solver run.  One bounded pipeline cache
  // spans the whole sweep, so neighbouring points (which share most of
  // their composed components) skip re-minimising unchanged subtrees.
  compose::MinimizeCache pipeline_cache(options.pipeline_cache_bytes);
  std::vector<Instantiated> instances(points.size());
  out.points.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult pr;
    pr.point = points[i];
    instances[i] = instantiate(points[i], options.strategy, &pipeline_cache);
    pr.model_states = instances[i].model_states;
    pr.status = "ok";
    for (const GateModel& gate : instances[i].gates) {
      const analyze::Analysis a =
          analyze::lint_program(gate.program, proc::call(gate.entry, {}));
      if (!a.clean()) {
        pr.status = "gated";
        for (std::string& d : blocking_diagnostics(a)) {
          pr.gate_errors.push_back(gate.name + ": " + std::move(d));
        }
      }
    }
    out.points.push_back(std::move(pr));
  }
  out.pipeline = pipeline_cache.stats();

  // Prepare all requests of the surviving points, computing each probe's
  // content hash locally (the same serve::prepare_request the service
  // runs), so provenance and the duplicate flags are backend-independent.
  std::vector<Slot> slots;
  std::vector<ProbeResult*> slot_results;
  std::unordered_set<serve::CacheKey, serve::CacheKeyHash> seen;
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    if (out.points[i].status != "ok") {
      continue;
    }
    for (std::size_t j = 0; j < instances[i].probes.size(); ++j) {
      const Probe& probe = instances[i].probes[j];
      Slot slot;
      slot.point = i;
      slot.probe = j;
      slot.request.id = static_cast<std::uint64_t>(slots.size() + 1);
      slot.request.verb = probe.verb;
      slot.request.deadline = options.deadline;
      slot.request.arg = probe.arg;
      slot.request.payload = probe.payload;

      ProbeResult pr;
      pr.name = probe.name;
      pr.verb = std::string(serve::to_string(probe.verb));
      pr.imc_states = probe.imc_states;
      const serve::CacheKey key = serve::prepare_request(slot.request).key;
      slot.key = key;
      pr.key = key.hex();
      pr.duplicate = !seen.insert(key).second;
      out.points[i].probes.push_back(std::move(pr));
      slots.push_back(std::move(slot));
    }
  }
  out.distinct_keys = seen.size();
  out.probes_submitted = slots.size();
  slot_results.reserve(slots.size());
  for (const Slot& slot : slots) {
    slot_results.push_back(&out.points[slot.point].probes[slot.probe]);
  }

  if (!slots.empty()) {
    if (options.socket.empty()) {
      dispatch_in_process(options, slots, slot_results, out);
    } else {
      dispatch_socket(options, slots, slot_results);
    }
  }

  // Fold probe bodies into metric vectors; any non-kOk probe downgrades
  // its point to "error".
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    PointResult& pr = out.points[i];
    if (pr.status != "ok") {
      continue;
    }
    std::map<std::string, std::string> bodies;
    for (const ProbeResult& probe : pr.probes) {
      if (probe.status != serve::Status::kOk) {
        pr.status = "error";
      } else {
        bodies[probe.name] = probe.body;
      }
    }
    if (pr.status != "ok") {
      continue;
    }
    try {
      pr.metrics = derive_metrics(pr.point, instances[i], bodies);
    } catch (const std::exception&) {
      pr.status = "error";
    }
  }

  // Rank the survivors.  Ties inside a rank keep expansion order, so the
  // front listing is deterministic.
  std::vector<std::size_t> ok_index;
  std::vector<Metrics> ok_metrics;
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    if (out.points[i].status == "ok") {
      ok_index.push_back(i);
      ok_metrics.push_back(out.points[i].metrics);
    }
  }
  const std::vector<int> ranks = pareto_ranks(ok_metrics, out.objectives);
  for (std::size_t k = 0; k < ok_index.size(); ++k) {
    out.points[ok_index[k]].rank = ranks[k];
    if (ranks[k] == 0) {
      out.front.push_back(out.points[ok_index[k]].point.id);
    }
  }

  out.wall_ms = ms_since(t0);
  return out;
}

std::string to_json(const SweepResult& r, bool include_timing) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"sweep\": " << core::json_string(r.name) << ",\n";
  os << "  \"objectives\": [";
  for (std::size_t i = 0; i < r.objectives.size(); ++i) {
    os << (i != 0 ? ", " : "") << "{\"metric\": "
       << core::json_string(r.objectives[i].metric) << ", \"direction\": \""
       << (r.objectives[i].maximise ? "max" : "min") << "\"}";
  }
  os << "],\n";
  os << "  \"raw_points\": " << r.raw_points << ",\n";
  os << "  \"pruned\": " << r.pruned << ",\n";
  os << "  \"evaluated\": " << r.points.size() << ",\n";
  os << "  \"distinct_keys\": " << r.distinct_keys << ",\n";
  os << "  \"probes_submitted\": " << r.probes_submitted << ",\n";
  os << "  \"front\": [";
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    os << (i != 0 ? ", " : "") << core::json_string(r.front[i]);
  }
  os << "],\n";
  os << "  \"points\": [";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const PointResult& p = r.points[i];
    os << (i != 0 ? "," : "") << "\n    {\"id\": "
       << core::json_string(p.point.id) << ", \"family\": "
       << core::json_string(p.point.family) << ", \"status\": \"" << p.status
       << "\", \"rank\": " << p.rank << ", \"model_states\": "
       << p.model_states << ",\n     \"axes\": {";
    bool first = true;
    for (const std::string& axis : p.point.axis_order) {
      os << (first ? "" : ", ") << core::json_string(axis) << ": "
         << json_axis_value(p.point.axes.at(axis));
      first = false;
    }
    os << "},\n     \"metrics\": {\"latency\": " << json_number(
              p.metrics.latency)
       << ", \"latency_width\": " << json_number(p.metrics.latency_width)
       << ", \"throughput\": " << json_number(p.metrics.throughput)
       << ", \"occupancy\": " << json_number(p.metrics.occupancy)
       << ", \"states\": " << json_number(p.metrics.states) << "},\n";
    if (!p.gate_errors.empty()) {
      os << "     \"gate_errors\": [";
      for (std::size_t g = 0; g < p.gate_errors.size(); ++g) {
        os << (g != 0 ? ", " : "") << core::json_string(p.gate_errors[g]);
      }
      os << "],\n";
    }
    os << "     \"probes\": [";
    for (std::size_t q = 0; q < p.probes.size(); ++q) {
      const ProbeResult& probe = p.probes[q];
      os << (q != 0 ? ", " : "") << "{\"name\": \"" << probe.name
         << "\", \"verb\": \"" << probe.verb << "\", \"key\": \"" << probe.key
         << "\", \"imc_states\": " << probe.imc_states << ", \"duplicate\": "
         << (probe.duplicate ? "true" : "false") << ", \"status\": \""
         << serve::to_string(probe.status) << "\"";
      if (include_timing) {
        os << ", \"wall_ms\": " << json_number(probe.wall_ms);
      }
      os << "}";
    }
    os << "]}";
  }
  os << "\n  ]";
  // Instantiation-side pipeline cache counters: driven only by the (fully
  // deterministic) expansion order, so they are stable across backends,
  // worker counts and reruns.
  os << ",\n  \"pipeline\": {\"hits\": " << r.pipeline.hits
     << ", \"misses\": " << r.pipeline.misses
     << ", \"insertions\": " << r.pipeline.insertions
     << ", \"evictions\": " << r.pipeline.evictions << "}";
  if (r.have_service_metrics) {
    // The reuse total (cache hits + coalesced joins) is deterministic; the
    // split between the two depends on scheduling, so it rides with timing.
    os << ",\n  \"service\": {\"solves\": " << r.service.solves
       << ", \"reused\": " << (r.service.cache_hits + r.service.coalesced)
       << ", \"shed\": " << r.service.shed
       << ", \"timed_out\": " << r.service.timed_out
       << ", \"invalid\": " << r.service.invalid
       << ", \"failed\": " << r.service.failed;
    if (include_timing) {
      os << ", \"cache_hits\": " << r.service.cache_hits
         << ", \"coalesced\": " << r.service.coalesced
         << ", \"latency_p50_ms\": " << json_number(r.service.latency_p50_ms)
         << ", \"latency_p99_ms\": " << json_number(r.service.latency_p99_ms);
    }
    os << "},\n  \"solver\": {\"solves\": " << r.solver.solves
       << ", \"iterations\": " << r.solver.iterations
       << ", \"max_residual\": " << json_number(r.solver.max_residual) << "}";
  }
  if (include_timing) {
    os << ",\n  \"wall_ms\": " << json_number(r.wall_ms);
  }
  os << "\n}\n";
  return std::move(os).str();
}

std::string to_csv(const SweepResult& r) {
  std::ostringstream os;
  os << "id,family,status,rank,latency,latency_width,throughput,occupancy,"
        "states\n";
  for (const PointResult& p : r.points) {
    os << "\"" << p.point.id << "\"," << p.point.family << "," << p.status
       << "," << p.rank << "," << serve::format_double(p.metrics.latency)
       << "," << serve::format_double(p.metrics.latency_width) << ","
       << serve::format_double(p.metrics.throughput) << ","
       << serve::format_double(p.metrics.occupancy) << ","
       << serve::format_double(p.metrics.states) << "\n";
  }
  return std::move(os).str();
}

core::Table front_table(const SweepResult& r) {
  core::Table table("Pareto ranking (" + r.name + ")",
                    {"rank", "point", "latency", "throughput", "occupancy",
                     "states"});
  std::vector<const PointResult*> ok;
  for (const PointResult& p : r.points) {
    if (p.status == "ok") {
      ok.push_back(&p);
    }
  }
  std::stable_sort(ok.begin(), ok.end(),
                   [](const PointResult* a, const PointResult* b) {
                     return a->rank < b->rank;
                   });
  for (const PointResult* p : ok) {
    table.add_row({std::to_string(p->rank), p->point.id,
                   core::fmt(p->metrics.latency), core::fmt(
                       p->metrics.throughput),
                   core::fmt(p->metrics.occupancy),
                   std::to_string(static_cast<std::size_t>(
                       p->metrics.states))});
  }
  return table;
}

}  // namespace multival::dse
