// Workload statespace: one pass takes each case-study model through
//   1. monolithic generation (proc::generate, then lts::trim as T1 does),
//   2. exploration at the benchmark's thread count (explore::explore),
//   3. the planned pipeline (compose::plan_program + evaluate_plan, no cache),
//   4. minimisation to canonical form (bisim::canonical_minimized).
// A pass's time is the sum of those four calls over the models; the checks
// (T1 state and transition counts, byte-identical canonical forms from the
// three generation paths) run outside the timed calls.
#include <algorithm>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "bisim/reduction.hpp"
#include "compose/plan.hpp"
#include "core/report.hpp"
#include "explore/engine.hpp"
#include "explore/lts_stream.hpp"
#include "fame/coherence_n.hpp"
#include "fame/mpi.hpp"
#include "lts/analysis.hpp"
#include "noc/mesh.hpp"
#include "noc/router.hpp"
#include "proc/generator.hpp"

namespace perfbench {

namespace mv = multival;

namespace {

/// The model whose generation rate is reported as proc.states_per_s.
constexpr const char* kRateModel = "MESI-3 + observer";

struct Model {
  std::string name;
  std::shared_ptr<const mv::proc::Program> program;
  std::string entry;
  std::size_t states = 0;       ///< T1 inventory (monolithic, trimmed)
  std::size_t transitions = 0;
};

/// The case-study models and their T1 inventory counts.  The 3x3 centre
/// router (564,480 states) and MESI-4 (55,764 states, 9-12 s per pass on a
/// 4-core host) are left out: a run would hold only one or two passes, too
/// few for a steady median.  MESI-3 exercises the same generator path.
std::vector<Model> build_models(bool tiny) {
  using namespace mv;
  const auto program = [](proc::Program p) {
    return std::make_shared<const proc::Program>(std::move(p));
  };
  std::vector<Model> models;
  {
    proc::Program p;
    const std::string entry = noc::add_router(p, noc::MeshDims{}, 0,
                                              noc::default_ports({}, 0));
    models.push_back({"router (free environment)", program(std::move(p)),
                      entry, 360, 1638});
  }
  {
    fame::PingPongConfig cfg;
    cfg.rounds = 2;
    models.push_back({"ping-pong (eager, 2 rounds)",
                      program(fame::pingpong_program(cfg)), "PingPong", 86,
                      85});
  }
  if (tiny) {
    return models;
  }
  models.push_back({"MSI-3 + observer",
                    program(fame::coherence_system_n_program(
                        fame::Protocol::kMsi, 3)),
                    "SystemN", 3836, 15174});
  models.push_back({kRateModel,
                    program(fame::coherence_system_n_program(
                        fame::Protocol::kMesi, 3)),
                    "SystemN", 5402, 21750});
  models.push_back({"3x3 mesh, flows 0->8 & 8->0",
                    program(noc::stream_program({{0, 8}, {8, 0}}, true,
                                                noc::MeshDims{3, 3})),
                    "Scenario", 121, 242});
  return models;
}

std::string bytes_of(const mv::lts::Lts& l) {
  std::ostringstream os;
  mv::explore::write_lts_stream(os, l);
  return std::move(os).str();
}

/// Per-pass sums of the four steps' wall times.
struct PassStats {
  double generate_ms = 0, explore_ms = 0, evaluate_ms = 0, minimize_ms = 0;
  double total_ms() const {
    return generate_ms + explore_ms + evaluate_ms + minimize_ms;
  }
};

}  // namespace

Outcome run_statespace(const Options& opts, Trace& trace) {
  using namespace mv;
  Outcome out;
  std::vector<Model> models;
  SetupClock setup;
  const auto build = [&] {
    models = build_models(opts.tiny);
    std::mt19937_64 rng = make_rng(opts.seed, 2);
    std::shuffle(models.begin(), models.end(), rng);
  };
  for (int i = 0; i < kSetupReps; ++i) {
    setup.time(build);
  }
  std::string order;
  for (const Model& m : models) {
    order += (order.empty() ? "" : ", ") + m.name;
  }
  out.notes.push_back("model order: " + order);

  explore::ExploreOptions eopts;
  eopts.workers = opts.threads;
  const compose::PlanOptions popts;
  out.threads_used = {{"explore_workers", eopts.workers},
                      {"plan_workers", popts.workers}};

  reset_peak_rss();
  std::vector<double> traced_ms, untraced_ms, pass_ms;
  std::vector<PassStats> traced_passes;
  std::vector<double> states_per_s;
  std::size_t peak_frontier = 0, peak_states = 0;
  double dedup_hits = 0, states_out = 0;
  Lane& lane = trace.enabled() ? trace.lane() : Trace::off();
  const auto t0 = Clock::now();
  std::uint64_t pass = 0;
  // The traced run alternates untraced and traced passes (at least one of
  // each), so the difference of their medians is the tracing overhead.
  while (pass < (trace.enabled() ? 2u : 1u) ||
         ms_since(t0) < opts.seconds * 1000.0) {
    ++pass;
    const bool traced = trace.enabled() && pass % 2 == 0;
    Lane& l = traced ? lane : Trace::off();
    PassStats ps;
    for (const Model& m : models) {
      ++out.attempted;
      core::clear_solve_log();
      core::clear_generation_log();
      lts::Lts flat;
      explore::ExploreResult ex;
      compose::Plan plan;
      compose::PlanResult planned;
      lts::Lts canon;
      Clock::time_point c[5];
      {
        auto root = l.open(kTimedRoot, pass);
        c[0] = Clock::now();
        {
          auto s = l.open("proc.generate", pass);
          flat = lts::trim(proc::generate(*m.program, m.entry)).lts;
        }
        c[1] = Clock::now();
        {
          auto s = l.open("explore.explore", pass);
          ex = explore::explore(*explore::proc_oracle(m.program, m.entry),
                                eopts);
        }
        c[2] = Clock::now();
        {
          auto s = l.open("compose.plan_program", pass);
          plan = compose::plan_program(m.program, m.entry, popts);
        }
        {
          auto s = l.open("compose.evaluate_plan", pass);
          planned = compose::evaluate_plan(plan, popts);
        }
        c[3] = Clock::now();
        {
          auto s = l.open("bisim.canonical_minimized", pass);
          canon = bisim::canonical_minimized(flat);
        }
        c[4] = Clock::now();
      }
      ps.generate_ms += ms_between(c[0], c[1]);
      ps.explore_ms += ms_between(c[1], c[2]);
      ps.evaluate_ms += ms_between(c[2], c[3]);
      ps.minimize_ms += ms_between(c[3], c[4]);
      if (traced) {
        if (m.name == kRateModel) {
          states_per_s.push_back(static_cast<double>(flat.num_states()) /
                                 (ms_between(c[0], c[1]) / 1e3));
        }
        peak_frontier = std::max(peak_frontier, ex.stats.peak_frontier);
        peak_states = std::max(peak_states, planned.stats.peak_states);
        dedup_hits += static_cast<double>(ex.stats.dedup_hits);
        states_out += static_cast<double>(canon.num_states());
      }

      // Checks, outside the timed calls.
      std::size_t states = flat.num_states();
      if (pass == 1 && opts.inject == Inject::kStates && &m == &models.front()) {
        ++states;
      }
      std::string planned_bytes = bytes_of(planned.lts);
      if (pass == 1 && opts.inject == Inject::kBody && &m == &models.front()) {
        planned_bytes[planned_bytes.size() / 2] ^= 1;
      }
      const std::string flat_bytes = bytes_of(canon);
      if (states != m.states || flat.num_transitions() != m.transitions) {
        out.fail(m.name + ": " + std::to_string(states) + " states / " +
                 std::to_string(flat.num_transitions()) +
                 " transitions, T1 inventory says " +
                 std::to_string(m.states) + " / " +
                 std::to_string(m.transitions));
      } else if (ex.lts.num_states() != flat.num_states() ||
                 ex.lts.num_transitions() != flat.num_transitions()) {
        out.fail(m.name + ": explore and generate disagree on the size");
      } else if (planned_bytes != flat_bytes) {
        out.fail(m.name + ": planned canonical form differs from generate's");
      } else if (bytes_of(bisim::canonical_minimized(ex.lts)) != flat_bytes) {
        out.fail(m.name + ": explore canonical form differs from generate's");
      }
    }
    if (!trace.enabled()) {
      pass_ms.push_back(ps.total_ms());
    } else if (traced) {
      traced_ms.push_back(ps.total_ms());
      traced_passes.push_back(ps);
    } else {
      untraced_ms.push_back(ps.total_ms());
    }
  }
  const double wall_s = ms_since(t0) / 1000.0;
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  for (int i = 0; i < kSetupReps; ++i) {
    setup.time(build);
  }
  out.add("setup_s", setup.median_s(), "s");
  if (!trace.enabled()) {
    out.add("latency_p50_ms", median(pass_ms), "ms");
    out.add("ops_per_s", static_cast<double>(pass_ms.size()) / wall_s, "1/s");
    std::string passes;
    for (const double ms : pass_ms) {
      passes += (passes.empty() ? "" : ", ") + std::to_string(ms / 1000.0);
    }
    out.notes.push_back("pass times (s): " + passes + "; wall " +
                        std::to_string(wall_s) + " s");
    return out;
  }
  const double n = static_cast<double>(traced_passes.size());
  double gen = 0, exp = 0, eval = 0, min = 0;
  for (const PassStats& ps : traced_passes) {
    gen += ps.generate_ms;
    exp += ps.explore_ms;
    eval += ps.evaluate_ms;
    min += ps.minimize_ms;
  }
  out.add("proc.generate_ms", gen / n, "ms");
  out.add("proc.states_per_s", median(states_per_s), "1/s");
  out.add("explore.explore_ms", exp / n, "ms");
  out.add("explore.peak_frontier", static_cast<double>(peak_frontier), "count");
  out.add("explore.dedup_hits", dedup_hits / n, "count");
  out.add("compose.evaluate_ms", eval / n, "ms");
  out.add("compose.peak_states", static_cast<double>(peak_states), "count");
  out.add("bisim.minimize_ms", min / n, "ms");
  out.add("bisim.states_out", states_out / n, "count");
  out.add_uncalled({{"dse.expand_ms", "ms"},
                    {"dse.instantiate_ms", "ms"},
                    {"dse.instantiate.fame_ms", "ms"},
                    {"dse.instantiate.noc_ms", "ms"},
                    {"dse.instantiate.xmas_ms", "ms"},
                    {"dse.instantiate.xstream_ms", "ms"},
                    {"analyze.lint_ms", "ms"},
                    {"compose.cache_hits", "count"},
                    {"compose.cache_misses", "count"},
                    {"serve.dispatch.pass1_ms", "ms"},
                    {"serve.dispatch.pass2_ms", "ms"},
                    {"serve.prepare_us", "us"},
                    {"serve.service_p50_ms", "ms"},
                    {"serve.queue_wait_p50_ms", "ms"},
                    {"serve.queue_wait_p99_ms", "ms"},
                    {"serve.transport_p50_ms", "ms"},
                    {"serve.solves", "count"},
                    {"serve.reused", "count"},
                    {"serve.hit_ratio", "ratio"},
                    {"serve.reservoir_full", "count"},
                    {"imc.close_ms", "ms"},
                    {"markov.steady_ms", "ms"},
                    {"markov.iterations", "count"},
                    {"markov.abs_error", "abs"}});
  out.add("trace.overhead_share",
          (median(traced_ms) - median(untraced_ms)) / median(untraced_ms),
          "ratio");
  return out;
}

}  // namespace perfbench
