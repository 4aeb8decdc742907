// Micro-benchmark: static lint cost versus the state spaces it gates.
//
// The analyzer is polynomial in the *syntax*: the n-cell family below grows
// linearly in text while its interleaved state space grows as 10^n, so the
// pre-flight lint stays in the microsecond range on models whose
// exploration cost grows without bound.  The states_generated counter is
// exported to make the no-exploration contract visible in the output.
//
// The MV04x bound analyzer (analyze/bounds.hpp) rides the same contract:
// BM_PredictBounds* measure the interval fixpoint plus the counting pass,
// and `--json PATH` emits a machine-readable timing/prediction report
// (self-validating: it exits non-zero if a prediction misses its known
// value or any state is generated).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/bounds.hpp"
#include "fame/coherence.hpp"
#include "noc/mesh.hpp"
#include "proc/parser.hpp"
#include "proc/process.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;

// n interleaved ten-state counters synchronised with a stuck GO partner:
// ~10^n product states, one MV003 structural deadlock, linear syntax.
std::string cells_model(int n) {
  std::string text;
  std::string left;
  for (int i = 0; i < n; ++i) {
    const std::string id = std::to_string(i);
    text += "process Cell" + id + " (v) :=\n";
    text += "    [v < 9] -> INC" + id + " ; Cell" + id + " (v + 1)\n";
    text += " [] [v > 0] -> DEC" + id + " ; Cell" + id + " (v - 1)\n";
    text += "endproc\n";
    const std::string cell = "Cell" + id + " (0)";
    left = i == 0 ? cell : "(" + left + " ||| " + cell + ")";
  }
  text += "process Blocked := GO ; stop endproc\n";
  text += "process System := " + left + " |[GO]| Blocked endproc\n";
  return text;
}

void BM_LintCellsFamily(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const proc::Program p = proc::parse_program(cells_model(n));
  analyze::AnalysisStats stats;
  for (auto _ : state) {
    const analyze::Analysis a = analyze::lint_program(p);
    if (a.clean() || a.stats.states_generated != 0) {
      throw std::logic_error("lint contract violated");
    }
    stats = a.stats;
    benchmark::DoNotOptimize(stats);
  }
  state.counters["product_states"] = benchmark::Counter(std::pow(10.0, n));
  state.counters["terms"] = benchmark::Counter(
      static_cast<double>(stats.terms_visited));
  state.counters["states_generated"] = benchmark::Counter(
      static_cast<double>(stats.states_generated));
}
BENCHMARK(BM_LintCellsFamily)->Arg(3)->Arg(7)->Arg(12);

void BM_LintFameCoherence(benchmark::State& state) {
  const proc::Program p =
      fame::coherence_system_program(fame::Protocol::kMesi);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze::lint_program(p));
  }
}
BENCHMARK(BM_LintFameCoherence);

void BM_LintNocSinglePacket(benchmark::State& state) {
  const proc::Program p = noc::single_packet_program(0, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze::lint_program(p));
  }
}
BENCHMARK(BM_LintNocSinglePacket);

// The interval fixpoint + counting pass on the same exponential family:
// the predicted bound is exactly 10^n (each cell is a guard-bounded
// ten-value counter) while the analysis itself stays linear in the text.
void BM_PredictBoundsCellsFamily(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const proc::Program p = proc::parse_program(cells_model(n));
  const proc::TermPtr root = proc::call("System");
  analyze::BoundReport report;
  for (auto _ : state) {
    report = analyze::predicted_bounds(p, root);
    if (report.stats.states_generated != 0) {
      throw std::logic_error("bound analysis explored states");
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["predicted_states"] = benchmark::Counter(
      static_cast<double>(report.total));
  state.counters["fixpoint_passes"] = benchmark::Counter(
      static_cast<double>(report.stats.fixpoint_passes));
}
BENCHMARK(BM_PredictBoundsCellsFamily)->Arg(3)->Arg(7)->Arg(12);

void BM_PredictBoundsFameCoherence(benchmark::State& state) {
  const proc::Program p =
      fame::coherence_system_program(fame::Protocol::kMesi);
  const proc::TermPtr root = proc::call("System");
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze::predicted_bounds(p, root));
  }
}
BENCHMARK(BM_PredictBoundsFameCoherence);

// ---- --json mode ------------------------------------------------------------

struct JsonCase {
  std::string name;
  std::uint64_t predicted = 0;
  std::uint64_t want = 0;     ///< 0 = only check soundness flags, not value
  bool want_unbounded = false;
  std::size_t fixpoint_passes = 0;
  std::size_t states_generated = 0;
  double micros = 0.0;
};

// Minimum over a few repetitions: the analyzer runs in microseconds, so
// the min is the least-noisy single-shot estimate without pulling in the
// whole benchmark harness.
template <typename F>
double time_micros(F&& f, int reps = 16) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (i == 0 || us < best) {
      best = us;
    }
  }
  return best;
}

int run_json(const std::string& json_path) {
  std::vector<JsonCase> cases;

  for (const int n : {3, 7, 12}) {
    JsonCase c;
    c.name = "cells-" + std::to_string(n);
    c.want = 1;
    for (int i = 0; i < n; ++i) {
      c.want *= 10;
    }
    const proc::Program p = proc::parse_program(cells_model(n));
    const proc::TermPtr root = proc::call("System");
    analyze::BoundReport r;
    c.micros = time_micros([&] { r = analyze::predicted_bounds(p, root); });
    c.predicted = r.total;
    c.fixpoint_passes = r.stats.fixpoint_passes;
    c.states_generated = r.stats.states_generated;
    cases.push_back(c);
  }
  {
    JsonCase c;
    c.name = "fame-mesi";
    const proc::Program p =
        fame::coherence_system_program(fame::Protocol::kMesi);
    const proc::TermPtr root = proc::call("System");
    analyze::BoundReport r;
    c.micros = time_micros([&] { r = analyze::predicted_bounds(p, root); });
    c.predicted = r.total;
    c.fixpoint_passes = r.stats.fixpoint_passes;
    c.states_generated = r.stats.states_generated;
    cases.push_back(c);
  }
  {
    // The xstream virtual queue: PopSide's credit counter is unbounded
    // standalone, so the honest prediction is "unbounded" (the widening
    // must fire, never a silently-wrong finite number).
    JsonCase c;
    c.name = "xstream-virtual-queue";
    c.want_unbounded = true;
    const proc::Program p = xstream::virtual_queue_program({});
    const proc::TermPtr root = proc::call("VirtualQueue");
    analyze::BoundReport r;
    c.micros = time_micros([&] { r = analyze::predicted_bounds(p, root); });
    c.predicted = r.total;
    c.fixpoint_passes = r.stats.fixpoint_passes;
    c.states_generated = r.stats.states_generated;
    cases.push_back(c);
  }

  bool ok = true;
  for (const JsonCase& c : cases) {
    if (c.states_generated != 0) {
      std::cout << "FAIL: " << c.name << " generated states\n";
      ok = false;
    }
    if (c.want_unbounded && c.predicted != analyze::kUnboundedStates) {
      std::cout << "FAIL: " << c.name << " should predict unbounded\n";
      ok = false;
    }
    if (c.want != 0 && c.predicted != c.want) {
      std::cout << "FAIL: " << c.name << " predicted " << c.predicted
                << ", want " << c.want << "\n";
      ok = false;
    }
    std::cout << c.name << ": predicted "
              << analyze::format_states(c.predicted) << " in " << c.micros
              << " us (" << c.fixpoint_passes << " fixpoint passes)\n";
  }

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "ERROR: cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"analyze\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"bounds\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const JsonCase& c = cases[i];
    out << "    {\"model\": \"" << c.name << "\", \"predicted\": \""
        << analyze::format_states(c.predicted) << "\", \"micros\": "
        << c.micros << ", \"fixpoint_passes\": " << c.fixpoint_passes
        << ", \"states_generated\": " << c.states_generated << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  std::cout << (ok ? "BOUNDS PASS\n" : "BOUNDS FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (!json_path.empty()) {
    return run_json(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
