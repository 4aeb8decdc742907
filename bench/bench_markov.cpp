// Micro-benchmark: Markov solver throughput — steady-state (GTH elimination),
// transient (uniformisation), absorption and IMC scheduler-bound solves on
// birth-death chains plus the xSTream queue and FAME ping-pong case studies.
//
// Every solver runs serially on the calling thread.  BM_Transient builds
// the uniformised DTMC once, outside its timed loop, so it times the
// uniformisation sum alone.
//
// Besides the google-benchmark mode, `bench_markov --smoke` runs a fast
// self-validation: every solver family is exercised against an analytic
// answer (M/M/1/K steady state at rho 0.9 and 0.999, pure-death absorption
// time, Erlang CDF via uniformisation, exact scheduler bounds), and the
// per-solve telemetry table is printed.
// Exits non-zero on any violation, so CI can gate on it.  `--smoke --json
// PATH` additionally writes a machine-readable verdict.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "fame/mpi.hpp"
#include "imc/scheduler.hpp"
#include "markov/absorption.hpp"
#include "markov/ctmc.hpp"
#include "markov/steady.hpp"
#include "markov/transient.hpp"
#include "xstream/perf.hpp"

namespace {

using namespace multival;
using namespace multival::markov;

Ctmc birth_death(std::size_t n, double lambda, double mu) {
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    c.add_transition(static_cast<MState>(i), static_cast<MState>(i + 1),
                     lambda, "arrive");
    c.add_transition(static_cast<MState>(i + 1), static_cast<MState>(i), mu,
                     "serve");
  }
  return c;
}

Ctmc pure_death(std::size_t n, double rate) {
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 1; i < n; ++i) {
    c.add_transition(static_cast<MState>(i), static_cast<MState>(i - 1), rate);
  }
  c.set_initial_state(static_cast<MState>(n - 1));
  return c;
}

void BM_SteadyState(benchmark::State& state) {
  const Ctmc c = birth_death(static_cast<std::size_t>(state.range(0)), 0.9,
                             1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(steady_state(c));
  }
}
BENCHMARK(BM_SteadyState)->Arg(100)->Arg(1000)->Arg(4000);

void BM_Transient(benchmark::State& state) {
  const Ctmc c = birth_death(static_cast<std::size_t>(state.range(0)), 0.9,
                             1.0);
  const Uniformized u = uniformize(c);
  const std::vector<double> pi0 = c.initial_distribution();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transient_distribution(u, pi0, 10.0));
  }
}
BENCHMARK(BM_Transient)->Arg(100)->Arg(1000);

void BM_Absorption(benchmark::State& state) {
  // Downward drift into the absorbing bottom state.
  const auto n = static_cast<std::size_t>(state.range(0));
  Ctmc c;
  c.add_states(n);
  for (std::size_t i = 1; i < n; ++i) {
    c.add_transition(static_cast<MState>(i), static_cast<MState>(i - 1), 2.0);
    if (i + 1 < n) {
      c.add_transition(static_cast<MState>(i), static_cast<MState>(i + 1),
                       1.0);
    }
  }
  c.set_initial_state(static_cast<MState>(n - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(expected_time_to_absorption(c));
  }
}
BENCHMARK(BM_Absorption)->Arg(100)->Arg(1000);

void BM_ReachabilityInterval(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Ctmc c = birth_death(n, 0.9, 1.0);
  std::vector<bool> target(n, false);
  target[n - 1] = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reachability_probability(c, target));
  }
}
BENCHMARK(BM_ReachabilityInterval)->Arg(100)->Arg(1000);

void BM_XstreamQueue(benchmark::State& state) {
  xstream::QueuePerfParams params;
  params.queue.capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xstream::analyze_virtual_queue(params));
  }
}
BENCHMARK(BM_XstreamQueue)->Arg(2)->Arg(4);

void BM_FamePingPong(benchmark::State& state) {
  fame::PingPongConfig config;
  config.rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fame::pingpong_latency(config));
  }
}
BENCHMARK(BM_FamePingPong)->Arg(2)->Arg(4);

// ---- smoke mode -------------------------------------------------------------

bool check(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::cout << "SMOKE FAIL: " << what << " (got " << got << ", want "
              << want << ")\n";
  }
  return ok;
}

int run_smoke(const std::string& json_path) {
  bool ok = true;
  for (const auto& [n, rho] : {std::pair<std::size_t, double>{50, 0.9},
                                std::pair<std::size_t, double>{1000, 0.999}}) {
    const core::SolveContext ctx("smoke/mm1k");
    // M/M/1/K steady state vs the analytic geometric distribution.
    const std::vector<double> pi = steady_state(birth_death(n, rho, 1.0));
    double norm = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      norm += std::pow(rho, static_cast<double>(k));
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double want = std::pow(rho, static_cast<double>(k)) / norm;
      ok = check(std::abs(pi[k] - want) < 1e-12, "mm1k steady state", pi[k],
                 want) &&
           ok;
    }
  }
  {
    const core::SolveContext ctx("smoke/pure-death");
    // Expected absorption time of a pure-death chain: (n-1) / rate.
    const std::size_t n = 200;
    const double got =
        expected_absorption_time_from_initial(pure_death(n, 2.0));
    const double want = static_cast<double>(n - 1) / 2.0;
    ok = check(std::abs(got - want) < 1e-8, "pure-death E[T]", got, want) &&
         ok;
  }
  {
    const core::SolveContext ctx("smoke/erlang");
    // Erlang-k CDF via uniformisation vs the analytic Poisson tail.
    const std::size_t k = 100;
    const double rate = 1.0;
    const double t = 100.0;
    Ctmc c = pure_death(k + 1, rate);  // state k+... counts down
    c.set_initial_state(static_cast<MState>(k));
    std::vector<bool> target(k + 1, false);
    target[0] = true;
    const double got = bounded_reachability(c, target, t, 1e-12);
    double cdf = 0.0;  // P[Poisson(rate*t) >= k]
    for (std::size_t i = 0; i < k; ++i) {
      cdf += std::exp(static_cast<double>(i) * std::log(rate * t) - rate * t -
                      std::lgamma(static_cast<double>(i) + 1.0));
    }
    const double want = 1.0 - cdf;
    ok = check(std::abs(got - want) < 1e-9, "erlang CDF", got, want) && ok;
  }
  {
    const core::SolveContext ctx("smoke/scheduler");
    // Exact interval bounds on the fast-or-slow decision IMC.
    imc::Imc m;
    m.add_states(4);
    m.add_interactive(0, "i", 1);
    m.add_interactive(0, "i", 2);
    m.add_markovian(1, 4.0, 3);
    m.add_markovian(2, 1.0, 3);
    const imc::Bounds b = imc::absorption_time_bounds(m);
    ok = check(std::abs(b.min - 0.25) < 1e-9, "scheduler min", b.min, 0.25) &&
         ok;
    ok = check(std::abs(b.max - 1.0) < 1e-9, "scheduler max", b.max, 1.0) &&
         ok;
  }
  {
    const core::SolveContext ctx("smoke/xstream");
    const xstream::QueuePerfResult r =
        xstream::analyze_virtual_queue(xstream::QueuePerfParams{});
    ok = check(r.throughput > 0.0 && std::isfinite(r.throughput),
               "xstream throughput", r.throughput, 0.0) &&
         ok;
  }
  {
    const core::SolveContext ctx("smoke/fame");
    const fame::PingPongResult r =
        fame::pingpong_latency(fame::PingPongConfig{});
    ok = check(r.total_time > 0.0 && std::isfinite(r.total_time),
               "fame ping-pong", r.total_time, 0.0) &&
         ok;
  }
  core::solve_table().print(std::cout);
  std::cout << (ok ? "SMOKE PASS\n" : "SMOKE FAIL\n");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "ERROR: cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n  \"bench\": \"markov\",\n  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency()
        << ",\n  \"smoke_pass\": " << (ok ? "true" : "false") << "\n}\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (smoke) {
    return run_smoke(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
