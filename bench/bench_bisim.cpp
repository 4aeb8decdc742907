// Micro-benchmark: partition-refinement minimisation throughput on random
// LTSs of growing size.
#include <benchmark/benchmark.h>

#include <random>

#include "bisim/branching.hpp"
#include "bisim/strong.hpp"
#include "lts/lts.hpp"

namespace {

using namespace multival;

lts::Lts random_lts(std::size_t states, std::size_t labels,
                    double tau_fraction, std::uint32_t seed) {
  std::mt19937 rng(seed);
  lts::Lts l;
  l.add_states(states);
  std::vector<lts::ActionId> ids;
  for (std::size_t i = 0; i < labels; ++i) {
    ids.push_back(
        l.actions().intern(std::string("L").append(std::to_string(i))));
  }
  std::uniform_int_distribution<lts::StateId> state(
      0, static_cast<lts::StateId>(states - 1));
  std::uniform_int_distribution<std::size_t> label(0, labels - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t i = 0; i < states * 3; ++i) {
    const auto a = coin(rng) < tau_fraction ? lts::ActionTable::kTau
                                            : ids[label(rng)];
    l.add_transition(state(rng), a, state(rng));
  }
  return l;
}

void BM_StrongMinimization(benchmark::State& state) {
  const auto l = random_lts(static_cast<std::size_t>(state.range(0)), 4, 0.0,
                            7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bisim::minimize_strong(l));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StrongMinimization)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BranchingMinimization(benchmark::State& state) {
  const auto l = random_lts(static_cast<std::size_t>(state.range(0)), 4, 0.3,
                            7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bisim::minimize_branching(l));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BranchingMinimization)->Arg(1000)->Arg(10000)->Arg(50000);

}  // namespace

BENCHMARK_MAIN();
