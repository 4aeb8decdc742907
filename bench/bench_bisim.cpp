// Micro-benchmark: partition-refinement minimisation throughput on random
// LTSs of growing size, whose rounds re-sign most nodes, and IMC lumping
// of birth-death chains, which take n/2 rounds that each re-sign a few.
#include <benchmark/benchmark.h>

#include <random>

#include "bisim/branching.hpp"
#include "bisim/strong.hpp"
#include "imc/imc.hpp"
#include "imc/lump.hpp"
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

/// The chains serve-solve closes: ARR at rate 0.9 up, DEP at rate 1 down.
imc::Imc birth_death_imc(std::size_t n) {
  imc::Imc m;
  m.add_states(n);
  for (lts::StateId s = 0; s + 1 < n; ++s) {
    m.add_markovian(s, 0.9, s + 1, "ARR");
    m.add_markovian(s + 1, 1.0, s, "DEP");
  }
  return m;
}

void BM_LumpBirthDeath(benchmark::State& state) {
  const auto m = birth_death_imc(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(imc::lump_branching(m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LumpBirthDeath)->Arg(250)->Arg(1000)->Arg(4000);

}  // namespace

BENCHMARK_MAIN();
