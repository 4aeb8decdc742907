// Micro-benchmark: partition-refinement minimisation throughput on random
// LTSs of growing size, whose rounds re-sign most nodes, IMC lumping of
// birth-death chains, which take n/2 rounds that each re-sign a few, and
// the LTS join (lts::parallel) of two random value-passing operands.
#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bisim/branching.hpp"
#include "bisim/strong.hpp"
#include "imc/imc.hpp"
#include "imc/lump.hpp"
#include "lts/lts.hpp"
#include "lts/product.hpp"

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

/// Two seeded random value-passing operands of @p states states that share
/// the gates S0 and S1 and own two gates each (A0, A1 and B0, B1), with
/// offers 0..3.  States 2k and 2k + 1 form a pair: private moves switch
/// within a pair, and shared moves follow one random skeleton over pairs
/// (at most one move per pair and label), of which b keeps three quarters.
/// The product so stays within twice an operand's size, and its states
/// have private moves, matched shared moves and blocked ones.
std::pair<lts::Lts, lts::Lts> join_operands(std::size_t states,
                                            std::uint32_t seed) {
  std::mt19937 rng(seed);
  const std::size_t pairs = states / 2;
  lts::Lts a;
  lts::Lts b;
  a.add_states(2 * pairs);
  b.add_states(2 * pairs);
  const auto offer = [&](const std::string& gate) {
    return gate + " !" + std::to_string(rng() % 4);
  };
  for (lts::StateId p = 0; p < pairs; ++p) {
    for (const std::string gate : {"S0", "S1"}) {
      for (int v = 0; v < 4; ++v) {
        if (rng() % 8 >= 3) {
          continue;
        }
        const std::string label = gate + " !" + std::to_string(v);
        const auto q = static_cast<lts::StateId>(rng() % pairs);
        const bool in_b = rng() % 4 != 0;
        for (const lts::StateId x : {0u, 1u}) {
          a.add_transition(2 * p + x, label, 2 * q + x);
          if (in_b) {
            b.add_transition(2 * p + x, label, 2 * q + x);
          }
        }
      }
    }
    for (const lts::StateId s : {2 * p, 2 * p + 1}) {
      for (int k = 0; k < 2; ++k) {
        a.add_transition(s, offer(rng() % 2 ? "A1" : "A0"), s ^ 1u);
        b.add_transition(s, offer(rng() % 2 ? "B1" : "B0"), s ^ 1u);
      }
    }
  }
  return {std::move(a), std::move(b)};
}

void BM_Parallel(benchmark::State& state) {
  const auto operands =
      join_operands(static_cast<std::size_t>(state.range(0)), 7);
  const std::vector<std::string> sync{"S0", "S1"};
  std::size_t product_states = 0;
  for (auto _ : state) {
    lts::Lts p = lts::parallel(operands.first, operands.second, sync);
    product_states = p.num_states();
    benchmark::DoNotOptimize(p);
  }
  state.counters["product_states"] = static_cast<double>(product_states);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Parallel)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
