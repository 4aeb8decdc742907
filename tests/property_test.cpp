// Cross-module property-based tests on randomised models: algebraic laws
// of composition, conservation laws of the solvers, and consistency between
// independent implementation paths.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>

#include "bisim/equivalence.hpp"
#include "bisim/trace.hpp"
#include "core/flow.hpp"
#include "imc/compose.hpp"
#include "imc/lump.hpp"
#include "lts/analysis.hpp"
#include "lts/lts_io.hpp"
#include "lts/product.hpp"
#include "markov/steady.hpp"
#include "markov/transient.hpp"
#include "proc/generator.hpp"

namespace {

using namespace multival;

// ---------------------------------------------------------------- helpers --

lts::Lts random_lts(std::uint32_t seed, std::size_t states,
                    std::size_t labels, double tau_fraction) {
  std::mt19937 rng(seed);
  lts::Lts l;
  l.add_states(states);
  std::vector<lts::ActionId> ids;
  for (std::size_t i = 0; i < labels; ++i) {
    ids.push_back(
        l.actions().intern(std::string("G").append(std::to_string(i))));
  }
  std::uniform_int_distribution<lts::StateId> state(
      0, static_cast<lts::StateId>(states - 1));
  std::uniform_int_distribution<std::size_t> label(0, labels - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t i = 0; i < states * 2; ++i) {
    const auto a = coin(rng) < tau_fraction ? lts::ActionTable::kTau
                                            : ids[label(rng)];
    l.add_transition(state(rng), a, state(rng));
  }
  return l;
}

/// A random strongly-connected labelled CTMC (a cycle plus chords).
markov::Ctmc random_ctmc(std::uint32_t seed, std::size_t states) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> rate(0.1, 5.0);
  std::uniform_int_distribution<markov::MState> state(
      0, static_cast<markov::MState>(states - 1));
  markov::Ctmc c;
  c.add_states(states);
  const char* labels[] = {"red", "green", "blue"};
  for (markov::MState s = 0; s < states; ++s) {
    c.add_transition(s, (s + 1) % static_cast<markov::MState>(states),
                     rate(rng), labels[s % 3]);
  }
  for (std::size_t i = 0; i < states; ++i) {
    c.add_transition(state(rng), state(rng), rate(rng), labels[i % 3]);
  }
  return c;
}

class RandomSeed : public ::testing::TestWithParam<std::uint32_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeed, ::testing::Range(1u, 11u));

// ------------------------------------------------- composition algebra --

TEST_P(RandomSeed, ParallelIsCommutativeModuloStrongBisim) {
  const lts::Lts a = random_lts(GetParam(), 10, 3, 0.1);
  const lts::Lts b = random_lts(GetParam() + 100, 10, 3, 0.1);
  const std::vector<std::string> sync{"G0", "G1"};
  const lts::Lts ab = lts::parallel(a, b, sync);
  const lts::Lts ba = lts::parallel(b, a, sync);
  EXPECT_TRUE(bisim::equivalent(ab, ba, bisim::Equivalence::kStrong));
}

TEST_P(RandomSeed, ParallelIsAssociativeModuloStrongBisim) {
  const lts::Lts a = random_lts(GetParam(), 6, 2, 0.0);
  const lts::Lts b = random_lts(GetParam() + 100, 6, 2, 0.0);
  const lts::Lts c = random_lts(GetParam() + 200, 6, 2, 0.0);
  // All components share all gates, so folding with a global sync set is
  // associative.
  const std::vector<std::string> sync{"G0", "G1"};
  const lts::Lts left = lts::parallel(lts::parallel(a, b, sync), c, sync);
  const lts::Lts right = lts::parallel(a, lts::parallel(b, c, sync), sync);
  EXPECT_TRUE(bisim::equivalent(left, right, bisim::Equivalence::kStrong));
}

TEST_P(RandomSeed, HideThenMinimizeCommutesWithMinimizeThenHide) {
  // hide(min(l)) ~ min(hide(l)) modulo branching bisim.
  const lts::Lts l = random_lts(GetParam(), 20, 3, 0.2);
  const std::vector<std::string> gates{"G0"};
  const lts::Lts a = lts::hide(
      bisim::minimize(l, bisim::Equivalence::kBranching).quotient, gates);
  const lts::Lts b = lts::hide(l, gates);
  EXPECT_TRUE(bisim::equivalent(a, b, bisim::Equivalence::kBranching));
}

TEST_P(RandomSeed, AutRoundTripPreservesBisimilarity) {
  const lts::Lts l = random_lts(GetParam(), 15, 3, 0.3);
  const lts::Lts back = lts::from_aut(lts::to_aut(l));
  EXPECT_EQ(back.num_states(), l.num_states());
  EXPECT_EQ(back.num_transitions(), l.num_transitions());
  EXPECT_TRUE(bisim::equivalent(l, back, bisim::Equivalence::kStrong));
}

TEST_P(RandomSeed, WeakQuotientIsWeaklyEquivalent) {
  const lts::Lts l = random_lts(GetParam(), 25, 3, 0.3);
  const auto r = bisim::minimize(l, bisim::Equivalence::kWeak);
  EXPECT_TRUE(bisim::equivalent(l, r.quotient, bisim::Equivalence::kWeak));
  // Weak quotients are also weak-trace equivalent to the original.
  EXPECT_TRUE(bisim::weak_trace_equivalent(l, r.quotient));
}

TEST_P(RandomSeed, DeterminizeIsIdempotentAndTracePreserving) {
  const lts::Lts l = random_lts(GetParam(), 10, 2, 0.3);
  const lts::Lts d1 = bisim::determinize(l);
  const lts::Lts d2 = bisim::determinize(d1);
  EXPECT_TRUE(bisim::weak_trace_equivalent(l, d1));
  EXPECT_TRUE(bisim::equivalent(d1, d2, bisim::Equivalence::kStrong));
}

// ------------------------------------------------------- solver laws --

TEST_P(RandomSeed, SteadyStateIsDistributionWithZeroNetFlow) {
  const markov::Ctmc c = random_ctmc(GetParam(), 12);
  const auto pi = markov::steady_state(c);
  double sum = 0.0;
  for (const double p : pi) {
    EXPECT_GE(p, -1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Global balance: net probability flow through every state is zero.
  std::vector<double> net(c.num_states(), 0.0);
  for (const auto& t : c.transitions()) {
    net[t.src] -= pi[t.src] * t.rate;
    net[t.dst] += pi[t.src] * t.rate;
  }
  for (const double n : net) {
    EXPECT_NEAR(n, 0.0, 1e-8);
  }
}

TEST_P(RandomSeed, TransientConvergesToSteadyState) {
  const markov::Ctmc c = random_ctmc(GetParam(), 8);
  const auto pi = markov::steady_state(c);
  const auto pt = markov::transient_distribution(c, 500.0);
  for (std::size_t s = 0; s < pi.size(); ++s) {
    EXPECT_NEAR(pt[s], pi[s], 1e-6) << "state " << s;
  }
}

TEST_P(RandomSeed, TransientIsAlwaysADistribution) {
  const markov::Ctmc c = random_ctmc(GetParam(), 8);
  for (const double t : {0.01, 0.5, 3.0, 20.0}) {
    const auto pt = markov::transient_distribution(c, t);
    const double sum = std::accumulate(pt.begin(), pt.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t = " << t;
  }
}

TEST_P(RandomSeed, ThroughputConservationAcrossCut) {
  // In a unidirectional ring, the steady flow across every edge of the
  // cycle is identical.
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> rate(0.2, 4.0);
  markov::Ctmc c;
  const std::size_t n = 6;
  c.add_states(n);
  std::vector<double> rates;
  for (markov::MState s = 0; s < n; ++s) {
    rates.push_back(rate(rng));
    c.add_transition(s, (s + 1) % n, rates.back(),
                     "edge" + std::to_string(s));
  }
  const auto pi = markov::steady_state(c);
  const double flow0 = markov::throughput(c, pi, "edge0");
  for (std::size_t e = 1; e < n; ++e) {
    EXPECT_NEAR(markov::throughput(c, pi, "edge" + std::to_string(e)), flow0,
                1e-9);
  }
}

// ---------------------------------------------------- lumping soundness --

TEST_P(RandomSeed, StrongLumpingPreservesSteadyMeasures) {
  // Duplicate a random CTMC into two symmetric copies sharing the labels;
  // lumping must fold the copies and preserve all throughputs.
  const markov::Ctmc base = random_ctmc(GetParam(), 6);
  imc::Imc m;
  const std::size_t n = base.num_states();
  m.add_states(2 * n);
  for (const auto& t : base.transitions()) {
    m.add_markovian(t.src, t.rate, t.dst, t.label);
    m.add_markovian(static_cast<imc::StateId>(t.src + n), t.rate,
                    static_cast<imc::StateId>(t.dst + n), t.label);
  }
  // Couple the copies symmetrically so the whole chain is irreducible.
  m.add_markovian(0, 1.0, static_cast<imc::StateId>(n), "swap");
  m.add_markovian(static_cast<imc::StateId>(n), 1.0, 0, "swap");

  const auto p = imc::lump_strong(m);
  EXPECT_EQ(p.num_blocks(), n);  // the two copies fold
  const auto q = imc::quotient_imc(m, p, /*branching=*/false);

  const auto full = imc::to_ctmc(m);
  const auto small = imc::to_ctmc(q);
  const auto pi_full = markov::steady_state(full.ctmc);
  const auto pi_small = markov::steady_state(small.ctmc);
  for (const char* label : {"red", "green", "blue", "swap"}) {
    EXPECT_NEAR(markov::throughput(full.ctmc, pi_full, label),
                markov::throughput(small.ctmc, pi_small, label), 1e-8)
        << label;
  }
}

TEST_P(RandomSeed, BranchingLumpThenExtractEqualsExtractDirectly) {
  // For deterministic-tau IMCs, lumping before extraction must not change
  // the chain's steady throughputs.
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> rate(0.2, 4.0);
  imc::Imc m;
  const std::size_t n = 8;
  m.add_states(2 * n);
  // Cycle: markovian hop to a tau stepping stone, tau into the next state.
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<imc::StateId>(2 * i);
    const auto mid = static_cast<imc::StateId>(2 * i + 1);
    const auto next = static_cast<imc::StateId>((2 * i + 2) % (2 * n));
    m.add_markovian(s, rate(rng), mid, "hop" + std::to_string(i));
    m.add_interactive(mid, "i", next);
  }
  const auto direct = imc::to_ctmc(m);
  const auto lumped = imc::minimize_imc(m);
  const auto via_lump = imc::to_ctmc(lumped.quotient);
  const auto pi_d = markov::steady_state(direct.ctmc);
  const auto pi_l = markov::steady_state(via_lump.ctmc);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string label = "hop" + std::to_string(i);
    EXPECT_NEAR(markov::throughput(direct.ctmc, pi_d, label),
                markov::throughput(via_lump.ctmc, pi_l, label), 1e-8);
  }
}

// ------------------------------------------------ generator determinism --

TEST_P(RandomSeed, GenerationIsDeterministic) {
  using namespace multival::proc;
  Program p;
  const int cap = static_cast<int>(GetParam() % 3) + 1;
  p.define("Q", {"n"},
           choice({guard(evar("n") < lit(cap),
                         prefix("IN", call("Q", {evar("n") + lit(1)}))),
                   guard(evar("n") > lit(0),
                         prefix("OUT", call("Q", {evar("n") - lit(1)})))}));
  const lts::Lts a = generate(p, "Q", {0});
  const lts::Lts b = generate(p, "Q", {0});
  EXPECT_EQ(lts::to_aut(a), lts::to_aut(b));
}

// -------------------------------- decoration-path consistency (exp flow) --

TEST_P(RandomSeed, ConstraintOrientedMatchesDirectDecoration) {
  // A cyclic two-phase system timed once via insert_delays (constraint
  // oriented) and once via decorate_with_rates must induce the same
  // steady-state cycle time.
  using namespace multival::proc;
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> rate(0.5, 5.0);
  const double r1 = rate(rng);
  const double r2 = rate(rng);

  Program direct;
  direct.define("Cycle", {}, prefix("P1", prefix("P2", call("Cycle"))));
  const auto via_rates = core::close_model(core::decorate_with_rates(
      generate(direct, "Cycle"), {{"P1", r1}, {"P2", r2}}));

  Program constraint;
  constraint.define("Cycle", {},
                    prefix("A_S", prefix("A_E",
                           prefix("B_S", prefix("B_E", call("Cycle"))))));
  const auto via_delays = core::close_model(core::insert_delays(
      generate(constraint, "Cycle"),
      {{"A_S", "A_E", phase::PhaseType::exponential(r1)},
       {"B_S", "B_E", phase::PhaseType::exponential(r2)}}));

  const auto pi_r = markov::steady_state(via_rates.ctmc);
  const auto pi_d = markov::steady_state(via_delays.ctmc);
  EXPECT_NEAR(markov::throughput(via_rates.ctmc, pi_r, "P1"),
              markov::throughput(via_delays.ctmc, pi_d, "A_E"), 1e-9);
}

}  // namespace
