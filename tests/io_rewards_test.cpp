// Tests for reward measures, IMC textual I/O, and DOT export.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "imc/compose.hpp"
#include "imc/imc_io.hpp"
#include "lts/lts_io.hpp"
#include "markov/absorption.hpp"
#include "markov/rewards.hpp"

namespace {

using namespace multival;
using namespace multival::markov;

// --- accumulated rewards ------------------------------------------------------

TEST(Rewards, AccumulatedRewardGeneralisesExpectedTime) {
  // With unit rewards the accumulated reward equals the absorption time.
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 2.0);
  c.add_transition(1, 2, 4.0);
  const std::vector<double> unit(3, 1.0);
  const auto acc = expected_accumulated_reward(c, unit);
  const auto time = expected_time_to_absorption(c);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(acc[s]),
              std::bit_cast<std::uint64_t>(time[s]));
  }
}

TEST(Rewards, AccumulatedRewardWeightsStates) {
  // Reward 3 while in state 0 (sojourn 1/2), 0 elsewhere: total 1.5.
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 2.0);
  const std::vector<double> r{3.0, 0.0};
  const auto acc = expected_accumulated_reward(c, r);
  EXPECT_NEAR(acc[0], 1.5, 1e-12);
  EXPECT_DOUBLE_EQ(acc[1], 0.0);
}

TEST(Rewards, AccumulatedRewardInfiniteWithoutAbsorption) {
  Ctmc loop;
  loop.add_states(2);
  loop.add_transition(0, 1, 1.0);
  loop.add_transition(1, 0, 1.0);
  // Absorbs with probability 1 - 1e-11 only: 0 -> 2 escapes into the
  // closed cycle 2 <-> 3, so absorption is not almost sure.
  Ctmc escape;
  escape.add_states(4);
  escape.add_transition(0, 1, 1.0);
  escape.add_transition(0, 2, 1e-11);
  escape.add_transition(2, 3, 1.0);
  escape.add_transition(3, 2, 1.0);
  for (const Ctmc* c : {&loop, &escape}) {
    const std::vector<double> unit(c->num_states(), 1.0);
    EXPECT_TRUE(std::isinf(expected_accumulated_reward(*c, unit)[0]));
    EXPECT_TRUE(std::isinf(expected_transition_count(*c, "*")[0]));
    EXPECT_TRUE(std::isinf(expected_time_to_absorption(*c)[0]));
  }
}

TEST(Rewards, StatesEarningNothingAreCertified) {
  // 0 -b-> 1 at 0.3 and at 3.5, 1 -a-> 0 at 7.1, 1 -a-> 2 (absorbing) at
  // 0.3.  State 0 earns nothing per a jump and cannot absorb in one jump,
  // so the optimistic upper start needs the expected-time weight there.
  // Every visit of 1 ends in one a jump and absorbs with probability
  // 0.3/7.4: 7.4/0.3 = 74/3 a jumps and 74/3 visits of mean 1/7.4 in 1,
  // from either state.
  Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 0.3, "b");
  c.add_transition(0, 1, 3.5, "b");
  c.add_transition(1, 0, 7.1, "a");
  c.add_transition(1, 2, 0.3, "a");
  const auto as = expected_transition_count(c, "a");
  EXPECT_NEAR(as[0], 74.0 / 3.0, 1e-12 * 74.0 / 3.0);
  EXPECT_NEAR(as[1], 74.0 / 3.0, 1e-12 * 74.0 / 3.0);
  const std::vector<double> in_one{0.0, 1.0, 0.0};
  const auto time_in_one = expected_accumulated_reward(c, in_one);
  EXPECT_NEAR(time_in_one[0], 10.0 / 3.0, 1e-12 * 10.0 / 3.0);
  EXPECT_NEAR(time_in_one[1], 10.0 / 3.0, 1e-12 * 10.0 / 3.0);
  // A label that never fires earns nothing anywhere.
  for (const double none : expected_transition_count(c, "c")) {
    EXPECT_EQ(none, 0.0);
  }
}

TEST(Rewards, TransitionCountGeometric) {
  // State 0 retries (label "retry", rate 3) or succeeds (rate 1):
  // E[#retry] = 3 (geometric with success prob 1/4).
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 0, 3.0, "retry");
  c.add_transition(0, 1, 1.0, "done");
  const auto retries = expected_transition_count(c, "retry");
  EXPECT_NEAR(retries[0], 3.0, 1e-9);
  const auto dones = expected_transition_count(c, "done");
  EXPECT_NEAR(dones[0], 1.0, 1e-9);
}

TEST(Rewards, TransitionCountAlongChain) {
  Ctmc c;
  c.add_states(4);
  c.add_transition(0, 1, 1.0, "hop");
  c.add_transition(1, 2, 1.0, "hop");
  c.add_transition(2, 3, 1.0, "other");
  const auto hops = expected_transition_count(c, "hop");
  EXPECT_NEAR(hops[0], 2.0, 1e-9);
  EXPECT_NEAR(hops[1], 1.0, 1e-9);
  EXPECT_NEAR(hops[2], 0.0, 1e-9);
}

TEST(Rewards, SizeMismatchThrows) {
  Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  const std::vector<double> bad{1.0};
  EXPECT_THROW((void)expected_accumulated_reward(c, bad),
               std::invalid_argument);
  // The lower bound starts at 0, so every reward must be finite and >= 0.
  for (const double r : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    const std::vector<double> reward{r, 0.0};
    EXPECT_THROW((void)expected_accumulated_reward(c, reward),
                 std::invalid_argument);
  }
}

// --- IMC textual I/O -------------------------------------------------------------

TEST(ImcIo, RoundTrip) {
  imc::Imc m;
  m.add_states(3);
  m.add_interactive(0, "GO !1", 1);
  m.add_markovian(1, 2.5, 2, "serve");
  m.add_markovian(2, 0.5, 0);
  m.set_initial_state(0);
  const imc::Imc back = imc::from_aut(imc::to_aut(m));
  EXPECT_EQ(back.num_states(), 3u);
  EXPECT_EQ(back.num_interactive(), 1u);
  EXPECT_EQ(back.num_markovian(), 2u);
  ASSERT_EQ(back.markovian(1).size(), 1u);
  EXPECT_DOUBLE_EQ(back.markovian(1)[0].rate, 2.5);
  EXPECT_EQ(back.markovian(1)[0].label, "serve");
  EXPECT_DOUBLE_EQ(back.markovian(2)[0].rate, 0.5);
  EXPECT_TRUE(back.markovian(2)[0].label.empty());
}

TEST(ImcIo, PlainAutLoadsAsInteractive) {
  const imc::Imc m = imc::from_aut("des (0, 2, 2)\n(0, \"A\", 1)\n(1, i, 0)\n");
  EXPECT_EQ(m.num_interactive(), 2u);
  EXPECT_EQ(m.num_markovian(), 0u);
}

TEST(ImcIo, RateSyntax) {
  const imc::Imc m = imc::from_aut(
      "des (0, 2, 2)\n"
      "(0, \"rate 1.5\", 1)\n"
      "(1, \"POP !0; rate 2\", 0)\n");
  EXPECT_EQ(m.num_markovian(), 2u);
  EXPECT_EQ(m.markovian(1)[0].label, "POP !0");
}

TEST(ImcIo, BadRateRejected) {
  EXPECT_THROW((void)imc::from_aut("des (0, 1, 2)\n(0, \"rate zero\", 1)\n"),
               std::runtime_error);
  EXPECT_THROW((void)imc::from_aut("des (0, 1, 2)\n(0, \"rate -1\", 1)\n"),
               std::runtime_error);
}

TEST(ImcIo, OutOfRangeNumbersRejected) {
  for (const char* text : {"des (0, 1, 18446744073709551618)\n"
                           "(0, \"rate 1\", 18446744073709551617)\n",
                           "des (0, 1, 2)\n"
                           "(0, \"rate 1\", 18446744073709551617)\n",
                           "des (0, 0, 4294967296)\n"}) {
    EXPECT_THROW((void)imc::from_aut(text), std::runtime_error) << text;
  }
}

TEST(ImcIo, RoundTripPreservesSemantics) {
  imc::Imc m;
  m.add_states(2);
  m.add_markovian(0, 4.0, 1, "fire");
  const imc::Imc back = imc::from_aut(imc::to_aut(m));
  const auto a = imc::to_ctmc(m);
  const auto b = imc::to_ctmc(back);
  EXPECT_NEAR(markov::expected_absorption_time_from_initial(a.ctmc),
              markov::expected_absorption_time_from_initial(b.ctmc), 1e-12);
}

// --- DOT export ---------------------------------------------------------------------

TEST(Dot, BasicStructure) {
  lts::Lts l;
  l.add_states(2);
  l.add_transition(0, "GO \"x\"", 1);
  l.add_transition(1, "i", 0);
  const std::string dot = lts::to_dot(l);
  EXPECT_NE(dot.find("digraph lts"), std::string::npos);
  EXPECT_NE(dot.find("0 [shape=doublecircle]"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // tau edge
  EXPECT_NE(dot.find("GO \\\"x\\\""), std::string::npos);  // escaping
}

}  // namespace
