// Targeted edge-case coverage across modules: empty systems, degenerate
// compositions, boundary parameters and error paths that the main suites
// do not reach.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "bisim/equivalence.hpp"
#include "bisim/trace.hpp"
#include "compose/pipeline.hpp"
#include "imc/compose.hpp"
#include "imc/imc_io.hpp"
#include "imc/lump.hpp"
#include "lts/analysis.hpp"
#include "lts/lts_io.hpp"
#include "lts/product.hpp"
#include "markov/absorption.hpp"
#include "markov/rewards.hpp"
#include "markov/transient.hpp"
#include "mc/evaluator.hpp"
#include "mc/properties.hpp"
#include "phase/phase_type.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace multival;
using lts::Lts;

// --- empty and single-state systems ----------------------------------------------

TEST(EdgeCases, EmptyLtsEverywhere) {
  Lts empty;
  EXPECT_EQ(lts::trim(empty).lts.num_states(), 0u);
  EXPECT_TRUE(lts::deadlock_states(empty).empty());
  EXPECT_FALSE(lts::has_tau_cycle(empty));
  EXPECT_EQ(bisim::minimize(empty, bisim::Equivalence::kStrong)
                .quotient.num_states(),
            0u);
  EXPECT_EQ(bisim::determinize(empty).num_states(), 0u);
  const std::vector<std::string> gates{"A"};
  EXPECT_EQ(lts::hide(empty, gates).num_states(), 0u);
  EXPECT_TRUE(mc::check(empty, mc::deadlock_freedom()));
  // Two empty systems are equivalent under every notion.
  EXPECT_TRUE(bisim::equivalent(empty, empty, bisim::Equivalence::kWeak));
}

TEST(EdgeCases, SingleStateNoTransitions) {
  Lts one;
  one.add_state();
  EXPECT_FALSE(mc::check(one, mc::deadlock_freedom()));
  const auto r = bisim::minimize(one, bisim::Equivalence::kBranching);
  EXPECT_EQ(r.quotient.num_states(), 1u);
  EXPECT_EQ(lts::to_aut(r.quotient), "des (0, 0, 1)\n");
}

TEST(EdgeCases, EmptyImc) {
  imc::Imc empty;
  EXPECT_EQ(imc::maximal_progress(empty).num_states(), 0u);
  EXPECT_EQ(imc::hide_all(empty).num_states(), 0u);
  EXPECT_EQ(imc::trim(empty).num_states(), 0u);
  EXPECT_EQ(imc::lump_strong(empty).num_blocks(), 0u);
  const auto e = imc::to_ctmc(empty);
  EXPECT_EQ(e.ctmc.num_states(), 0u);
}

// --- composition corners -----------------------------------------------------------

TEST(EdgeCases, ParallelWithSelf) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "A", 0);
  const std::vector<std::string> sync{"A"};
  const Lts p = lts::parallel(l, l, sync);
  // Fully synchronised with itself: isomorphic to the original.
  EXPECT_TRUE(bisim::equivalent(p, l, bisim::Equivalence::kStrong));
}

TEST(EdgeCases, HideEverythingThenMinimise) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "B", 2);
  l.add_transition(2, "C", 0);
  const std::vector<std::string> gates{"A", "B", "C"};
  const Lts h = lts::hide(l, gates);
  // All tau, one cycle: divergence-blind branching collapses to one silent
  // state; divergence-sensitive keeps the livelock visible as a tau loop.
  const auto blind = bisim::minimize(h, bisim::Equivalence::kBranching);
  EXPECT_EQ(blind.quotient.num_states(), 1u);
  EXPECT_EQ(blind.quotient.num_transitions(), 0u);
  const auto div =
      bisim::minimize(h, bisim::Equivalence::kDivergenceBranching);
  EXPECT_EQ(div.quotient.num_transitions(), 1u);
}

TEST(EdgeCases, RenameToExistingGateMergesLabels) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "B", 1);
  const Lts r = lts::rename(l, {{"A", "B"}});
  const auto used = lts::used_actions(r);
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(r.actions().name(used[0]), "B");
}

TEST(EdgeCases, ImcParallelPreservesMarkovianLabels) {
  imc::Imc a;
  a.add_states(2);
  a.add_markovian(0, 1.5, 1, "probe");
  imc::Imc b;
  b.add_states(1);
  const std::vector<std::string> none{};
  const imc::Imc p = imc::parallel(a, b, none);
  ASSERT_EQ(p.markovian(p.initial_state()).size(), 1u);
  EXPECT_EQ(p.markovian(p.initial_state())[0].label, "probe");
}

// --- compose pipeline corners ----------------------------------------------------------

TEST(EdgeCases, PipelineSingleLeaf) {
  Lts l;
  l.add_states(1);
  l.add_transition(0, "A", 0);
  compose::EvalStats stats;
  const Lts out =
      compose::evaluate(compose::leaf(l, "only"), true, &stats);
  EXPECT_EQ(out.num_states(), 1u);
  EXPECT_EQ(stats.peak_states, 1u);
  ASSERT_EQ(stats.steps.size(), 1u);
  EXPECT_EQ(stats.steps[0].description, "generate only");
}

TEST(EdgeCases, MinimizeNodeIsNoOpWithoutFlag) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "i", 1);
  l.add_transition(1, "A", 1);
  auto tree = compose::minimize_here(compose::leaf(l, "x"));
  const Lts kept = compose::evaluate(tree, false);
  EXPECT_EQ(kept.num_states(), 2u);
  const Lts reduced = compose::evaluate(tree, true);
  EXPECT_EQ(reduced.num_states(), 1u);
}

// --- solver corners ------------------------------------------------------------------------

TEST(EdgeCases, SingleAbsorbingStateChain) {
  markov::Ctmc c;
  c.add_state();
  const auto pi = markov::steady_state(c);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
  EXPECT_DOUBLE_EQ(markov::expected_absorption_time_from_initial(c), 0.0);
  EXPECT_DOUBLE_EQ(markov::absorption_probability_by(c, 1.0), 1.0);
}

TEST(EdgeCases, TransientAtHugeRateGap) {
  // Stiff chain: rates spanning 5 orders of magnitude still give a valid
  // distribution (uniformisation handles the gap).
  markov::Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 1e4);
  c.add_transition(1, 2, 0.1);
  const auto pi = markov::transient_distribution(c, 1.0);
  double sum = 0.0;
  for (const double p : pi) {
    EXPECT_GE(p, -1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(EdgeCases, RewardsOnAbsorbingInitialState) {
  markov::Ctmc c;
  c.add_states(2);
  c.add_transition(1, 0, 1.0);  // initial state 0 already absorbing
  const std::vector<double> unit(2, 1.0);
  EXPECT_DOUBLE_EQ(markov::expected_accumulated_reward(c, unit)[0], 0.0);
  EXPECT_DOUBLE_EQ(markov::expected_transition_count(c, "*")[0], 0.0);
}

// --- phase-type corners ---------------------------------------------------------------------

TEST(EdgeCases, ErlangOneIsExponential) {
  const auto e1 = phase::PhaseType::erlang(1, 3.0);
  const auto ex = phase::PhaseType::exponential(3.0);
  EXPECT_DOUBLE_EQ(e1.mean(), ex.mean());
  EXPECT_DOUBLE_EQ(e1.cv2(), ex.cv2());
  EXPECT_NEAR(e1.cdf(0.7), ex.cdf(0.7), 1e-12);
}

TEST(EdgeCases, HypoSingleStage) {
  const auto h = phase::PhaseType::hypoexponential({2.0});
  EXPECT_DOUBLE_EQ(h.mean(), 0.5);
  EXPECT_DOUBLE_EQ(h.cv2(), 1.0);
}

// --- simulator corners -----------------------------------------------------------------------

TEST(EdgeCases, SimulatorOnAbsorbingChainStopsCleanly) {
  markov::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 5.0);
  sim::SimOptions opts;
  opts.horizon = 100.0;
  opts.batches = 5;
  const std::vector<double> reward{0.0, 1.0};
  // Once absorbed, the remaining time accrues reward 1: the long-run mean
  // is ~1.
  const auto e = sim::simulate_steady_reward(c, reward, opts);
  EXPECT_GT(e.mean, 0.95);
}

TEST(EdgeCases, SimulatorRejectsSingleBatch) {
  markov::Ctmc c;
  c.add_state();
  sim::SimOptions opts;
  opts.batches = 1;
  const std::vector<double> r{1.0};
  EXPECT_THROW((void)sim::simulate_steady_reward(c, r, opts),
               std::invalid_argument);
}

// --- IMC I/O corner -----------------------------------------------------------------------------

TEST(EdgeCases, ImcIoLabelContainingSemicolonRoundTrips) {
  imc::Imc m;
  m.add_states(2);
  m.add_markovian(0, 2.0, 1, "POP !1");
  const imc::Imc back = imc::from_aut(imc::to_aut(m));
  ASSERT_EQ(back.num_markovian(), 1u);
  EXPECT_EQ(back.markovian(0)[0].label, "POP !1");
  EXPECT_DOUBLE_EQ(back.markovian(0)[0].rate, 2.0);
}

}  // namespace
