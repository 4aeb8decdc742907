// Unit and property tests for the bisim/ module.
#include <gtest/gtest.h>

#include <random>

#include "bisim/branching.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/partition.hpp"
#include "bisim/strong.hpp"
#include "lts/analysis.hpp"
#include "lts/product.hpp"

namespace {

using namespace multival;
using namespace multival::bisim;
using lts::Lts;
using lts::StateId;

// --- Partition --------------------------------------------------------------

TEST(Partition, TrivialPartition) {
  Partition p(4);
  EXPECT_EQ(p.num_blocks(), 1u);
  EXPECT_EQ(p.num_states(), 4u);
  EXPECT_EQ(p.block_of(3), 0u);
}

TEST(Partition, EmptyPartition) {
  Partition p(0);
  EXPECT_EQ(p.num_blocks(), 0u);
}

TEST(Partition, NormalizeCompactsIds) {
  Partition p({5, 5, 2, 9}, 10);
  EXPECT_EQ(p.normalize(), 3u);
  EXPECT_EQ(p.block_of(0), p.block_of(1));
  EXPECT_NE(p.block_of(0), p.block_of(2));
}

TEST(Partition, RejectsOutOfRangeBlocks) {
  EXPECT_THROW(Partition({0, 3}, 2), std::invalid_argument);
}

// --- Strong bisimulation ------------------------------------------------------

// Two parallel "coin" states with identical behaviour must merge.
TEST(Strong, MergesTwinStates) {
  Lts l;
  l.add_states(4);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "A", 2);
  l.add_transition(1, "B", 3);
  l.add_transition(2, "B", 3);
  const MinimizeResult r = minimize_strong(l);
  EXPECT_EQ(r.quotient.num_states(), 3u);
  EXPECT_EQ(r.partition.block_of(1), r.partition.block_of(2));
}

TEST(Strong, DistinguishesByLabel) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "A", 2);
  l.add_transition(1, "B", 1);
  l.add_transition(2, "C", 2);
  const MinimizeResult r = minimize_strong(l);
  EXPECT_EQ(r.quotient.num_states(), 3u);
  EXPECT_NE(r.partition.block_of(1), r.partition.block_of(2));
}

TEST(Strong, CycleUnrollingCollapses) {
  // A 4-cycle of "A" actions is strongly bisimilar to a 1-cycle.
  Lts l;
  l.add_states(4);
  for (StateId s = 0; s < 4; ++s) {
    l.add_transition(s, "A", (s + 1) % 4);
  }
  const MinimizeResult r = minimize_strong(l);
  EXPECT_EQ(r.quotient.num_states(), 1u);
  EXPECT_EQ(r.quotient.num_transitions(), 1u);
}

TEST(Strong, TauIsAnOrdinaryLabel) {
  // Strong bisimulation does NOT abstract from tau.
  Lts a;
  a.add_states(2);
  a.add_transition(0, "i", 1);
  a.add_transition(1, "B", 1);
  Lts b;
  b.add_states(1);
  b.add_transition(0, "B", 0);
  EXPECT_FALSE(equivalent(a, b, Equivalence::kStrong));
}

TEST(Strong, RespectsInitialPartition) {
  // Twin deadlock states forced apart by the initial partition (used for
  // reward-compatible lumping).
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "A", 2);
  const Partition init({0, 1, 2}, 3);
  const Partition p = strong_partition(l, init);
  EXPECT_NE(p.block_of(1), p.block_of(2));
  const Partition trivial = strong_partition(l);
  EXPECT_EQ(trivial.block_of(1), trivial.block_of(2));
}

TEST(Strong, QuotientDeduplicatesTransitions) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "A", 2);
  l.add_transition(1, "B", 0);
  l.add_transition(2, "B", 0);
  const MinimizeResult r = minimize_strong(l);
  EXPECT_EQ(r.quotient.num_states(), 2u);
  EXPECT_EQ(r.quotient.num_transitions(), 2u);
}

// --- Branching bisimulation ---------------------------------------------------

TEST(Branching, InertTauCollapses) {
  // s0 -i-> s1 -A-> s2 : s0 and s1 are branching bisimilar.
  Lts l;
  l.add_states(3);
  l.add_transition(0, "i", 1);
  l.add_transition(1, "A", 2);
  const MinimizeResult r = minimize_branching(l);
  EXPECT_EQ(r.partition.block_of(0), r.partition.block_of(1));
  EXPECT_EQ(r.quotient.num_states(), 2u);
  EXPECT_EQ(r.quotient.num_transitions(), 1u);
}

TEST(Branching, NonInertTauPreserved) {
  // s0 -i-> s1 (deadlock), s0 -A-> s2: the tau discards the A option, so it
  // is observable and must survive minimisation.
  Lts l;
  l.add_states(3);
  l.add_transition(0, "i", 1);
  l.add_transition(0, "A", 2);
  const MinimizeResult r = minimize_branching(l);
  EXPECT_NE(r.partition.block_of(0), r.partition.block_of(1));
  // The two deadlock states merge, but the observable tau must survive.
  EXPECT_EQ(r.quotient.num_states(), 2u);
  bool has_tau = false;
  for (const auto& e : r.quotient.out(r.quotient.initial_state())) {
    has_tau = has_tau || lts::ActionTable::is_tau(e.action);
  }
  EXPECT_TRUE(has_tau);
}

TEST(Branching, TauCycleCollapses) {
  // tau cycle between 0,1 with an exit 1 -A-> 2: all-cycle states merge
  // (divergence-blind).
  Lts l;
  l.add_states(3);
  l.add_transition(0, "i", 1);
  l.add_transition(1, "i", 0);
  l.add_transition(1, "A", 2);
  const MinimizeResult r = minimize_branching(l);
  EXPECT_EQ(r.partition.block_of(0), r.partition.block_of(1));
  EXPECT_EQ(r.quotient.num_states(), 2u);
}

TEST(Branching, DivergenceBlindMergesLivelockWithDeadlock) {
  Lts a;
  a.add_states(1);
  a.add_transition(0, "i", 0);  // livelock
  Lts b;
  b.add_states(1);  // deadlock
  EXPECT_TRUE(equivalent(a, b, Equivalence::kBranching));
  EXPECT_FALSE(equivalent(a, b, Equivalence::kDivergenceBranching));
}

TEST(Branching, DivergenceSensitiveKeepsTauLoop) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "i", 0);
  l.add_transition(0, "A", 1);
  const MinimizeResult r =
      minimize_branching(l, BranchingOptions{/*divergence_sensitive=*/true});
  // The divergent block must keep a tau self-loop.
  bool has_tau_loop = false;
  for (const auto& e : r.quotient.out(r.quotient.initial_state())) {
    if (lts::ActionTable::is_tau(e.action) &&
        e.dst == r.quotient.initial_state()) {
      has_tau_loop = true;
    }
  }
  EXPECT_TRUE(has_tau_loop);
}

TEST(Branching, DivergenceReachableThroughInertTauMerges) {
  // s0 -i-> s1, s1 -i-> s1: s0 can silently reach the divergence, so
  // s0 ~ s1 even divergence-sensitively.
  Lts l;
  l.add_states(2);
  l.add_transition(0, "i", 1);
  l.add_transition(1, "i", 1);
  const Partition p =
      branching_partition(l, BranchingOptions{/*divergence_sensitive=*/true});
  EXPECT_EQ(p.block_of(0), p.block_of(1));
}

TEST(Branching, ClassicCounterexampleToWeakEquality) {
  // a.(b + c) vs a.(b + i.c): branching inequivalent because the tau
  // resolves the choice.
  Lts x;  // a.(b + c)
  x.add_states(3);
  x.add_transition(0, "a", 1);
  x.add_transition(1, "b", 2);
  x.add_transition(1, "c", 2);
  Lts y;  // a.(b + i.c)
  y.add_states(4);
  y.add_transition(0, "a", 1);
  y.add_transition(1, "b", 2);
  y.add_transition(1, "i", 3);
  y.add_transition(3, "c", 2);
  EXPECT_FALSE(equivalent(x, y, Equivalence::kBranching));
}

TEST(Branching, TauChainBeforeSingleActionCollapses) {
  // i.i.i.a  ~branching~  a
  Lts x;
  x.add_states(4);
  x.add_transition(0, "i", 1);
  x.add_transition(1, "i", 2);
  x.add_transition(2, "a", 3);
  Lts y;
  y.add_states(2);
  y.add_transition(0, "a", 1);
  EXPECT_TRUE(equivalent(x, y, Equivalence::kBranching));
  EXPECT_TRUE(equivalent(x, y, Equivalence::kDivergenceBranching));
  EXPECT_FALSE(equivalent(x, y, Equivalence::kStrong));
}

Lts random_lts(std::uint32_t seed, std::size_t num_states,
               std::size_t num_labels, double tau_fraction) {
  std::mt19937 rng(seed);
  Lts l;
  l.add_states(num_states);
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < num_labels; ++i) {
    labels.push_back(std::string("L").append(std::to_string(i)));
  }
  std::uniform_int_distribution<StateId> state(
      0, static_cast<StateId>(num_states - 1));
  std::uniform_int_distribution<std::size_t> label(0, num_labels - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::size_t num_edges = num_states * 2;
  for (std::size_t i = 0; i < num_edges; ++i) {
    const StateId src = state(rng);
    const StateId dst = state(rng);
    if (coin(rng) < tau_fraction) {
      l.add_transition(src, "i", dst);
    } else {
      l.add_transition(src, std::string_view(labels[label(rng)]), dst);
    }
  }
  l.set_initial_state(0);
  return l;
}

// --- weak (observational) bisimulation ------------------------------------------

TEST(Weak, TauPrefixAbsorbed) {
  // a.tau.b  ~weak~  a.b, but not strongly.
  Lts x;
  x.add_states(4);
  x.add_transition(0, "a", 1);
  x.add_transition(1, "i", 2);
  x.add_transition(2, "b", 3);
  Lts y;
  y.add_states(3);
  y.add_transition(0, "a", 1);
  y.add_transition(1, "b", 2);
  EXPECT_TRUE(equivalent(x, y, Equivalence::kWeak));
  EXPECT_FALSE(equivalent(x, y, Equivalence::kStrong));
}

TEST(Weak, CoarserThanBranchingOnCanonicalExample) {
  // B1 = a.(b + tau.c)   vs   B2 = a.(b + tau.c) + a.c:
  // weakly bisimilar, not branching bisimilar (van Glabbeek-Weijland).
  Lts b1;
  b1.add_states(4);
  b1.add_transition(0, "a", 1);
  b1.add_transition(1, "b", 3);
  b1.add_transition(1, "i", 2);
  b1.add_transition(2, "c", 3);
  Lts b2 = b1;
  const lts::StateId extra = b2.add_state();
  b2.add_transition(0, "a", extra);
  b2.add_transition(extra, "c", 3);
  EXPECT_TRUE(equivalent(b1, b2, Equivalence::kWeak));
  EXPECT_FALSE(equivalent(b1, b2, Equivalence::kBranching));
}

TEST(Weak, StillDistinguishesDecidingTau) {
  // a.(b + c) vs a.(b + i.c): the tau discards b, so even weak
  // bisimulation separates them.
  Lts x;
  x.add_states(3);
  x.add_transition(0, "a", 1);
  x.add_transition(1, "b", 2);
  x.add_transition(1, "c", 2);
  Lts y;
  y.add_states(4);
  y.add_transition(0, "a", 1);
  y.add_transition(1, "b", 2);
  y.add_transition(1, "i", 3);
  y.add_transition(3, "c", 2);
  EXPECT_FALSE(equivalent(x, y, Equivalence::kWeak));
}

TEST(Weak, MinimizeCollapsesTauChain) {
  Lts l;
  l.add_states(4);
  l.add_transition(0, "i", 1);
  l.add_transition(1, "i", 2);
  l.add_transition(2, "A", 3);
  const MinimizeResult r = minimize(l, Equivalence::kWeak);
  EXPECT_EQ(r.quotient.num_states(), 2u);
  EXPECT_TRUE(equivalent(l, r.quotient, Equivalence::kWeak));
}

TEST(Weak, SpectrumOrdering) {
  // strong refines weak refines (is coarser than) ... on random systems:
  // |strong quotient| >= |branching quotient| >= |weak quotient|.
  for (std::uint32_t seed = 0; seed < 6; ++seed) {
    const Lts l = random_lts(seed, 30, 3, 0.3);
    const auto s = minimize(l, Equivalence::kStrong).quotient.num_states();
    const auto b = minimize(l, Equivalence::kBranching).quotient.num_states();
    const auto w = minimize(l, Equivalence::kWeak).quotient.num_states();
    EXPECT_GE(s, b);
    EXPECT_GE(b, w);
  }
}

// --- Equivalence checking -------------------------------------------------------

TEST(Equivalence, IdenticalLtsAreEquivalent) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "B", 0);
  for (const auto e : {Equivalence::kStrong, Equivalence::kBranching,
                       Equivalence::kDivergenceBranching}) {
    EXPECT_TRUE(equivalent(l, l, e)) << to_string(e);
  }
}

TEST(Equivalence, DifferentTracesNotEquivalent) {
  Lts a;
  a.add_states(2);
  a.add_transition(0, "A", 1);
  Lts b;
  b.add_states(2);
  b.add_transition(0, "B", 1);
  EXPECT_FALSE(equivalent(a, b, Equivalence::kStrong));
  EXPECT_FALSE(equivalent(a, b, Equivalence::kBranching));
}

TEST(Equivalence, ToStringNames) {
  EXPECT_STREQ(to_string(Equivalence::kStrong), "strong");
  EXPECT_STREQ(to_string(Equivalence::kBranching), "branching");
  EXPECT_STREQ(to_string(Equivalence::kDivergenceBranching), "divbranching");
}

TEST(Equivalence, DisjointUnionLayout) {
  Lts a;
  a.add_states(2);
  a.add_transition(0, "A", 1);
  Lts b;
  b.add_states(3);
  b.add_transition(0, "B", 2);
  const DisjointUnion u = disjoint_union(a, b);
  EXPECT_EQ(u.lts.num_states(), 5u);
  EXPECT_EQ(u.b_offset, 2u);
  EXPECT_EQ(u.lts.num_transitions(), 2u);
}

// --- Property-based: random LTSs ------------------------------------------------


class BisimProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BisimProperty, QuotientIsEquivalentToOriginal) {
  const Lts l = random_lts(GetParam(), 40, 3, 0.3);
  for (const auto e : {Equivalence::kStrong, Equivalence::kBranching,
                       Equivalence::kDivergenceBranching}) {
    const MinimizeResult r = minimize(l, e);
    EXPECT_TRUE(equivalent(l, r.quotient, e)) << to_string(e);
  }
}

TEST_P(BisimProperty, MinimizationIsIdempotent) {
  const Lts l = random_lts(GetParam(), 40, 3, 0.3);
  for (const auto e : {Equivalence::kStrong, Equivalence::kBranching,
                       Equivalence::kDivergenceBranching}) {
    const MinimizeResult once = minimize(l, e);
    const MinimizeResult twice = minimize(once.quotient, e);
    EXPECT_EQ(once.quotient.num_states(), twice.quotient.num_states())
        << to_string(e);
  }
}

TEST_P(BisimProperty, StrongRefinesBranching) {
  const Lts l = random_lts(GetParam(), 40, 3, 0.3);
  const std::size_t strong = minimize(l, Equivalence::kStrong)
                                 .quotient.num_states();
  const std::size_t div =
      minimize(l, Equivalence::kDivergenceBranching).quotient.num_states();
  const std::size_t branching =
      minimize(l, Equivalence::kBranching).quotient.num_states();
  EXPECT_GE(strong, div);
  EXPECT_GE(div, branching);
}

TEST_P(BisimProperty, UnionWithSelfIsEquivalent) {
  const Lts l = random_lts(GetParam(), 25, 3, 0.2);
  for (const auto e : {Equivalence::kStrong, Equivalence::kBranching,
                       Equivalence::kDivergenceBranching}) {
    EXPECT_TRUE(equivalent(l, l, e)) << to_string(e);
  }
}

TEST_P(BisimProperty, MinimizationIsCongruenceForParallel) {
  // minimize(a) || b  ~  a || b   (congruence of strong bisim w.r.t. ||).
  const Lts a = random_lts(GetParam(), 12, 3, 0.0);
  const Lts b = random_lts(GetParam() + 1000, 12, 3, 0.0);
  const std::vector<std::string> sync{"L0"};
  const MinimizeResult ra = minimize(a, Equivalence::kStrong);
  const Lts lhs = lts::parallel(ra.quotient, b, sync);
  const Lts rhs = lts::parallel(a, b, sync);
  EXPECT_TRUE(equivalent(lhs, rhs, Equivalence::kStrong));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BisimProperty,
                         ::testing::Range(0u, 12u));

}  // namespace
