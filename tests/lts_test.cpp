// Unit tests for the lts/ module: action table, LTS storage, analyses,
// composition operators and .aut I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "lts/action_table.hpp"
#include "lts/analysis.hpp"
#include "lts/lts.hpp"
#include "lts/lts_io.hpp"
#include "lts/product.hpp"

namespace {

using namespace multival::lts;

// --- ActionTable ---------------------------------------------------------

TEST(ActionTable, ReservedActions) {
  ActionTable t;
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.name(ActionTable::kTau), "i");
  EXPECT_EQ(t.name(ActionTable::kExit), "exit");
  EXPECT_TRUE(ActionTable::is_tau(ActionTable::kTau));
  EXPECT_TRUE(ActionTable::is_exit(ActionTable::kExit));
  EXPECT_FALSE(ActionTable::is_tau(ActionTable::kExit));
}

TEST(ActionTable, InternIsIdempotent) {
  ActionTable t;
  const ActionId a = t.intern("PUSH !1");
  const ActionId b = t.intern("PUSH !1");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.name(a), "PUSH !1");
  EXPECT_EQ(t.size(), 3u);
}

TEST(ActionTable, FindMissesUnknownLabels) {
  ActionTable t;
  EXPECT_FALSE(t.find("NOPE").has_value());
  t.intern("POP");
  ASSERT_TRUE(t.find("POP").has_value());
  EXPECT_EQ(t.name(*t.find("POP")), "POP");
}

TEST(ActionTable, EmptyLabelRejected) {
  ActionTable t;
  EXPECT_THROW(t.intern(""), std::invalid_argument);
}

TEST(ActionTable, NameOutOfRangeThrows) {
  ActionTable t;
  EXPECT_THROW((void)t.name(99), std::out_of_range);
}

TEST(ActionTable, VisibleLabelsExcludeTau) {
  ActionTable t;
  t.intern("A");
  t.intern("B");
  const auto vis = t.visible_labels();
  EXPECT_EQ(vis.size(), 3u);  // exit, A, B
  EXPECT_EQ(std::count(vis.begin(), vis.end(), "i"), 0);
}

// --- Lts storage ----------------------------------------------------------

TEST(Lts, AddStatesAndTransitions) {
  Lts l;
  const StateId s0 = l.add_state();
  const StateId s1 = l.add_state();
  l.add_transition(s0, "A", s1);
  l.add_transition(s1, "B", s0);
  EXPECT_EQ(l.num_states(), 2u);
  EXPECT_EQ(l.num_transitions(), 2u);
  ASSERT_EQ(l.out(s0).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(s0)[0].action), "A");
  EXPECT_EQ(l.out(s0)[0].dst, s1);
}

TEST(Lts, AddStatesBulk) {
  Lts l;
  const StateId first = l.add_states(5);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(l.num_states(), 5u);
  EXPECT_EQ(l.add_states(3), 5u);
}

TEST(Lts, BadStateRejected) {
  Lts l;
  l.add_state();
  EXPECT_THROW(l.add_transition(0, "A", 7), std::out_of_range);
  EXPECT_THROW(l.add_transition(7, "A", 0), std::out_of_range);
  EXPECT_THROW(l.set_initial_state(9), std::out_of_range);
  EXPECT_THROW((void)l.out(3), std::out_of_range);
}

TEST(Lts, BadActionIdRejected) {
  Lts l;
  l.add_state();
  EXPECT_THROW(l.add_transition(0, ActionId{42}, 0), std::out_of_range);
}

TEST(Lts, AllTransitionsFlatten) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "B", 2);
  l.add_transition(2, "i", 0);
  const auto ts = l.all_transitions();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].src, 0u);
  EXPECT_EQ(ts[2].action, ActionTable::kTau);
}

TEST(Lts, PredecessorsInvertEdges) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 2);
  l.add_transition(1, "B", 2);
  const auto preds = l.predecessors();
  EXPECT_TRUE(preds[0].empty());
  ASSERT_EQ(preds[2].size(), 2u);
  EXPECT_EQ(preds[2][0].dst, 0u);  // predecessor stored in dst slot
  EXPECT_EQ(preds[2][1].dst, 1u);
}

TEST(Lts, DeadlockPredicate) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  EXPECT_FALSE(l.is_deadlock(0));
  EXPECT_TRUE(l.is_deadlock(1));
}

// --- Analyses --------------------------------------------------------------

TEST(Analysis, ReachabilityAndTrim) {
  Lts l;
  l.add_states(4);
  l.add_transition(0, "A", 1);
  l.add_transition(2, "B", 3);  // unreachable island
  l.set_initial_state(0);
  const auto seen = reachable_states(l);
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  EXPECT_FALSE(seen[2]);
  const TrimResult t = trim(l);
  EXPECT_EQ(t.lts.num_states(), 2u);
  EXPECT_EQ(t.removed_states, 2u);
  EXPECT_EQ(t.old_to_new[2], kNoState);
  EXPECT_EQ(t.lts.num_transitions(), 1u);
}

TEST(Analysis, TrimPreservesInitialState) {
  Lts l;
  l.add_states(3);
  l.add_transition(1, "A", 2);
  l.set_initial_state(1);
  const TrimResult t = trim(l);
  EXPECT_EQ(t.lts.initial_state(), t.old_to_new[1]);
  EXPECT_EQ(t.lts.num_states(), 2u);
}

TEST(Analysis, DeadlockStates) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "B", 2);
  l.add_transition(1, "C", 0);
  const auto d = deadlock_states(l);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], 2u);
}

TEST(Analysis, SccOnCycle) {
  Lts l;
  l.add_states(4);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "A", 2);
  l.add_transition(2, "A", 0);
  l.add_transition(2, "A", 3);
  const SccResult r = strongly_connected_components(l);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(r.component_of[0], r.component_of[1]);
  EXPECT_EQ(r.component_of[1], r.component_of[2]);
  EXPECT_NE(r.component_of[0], r.component_of[3]);
}

TEST(Analysis, SccSingletons) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "A", 2);
  const SccResult r = strongly_connected_components(l);
  EXPECT_EQ(r.num_components, 3u);
}

TEST(Analysis, TauCycleDetection) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "i", 1);
  l.add_transition(1, "i", 0);
  l.add_transition(1, "A", 2);
  EXPECT_TRUE(has_tau_cycle(l));
  const auto div = divergent_states(l);
  EXPECT_EQ(div.size(), 2u);
}

TEST(Analysis, TauSelfLoopIsDivergent) {
  Lts l;
  l.add_states(1);
  l.add_transition(0, "i", 0);
  EXPECT_TRUE(has_tau_cycle(l));
}

TEST(Analysis, VisibleCycleIsNotLivelock) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "B", 0);
  EXPECT_FALSE(has_tau_cycle(l));
}

TEST(Analysis, UnreachableTauCycleIgnored) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 0);
  l.add_transition(1, "i", 2);
  l.add_transition(2, "i", 1);
  l.set_initial_state(0);
  EXPECT_TRUE(divergent_states(l).empty());
}

TEST(Analysis, UsedActions) {
  Lts l;
  l.add_states(2);
  l.actions().intern("UNUSED");
  l.add_transition(0, "A", 1);
  const auto used = used_actions(l);
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(l.actions().name(used[0]), "A");
}

// --- label_gate / hide / rename ---------------------------------------------

TEST(Product, LabelGate) {
  EXPECT_EQ(label_gate("PUSH !1 !2"), "PUSH");
  EXPECT_EQ(label_gate("POP"), "POP");
}

TEST(Product, HideMapsGateToTau) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "PUSH !1", 1);
  l.add_transition(1, "POP !1", 0);
  const std::vector<std::string> gates{"PUSH"};
  const Lts h = hide(l, gates);
  EXPECT_EQ(h.actions().name(h.out(0)[0].action), "i");
  EXPECT_EQ(h.actions().name(h.out(1)[0].action), "POP !1");
}

TEST(Product, HideAllBut) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "B", 1);
  const std::vector<std::string> keep{"A"};
  const Lts h = hide_all_but(l, keep);
  EXPECT_EQ(h.actions().name(h.out(0)[0].action), "A");
  EXPECT_EQ(h.actions().name(h.out(0)[1].action), "i");
}

TEST(Product, HideNeverTouchesExit) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "exit", 1);
  const std::vector<std::string> none{};
  const Lts h = hide_all_but(l, none);
  EXPECT_EQ(h.actions().name(h.out(0)[0].action), "exit");
}

TEST(Product, RenamePreservesOffers) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "SEND !3", 1);
  const Lts r = rename(l, {{"SEND", "PUT"}});
  EXPECT_EQ(r.actions().name(r.out(0)[0].action), "PUT !3");
}

// --- parallel composition ----------------------------------------------------

// A one-place buffer on gates IN/OUT.
Lts one_place_buffer(const std::string& in, const std::string& out) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, std::string_view(in), 1);
  l.add_transition(1, std::string_view(out), 0);
  l.set_initial_state(0);
  return l;
}

TEST(Product, PipelineSynchronises) {
  // IN -> [buf] -MID-> [buf] -> OUT, synchronising on MID.
  const Lts a = one_place_buffer("IN", "MID");
  const Lts b = one_place_buffer("MID", "OUT");
  const std::vector<std::string> sync{"MID"};
  const Lts p = parallel(a, b, sync);
  // Reachable states: 00, 10, 01, 11 -> 4 states.
  EXPECT_EQ(p.num_states(), 4u);
  // From 00 only IN is possible.
  ASSERT_EQ(p.out(p.initial_state()).size(), 1u);
  EXPECT_EQ(p.actions().name(p.out(p.initial_state())[0].action), "IN");
}

TEST(Product, InterleavingHasProductSize) {
  const Lts a = one_place_buffer("A1", "A2");
  const Lts b = one_place_buffer("B1", "B2");
  const Lts p = interleave(a, b);
  EXPECT_EQ(p.num_states(), 4u);
  EXPECT_EQ(p.num_transitions(), 8u);
}

TEST(Product, ValueMatchingOnSync) {
  Lts a;
  a.add_states(2);
  a.add_transition(0, "CH !1", 1);
  Lts b;
  b.add_states(3);
  b.add_transition(0, "CH !1", 1);
  b.add_transition(0, "CH !2", 2);
  const std::vector<std::string> sync{"CH"};
  const Lts p = parallel(a, b, sync);
  // Only CH !1 can synchronise.
  ASSERT_EQ(p.out(p.initial_state()).size(), 1u);
  EXPECT_EQ(p.actions().name(p.out(p.initial_state())[0].action), "CH !1");
}

TEST(Product, ExitAlwaysSynchronises) {
  Lts a;
  a.add_states(2);
  a.add_transition(0, "exit", 1);
  Lts b;
  b.add_states(2);
  b.add_transition(0, "exit", 1);
  const Lts p = interleave(a, b);
  ASSERT_EQ(p.out(p.initial_state()).size(), 1u);
  EXPECT_EQ(p.actions().name(p.out(p.initial_state())[0].action), "exit");
  EXPECT_EQ(p.num_states(), 2u);
}

TEST(Product, TauNeverSynchronises) {
  Lts a;
  a.add_states(2);
  a.add_transition(0, "i", 1);
  Lts b;
  b.add_states(2);
  b.add_transition(0, "i", 1);
  const Lts p = interleave(a, b);
  EXPECT_EQ(p.num_states(), 4u);
  EXPECT_EQ(p.num_transitions(), 4u);
}

TEST(Product, SyncWithoutPartnerBlocks) {
  Lts a;
  a.add_states(2);
  a.add_transition(0, "CH !1", 1);
  Lts b;
  b.add_states(2);
  b.add_transition(0, "CH !2", 1);
  const std::vector<std::string> sync{"CH"};
  const Lts p = parallel(a, b, sync);
  EXPECT_TRUE(p.is_deadlock(p.initial_state()));
  EXPECT_EQ(p.num_states(), 1u);
}

TEST(Product, ParallelAllFolds) {
  const Lts a = one_place_buffer("IN", "M1");
  const Lts b = one_place_buffer("M1", "M2");
  const Lts c = one_place_buffer("M2", "OUT");
  const std::vector<Lts> comps{a, b, c};
  const std::vector<std::string> sync{"M1", "M2"};
  const Lts p = parallel_all(comps, sync);
  EXPECT_EQ(p.num_states(), 8u);
  EXPECT_FALSE(p.is_deadlock(p.initial_state()));
}

TEST(Product, ParallelAllEmptyThrows) {
  const std::vector<Lts> comps;
  const std::vector<std::string> sync;
  EXPECT_THROW((void)parallel_all(comps, sync), std::invalid_argument);
}

TEST(Product, ParallelStopsAtStateCap) {
  // Two interleaved 10-state chains: a 100-state product.
  const auto chain = [](std::string_view label) {
    Lts l;
    l.add_states(10);
    for (StateId s = 0; s + 1 < 10; ++s) {
      l.add_transition(s, label, s + 1);
    }
    return l;
  };
  const Lts a = chain("A");
  const Lts b = chain("B");
  EXPECT_THROW((void)parallel(a, b, {}, 50), StateSpaceLimit);
  EXPECT_THROW((void)parallel(a, b, {}, 99), StateSpaceLimit);
  EXPECT_EQ(parallel(a, b, {}, 100).num_states(), 100u);
}

// --- .aut I/O -----------------------------------------------------------------

TEST(Io, RoundTrip) {
  Lts l;
  l.add_states(3);
  l.add_transition(0, "PUSH !1", 1);
  l.add_transition(1, "i", 2);
  l.add_transition(2, "POP !1", 0);
  l.set_initial_state(0);
  const Lts r = from_aut(to_aut(l));
  EXPECT_EQ(r.num_states(), 3u);
  EXPECT_EQ(r.num_transitions(), 3u);
  EXPECT_EQ(r.initial_state(), 0u);
  EXPECT_EQ(r.actions().name(r.out(1)[0].action), "i");
  EXPECT_EQ(r.actions().name(r.out(2)[0].action), "POP !1");
}

TEST(Io, HeaderFormat) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  const std::string text = to_aut(l);
  EXPECT_NE(text.find("des (0, 1, 2)"), std::string::npos);
}

TEST(Io, ParsesUnquotedLabels) {
  const Lts l = from_aut("des (0, 1, 2)\n(0, hello, 1)\n");
  EXPECT_EQ(l.actions().name(l.out(0)[0].action), "hello");
}

TEST(Io, RejectsMissingHeader) {
  EXPECT_THROW((void)from_aut("(0, a, 1)\n"), std::runtime_error);
}

TEST(Io, RejectsOutOfRangeStates) {
  EXPECT_THROW((void)from_aut("des (0, 1, 2)\n(0, a, 5)\n"),
               std::runtime_error);
  EXPECT_THROW((void)from_aut("des (9, 0, 2)\n"), std::runtime_error);
  // Numbers past 64 bits must not wrap into a different, valid model.
  EXPECT_THROW((void)from_aut("des (0, 1, 18446744073709551618)\n"
                              "(0, \"a\", 18446744073709551617)\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)from_aut("des (0, 1, 2)\n(0, \"a\", 18446744073709551617)\n"),
      std::runtime_error);
  // A state count past the StateId range is rejected before allocation.
  EXPECT_THROW((void)from_aut("des (0, 0, 4294967296)\n"), std::runtime_error);
}

TEST(Io, RejectsTruncatedInput) {
  EXPECT_THROW((void)from_aut("des (0, 2, 2)\n(0, a, 1)\n"),
               std::runtime_error);
}

TEST(Io, SkipsBlankLines) {
  const Lts l = from_aut("des (0, 1, 2)\n\n\n(0, \"a b\", 1)\n");
  EXPECT_EQ(l.num_transitions(), 1u);
  EXPECT_EQ(l.actions().name(l.out(0)[0].action), "a b");
}

}  // namespace
