// Unit tests for the lts/ module: action table, LTS storage, analyses,
// composition operators and .aut I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/hash.hpp"
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

TEST(Product, HideNeverTouchesExit) {
  Lts l;
  l.add_states(2);
  l.add_transition(0, "exit", 1);
  const std::vector<std::string> gates{"exit"};
  const Lts h = hide(l, gates);
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
  const Lts p = parallel(a, b, {});
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
  const Lts p = parallel(a, b, {});
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
  const Lts p = parallel(a, b, {});
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

/// A random value-passing operand: labels "G !v" for G in @p gates and v in
/// [lo, lo + 3), plus "i" and "exit".  The labels are interned in a seeded
/// shuffle of that pool before any edge is added, so two operands hold
/// their shared labels under different ids.  Draws use raw mt19937 output,
/// whose sequence the standard fixes.
Lts random_operand(std::mt19937& rng, const std::vector<std::string>& gates,
                   int lo, std::size_t states) {
  std::vector<std::string> pool;
  for (const std::string& g : gates) {
    for (int v = lo; v < lo + 3; ++v) {
      pool.push_back(g + " !" + std::to_string(v));
    }
  }
  for (std::size_t k = pool.size(); k > 1; --k) {
    std::swap(pool[k - 1], pool[rng() % k]);
  }
  Lts l;
  l.add_states(states);
  std::vector<ActionId> ids{ActionTable::kTau, ActionTable::kExit};
  for (const std::string& label : pool) {
    ids.push_back(l.actions().intern(label));
  }
  for (std::size_t k = 0; k < states * 3; ++k) {
    // One draw per statement: argument evaluation order is unspecified.
    const auto src = static_cast<StateId>(rng() % states);
    const ActionId action = ids[rng() % ids.size()];
    l.add_transition(src, action, static_cast<StateId>(rng() % states));
  }
  l.set_initial_state(static_cast<StateId>(rng() % states));
  return l;
}

// Pins lts::parallel's output, action table included, on seeded operand
// pairs whose shared labels sit under different ids on the two sides, with
// labels on one side only, "i" and "exit", and sync sets naming "i" and a
// gate ("Z") that neither side performs.  On a mismatch the failure prints
// the line to paste, but only paste it when the change of output is
// intended.
TEST(ProductGolden, RandomJoinsMatchTheParent) {
  const std::map<std::string, std::string> golden = {
      {"sync", "ad556bb8f2d72dabedfc3b0534f05107"},
      {"sync A", "b548fbdd8eda752a50bdb92ea5569bfd"},
      {"sync A B", "afe5467b07d69ca50514b2f8bab7fa33"},
      {"sync A B C D Z", "2b618304fca3728efc7e745e396a5c7d"},
      {"sync B Z", "5d5d278b9ceec4d522132209841ad1c6"},
      {"sync C D", "eda1ad02740f7edaf4e99e151dd8e7bd"},
      {"sync i exit A", "c0d6d2ade64883215dd41bb98e6941f1"},
  };
  const std::vector<std::vector<std::string>> sync_sets = {
      {}, {"A"}, {"A", "B"}, {"C", "D"}, {"B", "Z"}, {"i", "exit", "A"},
      {"A", "B", "C", "D", "Z"}};
  std::map<std::string, multival::core::Hasher> h;
  for (std::uint32_t seed = 1; seed <= 70; ++seed) {
    std::mt19937 rng(seed);
    const Lts a = random_operand(rng, {"A", "B", "C"}, 0, 4 + seed % 5);
    const Lts b = random_operand(rng, {"D", "B", "A"}, 1, 3 + seed % 4);
    const std::vector<std::string>& sync = sync_sets[seed % sync_sets.size()];
    std::string name = "sync";
    for (const std::string& g : sync) {
      name += " " + g;
    }
    for (const Lts& p : {parallel(a, b, sync), parallel(b, a, sync)}) {
      multival::core::Hasher& d = h[name];
      hash_append(d, p);
      for (ActionId act = 0; act < p.actions().size(); ++act) {
        d.str(p.actions().name(act));
      }
    }
  }
  for (const auto& [name, hasher] : h) {
    const std::string actual = hasher.key().hex();
    const auto it = golden.find(name);
    if (it == golden.end() || it->second != actual) {
      ADD_FAILURE() << "digest changed: {\"" << name << "\", \"" << actual
                    << "\"},";
    }
  }
  EXPECT_EQ(h.size(), golden.size());
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
