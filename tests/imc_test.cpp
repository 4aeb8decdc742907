// Unit and integration tests for the imc/ module: composition, maximal
// progress, lumping, CTMC extraction — the heart of the performance flow.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/hash.hpp"
#include "fame/mpi.hpp"
#include "fame/topology.hpp"
#include "imc/compose.hpp"
#include "imc/imc.hpp"
#include "imc/imc_io.hpp"
#include "imc/lump.hpp"
#include "markov/absorption.hpp"
#include "markov/steady.hpp"
#include "phase/fit.hpp"
#include "proc/generator.hpp"

namespace {

using namespace multival;
using namespace multival::imc;

// --- basics -----------------------------------------------------------------

TEST(ImcBasics, AddAndQuery) {
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "A", 1);
  m.add_markovian(1, 2.5, 2, "work");
  EXPECT_EQ(m.num_states(), 3u);
  EXPECT_EQ(m.num_interactive(), 1u);
  EXPECT_EQ(m.num_markovian(), 1u);
  ASSERT_EQ(m.markovian(1).size(), 1u);
  EXPECT_DOUBLE_EQ(m.markovian(1)[0].rate, 2.5);
  EXPECT_EQ(m.markovian(1)[0].label, "work");
}

TEST(ImcBasics, RateValidated) {
  Imc m;
  m.add_states(2);
  EXPECT_THROW(m.add_markovian(0, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(m.add_markovian(0, 1.0, 9), std::out_of_range);
}

TEST(ImcBasics, Stability) {
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "i", 1);
  m.add_interactive(1, "A", 2);
  EXPECT_FALSE(m.is_stable(0));      // tau
  EXPECT_TRUE(m.is_stable(1));       // only visible
  EXPECT_FALSE(m.is_markovian_only(1));
  EXPECT_TRUE(m.is_markovian_only(2));
}

TEST(ImcBasics, FromLtsRoundTrip) {
  lts::Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "i", 0);
  const Imc m(l);
  EXPECT_EQ(m.num_interactive(), 2u);
  EXPECT_EQ(m.num_markovian(), 0u);
  const lts::Lts& back = m.interactive_lts();
  EXPECT_EQ(back.num_transitions(), 2u);
  EXPECT_EQ(back.actions().name(back.out(1)[0].action), "i");
}

// --- composition ----------------------------------------------------------------

TEST(ImcCompose, MarkovianInterleavesUnderSync) {
  // Two pure-delay processes composed with full sync on gates: rates still
  // interleave (memorylessness).
  Imc a;
  a.add_states(2);
  a.add_markovian(0, 1.0, 1);
  Imc b;
  b.add_states(2);
  b.add_markovian(0, 2.0, 1);
  const std::vector<std::string> none{};
  const Imc p = parallel(a, b, none);
  EXPECT_EQ(p.num_states(), 4u);
  EXPECT_EQ(p.num_markovian(), 4u);
  ASSERT_EQ(p.markovian(p.initial_state()).size(), 2u);
}

TEST(ImcCompose, InteractiveSynchronises) {
  Imc a;
  a.add_states(2);
  a.add_interactive(0, "GO", 1);
  Imc b;
  b.add_states(2);
  b.add_interactive(0, "GO", 1);
  const std::vector<std::string> sync{"GO"};
  const Imc p = parallel(a, b, sync);
  EXPECT_EQ(p.num_states(), 2u);
  EXPECT_EQ(p.num_interactive(), 1u);
}

TEST(ImcCompose, HideAllKeepsExit) {
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "A", 1);
  m.add_interactive(1, "exit", 2);
  const Imc h = hide_all(m);
  EXPECT_TRUE(lts::ActionTable::is_tau(h.interactive(0)[0].action));
  EXPECT_TRUE(lts::ActionTable::is_exit(h.interactive(1)[0].action));
}

TEST(ImcCompose, MaximalProgressCutsRacesAtUnstableStates) {
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "i", 1);
  m.add_markovian(0, 5.0, 2);  // loses the race against tau
  m.add_markovian(1, 1.0, 2);  // stable state keeps its delay
  const Imc mp = maximal_progress(m);
  EXPECT_TRUE(mp.markovian(0).empty());
  EXPECT_EQ(mp.markovian(1).size(), 1u);
}

TEST(ImcCompose, MaximalProgressKeepsVisibleRaces) {
  // A visible action does not pre-empt delays (the environment may refuse it).
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "A", 1);
  m.add_markovian(0, 5.0, 2);
  const Imc mp = maximal_progress(m);
  EXPECT_EQ(mp.markovian(0).size(), 1u);
}

TEST(ImcCompose, TrimDropsUnreachable) {
  Imc m;
  m.add_states(3);
  m.add_markovian(0, 1.0, 0);
  m.add_interactive(1, "A", 2);  // unreachable
  const Imc t = trim(m);
  EXPECT_EQ(t.num_states(), 1u);
  EXPECT_EQ(t.num_interactive(), 0u);
}

// --- CTMC extraction -----------------------------------------------------------------

TEST(Extract, PureMarkovianIsIdentity) {
  Imc m;
  m.add_states(2);
  m.add_markovian(0, 2.0, 1, "go");
  m.add_markovian(1, 1.0, 0);
  const CtmcExtraction e = to_ctmc(m);
  EXPECT_EQ(e.ctmc.num_states(), 2u);
  EXPECT_EQ(e.ctmc.num_transitions(), 2u);
  EXPECT_EQ(e.imc_state_of[0], 0u);
}

TEST(Extract, VanishingStateEliminated) {
  // 0 -r-> 1 -tau-> 2: the tau state vanishes; CTMC is 0 -r-> 2.
  Imc m;
  m.add_states(3);
  m.add_markovian(0, 3.0, 1, "hop");
  m.add_interactive(1, "i", 2);
  const CtmcExtraction e = to_ctmc(m);
  EXPECT_EQ(e.ctmc.num_states(), 2u);  // states 0 and 2
  ASSERT_EQ(e.ctmc.num_transitions(), 1u);
  EXPECT_DOUBLE_EQ(e.ctmc.transitions()[0].rate, 3.0);
  EXPECT_EQ(e.ctmc.transitions()[0].label, "hop");
}

TEST(Extract, NondeterminismRejectedByDefault) {
  Imc m;
  m.add_states(4);
  m.add_markovian(0, 1.0, 1);
  m.add_interactive(1, "i", 2);
  m.add_interactive(1, "i", 3);
  EXPECT_THROW((void)to_ctmc(m), NondeterminismError);
}

TEST(Extract, UniformPolicySplitsMass) {
  Imc m;
  m.add_states(4);
  m.add_markovian(0, 2.0, 1);
  m.add_interactive(1, "i", 2);
  m.add_interactive(1, "i", 3);
  const CtmcExtraction e = to_ctmc(m, NondetPolicy::kUniform);
  // 0 -1-> 2 and 0 -1-> 3 (rate 2 split uniformly).
  EXPECT_EQ(e.ctmc.num_transitions(), 2u);
  for (const auto& t : e.ctmc.transitions()) {
    EXPECT_DOUBLE_EQ(t.rate, 1.0);
  }
}

TEST(Extract, InteractiveCycleIsTimelock) {
  Imc m;
  m.add_states(3);
  m.add_markovian(0, 1.0, 1);
  m.add_interactive(1, "i", 2);
  m.add_interactive(2, "i", 1);
  EXPECT_THROW((void)to_ctmc(m), TimelockError);
}

TEST(Extract, InitialStateResolved) {
  // Initial state is vanishing: initial distribution lands on tangibles.
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "i", 1);
  m.add_markovian(1, 1.0, 2);
  const CtmcExtraction e = to_ctmc(m);
  const auto pi0 = e.ctmc.initial_distribution();
  EXPECT_DOUBLE_EQ(pi0[0], 1.0);  // ctmc state 0 = imc state 1
  EXPECT_EQ(e.imc_state_of[0], 1u);
}

TEST(Extract, ChainOfVanishingStates) {
  Imc m;
  m.add_states(4);
  m.add_markovian(0, 4.0, 1);
  m.add_interactive(1, "i", 2);
  m.add_interactive(2, "i", 3);
  const CtmcExtraction e = to_ctmc(m);
  ASSERT_EQ(e.ctmc.num_transitions(), 1u);
  EXPECT_DOUBLE_EQ(e.ctmc.transitions()[0].rate, 4.0);
}

// --- lumping -----------------------------------------------------------------------

TEST(Lump, AggregatesParallelRates) {
  // Two rate-1 transitions into bisimilar states lump into rate 2.
  Imc m;
  m.add_states(3);
  m.add_markovian(0, 1.0, 1);
  m.add_markovian(0, 1.0, 2);
  const auto r = minimize_imc(m);
  EXPECT_EQ(r.quotient.num_states(), 2u);
  ASSERT_EQ(r.quotient.markovian(r.quotient.initial_state()).size(), 1u);
  EXPECT_DOUBLE_EQ(r.quotient.markovian(r.quotient.initial_state())[0].rate,
                   2.0);
}

TEST(Lump, StrongDistinguishesRates) {
  Imc m;
  m.add_states(3);
  m.add_markovian(0, 1.0, 2);
  m.add_markovian(1, 2.0, 2);
  const auto p = lump_strong(m);
  EXPECT_NE(p.block_of(0), p.block_of(1));
}

TEST(Lump, StrongMergesEqualRates) {
  Imc m;
  m.add_states(4);
  m.add_markovian(0, 1.5, 2);
  m.add_markovian(1, 1.5, 3);
  const auto p = lump_strong(m);
  EXPECT_EQ(p.block_of(0), p.block_of(1));
  EXPECT_EQ(p.block_of(2), p.block_of(3));
}

TEST(Lump, BranchingCollapsesInertTau) {
  // 0 -tau-> 1, 1 -r-> 2: after lumping, 0 ~ 1 (the tau takes no time).
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "i", 1);
  m.add_markovian(1, 2.0, 2);
  const auto r = minimize_imc(m);
  EXPECT_EQ(r.partition.block_of(0), r.partition.block_of(1));
  EXPECT_EQ(r.quotient.num_states(), 2u);
  // The quotient is now a pure CTMC.
  const CtmcExtraction e = to_ctmc(r.quotient);
  EXPECT_EQ(e.ctmc.num_states(), 2u);
  EXPECT_DOUBLE_EQ(e.ctmc.transitions()[0].rate, 2.0);
}

TEST(Lump, VisibleActionsBlockMerging) {
  Imc m;
  m.add_states(3);
  m.add_interactive(0, "A", 2);
  m.add_interactive(1, "B", 2);
  const auto p = lump_strong(m);
  EXPECT_NE(p.block_of(0), p.block_of(1));
}

TEST(Lump, InitialPartitionRespected) {
  // Identical states forced apart by a reward-compatible initial partition.
  Imc m;
  m.add_states(2);
  m.add_markovian(0, 1.0, 0);
  m.add_markovian(1, 1.0, 1);
  const bisim::Partition same(2);
  EXPECT_EQ(lump_strong(m, same).num_blocks(), 1u);
  const bisim::Partition split({0, 1}, 2);
  EXPECT_EQ(lump_strong(m, split).num_blocks(), 2u);
}

TEST(Lump, QuotientPreservesSteadyState) {
  // A symmetric 4-state chain and its 2-state lump have matching measures.
  Imc m;
  m.add_states(4);
  // Two "up" states {0,1} and two "down" states {2,3}, symmetric rates.
  m.add_markovian(0, 1.0, 2, "down");
  m.add_markovian(1, 1.0, 3, "down");
  m.add_markovian(2, 3.0, 0, "up");
  m.add_markovian(3, 3.0, 1, "up");
  const auto lumped = minimize_imc(m);
  EXPECT_EQ(lumped.quotient.num_states(), 2u);
  const auto full = to_ctmc(m);
  const auto small = to_ctmc(lumped.quotient);
  const auto pi_full = markov::steady_state(full.ctmc);
  const auto pi_small = markov::steady_state(small.ctmc);
  EXPECT_NEAR(markov::throughput(full.ctmc, pi_full, "down"),
              markov::throughput(small.ctmc, pi_small, "down"), 1e-9);
}

TEST(Lump, ErlangChainDoesNotCollapse) {
  // Distinct stages of an Erlang chain are NOT lumpable (different time to
  // absorption).
  Imc m;
  m.add_states(4);
  m.add_markovian(0, 1.0, 1);
  m.add_markovian(1, 1.0, 2);
  m.add_markovian(2, 1.0, 3);
  const auto p = lump_branching(m);
  EXPECT_EQ(p.num_blocks(), 4u);
}

// --- golden operator outputs -------------------------------------------------------

/// What an operator's result shows a reader: its .imc text and its action
/// table, name by name in id order (quotient_imc orders a block's edges by
/// action id, so the interning order is part of the answer).
void append_imc(core::Hasher& h, const Imc& m) {
  h.str(to_aut(m));
  h.u64(m.actions().size());
  for (lts::ActionId a = 0; a < m.actions().size(); ++a) {
    h.str(m.actions().name(a));
  }
}

/// A random open IMC: value offers, tau, exit, and labelled and unlabelled
/// rates.  Part of the label pool is interned ahead of use, in shuffled
/// order, so the table's order is not the order of first use.
Imc random_open_imc(std::mt19937& rng, std::size_t states) {
  const std::vector<std::string> pool = {"i",     "exit",  "A",    "A !0",
                                         "A !1",  "B",     "B !2", "C"};
  const double rates[] = {0.5, 1.0, 2.0, 3.25};
  const char* probes[] = {"", "", "x", "A !1"};
  Imc m;
  m.add_states(states);
  std::vector<std::string> ahead = pool;
  std::shuffle(ahead.begin(), ahead.end(), rng);
  std::uniform_int_distribution<std::size_t> count(0, 4);
  const std::size_t n_ahead = count(rng);
  for (std::size_t k = 0; k < n_ahead; ++k) {
    m.actions().intern(ahead[k]);
  }
  std::uniform_int_distribution<StateId> state(
      0, static_cast<StateId>(states - 1));
  std::uniform_int_distribution<std::size_t> label(0, pool.size() - 1);
  std::uniform_int_distribution<int> pick(0, 3);
  for (std::size_t k = 0; k < states * 2; ++k) {
    // One draw per statement: argument evaluation order is unspecified.
    const StateId src = state(rng);
    const std::string& action = pool[label(rng)];
    m.add_interactive(src, action, state(rng));
    if (pick(rng) < 2) {
      const StateId from = state(rng);
      const double rate = rates[pick(rng)];
      const StateId to = state(rng);
      m.add_markovian(from, rate, to, probes[pick(rng)]);
    }
  }
  return m;
}

/// exp_f7's M/Er(k)/1/3 station: a queue of capacity 3 fed by a generator
/// whose inter-arrival and service delays are ASTART/AEND and SSTART/SEND.
lts::Lts erlang_station() {
  using namespace multival::proc;
  const int cap = 3;
  Program p;
  std::vector<TermPtr> branches;
  branches.push_back(guard(
      evar("n") < lit(cap),
      prefix("ARR", call("Q", {evar("n") + lit(1), evar("b")}))));
  branches.push_back(guard(evar("n") > lit(0) && evar("b") == lit(0),
                           prefix("SSTART", call("Q", {evar("n"), lit(1)}))));
  branches.push_back(guard(
      evar("b") == lit(1),
      prefix("SEND",
             prefix("SRVEND", call("Q", {evar("n") - lit(1), lit(0)})))));
  p.define("Q", {"n", "b"}, choice(std::move(branches)));
  p.define("Gen", {},
           prefix("ASTART", prefix("AEND", prefix("ARR", call("Gen")))));
  p.define("Station", {},
           par(call("Q", {lit(0), lit(0)}), {"ARR"}, call("Gen")));
  return generate(p, "Station");
}

void expect_golden(const std::map<std::string, std::string>& golden,
                   const std::string& name, const core::Hasher& h) {
  const std::string actual = h.key().hex();
  const auto it = golden.find(name);
  if (it == golden.end() || it->second != actual) {
    ADD_FAILURE() << "digest changed: {\"" << name << "\", \"" << actual
                  << "\"},";
  }
}

// Pins every IMC operator's output, action table included, on random IMC
// pairs, exp_f7's Erlang station, an .imc text and the ping-pong scenario.
// On a mismatch the failure prints the line to paste, but only paste it
// when the change of output is intended.
TEST(ImcGolden, OperatorsMatchTheParent) {
  const std::map<std::string, std::string> golden = {
      {"pingpong/decorate_with_phase_type", "81ef3ba5e793d35eded0511d554df05b"},
      {"pingpong/decorate_with_rates", "b5836b946143bfdc8cd0b189c71bf8fb"},
      {"pingpong/from_lts", "908f0672e02ed61ac64af97f2b74e27c"},
      {"random/from_aut", "7fd24a96f78a4c71eff08606a03fba78"},
      {"random/hide", "12eeb89041f4eef969ad9af8cf533758"},
      {"random/hide_all", "ea54fdddad135bcab749908b79cbdba6"},
      {"random/maximal_progress", "4af50dcf3bf9fe24c3f0f7e85a70fcfc"},
      {"random/minimize_imc", "cc499460189422f00713ab221abfd724"},
      {"random/parallel", "618b4e62e4c754565e5ef39244a0aa3b"},
      {"random/trim", "ecf19f6a5acd5193b1f45244e91dc8cf"},
      {"station/closed", "c6ae1c3f281a1444de92c19c10eb465c"},
      {"station/from_lts", "c889e9421764e2de82da538edb9507c5"},
      {"station/insert_delays", "c23b9d1c549e9b17207c524028bcb08d"},
      {"station/minimize_imc", "1ddf3cd15d659df4637216235e3922d2"},
      {"station/trim", "c23b9d1c549e9b17207c524028bcb08d"},
      {"text/from_aut", "1340eb42a3cd33566254d868d6904cd9"},
      {"text/maximal_progress", "ab55f37f54bfb68bcdde7ea2c0e83575"},
  };
  const std::vector<std::vector<std::string>> sync_sets = {
      {}, {"A"}, {"B"}, {"A", "B"}, {"A", "B", "C", "exit"}};
  std::map<std::string, core::Hasher> h;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    std::mt19937 rng(seed);
    const Imc a = random_open_imc(rng, 5 + seed % 4);
    const Imc b = random_open_imc(rng, 4 + seed % 3);
    const std::vector<std::string>& sync = sync_sets[seed % sync_sets.size()];
    const Imc p = parallel(a, b, sync);
    append_imc(h["random/parallel"], p);
    append_imc(h["random/hide"], hide(a, sync));
    append_imc(h["random/hide"], hide(p, sync));
    append_imc(h["random/hide_all"], hide_all(a));
    append_imc(h["random/hide_all"], hide_all(p));
    append_imc(h["random/maximal_progress"], maximal_progress(a));
    append_imc(h["random/maximal_progress"], maximal_progress(p));
    append_imc(h["random/trim"], trim(a));
    append_imc(h["random/trim"], trim(hide(p, sync)));
    append_imc(h["random/minimize_imc"], minimize_imc(a).quotient);
    append_imc(h["random/minimize_imc"], minimize_imc(p).quotient);
    append_imc(h["random/from_aut"], from_aut(to_aut(a)));
    append_imc(h["random/from_aut"], from_aut(to_aut(p)));
  }

  const lts::Lts station = erlang_station();
  h["station/from_lts"].str(to_aut(Imc(station)));
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const std::vector<core::DelaySpec> delays{
        {"ASTART", "AEND", phase::PhaseType::exponential(0.8)},
        {"SSTART", "SEND", phase::erlang_for_fixed_delay(1.0, k)},
    };
    const Imc m = core::insert_delays(station, delays);
    append_imc(h["station/insert_delays"], m);
    append_imc(h["station/trim"], trim(m));
    append_imc(h["station/closed"], maximal_progress(hide_all(trim(m))));
    append_imc(h["station/minimize_imc"],
               minimize_imc(hide_all(trim(m))).quotient);
  }

  // Transitions out of state order, and one rate label on two edges.
  const Imc text = from_aut(
      "des (2, 8, 4)\n"
      "(3, \"rate 2\", 0)\n"
      "(2, \"GO !1\", 1)\n"
      "(1, \"DONE; rate 1.5\", 3)\n"
      "(0, i, 2)\n"
      "(2, \"rate 2\", 3)\n"
      "(1, \"DONE; rate 1.5\", 0)\n"
      "(3, exit, 3)\n"
      "(0, \"GO !1\", 3)\n");
  append_imc(h["text/from_aut"], text);
  append_imc(h["text/from_aut"], from_aut(to_aut(text)));
  append_imc(h["text/maximal_progress"], maximal_progress(text));

  const fame::PingPongConfig pp;
  const lts::Lts pingpong = fame::pingpong_lts(pp);
  h["pingpong/from_lts"].str(to_aut(Imc(pingpong)));
  const auto rates =
      fame::topology_rates(pp.topology, {"M", "S0", "S1"}, pp.base_rate);
  append_imc(h["pingpong/decorate_with_rates"],
             core::decorate_with_rates(pingpong, rates));
  std::map<std::string, phase::PhaseType> delays;
  for (const auto& [gate, rate] : rates) {
    delays.emplace(gate, phase::erlang_for_fixed_delay(1.0 / rate, 2));
  }
  append_imc(h["pingpong/decorate_with_phase_type"],
             core::decorate_with_phase_type(pingpong, delays));

  for (const auto& [name, hasher] : h) {
    expect_golden(golden, name, hasher);
  }
  EXPECT_EQ(h.size(), golden.size());
}

}  // namespace
