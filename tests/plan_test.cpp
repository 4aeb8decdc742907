// Tests for the generate–minimise–compose pipeline (compose/plan and its
// normal form in bisim/reduction): planner determinism and fallback
// provenance, byte-identity of the planned and flat strategies with the
// peak-intermediate bound on every builtin case study and the F8b buffer
// pipeline (the F8 compositional exhibit, gated here in CI), the
// monolithic retry when a join exceeds the state cap, the bounded
// minimisation cache with its plan-keyed subtree tier, and the algebraic
// property that minimising components before composing is
// branching-equivalent to composing first.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analyze/bounds.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/reduction.hpp"
#include "builtin_models.hpp"
#include "compose/pipeline.hpp"
#include "compose/plan.hpp"
#include "core/flow.hpp"
#include "core/hash.hpp"
#include "explore/engine.hpp"
#include "explore/lts_stream.hpp"
#include "fame/coherence_n.hpp"
#include "fame/mpi.hpp"
#include "fame/topology.hpp"
#include "imc/scheduler.hpp"
#include "lts/lts.hpp"
#include "noc/mesh.hpp"
#include "noc/perf.hpp"
#include "proc/generator.hpp"
#include "proc/parser.hpp"
#include "proc/process.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;

std::string serialized(const lts::Lts& l) {
  std::ostringstream os;
  explore::write_lts_stream(os, l);
  return std::move(os).str();
}

std::shared_ptr<const proc::Program> parse_shared(const std::string& text) {
  return std::make_shared<const proc::Program>(proc::parse_program(text));
}

// ------------------------------------------------------------- the planner --

TEST(Planner, DeterministicOverReruns) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMesi, 3));
  const compose::Plan a = compose::plan_program(p, "SystemN");
  const compose::Plan b = compose::plan_program(p, "SystemN");
  EXPECT_TRUE(a.planned);
  EXPECT_EQ(a.grammar, b.grammar);
  EXPECT_EQ(a.components, b.components);
  EXPECT_GE(a.components.size(), 4u);  // 3 caches + directory + observer
}

TEST(Planner, SequentialTermFallsBackWithReason) {
  const auto p = parse_shared("process P := A ; B ; stop endproc");
  const compose::Plan plan = compose::plan_program(p, "P");
  EXPECT_FALSE(plan.planned);
  EXPECT_FALSE(plan.fallback_reason.empty());
  ASSERT_NE(plan.root, nullptr);
  // The fallback still evaluates, through the same normal form as flat.
  const compose::PlanResult r = compose::evaluate_plan(plan);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("P", {}));
  EXPECT_EQ(serialized(r.lts), serialized(flat.lts));
}

TEST(Planner, FreeInterleavingOfSharedGateFallsBack) {
  // G is in both alphabets but not synchronised: reassociation with
  // alphabetised sync sets cannot express the free interleaving.
  const auto p = parse_shared(R"(
    process A := G ; S ; A endproc
    process B := G ; S ; B endproc
    process Sys := A |[S]| B endproc
  )");
  const compose::Plan plan = compose::plan_program(p, "Sys");
  EXPECT_FALSE(plan.planned);
  EXPECT_NE(plan.fallback_reason.find("interleaves freely"),
            std::string::npos);
  const compose::PlanResult r = compose::evaluate_plan(plan);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("Sys", {}));
  EXPECT_EQ(serialized(r.lts), serialized(flat.lts));
}

TEST(Planner, DuplicateHideFallsBack) {
  const auto p = parse_shared(R"(
    process A := G ; A endproc
    process B := G ; B endproc
    process Sys := hide G in ((hide G in A) |[S]| B) endproc
  )");
  const compose::Plan plan = compose::plan_program(p, "Sys");
  EXPECT_FALSE(plan.planned);
  EXPECT_NE(plan.fallback_reason.find("hidden more than once"),
            std::string::npos);
}

// --------------------------------------------- planned == flat, peak bound --

/// The F8b exhibit's pipeline of six one-place buffers over values 0..2.
fixtures::BuiltinModel buffer_pipeline() {
  return {"buffer-pipeline-6", parse_shared(R"(
    process Cell0 := IN ?x:0..2 ; M1 !x ; Cell0 endproc
    process Cell1 := M1 ?x:0..2 ; M2 !x ; Cell1 endproc
    process Cell2 := M2 ?x:0..2 ; M3 !x ; Cell2 endproc
    process Cell3 := M3 ?x:0..2 ; M4 !x ; Cell3 endproc
    process Cell4 := M4 ?x:0..2 ; M5 !x ; Cell4 endproc
    process Cell5 := M5 ?x:0..2 ; OUT !x ; Cell5 endproc
    process Pipeline := hide M1, M2, M3, M4, M5 in
      (((((Cell0 |[M1]| Cell1) |[M2]| Cell2) |[M3]| Cell3) |[M4]| Cell4)
        |[M5]| Cell5)
    endproc
  )"),
          "Pipeline"};
}

TEST(Planner, BuiltinsPlannedMatchFlatWithBoundedPeak) {
  std::vector<fixtures::BuiltinModel> models = fixtures::builtin_models();
  models.push_back(buffer_pipeline());
  const compose::PlanOptions opts;
  for (const fixtures::BuiltinModel& m : models) {
    const compose::PlanResult planned = compose::evaluate_plan(
        compose::plan_program(m.program, m.entry, opts), opts);
    const compose::PlanResult flat =
        compose::flat_reference(m.program, proc::call(m.entry, {}), opts);

    // The acceptance gate of the compositional pipeline: byte-identical
    // results, peak intermediate within 4x of the final minimal LTS.
    EXPECT_EQ(serialized(planned.lts), serialized(flat.lts)) << m.name;
    EXPECT_GT(planned.lts.num_states(), 0u) << m.name;
    EXPECT_LE(planned.stats.peak_states, 4 * planned.lts.num_states())
        << m.name;
    // And on MESI-3 the planned peak must improve on the monolithic peak.
    if (m.name == "fame-mesi-3") {
      EXPECT_LT(planned.stats.peak_states, flat.stats.peak_states);
    }
  }
}

TEST(Planner, Mesh3x3PlannedMatchesFlat) {
  const auto p = std::make_shared<const proc::Program>(
      noc::single_packet_program(0, 8, /*hide_links=*/true,
                                 noc::MeshDims{3, 3}));
  const compose::PlanOptions opts;
  const compose::Plan plan = compose::plan_program(p, "Scenario", opts);
  const compose::PlanResult planned = compose::evaluate_plan(plan, opts);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("Scenario", {}), opts);
  EXPECT_EQ(serialized(planned.lts), serialized(flat.lts));
  EXPECT_LE(planned.stats.peak_states, 4 * planned.lts.num_states());
}

static_assert(std::is_same_v<proc::StateSpaceLimit, lts::StateSpaceLimit> &&
                  std::is_same_v<explore::LimitExceeded, lts::StateSpaceLimit>,
              "proc, explore and lts throw the one state-cap type");

TEST(Planner, JoinOverStateCapRetriesMonolithically) {
  // The 2-round ping-pong's joins reach 505 and 660 states, over a cap of
  // 200 that its components and its flat state space fit in.
  fame::PingPongConfig cfg;
  cfg.rounds = 2;
  const auto p =
      std::make_shared<const proc::Program>(fame::pingpong_program(cfg));
  compose::PlanOptions opts;
  opts.max_states = 200;
  const compose::Plan plan = compose::plan_program(p, "PingPong", opts);
  ASSERT_TRUE(plan.planned) << plan.fallback_reason;
  const compose::PlanResult planned = compose::evaluate_plan(plan, opts);
  bool retried = false;
  for (const compose::StepStat& s : planned.stats.steps) {
    retried = retried ||
              s.description ==
                  "monolithic fallback (parallel: state space exceeds 200 "
                  "states)";
  }
  EXPECT_TRUE(retried);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("PingPong", {}), opts);
  EXPECT_EQ(serialized(planned.lts), serialized(flat.lts));
  EXPECT_EQ(planned.lts.num_states(), 86u);
}

// ---------------------------------------------------- static bound routing --

TEST(Planner, XstreamDrainIsStaticallySkipped) {
  // The drain scenario's pop side owes credits without a local ceiling, so
  // generating it standalone can only grind to kMaxComponentStates and
  // then take the runtime monolithic fallback.  The static bound analysis
  // proves this before any state exists: the plan must arrive as a
  // monolithic fallback with "static skip (MV042)" provenance, and the
  // evaluation must never record the runtime fallback step.
  xstream::QueueConfig cfg;
  cfg.capacity = 2;
  cfg.max_value = 0;
  const auto p = std::make_shared<const proc::Program>(
      xstream::drain_scenario_program(cfg, 3));
  const compose::PlanOptions opts;
  const compose::Plan plan = compose::plan_program(p, "DrainScenario", opts);
  EXPECT_FALSE(plan.planned);
  ASSERT_FALSE(plan.static_skips.empty());
  EXPECT_NE(plan.static_skips[0].find("static skip (MV042)"),
            std::string::npos);
  EXPECT_NE(plan.static_skips[0].find("PopSide"), std::string::npos);
  EXPECT_NE(plan.fallback_reason.find("MV042"), std::string::npos);

  const compose::PlanResult planned = compose::evaluate_plan(plan, opts);
  bool saw_static_skip = false;
  for (const compose::StepStat& s : planned.stats.steps) {
    if (s.description.find("static skip (MV042)") != std::string::npos) {
      saw_static_skip = true;
    }
    EXPECT_EQ(s.description.find("monolithic fallback"), std::string::npos)
        << "runtime fallback fired despite the static route-around: "
        << s.description;
  }
  EXPECT_TRUE(saw_static_skip);

  // The static detour preserves the byte-identity contract.
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("DrainScenario", {}), opts);
  EXPECT_EQ(serialized(planned.lts), serialized(flat.lts));
}

TEST(Planner, ComponentBoundsAreRecorded) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMesi, 3));
  const compose::Plan plan = compose::plan_program(p, "SystemN");
  ASSERT_TRUE(plan.planned) << plan.fallback_reason;
  ASSERT_EQ(plan.component_bounds.size(), plan.components.size());
  for (const std::uint64_t b : plan.component_bounds) {
    EXPECT_GT(b, 0u);
    EXPECT_LT(b, compose::kMaxComponentStates);
  }
  // The planner predicts every component under one shared alphabet
  // fixpoint; each bound is still the component's standalone prediction.
  const std::vector<proc::TermPtr> terms =
      fixtures::component_terms(*p, proc::call("SystemN"));
  ASSERT_EQ(terms.size(), plan.components.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(plan.component_bounds[i],
              analyze::predicted_bounds(*p, terms[i]).total)
        << plan.components[i];
  }
}

// ------------------------------------------------------ reduction entries --

TEST(Reduction, CanonicalFormIsIsomorphismInvariant) {
  // The same behaviour built with two different state numberings and label
  // interning orders must canonicalise to identical bytes.
  lts::Lts a;
  a.add_states(3);
  a.add_transition(0, "x", 1);
  a.add_transition(0, "y", 2);
  a.add_transition(1, "x", 0);
  a.add_transition(2, "y", 0);

  lts::Lts b;  // states renamed 0->0, 1<->2; labels interned y first
  b.add_states(3);
  b.add_transition(0, "y", 1);
  b.add_transition(1, "y", 0);
  b.add_transition(0, "x", 2);
  b.add_transition(2, "x", 0);

  EXPECT_EQ(serialized(bisim::canonical_form(a)),
            serialized(bisim::canonical_form(b)));
}

// ------------------------------------------------------------- the caches --

TEST(MinimizeCache, LruEvictsUnderByteBudget) {
  compose::MinimizeCache cache(/*capacity_bytes=*/4096);
  std::vector<lts::Lts> inputs;
  for (int k = 0; k < 6; ++k) {
    lts::Lts l;
    l.add_states(64);
    for (lts::StateId s = 0; s + 1 < 64; ++s) {
      l.add_transition(s, std::string("g").append(std::to_string(k)), s + 1);
    }
    inputs.push_back(std::move(l));
  }
  const auto e = bisim::Equivalence::kDivergenceBranching;
  // True when the cache had to minimise @p l itself.
  const auto computed = [&cache, e](const lts::Lts& l) {
    bool ran = false;
    (void)cache.get_or_compute(compose::minimize_key(l, e), [&] {
      ran = true;
      return bisim::canonical_minimized(l, e);
    });
    return ran;
  };
  for (const lts::Lts& l : inputs) {
    EXPECT_TRUE(computed(l));
  }
  const compose::MinimizeCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.insertions, 6u);
  EXPECT_GT(s.evictions, 0u);           // the budget cannot hold all six
  EXPECT_LT(cache.entries(), 6u);
  EXPECT_LE(cache.bytes(), 4096u);
  // The most recent entry survives; the oldest was evicted.
  EXPECT_FALSE(computed(inputs.back()));
  EXPECT_TRUE(computed(inputs.front()));
  EXPECT_GT(cache.stats().hits, 0u);
}

/// A three-state chain, the value the coalescing tests compute.
lts::Lts small_chain() {
  lts::Lts l;
  l.add_states(3);
  l.add_transition(0, "a", 1);
  l.add_transition(1, "a", 2);
  return l;
}

TEST(MinimizeCache, ConcurrentCallersOfOneKeyComputeItOnce) {
  compose::MinimizeCache cache;
  const core::CacheKey key = compose::subtree_key("coalesced");
  constexpr int kThreads = 8;
  std::atomic<int> arrived{0};
  std::atomic<int> computations{0};
  std::vector<std::string> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) {
        std::this_thread::yield();
      }
      seen[t] = serialized(cache.get_or_compute(key, [&] {
        computations.fetch_add(1);
        // Long enough for the other callers to arrive and wait.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return small_chain();
      }));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(computations.load(), 1);
  for (const std::string& text : seen) {
    EXPECT_EQ(text, serialized(small_chain()));
  }
  const compose::MinimizeCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 7u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(MinimizeCache, AThrowingComputationIsNotShared) {
  compose::MinimizeCache cache;
  const core::CacheKey key = compose::subtree_key("throws first");
  EXPECT_THROW((void)cache.get_or_compute(
                   key,
                   []() -> lts::Lts {
                     throw lts::StateSpaceLimit("over the cap");
                   }),
               lts::StateSpaceLimit);
  EXPECT_EQ(cache.entries(), 0u);
  bool computed = false;
  (void)cache.get_or_compute(key, [&] {
    computed = true;
    return small_chain();
  });
  EXPECT_TRUE(computed);  // the next caller computes again
  const compose::MinimizeCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(MinimizeCache, WaitersOfAThrowingLeaderComputeAgain) {
  compose::MinimizeCache cache;
  const core::CacheKey key = compose::subtree_key("leader throws");
  constexpr int kThreads = 4;
  std::atomic<int> arrived{0};
  std::atomic<int> computations{0};
  std::atomic<int> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) {
        std::this_thread::yield();
      }
      try {
        (void)cache.get_or_compute(key, [&] {
          const bool first = computations.fetch_add(1) == 0;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          if (first) {
            throw lts::StateSpaceLimit("over the cap");
          }
          return small_chain();
        });
      } catch (const lts::StateSpaceLimit&) {
        thrown.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Only the leader sees its exception; one waiter recomputes and the
  // others take its value.
  EXPECT_EQ(thrown.load(), 1);
  EXPECT_EQ(computations.load(), 2);
  const compose::MinimizeCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(MinimizeCache, PlanSubtreeKeysSkipRegeneration) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMsi, 3));
  const compose::PlanOptions opts;
  const compose::Plan plan = compose::plan_program(p, "SystemN", opts);
  ASSERT_TRUE(plan.planned);

  compose::MinimizeCache cache;
  const compose::PlanResult first = compose::evaluate_plan(plan, opts, &cache);
  const compose::Plan replan = compose::plan_program(p, "SystemN", opts);
  const compose::PlanResult second =
      compose::evaluate_plan(replan, opts, &cache);

  EXPECT_EQ(serialized(first.lts), serialized(second.lts));
  // The re-plan resolves its root from the subtree tier: no generation, a
  // single cached step, and the cache reports the hit.
  ASSERT_FALSE(second.stats.steps.empty());
  bool subtree_hit = false;
  for (const auto& step : second.stats.steps) {
    subtree_hit = subtree_hit || step.description.find("subtree cached") !=
                                     std::string::npos;
  }
  EXPECT_TRUE(subtree_hit);
  EXPECT_LT(second.stats.steps.size(), first.stats.steps.size());
  EXPECT_GT(cache.stats().hits, 0u);
}

lts::Lts chain_with_twin_tail(int tag) {
  // 0 -A-> 1 -B-> 2 and 0 -A-> 3 -B-> 4: states {1,3} and {2,4} are
  // bisimilar, so branching minimisation shrinks 5 -> 3 states.
  lts::Lts l;
  l.add_states(5);
  l.set_initial_state(0);
  const std::string a = std::string("A").append(std::to_string(tag));
  l.add_transition(0, a, 1);
  l.add_transition(0, a, 3);
  l.add_transition(1, "B", 2);
  l.add_transition(3, "B", 4);
  return l;
}

TEST(MinimizeCache, OnlyChangedSubtreesAreReminimised) {
  compose::MinimizeCache cache;
  const auto tree = [](int left_tag, int right_tag) {
    return compose::compose2(
        compose::minimize_here(
            compose::leaf(chain_with_twin_tail(left_tag), "left")),
        {},
        compose::minimize_here(
            compose::leaf(chain_with_twin_tail(right_tag), "right")));
  };

  compose::EvalStats s1;
  const lts::Lts first = compose::evaluate(tree(0, 1), true, &s1, &cache);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Re-evaluating with one changed leaf re-minimises only that subtree.
  compose::EvalStats s2;
  const lts::Lts second = compose::evaluate(tree(0, 2), true, &s2, &cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  bool saw_cached_step = false;
  for (const compose::StepStat& step : s2.steps) {
    saw_cached_step =
        saw_cached_step ||
        step.description.find("(cached)") != std::string::npos;
  }
  EXPECT_TRUE(saw_cached_step);

  // Cached evaluation must be indistinguishable from the uncached one.
  EXPECT_EQ(serialized(second),
            serialized(compose::evaluate(tree(0, 2), true)));
  EXPECT_EQ(serialized(first),
            serialized(compose::evaluate(tree(0, 1), true)));
}

// ------------------------------------------- the congruence property test --

lts::Lts random_component(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<lts::StateId> state(0, 7);
  std::uniform_int_distribution<int> label(0, 3);
  lts::Lts l;
  l.add_states(8);
  // A spine keeps every state reachable; random chords add branching,
  // nondeterminism and tau transitions ("i" when label(rng) == 3).
  const char* names[] = {"G0", "G1", "G2", "i"};
  for (lts::StateId s = 0; s + 1 < 8; ++s) {
    l.add_transition(s, names[label(rng)], s + 1);
  }
  for (int k = 0; k < 12; ++k) {
    l.add_transition(state(rng), names[label(rng)], state(rng));
  }
  return l;
}

TEST(PlanProperty, MinimizeThenComposeMatchesComposeThenMinimize) {
  const auto e = bisim::Equivalence::kDivergenceBranching;
  for (std::uint32_t seed = 0; seed < 24; ++seed) {
    const lts::Lts a = random_component(seed * 2 + 1);
    const lts::Lts b = random_component(seed * 2 + 2);
    const std::vector<std::string> sync = {"G0", "G1", "G2"};

    // Compositional: minimise each component, compose, minimise again.
    const compose::NodePtr early = compose::minimize_here(
        compose::compose2(
            compose::minimize_here(compose::leaf(a, "a"), e), sync,
            compose::minimize_here(compose::leaf(b, "b"), e)),
        e);
    // Monolithic: compose raw, minimise once at the end.
    const compose::NodePtr late = compose::minimize_here(
        compose::compose2(compose::leaf(a, "a"), sync,
                          compose::leaf(b, "b")),
        e);

    const lts::Lts r_early =
        compose::evaluate(early, /*with_minimization=*/true);
    const lts::Lts r_late =
        compose::evaluate(late, /*with_minimization=*/true);
    EXPECT_TRUE(bisim::equivalent(r_early, r_late, e))
        << "seed " << seed << ": minimise-then-compose diverged from "
        << "compose-then-minimise";
    // And both canonicalise to the same bytes (the pipeline's invariant).
    EXPECT_EQ(serialized(bisim::canonical_minimized(r_early, e)),
              serialized(bisim::canonical_minimized(r_late, e)));
  }
}

// --------------------------------------------------- golden solver values --

TEST(PlanGolden, FamePingPongBoundsSurviveTheReduction) {
  fame::PingPongConfig config;
  config.rounds = 2;
  const auto rates = fame::topology_rates(fame::Topology::kBus,
                                          {"M", "S0", "S1"}, 1.0);
  const imc::Bounds flat = imc::absorption_time_bounds(
      core::decorate_with_rates(
          fame::pingpong_lts(config, compose::Strategy::kFlat), rates));
  const imc::Bounds planned = imc::absorption_time_bounds(
      core::decorate_with_rates(
          fame::pingpong_lts(config, compose::Strategy::kPlanned), rates));
  EXPECT_GT(flat.max, 0.0);
  EXPECT_NEAR(planned.min, flat.min, 1e-9 * (1.0 + std::abs(flat.min)));
  EXPECT_NEAR(planned.max, flat.max, 1e-9 * (1.0 + std::abs(flat.max)));
}

TEST(PlanGolden, XstreamDrainBoundsSurviveTheReduction) {
  xstream::QueueConfig cfg;
  cfg.capacity = 2;
  cfg.max_value = 0;
  const std::map<std::string, double> rates = {
      {"PUSH", 1.0}, {"NET", 10.0}, {"CREDIT", 10.0}, {"POP", 2.0}};
  const imc::Bounds flat = imc::absorption_time_bounds(
      core::decorate_with_rates(
          xstream::drain_scenario_lts(cfg, 3, compose::Strategy::kFlat),
          rates));
  const imc::Bounds planned = imc::absorption_time_bounds(
      core::decorate_with_rates(
          xstream::drain_scenario_lts(cfg, 3, compose::Strategy::kPlanned),
          rates));
  EXPECT_GT(flat.max, 0.0);
  EXPECT_NEAR(planned.min, flat.min, 1e-9 * (1.0 + std::abs(flat.min)));
  EXPECT_NEAR(planned.max, flat.max, 1e-9 * (1.0 + std::abs(flat.max)));
}

TEST(PlanGolden, NocSinglePacketBoundsSurviveTheReduction) {
  const noc::MeshDims dims{2, 2};
  const auto table = noc::rate_table(noc::NocRates{}, dims);
  const imc::Bounds flat = imc::absorption_time_bounds(
      core::decorate_with_rates(
          noc::single_packet_lts(0, 3, /*hide_links=*/false, dims,
                                 compose::Strategy::kFlat),
          table));
  const imc::Bounds planned = imc::absorption_time_bounds(
      core::decorate_with_rates(
          noc::single_packet_lts(0, 3, /*hide_links=*/false, dims,
                                 compose::Strategy::kPlanned),
          table));
  EXPECT_GT(flat.max, 0.0);
  EXPECT_NEAR(planned.min, flat.min, 1e-9 * (1.0 + std::abs(flat.min)));
  EXPECT_NEAR(planned.max, flat.max, 1e-9 * (1.0 + std::abs(flat.max)));
}

}  // namespace
