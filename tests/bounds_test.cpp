// Tests for the static state-bound analyzer (analyze/bounds).
//
// The load-bearing property is SOUNDNESS: for every model we can afford to
// generate, predicted_states must dominate the explored state count — on
// the builtin case studies, on hand-built operator exercises, and on a
// seeded family of random guarded-counter programs.  On pure xMAS queue
// fabrics and the guard-bounded counter family the bound must additionally
// be EXACT, which pins the counting semantics to the generator's lift()
// semantics rather than a lazily loose over-approximation.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "analyze/bounds.hpp"
#include "builtin_models.hpp"
#include "compose/plan.hpp"
#include "core/diag.hpp"
#include "fame/coherence.hpp"
#include "fame/coherence_n.hpp"
#include "noc/mesh.hpp"
#include "proc/expr.hpp"
#include "proc/generator.hpp"
#include "proc/process.hpp"
#include "xmas/compile.hpp"
#include "xmas/netlist.hpp"
#include "xstream/queue_model.hpp"

namespace multival {
namespace {

using analyze::BoundOptions;
using analyze::BoundReport;
using analyze::Interval;
using analyze::kUnboundedStates;
using proc::call;
using proc::choice;
using proc::evar;
using proc::guard;
using proc::lit;
using proc::prefix;
using proc::stop;

std::uint64_t actual_states(const proc::Program& p, const proc::TermPtr& t) {
  proc::GenerateOptions opts;
  opts.max_states = 1 << 20;
  return proc::generate_term(p, t, opts).num_states();
}

/// predicted >= actual, and the analysis never touched the generator.
void expect_sound(const proc::Program& p, const proc::TermPtr& root,
                  const std::string& what) {
  const BoundReport r = analyze::predicted_bounds(p, root);
  EXPECT_EQ(r.stats.states_generated, 0u) << what;
  const std::uint64_t actual = actual_states(p, root);
  EXPECT_GE(r.total, actual) << what << ": predicted " << r.total
                             << " < actual " << actual;
}

/// The ten-state guarded counter from bench_analyze: exactly 10 states.
proc::Program cells_program() {
  proc::Program p;
  p.define("Cell", {"v"},
           choice({guard(evar("v") < lit(9),
                         prefix("INC", call("Cell", {evar("v") + lit(1)}))),
                   guard(evar("v") > lit(0),
                         prefix("DEC", call("Cell", {evar("v") - lit(1)})))}));
  return p;
}

std::size_t count_code(const BoundReport& r, const std::string& code,
                       core::Severity sev) {
  std::size_t n = 0;
  for (const auto& d : r.diagnostics) {
    if (d.code == code && d.severity == sev) ++n;
  }
  return n;
}

// ---- interval / arithmetic units -------------------------------------------

TEST(BoundsInterval, WidthAndJoin) {
  EXPECT_EQ(Interval::range(0, 4).width(), 5u);
  EXPECT_EQ(Interval::exactly(7).width(), 1u);
  EXPECT_EQ(Interval::top().width(), kUnboundedStates);
  EXPECT_EQ(Interval::range(0, Interval::kPosInf).width(), kUnboundedStates);
  EXPECT_FALSE(Interval::range(0, Interval::kPosInf).bounded());
  EXPECT_TRUE(Interval::range(-3, 3).bounded());
  EXPECT_EQ(Interval::range(0, 2).join(Interval::range(5, 9)),
            Interval::range(0, 9));
  EXPECT_EQ(Interval::range(0, 4).to_string(), "[0, 4]");
}

TEST(BoundsInterval, SaturatingArithmetic) {
  EXPECT_EQ(analyze::saturating_add(2, 3), 5u);
  EXPECT_EQ(analyze::saturating_mul(1u << 20, 1u << 20), 1ull << 40);
  EXPECT_EQ(analyze::saturating_add(kUnboundedStates, 1), kUnboundedStates);
  EXPECT_EQ(analyze::saturating_mul(kUnboundedStates, 0), kUnboundedStates);
  EXPECT_EQ(analyze::saturating_mul(~0ull >> 1, 4), kUnboundedStates);
  EXPECT_EQ(analyze::format_states(12), "12");
  EXPECT_EQ(analyze::format_states(kUnboundedStates), "unbounded");
}

// ---- exactness on guard-bounded counters -----------------------------------

TEST(Bounds, CellsCounterIsExact) {
  const proc::Program p = cells_program();
  const proc::TermPtr root = call("Cell", {lit(0)});
  const BoundReport r = analyze::predicted_bounds(p, root);
  EXPECT_EQ(r.total, 10u);
  EXPECT_EQ(actual_states(p, root), 10u);
  ASSERT_EQ(r.defs.size(), 1u);
  EXPECT_EQ(r.defs[0].name, "Cell");
  EXPECT_FALSE(r.defs[0].widened);
  ASSERT_EQ(r.defs[0].intervals.size(), 1u);
  EXPECT_EQ(r.defs[0].intervals[0], Interval::range(0, 9));
  EXPECT_EQ(count_code(r, "MV040", core::Severity::kAdvice), 1u);
  EXPECT_EQ(count_code(r, "MV041", core::Severity::kError), 0u);
}

TEST(Bounds, InterleavedCellsMultiply) {
  const proc::Program p = cells_program();
  const proc::TermPtr root =
      proc::interleaving(call("Cell", {lit(0)}), call("Cell", {lit(0)}));
  const BoundReport r = analyze::predicted_bounds(p, root);
  EXPECT_EQ(r.total, 100u);
  EXPECT_EQ(actual_states(p, root), 100u);
  EXPECT_EQ(r.components.size(), 2u);
}

// ---- sync-gate-aware tightening and operator bounds ------------------------

TEST(Bounds, OneSidedSyncGateBlocksContinuation) {
  proc::Program p;
  // G is in the sync set but only the left operand performs it: the left
  // component is stuck at its first prefix, so the pair has one state.
  const proc::TermPtr root =
      proc::par(prefix("G", prefix("H", stop())), {"G"}, stop());
  EXPECT_EQ(analyze::predicted_states(p, root), 1u);
  EXPECT_EQ(actual_states(p, root), 1u);
}

TEST(Bounds, RenameMapsBlockedGatesBack) {
  proc::Program p;
  // A is renamed to B below the composition; the sync set blocks B, which
  // must translate back to A inside the renamed operand.
  const proc::TermPtr root = proc::par(
      proc::rename({{"A", "B"}}, prefix("A", stop())), {"B"}, stop());
  EXPECT_EQ(analyze::predicted_states(p, root), 1u);
  EXPECT_EQ(actual_states(p, root), 1u);
}

TEST(Bounds, HideAndRenameAreBoundNeutral) {
  proc::Program p;
  const proc::TermPtr plain = prefix("A", stop());
  EXPECT_EQ(analyze::predicted_states(p, plain), 2u);
  EXPECT_EQ(analyze::predicted_states(p, proc::hide({"A"}, plain)), 2u);
  EXPECT_EQ(analyze::predicted_states(
                p, proc::rename({{"A", "B"}}, plain)),
            2u);
}

TEST(Bounds, SequentialCompositionAndExit) {
  proc::Program p;
  const proc::TermPtr root =
      proc::seq(prefix("A", proc::exit_()), prefix("B", stop()));
  expect_sound(p, root, "seq");
  // Accept offers bind their range width into every downstream location
  // that actually mentions the variable (the generator restricts the env
  // to free variables, and so does the counter).
  const proc::TermPtr offer =
      prefix("IN", {proc::accept("x", 0, 3)},
             prefix("OUT", {proc::emit(evar("x"))}, stop()));
  const BoundReport r = analyze::predicted_bounds(p, offer);
  EXPECT_EQ(r.total, 1u + 4u + 1u);  // IN location + 4x OUT + 1 stop
  EXPECT_EQ(actual_states(p, offer), 6u);
}

// ---- builtin case studies stay sound ---------------------------------------

TEST(Bounds, BuiltinCaseStudiesAreSound) {
  {
    const proc::Program p = noc::single_packet_program(0, 3);
    expect_sound(p, call("Scenario"), "noc single-packet");
  }
  {
    const proc::Program p =
        fame::coherence_system_program(fame::Protocol::kMsi);
    expect_sound(p, call("System"), "fame MSI");
  }
  {
    const proc::Program p =
        fame::coherence_system_program(fame::Protocol::kMesi);
    expect_sound(p, call("System"), "fame MESI");
  }
  {
    const proc::Program p =
        fame::coherence_system_n_program(fame::Protocol::kMsi, 2);
    expect_sound(p, call("SystemN"), "fame MSI n=2");
  }
  {
    const proc::Program p = xstream::virtual_queue_program({});
    expect_sound(p, call("VirtualQueue"), "xstream virtual queue");
  }
  {
    const proc::Program p = xstream::drain_scenario_program({}, 3);
    expect_sound(p, call("DrainScenario"), "xstream drain");
  }
}

TEST(Bounds, SharedAlphabetFixpointChangesNothing) {
  // compose::build_plan predicts every component of a plan under the one
  // alphabet table it already holds; sharing it must not move a bound,
  // and each recorded component bound is that component's standalone one.
  for (const fixtures::BuiltinModel& m : fixtures::builtin_models()) {
    const proc::Program& p = *m.program;
    const proc::TermPtr root = call(m.entry);
    const analyze::AlphabetTable table(p, root);
    const std::vector<proc::TermPtr> terms =
        fixtures::component_terms(p, root);
    const compose::Plan plan = compose::plan_program(m.program, m.entry);
    if (!plan.component_bounds.empty()) {
      ASSERT_EQ(plan.component_bounds.size(), terms.size()) << m.name;
    }
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const std::uint64_t standalone =
          analyze::predicted_bounds(p, terms[i]).total;
      EXPECT_EQ(analyze::predicted_states(p, terms[i], table), standalone)
          << m.name << " component " << i;
      if (!plan.component_bounds.empty()) {
        EXPECT_EQ(plan.component_bounds[i], standalone)
            << m.name << " component " << i;
      }
    }
    EXPECT_EQ(analyze::predicted_states(p, root, table),
              analyze::predicted_states(p, root))
        << m.name;
  }
}

TEST(Bounds, CompiledBuiltinFabricsAreSound) {
  for (const std::string& name : xmas::builtin_fabric_names()) {
    if (name == "credit-loop-deadlock") continue;  // compile() refuses (MV031)
    const xmas::Netlist n = xmas::builtin_fabric(name, 2);
    const BoundReport r = analyze::predicted_bounds(n);
    EXPECT_EQ(r.stats.states_generated, 0u) << name;
    const xmas::Compiled c = xmas::compile(n, {});
    const std::uint64_t actual = actual_states(*c.program, call(c.entry));
    EXPECT_GE(r.total, actual) << name;
    // The netlist overload is definitionally the compiled-term analysis.
    EXPECT_EQ(r.total, analyze::predicted_states(*c.program, call(c.entry)))
        << name;
  }
}

// ---- exactness on pure queue fabrics ---------------------------------------

TEST(Bounds, PureQueueChainIsExact) {
  xmas::Netlist n;
  n.name = "chain";
  n.add({xmas::PrimitiveKind::kSource, "src"});
  xmas::Element q1{xmas::PrimitiveKind::kQueue, "q1"};
  q1.capacity = 2;
  xmas::Element q2{xmas::PrimitiveKind::kQueue, "q2"};
  q2.capacity = 3;
  n.add(q1);
  n.add(q2);
  n.add({xmas::PrimitiveKind::kSink, "snk"});
  n.connect({"a", {"src", "out"}, {"q1", "in"}, 0});
  n.connect({"b", {"q1", "out"}, {"q2", "in"}, 0});
  n.connect({"c", {"q2", "out"}, {"snk", "in"}, 0});

  const BoundReport r = analyze::predicted_bounds(n);
  EXPECT_EQ(r.total, (2u + 1u) * (3u + 1u));
  const xmas::Compiled c = xmas::compile(n, {});
  EXPECT_EQ(actual_states(*c.program, call(c.entry)), r.total);
}

// ---- MV041: unbounded-counter proofs ---------------------------------------

TEST(Bounds, UnguardedCounterIsAnError) {
  proc::Program p;
  p.define("Count", {"n"}, prefix("TICK", call("Count", {evar("n") + lit(1)})));
  const BoundReport r = analyze::predicted_bounds(p, call("Count", {lit(0)}));
  EXPECT_TRUE(r.unbounded());
  EXPECT_EQ(r.stats.states_generated, 0u);
  EXPECT_EQ(count_code(r, "MV041", core::Severity::kError), 1u);
  ASSERT_EQ(r.defs.size(), 1u);
  EXPECT_TRUE(r.defs[0].widened);
  EXPECT_NE(r.defs[0].widening_path.find("Count"), std::string::npos);
  EXPECT_NE(r.defs[0].widening_path.find("n + 1"), std::string::npos);
}

TEST(Bounds, ThrottledCreditCounterIsOnlyAWarning) {
  // The xstream pop side owes credits without an upper guard, but every
  // growth step crosses gates the enclosing composition synchronises on:
  // the bound lives in the peer, so this must stay below error severity
  // (the builtin must keep linting clean).
  const proc::Program p = xstream::virtual_queue_program({});
  const BoundReport r = analyze::predicted_bounds(p, call("VirtualQueue"));
  EXPECT_TRUE(r.unbounded());
  EXPECT_EQ(count_code(r, "MV041", core::Severity::kError), 0u);
  EXPECT_GE(count_code(r, "MV041", core::Severity::kWarning), 1u);
}

// ---- MV042: component budgets ----------------------------------------------

TEST(Bounds, ComponentBudgetAdvisories) {
  const proc::Program p = cells_program();
  const proc::TermPtr root =
      proc::interleaving(call("Cell", {lit(0)}), call("Cell", {lit(0)}));
  BoundOptions opts;
  opts.component_budget = 5;
  const BoundReport r = analyze::predicted_bounds(p, root, opts);
  EXPECT_EQ(count_code(r, "MV042", core::Severity::kAdvice), 2u);
  opts.component_budget = 50;
  EXPECT_EQ(count_code(analyze::predicted_bounds(p, root, opts), "MV042",
                       core::Severity::kAdvice),
            0u);
}

TEST(Bounds, UnboundedComponentExceedsAnyBudget) {
  const proc::Program p = xstream::virtual_queue_program({});
  BoundOptions opts;
  opts.component_budget = 1'000'000;
  const BoundReport r =
      analyze::predicted_bounds(p, call("VirtualQueue"), opts);
  EXPECT_GE(count_code(r, "MV042", core::Severity::kAdvice), 1u);
  bool found_unbounded_component = false;
  for (const auto& c : r.components) {
    if (c.states == kUnboundedStates) {
      found_unbounded_component = true;
      EXPECT_FALSE(c.cause.empty());
    }
  }
  EXPECT_TRUE(found_unbounded_component);
}

// ---- randomised soundness ---------------------------------------------------

/// Random two-definition guarded-counter program.  Every recursion is
/// prefix-guarded and every parameter is boxed into [0, K] by guards (or
/// re-seeded from a bounded accept), so generation always terminates and
/// the interval fixpoint faces joins over genuinely different call sites.
proc::Program random_counter_program(std::mt19937& rng, proc::TermPtr* root) {
  proc::Program p;
  const int k = 1 + static_cast<int>(rng() % 8);
  const int m = static_cast<int>(rng() % 3);
  for (int d = 0; d < 2; ++d) {
    const std::string id = std::to_string(d);
    const std::string callee_up = rng() % 2 ? "P0" : "P1";
    const std::string callee_dn = rng() % 2 ? "P0" : "P1";
    std::vector<proc::TermPtr> branches;
    branches.push_back(
        guard(evar("n") < lit(k),
              prefix("UP" + id, call(callee_up, {evar("n") + lit(1)}))));
    branches.push_back(
        guard(evar("n") > lit(0),
              prefix("DN" + id, call(callee_dn, {evar("n") - lit(1)}))));
    if (rng() % 2) {
      branches.push_back(prefix("RST" + id, {proc::accept("x", 0, m)},
                                call("P" + id, {evar("x")})));
    }
    p.define("P" + id, {"n"}, choice(std::move(branches)));
  }
  switch (rng() % 3) {
    case 0:
      *root = call("P0", {lit(0)});
      break;
    case 1:
      *root = proc::interleaving(call("P0", {lit(0)}), call("P1", {lit(0)}));
      break;
    default:
      *root = proc::par(call("P0", {lit(0)}), {"UP0"}, call("P1", {lit(0)}));
      break;
  }
  return p;
}

TEST(Bounds, RandomGuardedCountersAreSound) {
  for (std::uint32_t seed = 0; seed < 24; ++seed) {
    std::mt19937 rng(seed);
    proc::TermPtr root;
    const proc::Program p = random_counter_program(rng, &root);
    expect_sound(p, root, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace multival
