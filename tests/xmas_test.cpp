// Tests for the xmas subsystem: netlist structural checking (MV030), the
// MV031/MV032/MV033 idiom lints (zero states generated by construction),
// the .xmas parser, the compiler (gate unification, dead-structure
// pruning, MV031 rejection), and the flagship property: the compiled
// credit-loop fabric is divbranching-equivalent to the hand-built xSTream
// virtual-queue model of the same capacity.  The acceptance path — seeded
// deadlock rejected with 0 states, repaired twin solved end to end through
// serve/dse with byte-identical planned-vs-flat results — lives here too.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/reduction.hpp"
#include "core/flow.hpp"
#include "dse/grid.hpp"
#include "dse/scenario.hpp"
#include "explore/lts_stream.hpp"
#include "imc/imc_io.hpp"
#include "lts/product.hpp"
#include "serve/solvers.hpp"
#include "xmas/compile.hpp"
#include "xmas/netlist.hpp"
#include "xmas/parser.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;
using xmas::Element;
using xmas::Netlist;
using xmas::Predicate;
using xmas::PrimitiveKind;

Element element(PrimitiveKind kind, std::string name) {
  Element e;
  e.kind = kind;
  e.name = std::move(name);
  return e;
}

void wire(Netlist& n, std::string name, std::string from, std::string to) {
  xmas::Channel c;
  c.name = std::move(name);
  auto split = [](const std::string& ref) {
    auto dot = ref.rfind('.');
    return xmas::PortRef{ref.substr(0, dot), ref.substr(dot + 1)};
  };
  c.initiator = split(from);
  c.target = split(to);
  n.connect(std::move(c));
}

/// src -> queue -> snk, the minimal well-formed fabric.
Netlist pipe() {
  Netlist n;
  n.name = "pipe";
  n.add(element(PrimitiveKind::kSource, "src"));
  n.add(element(PrimitiveKind::kQueue, "q"));
  n.add(element(PrimitiveKind::kSink, "snk"));
  wire(n, "a", "src.out", "q.in");
  wire(n, "b", "q.out", "snk.in");
  return n;
}

bool has_code(const std::vector<core::Diagnostic>& diags,
              const std::string& code) {
  for (const auto& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

// --- netlist: MV030 structural checks ----------------------------------------

TEST(XmasNetlist, WellFormedPipeChecksClean) {
  EXPECT_TRUE(pipe().check().empty());
}

TEST(XmasNetlist, DanglingPortIsAnError) {
  Netlist n = pipe();
  n.add(element(PrimitiveKind::kQueue, "orphan"));
  const auto diags = n.check();
  EXPECT_TRUE(core::has_errors(diags));
  EXPECT_TRUE(has_code(diags, "MV030"));
  bool mentions = false;
  for (const auto& d : diags) {
    if (d.path.find("pipe/orphan") != std::string::npos) mentions = true;
  }
  EXPECT_TRUE(mentions) << "diagnostic must carry the element path";
}

TEST(XmasNetlist, DoublyDrivenPortIsAnError) {
  Netlist n = pipe();
  n.add(element(PrimitiveKind::kSource, "src2"));
  wire(n, "c", "src2.out", "q.in");  // q.in now driven twice
  const auto diags = n.check();
  EXPECT_TRUE(core::has_errors(diags));
}

TEST(XmasNetlist, UnknownEndpointIsAnError) {
  Netlist n = pipe();
  wire(n, "c", "ghost.out", "q.in");
  EXPECT_TRUE(core::has_errors(n.check()));
}

TEST(XmasNetlist, AttributeRangesAreChecked) {
  Netlist n = pipe();
  Element bad = element(PrimitiveKind::kQueue, "q2");
  bad.capacity = 0;
  n.add(bad);
  EXPECT_TRUE(core::has_errors(n.check()));
}

TEST(XmasNetlist, AllBuiltinFabricsAreStructurallySound) {
  for (const std::string& name : xmas::builtin_fabric_names()) {
    const Netlist n = xmas::builtin_fabric(name);
    EXPECT_TRUE(n.check().empty()) << name;
  }
  EXPECT_THROW((void)xmas::builtin_fabric("no-such-fabric"),
               std::invalid_argument);
  EXPECT_THROW((void)xmas::builtin_fabric("credit-loop", 99),
               std::invalid_argument);
}

// --- lint: the MV031/MV032/MV033 idiom checks --------------------------------

TEST(XmasLint, SeededDeadlockIsMV031WithZeroStates) {
  const auto a =
      analyze::lint_netlist(xmas::builtin_fabric("credit-loop-deadlock"));
  EXPECT_TRUE(core::has_errors(a.diagnostics));
  EXPECT_TRUE(has_code(a.diagnostics, "MV031"));
  // The whole point of the structural lint: no state space was built.
  EXPECT_EQ(a.stats.states_generated, 0u);
  EXPECT_GT(a.stats.fixpoint_passes, 0u);
}

TEST(XmasLint, RepairedCreditLoopLintsClean) {
  const auto a = analyze::lint_netlist(xmas::builtin_fabric("credit-loop"));
  EXPECT_TRUE(a.diagnostics.empty()) << core::render_text(a.diagnostics);
  EXPECT_EQ(a.stats.states_generated, 0u);
}

TEST(XmasLint, UnequalForkJoinPathsAreMV032) {
  Netlist n;
  n.name = "lopsided";
  n.add(element(PrimitiveKind::kSource, "src"));
  n.add(element(PrimitiveKind::kFork, "f"));
  Element deep = element(PrimitiveKind::kQueue, "deep");
  deep.capacity = 3;
  n.add(deep);
  n.add(element(PrimitiveKind::kQueue, "shallow"));  // capacity 1
  n.add(element(PrimitiveKind::kJoin, "j"));
  n.add(element(PrimitiveKind::kSink, "snk"));
  wire(n, "in", "src.out", "f.in");
  wire(n, "d0", "f.out0", "deep.in");
  wire(n, "d1", "f.out1", "shallow.in");
  wire(n, "a0", "deep.out", "j.in0");
  wire(n, "a1", "shallow.out", "j.in1");
  wire(n, "out", "j.out", "snk.in");

  const auto a = analyze::lint_netlist(n);
  EXPECT_FALSE(core::has_errors(a.diagnostics));
  EXPECT_TRUE(has_code(a.diagnostics, "MV032"));
  EXPECT_EQ(a.stats.states_generated, 0u);
}

TEST(XmasLint, StarvedMergeInputIsMV033) {
  const auto a = analyze::lint_netlist(xmas::builtin_fabric("mesh2"));
  EXPECT_FALSE(core::has_errors(a.diagnostics));
  EXPECT_TRUE(has_code(a.diagnostics, "MV033"));
}

TEST(XmasLint, VcPairLintsClean) {
  const auto a = analyze::lint_netlist(xmas::builtin_fabric("vc-pair"));
  EXPECT_TRUE(a.diagnostics.empty()) << core::render_text(a.diagnostics);
}

// --- parser ------------------------------------------------------------------

TEST(XmasParser, RoundTripsEveryBuiltin) {
  for (const std::string& name : xmas::builtin_fabric_names()) {
    const Netlist original = xmas::builtin_fabric(name);
    const Netlist reparsed = xmas::parse_netlist(xmas::to_text(original));
    EXPECT_EQ(reparsed.name, original.name);
    ASSERT_EQ(reparsed.elements().size(), original.elements().size()) << name;
    ASSERT_EQ(reparsed.channels().size(), original.channels().size()) << name;
    EXPECT_TRUE(reparsed.check().empty()) << name;
    if (name.find("deadlock") != std::string::npos) continue;
    // Same netlist => same compiled program, textually.
    EXPECT_EQ(xmas::compile(reparsed).program->to_string(),
              xmas::compile(original).program->to_string())
        << name;
  }
}

TEST(XmasParser, ErrorsCarryMV010WithLineAndColumn) {
  try {
    (void)xmas::parse_netlist("fabric f\nqueue q capacity=zero\n");
    FAIL() << "expected ParseError";
  } catch (const xmas::ParseError& e) {
    EXPECT_EQ(e.diagnostic().code, "MV010");
    EXPECT_EQ(e.diagnostic().line, 2u);
    EXPECT_GT(e.diagnostic().column, 0u);
  }
}

TEST(XmasParser, RejectsMalformedDirectives) {
  EXPECT_THROW((void)xmas::parse_netlist("gadget g\n"), xmas::ParseError);
  EXPECT_THROW((void)xmas::parse_netlist("channel c a.out b.in\n"),
               xmas::ParseError);  // missing ->
  EXPECT_THROW((void)xmas::parse_netlist("source s capacity=2\n"),
               xmas::ParseError);  // attribute on the wrong kind
  EXPECT_THROW((void)xmas::parse_netlist("fabric a\nfabric b\n"),
               xmas::ParseError);
  EXPECT_THROW((void)xmas::parse_netlist("switch s pred=maybe\n"),
               xmas::ParseError);
}

// --- compiler ----------------------------------------------------------------

TEST(XmasCompile, CreditLoopGatesAndStateCount) {
  const auto c = xmas::compile(xmas::builtin_fabric("credit-loop", 2));
  // join {tx,crd,net} -> CRD, fork {rdy,pop,ret} -> POP, push stays PUSH.
  EXPECT_EQ(c.source_gates, (std::vector<std::string>{"PUSH"}));
  EXPECT_EQ(c.sink_gates, (std::vector<std::string>{"POP"}));
  EXPECT_EQ(c.internal_gates, (std::vector<std::string>{"CRD"}));
  EXPECT_EQ(c.gate_groups.at("CRD").size(), 3u);
  EXPECT_EQ(c.gate_groups.at("POP").size(), 3u);

  const lts::Lts l = xmas::compiled_lts(c, compose::Strategy::kPlanned);
  EXPECT_EQ(l.num_states(), 6u);
  EXPECT_EQ(l.num_transitions(), 9u);
}

std::string serialized(const lts::Lts& l) {
  std::ostringstream os;
  explore::write_lts_stream(os, l);
  return os.str();
}

TEST(XmasCompile, PlannedAndFlatAreByteIdentical) {
  // The compose contract: both strategies land on the same canonical
  // minimal LTS, byte for byte (the planned pipeline is already canonical,
  // the flat baseline gets there through one explicit minimisation).
  for (const char* name : {"credit-loop", "vc-pair", "mesh2"}) {
    const auto c = xmas::compile(xmas::builtin_fabric(name));
    const lts::Lts planned = xmas::compiled_lts(c, compose::Strategy::kPlanned);
    const lts::Lts flat = xmas::compiled_lts(c, compose::Strategy::kFlat);
    EXPECT_EQ(serialized(bisim::canonical_minimized(planned)),
              serialized(bisim::canonical_minimized(flat)))
        << name;
    EXPECT_EQ(serialized(planned),
              serialized(bisim::canonical_minimized(planned)))
        << name << ": planned output must already be canonical";
  }
}

TEST(XmasCompile, RefusesTheSeededDeadlock) {
  try {
    (void)xmas::compile(xmas::builtin_fabric("credit-loop-deadlock"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MV031"), std::string::npos)
        << e.what();
  }
}

TEST(XmasCompile, PrunesDeadStructure) {
  // mesh2's constant predicates starve router 0's ejection port and router
  // 1's return ring: the dead gates must not reach the compiled program (a
  // stuck sink process would be MV003 noise in every downstream lint).
  const auto c = xmas::compile(xmas::builtin_fabric("mesh2"));
  EXPECT_EQ(c.sink_gates, (std::vector<std::string>{"EJECT1"}));
  const std::string text = c.program->to_string();
  EXPECT_EQ(text.find("EJECT0"), std::string::npos) << text;
  EXPECT_EQ(text.find("RING1"), std::string::npos) << text;

  const auto a = analyze::lint_program(*c.program);
  EXPECT_FALSE(core::has_errors(a.diagnostics))
      << core::render_text(a.diagnostics);
}

TEST(XmasCompile, BurstSourcesStopAfterTheBurst) {
  xmas::CompileOptions opts;
  opts.burst = 3;
  const auto c = xmas::compile(xmas::builtin_fabric("credit-loop"), opts);
  const lts::Lts l = xmas::compiled_lts(c, compose::Strategy::kPlanned);
  // A finite burst drains to a terminal state; the free-running model has
  // none.
  bool has_deadlock = false;
  for (lts::StateId s = 0; s < l.num_states(); ++s) {
    if (l.is_deadlock(s)) has_deadlock = true;
  }
  EXPECT_TRUE(has_deadlock);
}

TEST(XmasCompile, SinkGlobIsTheSinksCommonPrefix) {
  EXPECT_EQ(xmas::sink_glob(xmas::compile(xmas::builtin_fabric("credit-loop"))),
            "POP*");
  xmas::Compiled c;
  c.sink_gates = {"EJECT0", "EJECT1", "EJECT10"};
  EXPECT_EQ(xmas::sink_glob(c), "EJECT*");
  c.sink_gates = {"EJECT0", "POP"};
  EXPECT_EQ(xmas::sink_glob(c), "*");
  // A well-formed fabric may have no sink: tokens circulate until the
  // queues fill.  It has no throughput to probe.
  const xmas::Compiled sinkless = xmas::compile(xmas::parse_netlist(
      "fabric ring\n"
      "source src rate=1\n"
      "merge m\n"
      "queue q capacity=2\n"
      "queue r capacity=1\n"
      "channel push src.out -> m.in0\n"
      "channel a m.out -> q.in\n"
      "channel b q.out -> r.in\n"
      "channel back r.out -> m.in1\n"));
  EXPECT_TRUE(sinkless.sink_gates.empty());
  EXPECT_THROW((void)xmas::sink_glob(sinkless), std::invalid_argument);
}

TEST(XmasCompile, RateTableCoversEveryGate) {
  const auto c = xmas::compile(xmas::builtin_fabric("credit-loop"));
  const auto rates = xmas::rate_table(c, 1.5, 2.5, 20.0);
  EXPECT_DOUBLE_EQ(rates.at("PUSH"), 1.5);
  EXPECT_DOUBLE_EQ(rates.at("POP"), 2.5);
  EXPECT_DOUBLE_EQ(rates.at("CRD"), 20.0);
  // inject/service <= 0 falls back to the declared element rates.
  const auto declared = xmas::rate_table(c);
  EXPECT_DOUBLE_EQ(declared.at("PUSH"), c.declared_rates.at("PUSH"));
}

// --- the flagship property ----------------------------------------------------

/// Truncates every label at its first space: "PUSH !0" -> "PUSH".  The
/// xSTream model carries (degenerate, max_value = 0) data offers; the xmas
/// compilation is token-only, so equivalence is modulo offers.
lts::Lts strip_offers(const lts::Lts& l) {
  lts::Lts out;
  out.add_states(l.num_states());
  for (lts::StateId s = 0; s < l.num_states(); ++s) {
    for (const lts::OutEdge& e : l.out(s)) {
      std::string label(l.actions().name(e.action));
      if (label != "i" && label != "exit") {
        label = label.substr(0, label.find(' '));
      }
      out.add_transition(s, label, e.dst);
    }
  }
  out.set_initial_state(l.initial_state());
  return out;
}

TEST(XmasProperty, CreditLoopMatchesHandBuiltXstreamQueue) {
  // The compiled credit-loop fabric of payload capacity C is the xSTream
  // virtual queue of capacity C built by hand in src/xstream: hide the
  // fabric-internal CRD gate and the two must be divbranching-equivalent
  // (PUSH/POP visible).  This pins the compiler's semantics to the
  // independently-tested case-study model, across capacities.
  for (int capacity : {1, 2, 3}) {
    const auto c =
        xmas::compile(xmas::builtin_fabric("credit-loop", capacity));
    const std::vector<std::string> internal{"CRD"};
    const lts::Lts fabric =
        lts::hide(xmas::compiled_lts(c, compose::Strategy::kPlanned),
                  internal);

    xstream::QueueConfig cfg;
    cfg.capacity = capacity;
    cfg.max_value = 0;  // token-only
    const lts::Lts reference = strip_offers(xstream::virtual_queue_lts(cfg));

    EXPECT_TRUE(bisim::equivalent(fabric, reference,
                                  bisim::Equivalence::kDivergenceBranching))
        << "capacity " << capacity;
  }
}

// --- end to end: serve + dse --------------------------------------------------

TEST(XmasEndToEnd, RepairedTwinSolvesThroughServe) {
  const auto c = xmas::compile(xmas::builtin_fabric("credit-loop"));
  const lts::Lts l = xmas::compiled_lts(c, compose::Strategy::kPlanned);

  serve::Request r;
  r.id = 1;
  r.verb = serve::Verb::kThroughput;
  r.arg = "uniform:POP*";
  r.payload = imc::to_aut(core::decorate_with_rates(
      l, xmas::rate_table(c, 1.0, 2.0, 10.0)));
  const double tp = dse::parse_throughput(serve::solve_request(r));
  EXPECT_GT(tp, 0.0);
  EXPECT_LT(tp, 2.0);  // bounded by the service rate
}

dse::Point xmas_point(const std::string& fabric, long capacity) {
  dse::Point p;
  p.family = "xmas";
  p.id = "xmas/fabric=" + fabric + ",capacity=" + std::to_string(capacity);
  p.axes["fabric"] = fabric;
  p.axes["capacity"] = capacity;
  p.axis_order = {"fabric", "capacity"};
  return p;
}

TEST(XmasEndToEnd, DsePointProducesMetrics) {
  const dse::Point p = xmas_point("credit-loop", 2);
  const auto inst = dse::instantiate(p);
  ASSERT_EQ(inst.probes.size(), 2u);
  EXPECT_FALSE(inst.gates.empty());

  std::map<std::string, std::string> bodies;
  for (const auto& probe : inst.probes) {
    serve::Request r;
    r.id = 7;
    r.verb = probe.verb;
    r.arg = probe.arg;
    r.payload = probe.payload;
    bodies[probe.name] = serve::solve_request(r);
  }
  const dse::Metrics m = dse::derive_metrics(p, inst, bodies);
  EXPECT_GT(m.latency, 0.0);
  EXPECT_GT(m.throughput, 0.0);
  EXPECT_GT(m.occupancy, 0.0);
  EXPECT_GT(m.states, 0.0);
}

TEST(XmasEndToEnd, DseRejectsTheDeadlockedFabricWithZeroStates) {
  // The acceptance criterion: a structurally deadlocked fabric never
  // reaches state-space generation — instantiate() throws on the netlist
  // lint, citing MV031.
  try {
    (void)dse::instantiate(xmas_point("credit-loop-deadlock", 2));
    FAIL() << "expected SpecError";
  } catch (const dse::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("MV031"), std::string::npos)
        << e.what();
  }
}

TEST(XmasEndToEnd, DseMetricsAgreeAcrossStrategies) {
  // The flat baseline ships unminimised payloads, so the probes differ in
  // size; the *solved* metrics must agree to solver precision (the same
  // contract plan_test pins for the other families).
  const dse::Point p = xmas_point("mesh2", 2);
  auto metrics_for = [&](compose::Strategy s) {
    const auto inst = dse::instantiate(p, s);
    std::map<std::string, std::string> bodies;
    for (const auto& probe : inst.probes) {
      serve::Request r;
      r.id = 9;
      r.verb = probe.verb;
      r.arg = probe.arg;
      r.payload = probe.payload;
      bodies[probe.name] = serve::solve_request(r);
    }
    return dse::derive_metrics(p, inst, bodies);
  };
  const dse::Metrics planned = metrics_for(compose::Strategy::kPlanned);
  const dse::Metrics flat = metrics_for(compose::Strategy::kFlat);
  EXPECT_GT(planned.throughput, 0.0);
  EXPECT_NEAR(planned.latency, flat.latency,
              1e-9 * (1.0 + std::abs(flat.latency)));
  EXPECT_NEAR(planned.throughput, flat.throughput,
              1e-9 * (1.0 + std::abs(flat.throughput)));
}

TEST(XmasEndToEnd, DefaultSweepIncludesTheXmasSpace) {
  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec("default"));
  bool found = false;
  for (const auto& space : spec.spaces) {
    if (space.family == "xmas") found = true;
  }
  EXPECT_TRUE(found);
  // Expansion applies the fabric-aware derived quantity ("queues").
  std::size_t pruned = 0;
  const auto points =
      dse::expand(spec, &dse::derived_quantities, &pruned);
  EXPECT_GE(points.size(), 24u);
}

}  // namespace
