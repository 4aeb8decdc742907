// End-to-end integration tests crossing every layer of the stack: textual
// model -> generation -> verification (+ diagnostics) -> minimisation ->
// .aut round trip -> decoration -> lumping -> solving -> simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "bisim/equivalence.hpp"
#include "bisim/trace.hpp"
#include "core/flow.hpp"
#include "imc/compose.hpp"
#include "imc/imc_io.hpp"
#include "lts/lts_io.hpp"
#include "markov/absorption.hpp"
#include "markov/steady.hpp"
#include "markov/transient.hpp"
#include "mc/diagnostic.hpp"
#include "mc/parser.hpp"
#include "phase/phase_type.hpp"
#include "proc/generator.hpp"
#include "proc/parser.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace multival;

TEST(EndToEnd, TextualModelThroughEntirePipeline) {
  // 1. A producer/consumer system written as text.
  const proc::Program program = proc::parse_program(R"(
    -- bounded relay: producer -> cell -> consumer
    process Producer := PUT !1 ; PUT !0 ; Producer endproc
    process Cell     := PUT ?x:0..1 ; GET !x ; Cell endproc
    process Consumer := GET ?y:0..1 ; WORKED !y ; Consumer endproc
    process System   :=
      hide PUT, GET in ((Producer |[PUT]| Cell) |[GET]| Consumer)
    endproc
  )");
  const lts::Lts l = proc::generate(program, "System");

  // 2. Verify with a parsed textual property, plus the standard battery.
  const auto report = core::verify(
      l, {{"eventually works",
           mc::parse_formula("mu X. (<'WORKED*'> tt || <any> X)")}});
  EXPECT_TRUE(report.all_hold()) << report.to_string();

  // 3. Minimise and round-trip through .aut text.
  const auto reduced = bisim::minimize(l, bisim::Equivalence::kBranching);
  const lts::Lts reloaded = lts::from_aut(lts::to_aut(reduced.quotient));
  EXPECT_TRUE(bisim::equivalent(l, reloaded, bisim::Equivalence::kBranching));

  // 4. Decorate with rates, round-trip the IMC through its text format.
  const imc::Imc timed = core::decorate_with_rates(
      reloaded, {{"WORKED", 2.0}});
  const imc::Imc timed_reloaded = imc::from_aut(imc::to_aut(timed));

  // 5. Close and solve: the WORKED throughput survives the whole journey.
  const auto closed = core::close_model(timed_reloaded);
  const auto pi = markov::steady_state(closed.ctmc);
  const double thr = markov::throughput(closed.ctmc, pi, "WORKED*");
  EXPECT_NEAR(thr, 2.0, 1e-9);  // only the WORKED gate is timed

  // 6. Cross-check with the discrete-event simulator.
  sim::SimOptions opts;
  opts.horizon = 3000.0;
  const sim::Estimate est =
      sim::simulate_throughput(closed.ctmc, "WORKED*", opts);
  EXPECT_TRUE(est.contains(thr));
}

TEST(EndToEnd, DefectiveModelDiagnosedWithTrace) {
  // A protocol with a seeded deadlock: verification fails and the report
  // carries a usable shortest trace.
  const proc::Program program = proc::parse_program(R"(
    process Left  := REQ ; ACK ; Left endproc
    process Right := REQ ; REQ ; ACK ; Right endproc
    process Sys   := Left |[REQ, ACK]| Right endproc
  )");
  const lts::Lts l = proc::generate(program, "Sys");
  const auto report = core::verify(l);
  EXPECT_FALSE(report.all_hold());
  EXPECT_NE(report.to_string().find("shortest trace"), std::string::npos);
  // The on-the-fly search agrees without building the full space.
  const auto search = proc::find_deadlock(program, "Sys");
  EXPECT_TRUE(search.found);
  ASSERT_FALSE(search.trace.empty());
  EXPECT_EQ(search.trace[0], "REQ");
}

TEST(EndToEnd, ConstraintOrientedDelayAndBoundedReachability) {
  // Request/response with an Erlang-3 service delay: bounded reachability
  // of "done" matches the phase-type CDF.
  proc::Program p;
  p.define("Once", {},
           proc::prefix("S_START", proc::prefix("S_END",
                        proc::prefix("DONE", proc::stop()))));
  const phase::PhaseType service = phase::PhaseType::erlang(3, 6.0);
  const imc::Imc m = core::insert_delays(
      proc::generate(p, "Once"), {{"S_START", "S_END", service}});
  const auto closed = core::close_model(m);
  const std::vector<bool> done = markov::absorbing_states(closed.ctmc);
  for (const double t : {0.2, 0.5, 1.0}) {
    EXPECT_NEAR(markov::bounded_reachability(closed.ctmc, done, t),
                service.cdf(t), 1e-9)
        << "t = " << t;
  }
}

TEST(EndToEnd, ImcParallelAllChainsDelays) {
  // Three delay stages composed n-ary: total absorption time adds up.
  std::vector<imc::Imc> stages;
  const char* starts[] = {"A", "B", "C"};
  for (int i = 0; i < 3; ++i) {
    stages.push_back(phase::delay_process(phase::PhaseType::exponential(2.0),
                                          starts[i],
                                          std::string(starts[i]) + "E"));
  }
  // Driver sequencing the three delays then stopping.
  imc::Imc driver;
  driver.add_states(7);
  driver.add_interactive(0, "A", 1);
  driver.add_interactive(1, "AE", 2);
  driver.add_interactive(2, "B", 3);
  driver.add_interactive(3, "BE", 4);
  driver.add_interactive(4, "C", 5);
  driver.add_interactive(5, "CE", 6);
  std::vector<imc::Imc> all{driver};
  for (auto& s : stages) {
    all.push_back(std::move(s));
  }
  const std::vector<std::string> sync{"A", "AE", "B", "BE", "C", "CE"};
  const imc::Imc sys = imc::parallel_all(all, sync);
  const auto closed = core::close_model(sys);
  EXPECT_NEAR(markov::expected_absorption_time_from_initial(closed.ctmc),
              3.0 / 2.0, 1e-9);
}

TEST(EndToEnd, WeakTraceAbstractionOfCaseStudy) {
  // The closed producer/cell/consumer system determinises to a small
  // automaton whose language only mentions WORKED values.
  const proc::Program program = proc::parse_program(R"(
    process Producer := PUT !1 ; Producer endproc
    process Cell     := PUT ?x:0..1 ; GET !x ; Cell endproc
    process Consumer := GET ?y:0..1 ; WORKED !y ; Consumer endproc
    process System   :=
      hide PUT, GET in ((Producer |[PUT]| Cell) |[GET]| Consumer)
    endproc
  )");
  const lts::Lts l = proc::generate(program, "System");
  const lts::Lts det = bisim::determinize(l);
  // Only value 1 is produced, so the deterministic language is a cycle on
  // "WORKED !1".
  lts::Lts spec;
  spec.add_states(1);
  spec.add_transition(0, "WORKED !1", 0);
  EXPECT_TRUE(bisim::weak_trace_equivalent(l, spec));
  EXPECT_LE(det.num_states(), 2u);
}

TEST(EndToEnd, BoundedReachabilityMonotoneAndConsistent) {
  // On the xSTream-style station: P[reach full within t] is monotone in t
  // and bounded by the unbounded reachability probability.
  markov::Ctmc c;
  c.add_states(4);
  for (int i = 0; i < 3; ++i) {
    c.add_transition(i, i + 1, 1.0);
    c.add_transition(i + 1, i, 2.0);
  }
  std::vector<bool> full{false, false, false, true};
  double prev = 0.0;
  for (const double t : {0.5, 1.0, 2.0, 5.0, 20.0}) {
    const double p = markov::bounded_reachability(c, full, t);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
  const auto unbounded = markov::reachability_probability(c, full);
  EXPECT_LE(prev, unbounded[0] + 1e-9);
  EXPECT_NEAR(unbounded[0], 1.0, 1e-9);  // irreducible: eventually reached
}

}  // namespace
