// Unit tests for the proc/ module: expressions, terms, and LTS generation
// from LOTOS-like process definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "bisim/equivalence.hpp"
#include "builtin_models.hpp"
#include "fame/mpi.hpp"
#include "lts/analysis.hpp"
#include "lts/lts_io.hpp"
#include "mc/evaluator.hpp"
#include "mc/properties.hpp"
#include "proc/expr.hpp"
#include "proc/generator.hpp"
#include "proc/parser.hpp"
#include "proc/process.hpp"

namespace {

using namespace multival;
using namespace multival::proc;
using lts::Lts;

// --- expressions -----------------------------------------------------------

TEST(Expr, ConstAndVar) {
  Env env;
  env.bind("x", 5);
  EXPECT_EQ(lit(3)->eval(env), 3);
  EXPECT_EQ(evar("x")->eval(env), 5);
  EXPECT_THROW((void)evar("y")->eval(env), std::out_of_range);
}

TEST(Expr, Arithmetic) {
  Env env;
  env.bind("x", 7);
  EXPECT_EQ((evar("x") + lit(3))->eval(env), 10);
  EXPECT_EQ((evar("x") - lit(3))->eval(env), 4);
  EXPECT_EQ((evar("x") * lit(2))->eval(env), 14);
  EXPECT_EQ((evar("x") / lit(2))->eval(env), 3);
  EXPECT_EQ((evar("x") % lit(4))->eval(env), 3);
  EXPECT_EQ((-evar("x"))->eval(env), -7);
  EXPECT_EQ(emin(evar("x"), lit(3))->eval(env), 3);
  EXPECT_EQ(emax(evar("x"), lit(3))->eval(env), 7);
}

TEST(Expr, DivisionByZeroThrows) {
  Env env;
  EXPECT_THROW((void)(lit(1) / lit(0))->eval(env), std::domain_error);
  EXPECT_THROW((void)(lit(1) % lit(0))->eval(env), std::domain_error);
}

TEST(Expr, Comparisons) {
  Env env;
  EXPECT_EQ((lit(2) == lit(2))->eval(env), 1);
  EXPECT_EQ((lit(2) != lit(2))->eval(env), 0);
  EXPECT_EQ((lit(1) < lit(2))->eval(env), 1);
  EXPECT_EQ((lit(2) <= lit(2))->eval(env), 1);
  EXPECT_EQ((lit(3) > lit(2))->eval(env), 1);
  EXPECT_EQ((lit(1) >= lit(2))->eval(env), 0);
}

TEST(Expr, BooleansShortCircuit) {
  Env env;
  // (0 && (1/0)) must not evaluate the division.
  EXPECT_EQ((lit(0) && (lit(1) / lit(0)))->eval(env), 0);
  EXPECT_EQ((lit(1) || (lit(1) / lit(0)))->eval(env), 1);
  EXPECT_EQ((!lit(0))->eval(env), 1);
  EXPECT_EQ((!lit(5))->eval(env), 0);
}

TEST(Expr, FreeVarsAreSortedDeduped) {
  const auto e = (evar("b") + evar("a")) * evar("b");
  const auto& fv = e->free_vars();
  ASSERT_EQ(fv.size(), 2u);
  EXPECT_EQ(fv[0], "a");
  EXPECT_EQ(fv[1], "b");
}

TEST(Expr, ToString) {
  EXPECT_EQ((evar("x") + lit(1))->to_string(), "(x + 1)");
}

constexpr Value kMax = std::numeric_limits<Value>::max();
constexpr Value kMin = std::numeric_limits<Value>::min();

TEST(Expr, Int32OverflowThrowsDomainError) {
  Env env;
  EXPECT_THROW((void)(lit(kMax) + lit(1))->eval(env), std::domain_error);
  EXPECT_THROW((void)(lit(kMin) - lit(1))->eval(env), std::domain_error);
  EXPECT_THROW((void)(lit(kMax) * lit(2))->eval(env), std::domain_error);
  EXPECT_THROW((void)(lit(kMin) * lit(-1))->eval(env), std::domain_error);
  EXPECT_THROW((void)(-lit(kMin))->eval(env), std::domain_error);
  EXPECT_THROW((void)(lit(kMin) / lit(-1))->eval(env), std::domain_error);
  EXPECT_THROW((void)(lit(kMin) % lit(-1))->eval(env), std::domain_error);
}

TEST(Expr, ArithmeticAtTheInt32Limits) {
  Env env;
  EXPECT_EQ((lit(kMax) + lit(0))->eval(env), kMax);
  EXPECT_EQ((lit(0) - lit(kMax) - lit(1))->eval(env), kMin);
  EXPECT_EQ((-lit(kMax))->eval(env), -kMax);
  EXPECT_EQ((lit(kMin) / lit(1))->eval(env), kMin);
  EXPECT_EQ((lit(kMax) / lit(-1))->eval(env), -kMax);
  EXPECT_EQ((lit(kMin) % lit(1))->eval(env), 0);
  EXPECT_EQ((lit(kMin + 1) * lit(-1))->eval(env), kMax);
}

TEST(Expr, OverflowInAnOfferThrowsFromGenerate) {
  const Program p = parse_program(
      "process P := a !((0 - 2147483647 - 1) / (0 - 1)); stop endproc");
  EXPECT_THROW((void)generate(p, "P"), std::domain_error);
  const Program q =
      parse_program("process Q := a !(2147483647 + 1); stop endproc");
  EXPECT_THROW((void)generate(q, "Q"), std::domain_error);
}

TEST(Expr, LintSurvivesAnOverflowingConstantGuard) {
  const Program p = parse_program(
      "process P := [(0 - 2147483647 - 1) / (0 - 1) > 0] -> a; stop "
      "endproc");
  EXPECT_NO_THROW((void)analyze::lint_program(p, call("P")));
}

// --- Env ----------------------------------------------------------------------

TEST(EnvTest, BindAndLookup) {
  Env env;
  env.bind("b", 2);
  env.bind("a", 1);
  env.bind("b", 3);  // rebind
  EXPECT_EQ(env.size(), 2u);
  EXPECT_EQ(*env.lookup("a"), 1);
  EXPECT_EQ(*env.lookup("b"), 3);
  EXPECT_FALSE(env.lookup("c").has_value());
}

TEST(EnvTest, EntriesSortedByName) {
  Env env;
  env.bind("z", 1);
  env.bind("a", 2);
  ASSERT_EQ(env.entries().size(), 2u);
  EXPECT_EQ(env.entries()[0].first, "a");
}

TEST(EnvTest, RestrictedTo) {
  Env env;
  env.bind("a", 1);
  env.bind("b", 2);
  env.bind("c", 3);
  const std::vector<std::string> keep{"a", "c", "zz"};
  const Env r = env.restricted_to(keep);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.lookup("a").has_value());
  EXPECT_FALSE(r.lookup("b").has_value());
}

TEST(EnvTest, EqualityAndHash) {
  Env a;
  a.bind("x", 1);
  Env b;
  b.bind("x", 1);
  Env c;
  c.bind("x", 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);
}

// --- term construction ----------------------------------------------------------

TEST(Terms, ReservedGatesRejected) {
  EXPECT_THROW((void)prefix("i", stop()), std::invalid_argument);
  EXPECT_THROW((void)prefix("exit", stop()), std::invalid_argument);
  EXPECT_THROW((void)prefix("", stop()), std::invalid_argument);
}

TEST(Terms, EmptyAcceptRangeRejected) {
  EXPECT_THROW((void)accept("x", 3, 1), std::invalid_argument);
}

TEST(Terms, ChoiceSimplifications) {
  EXPECT_EQ(choice({})->kind(), Term::Kind::kStop);
  const TermPtr p = prefix("A", stop());
  EXPECT_EQ(choice({p}), p);
}

TEST(Terms, PrefixFreeVarsAccountForBinding) {
  // A !x ?y:0..1 !y ; B !z — free: x, z (y is bound by the accept).
  const TermPtr t =
      prefix("A", {emit(evar("x")), accept("y", 0, 1), emit(evar("y"))},
             prefix("B", {emit(evar("z"))}, stop()));
  const auto& fv = t->free_vars();
  ASSERT_EQ(fv.size(), 2u);
  EXPECT_EQ(fv[0], "x");
  EXPECT_EQ(fv[1], "z");
}

TEST(Terms, ProgramRejectsRedefinition) {
  Program p;
  p.define("P", {}, stop());
  EXPECT_THROW(p.define("P", {}, stop()), std::invalid_argument);
  EXPECT_TRUE(p.has_definition("P"));
  EXPECT_FALSE(p.has_definition("Q"));
  EXPECT_THROW((void)p.definition("Q"), std::out_of_range);
}

// --- generation: sequential ------------------------------------------------------

TEST(Generate, StopIsSingleDeadlockState) {
  Program p;
  const Lts l = generate_term(p, stop());
  EXPECT_EQ(l.num_states(), 1u);
  EXPECT_EQ(l.num_transitions(), 0u);
}

TEST(Generate, ExitEmitsExitAction) {
  Program p;
  const Lts l = generate_term(p, exit_());
  EXPECT_EQ(l.num_states(), 2u);
  ASSERT_EQ(l.out(l.initial_state()).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "exit");
}

TEST(Generate, PrefixSequence) {
  Program p;
  const Lts l = generate_term(p, prefix("A", prefix("B", stop())));
  EXPECT_EQ(l.num_states(), 3u);
  EXPECT_EQ(l.num_transitions(), 2u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "A");
}

TEST(Generate, EmitRendersValues) {
  Program p;
  const Lts l =
      generate_term(p, prefix("CH", {emit(lit(2) + lit(3))}, stop()));
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "CH !5");
}

TEST(Generate, AcceptEnumeratesRange) {
  Program p;
  const Lts l = generate_term(p, prefix("CH", {accept("x", 0, 2)}, stop()));
  EXPECT_EQ(l.out(l.initial_state()).size(), 3u);
}

TEST(Generate, AcceptBindsContinuation) {
  Program p;
  const Lts l = generate_term(
      p, prefix("IN", {accept("x", 1, 2)},
                prefix("OUT", {emit(evar("x") * lit(10))}, stop())));
  // IN !1 -> OUT !10, IN !2 -> OUT !20.
  bool saw10 = false;
  bool saw20 = false;
  for (const auto& t : l.all_transitions()) {
    const auto name = l.actions().name(t.action);
    saw10 = saw10 || name == "OUT !10";
    saw20 = saw20 || name == "OUT !20";
  }
  EXPECT_TRUE(saw10);
  EXPECT_TRUE(saw20);
}

TEST(Generate, AcceptVisibleToLaterOffersOfSameAction) {
  Program p;
  const Lts l = generate_term(
      p, prefix("CH", {accept("x", 1, 2), emit(evar("x") + lit(1))}, stop()));
  std::vector<std::string> labels;
  for (const auto& e : l.out(l.initial_state())) {
    labels.emplace_back(l.actions().name(e.action));
  }
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_NE(std::find(labels.begin(), labels.end(), "CH !1 !2"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "CH !2 !3"), labels.end());
}

TEST(Generate, GuardPrunesBranches) {
  Program p;
  const TermPtr t = choice({guard(lit(1), prefix("YES", stop())),
                            guard(lit(0), prefix("NO", stop()))});
  const Lts l = generate_term(p, t);
  ASSERT_EQ(l.out(l.initial_state()).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "YES");
}

TEST(Generate, RecursionClosesCycle) {
  Program p;
  p.define("Clock", {}, prefix("TICK", call("Clock")));
  const Lts l = generate(p, "Clock");
  EXPECT_EQ(l.num_states(), 1u);
  EXPECT_EQ(l.num_transitions(), 1u);
}

TEST(Generate, ParameterisedCounter) {
  Program p;
  p.define("Count", {"n"},
           choice({guard(evar("n") < lit(3),
                         prefix("UP", call("Count", {evar("n") + lit(1)}))),
                   guard(evar("n") > lit(0),
                         prefix("DOWN", call("Count", {evar("n") - lit(1)})))}));
  const Lts l = generate(p, "Count", {0});
  EXPECT_EQ(l.num_states(), 4u);  // n = 0..3
  EXPECT_EQ(l.num_transitions(), 6u);
}

// The generator emits only the states it reached, numbered breadth-first
// from 0, so lts::trim (which keeps the state order and copies the action
// table) returns its input: the case-study builders hand the generator's
// output on untrimmed.
TEST(Generate, OutputIsAlreadyTrimmed) {
  const auto action_names = [](const Lts& l) {
    std::vector<std::string> names;
    for (lts::ActionId a = 0; a < l.actions().size(); ++a) {
      names.emplace_back(l.actions().name(a));
    }
    return names;
  };
  const auto expect_trimmed = [&](const std::string& name, const Lts& l) {
    const Lts t = lts::trim(l).lts;
    EXPECT_EQ(lts::to_aut(t), lts::to_aut(l)) << name;
    EXPECT_EQ(action_names(t), action_names(l)) << name;
  };
  for (const fixtures::BuiltinModel& m : fixtures::builtin_models()) {
    expect_trimmed(m.name, generate(*m.program, m.entry));
  }
  for (const int rounds : {1, 2}) {
    for (const auto protocol : {fame::Protocol::kMsi, fame::Protocol::kMesi}) {
      for (const auto impl :
           {fame::MpiImpl::kEager, fame::MpiImpl::kRendezvous}) {
        fame::PingPongConfig config;
        config.rounds = rounds;
        config.protocol = protocol;
        config.impl = impl;
        expect_trimmed(std::string("pingpong ") + fame::to_string(protocol) +
                           " " + fame::to_string(impl) + " x" +
                           std::to_string(rounds),
                       generate(fame::pingpong_program(config), "PingPong"));
      }
    }
  }
}

TEST(Generate, CallArityChecked) {
  Program p;
  p.define("P", {"a", "b"}, stop());
  EXPECT_THROW((void)generate(p, "P", {1}), std::invalid_argument);
}

TEST(Generate, UndefinedProcessThrows) {
  Program p;
  EXPECT_THROW((void)generate(p, "Nope"), std::out_of_range);
}

TEST(Generate, UnguardedRecursionDetected) {
  Program p;
  p.define("Bad", {}, call("Bad"));
  EXPECT_THROW((void)generate(p, "Bad"), UnguardedRecursion);
}

TEST(Generate, AcceptRangeEndingAtInt32MaxTerminates) {
  const Program p = parse_program(
      "process P := a ?x:2147483646..2147483647; stop endproc");
  const Lts l = generate(p, "P");
  ASSERT_EQ(l.num_transitions(), 2u);
  const auto out = l.out(l.initial_state());
  EXPECT_EQ(l.actions().name(out[0].action), "a !2147483646");
  EXPECT_EQ(l.actions().name(out[1].action), "a !2147483647");
  // The same at the bottom of the range.
  const Lts low = generate_term(
      Program{}, prefix("B", {accept("y", kMin, kMin + 1)}, stop()));
  EXPECT_EQ(low.num_transitions(), 2u);
}

TEST(Generate, UnguardedRecursionInRightOperandAfterLeftIsMemoised) {
  // The left operand counts through 41 values (its moves are memoised over
  // every state); only after 30 steps does the right one reach Bad, whose
  // unfolding never reaches an action.
  Program p;
  p.define("Count", {"n"},
           choice({guard(evar("n") < lit(40),
                         prefix("UP", call("Count", {evar("n") + lit(1)}))),
                   guard(evar("n") == lit(40), prefix("IDLE", call("Count",
                                                                 {evar("n")})))}));
  p.define("Delay", {"k"},
           choice({guard(evar("k") > lit(0),
                         prefix("STEP", call("Delay", {evar("k") - lit(1)}))),
                   guard(evar("k") == lit(0), call("Bad"))}));
  p.define("Bad", {}, choice({call("Bad"), prefix("NEVER", stop())}));
  const TermPtr root =
      interleaving(call("Count", {lit(0)}), call("Delay", {lit(30)}));
  EXPECT_THROW((void)generate_term(p, root), UnguardedRecursion);
}

TEST(Generate, StateLimitEnforced) {
  Program p;
  p.define("Grow", {"n"}, prefix("A", call("Grow", {evar("n") + lit(1)})));
  GenerateOptions opts;
  opts.max_states = 100;
  EXPECT_THROW((void)generate(p, "Grow", {0}, opts), StateSpaceLimit);
}

// --- on-the-fly deadlock search ----------------------------------------------------

TEST(FindDeadlock, FindsShortestTrace) {
  Program p;
  p.define("P", {},
           choice({prefix("LOOP", call("P")),
                   prefix("A", prefix("B", stop()))}));
  const DeadlockSearchResult r = find_deadlock(p, "P");
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0], "A");
  EXPECT_EQ(r.trace[1], "B");
}

TEST(FindDeadlock, ReportsAbsenceOnLiveSystem) {
  Program p;
  p.define("Clock", {}, prefix("TICK", call("Clock")));
  const DeadlockSearchResult r = find_deadlock(p, "Clock");
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.trace.empty());
}

TEST(FindDeadlock, StopsEarlyOnHugeSpaces) {
  // An unbounded counter with an immediate deadlock branch: the search must
  // terminate (BFS finds the depth-1 deadlock) even though full generation
  // would hit the state limit.
  Program p;
  p.define("Grow", {"n"},
           choice({prefix("UP", call("Grow", {evar("n") + lit(1)})),
                   prefix("DIE", stop())}));
  GenerateOptions opts;
  opts.max_states = 1000;
  const DeadlockSearchResult r = find_deadlock(p, "Grow", {0}, opts);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_LT(r.states_explored, 10u);
}

TEST(FindDeadlock, FindsCreditLeakInXstreamStyleModel) {
  // Miniature credit-loss model: one credit, never returned.
  Program p;
  p.define("Prod", {"cr"},
           guard(evar("cr") > lit(0),
                 prefix("SEND", call("Prod", {evar("cr") - lit(1)}))));
  const DeadlockSearchResult r = find_deadlock(p, "Prod", {1});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace[0], "SEND");
}

// --- generation: composition ------------------------------------------------------

TEST(Generate, SequentialComposition) {
  Program p;
  // (A; exit) >> (B; stop): A then tau then B.
  const Lts l = generate_term(
      p, seq(prefix("A", exit_()), prefix("B", stop())));
  EXPECT_EQ(l.num_states(), 4u);
  const auto ts = l.all_transitions();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(l.actions().name(ts[0].action), "A");
  // The exit of the first process becomes an internal step.
  bool has_tau = false;
  for (const auto& t : ts) {
    has_tau = has_tau || lts::ActionTable::is_tau(t.action);
  }
  EXPECT_TRUE(has_tau);
}

TEST(Generate, SeqPassesEnvironmentToContinuation) {
  Program p;
  p.define("Main", {"v"},
           seq(prefix("A", exit_()), prefix("OUT", {emit(evar("v"))}, stop())));
  const Lts l = generate(p, "Main", {42});
  bool saw = false;
  for (const auto& t : l.all_transitions()) {
    saw = saw || l.actions().name(t.action) == "OUT !42";
  }
  EXPECT_TRUE(saw);
}

TEST(Generate, InterleavingGeneratesDiamond) {
  Program p;
  const Lts l =
      generate_term(p, interleaving(prefix("A", stop()), prefix("B", stop())));
  EXPECT_EQ(l.num_states(), 4u);
  EXPECT_EQ(l.num_transitions(), 4u);
}

TEST(Generate, SynchronisationOnSharedGate) {
  Program p;
  const Lts l = generate_term(
      p, par(prefix("A", prefix("S", stop())), {"S"},
             prefix("B", prefix("S", stop()))));
  // A and B interleave, then S fires jointly: 4 + 1 states.
  EXPECT_EQ(l.num_states(), 5u);
  EXPECT_EQ(l.num_transitions(), 5u);
}

TEST(Generate, ValueNegotiationEmitAccept) {
  Program p;
  // Sender emits 3; receiver accepts 0..5 and then re-emits what it got.
  const Lts l = generate_term(
      p, par(prefix("CH", {emit(lit(3))}, stop()), {"CH"},
             prefix("CH", {accept("x", 0, 5)},
                    prefix("GOT", {emit(evar("x"))}, stop()))));
  ASSERT_EQ(l.out(l.initial_state()).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "CH !3");
  bool saw = false;
  for (const auto& t : l.all_transitions()) {
    saw = saw || l.actions().name(t.action) == "GOT !3";
  }
  EXPECT_TRUE(saw);
}

TEST(Generate, ValueMismatchBlocks) {
  Program p;
  const Lts l = generate_term(
      p, par(prefix("CH", {emit(lit(1))}, stop()), {"CH"},
             prefix("CH", {emit(lit(2))}, stop())));
  EXPECT_EQ(l.num_transitions(), 0u);
}

TEST(Generate, ExitSynchronisesInParallel) {
  Program p;
  const Lts l = generate_term(
      p, par(prefix("A", exit_()), {}, prefix("B", exit_())));
  // A and B interleave (4 states), then joint exit.
  EXPECT_EQ(l.num_states(), 5u);
  bool exit_seen = false;
  for (const auto& t : l.all_transitions()) {
    exit_seen = exit_seen || lts::ActionTable::is_exit(t.action);
  }
  EXPECT_TRUE(exit_seen);
}

TEST(Generate, HideMakesTau) {
  Program p;
  const Lts l = generate_term(
      p, hide({"S"}, par(prefix("S", stop()), {"S"}, prefix("S", stop()))));
  ASSERT_EQ(l.num_transitions(), 1u);
  EXPECT_TRUE(lts::ActionTable::is_tau(l.all_transitions()[0].action));
}

TEST(Generate, HideIsGateWide) {
  Program p;
  const Lts l = generate_term(
      p, hide({"CH"}, prefix("CH", {emit(lit(7))}, prefix("KEEP", stop()))));
  const auto ts = l.all_transitions();
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_TRUE(lts::ActionTable::is_tau(ts[0].action));
  EXPECT_EQ(l.actions().name(ts[1].action), "KEEP");
}

TEST(Generate, RenameChangesGateKeepsValues) {
  Program p;
  const Lts l = generate_term(
      p, rename({{"A", "B"}}, prefix("A", {emit(lit(1))}, stop())));
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "B !1");
}

TEST(Generate, RenameAffectsSynchronisationStructurally) {
  Program p;
  // rename A->S on left, then sync on S with right.
  const Lts l = generate_term(
      p, par(rename({{"A", "S"}}, prefix("A", stop())), {"S"},
             prefix("S", stop())));
  EXPECT_EQ(l.num_transitions(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "S");
}

// --- end-to-end sanity: a 2-place buffer ----------------------------------------

Program buffer_program() {
  Program p;
  // Cell: forwards one value at a time from IN to OUT.
  p.define("CellA", {},
           prefix("IN", {accept("x", 0, 1)},
                  prefix("MID", {emit(evar("x"))}, call("CellA"))));
  p.define("CellB", {},
           prefix("MID", {accept("x", 0, 1)},
                  prefix("OUT", {emit(evar("x"))}, call("CellB"))));
  p.define("Buffer", {},
           hide({"MID"}, par(call("CellA"), {"MID"}, call("CellB"))));
  return p;
}

TEST(Generate, TwoPlaceBufferIsDeadlockFree) {
  const Program p = buffer_program();
  const Lts l = generate(p, "Buffer");
  EXPECT_TRUE(mc::check(l, mc::deadlock_freedom()));
  EXPECT_GT(l.num_states(), 4u);
}

TEST(Generate, BufferMinimisesToFifo) {
  // After hiding MID and minimising modulo branching bisimulation, the
  // 2-cell pipeline of 1-value buffers over {0,1} has the FIFO-of-capacity-2
  // quotient: 1 + 2 + 4 = 7 states.
  const Program p = buffer_program();
  const Lts l = generate(p, "Buffer");
  const auto r = bisim::minimize(l, bisim::Equivalence::kBranching);
  EXPECT_EQ(r.quotient.num_states(), 7u);
}

TEST(Generate, GeneratedLtsIsFullyReachable) {
  const Program p = buffer_program();
  const Lts l = generate(p, "Buffer");
  EXPECT_EQ(lts::trim(l).removed_states, 0u);
}

// --- failing sub-configurations -------------------------------------------------
// (The suite keeps the name of the byte-state explorer it was written for.)

TEST(TermExplorer, FailingSubConfigurationThrowsOnEveryCall) {
  // Faulty's choice is a memoised operand of the |||: its first branch
  // yields a move, its second divides by zero while lifting the guard.
  // The computation that throws must leave no partial memo entry behind.
  Program p;
  p.define("Clock", {}, prefix("TICK", call("Clock")));
  p.define("Faulty", {"z"},
           choice({prefix("OK", stop()),
                   guard(lit(1) / evar("z") == lit(0), prefix("NO", stop()))}));
  const TermPtr root = interleaving(call("Clock"), call("Faulty", {lit(0)}));
  EXPECT_THROW((void)generate_term(p, root), std::domain_error);
}

}  // namespace
