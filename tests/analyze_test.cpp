// Golden tests for the static analyzer (src/analyze): one minimal trigger
// per diagnostic code, the alphabet fixpoint, the renderers, and the
// headline contract — a structural deadlock the lint proves in microseconds
// on a model whose state space exploration would need >10^6 states to hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "analyze/analyze.hpp"
#include "explore/engine.hpp"
#include "proc/parser.hpp"
#include "proc/process.hpp"

namespace {

using namespace multival;
using namespace multival::proc;

analyze::Analysis lint_text(const std::string& text) {
  return analyze::lint_program(parse_program(text));
}

bool has_code(const analyze::Analysis& a, const std::string& code) {
  return std::any_of(a.diagnostics.begin(), a.diagnostics.end(),
                     [&](const core::Diagnostic& d) { return d.code == code; });
}

const core::Diagnostic& first(const analyze::Analysis& a,
                              const std::string& code) {
  for (const core::Diagnostic& d : a.diagnostics) {
    if (d.code == code) {
      return d;
    }
  }
  throw std::logic_error("no diagnostic " + code);
}

// --- alphabet fixpoint ------------------------------------------------------

TEST(Alphabets, FollowsHideRenameAndRecursion) {
  const Program p = parse_program(R"(
    process Ping := PING ; Pong endproc
    process Pong := PONG ; Ping endproc
    process Quiet := hide PING in Ping endproc
    process Loud := rename PONG -> BANG in Pong endproc
  )");
  const auto alpha = analyze::alphabets(p);
  EXPECT_EQ(alpha.at("Ping"), (analyze::GateSet{"PING", "PONG"}));
  EXPECT_EQ(alpha.at("Pong"), (analyze::GateSet{"PING", "PONG"}));
  EXPECT_EQ(alpha.at("Quiet"), (analyze::GateSet{"PONG"}));
  EXPECT_EQ(alpha.at("Loud"), (analyze::GateSet{"PING", "BANG"}));
}

TEST(Alphabets, OneSidedSyncGateVanishesFromThePar) {
  // B never joins on GO, so the par can never perform it: GO must not
  // leak into the composed alphabet the outer context sees.
  const Program p = parse_program(R"(
    process A := GO ; A endproc
    process B := WORK ; B endproc
    process Sys := A |[GO]| B endproc
  )");
  const auto alpha = analyze::alphabets(p);
  EXPECT_EQ(alpha.at("Sys"), (analyze::GateSet{"WORK"}));
}

// --- one golden trigger per code --------------------------------------------

TEST(LintGolden, Mv001UndefinedProcess) {
  const auto a = lint_text("process P := A ; Missing endproc");
  EXPECT_FALSE(a.clean());
  const auto& d = first(a, "MV001");
  EXPECT_EQ(d.severity, core::Severity::kError);
  EXPECT_NE(d.message.find("Missing"), std::string::npos);
}

TEST(LintGolden, Mv002ArityMismatch) {
  const auto a = lint_text(R"(
    process Count (n) := T !n ; Count (n + 1) endproc
    process P := Count (1 + 2, 4) endproc
  )");
  EXPECT_FALSE(a.clean());
  const auto& d = first(a, "MV002");
  EXPECT_NE(d.message.find("2 argument"), std::string::npos);
}

TEST(LintGolden, Mv003NeverFiringGateWithStuckOperandIsAnError) {
  const auto a = lint_text(R"(
    process Left := A ; Left endproc
    process Stuck := GO ; stop endproc
    process Sys := Left |[GO]| Stuck endproc
  )");
  EXPECT_FALSE(a.clean());
  const auto& d = first(a, "MV003");
  EXPECT_EQ(d.severity, core::Severity::kError);
  EXPECT_NE(d.message.find("GO"), std::string::npos);
  EXPECT_NE(d.path.find("Sys"), std::string::npos);
  EXPECT_FALSE(has_code(a, "MV004"));
}

TEST(LintGolden, Mv003SeesThroughChoiceAndGuards) {
  // Every initial branch of the right operand needs GO: still stuck.
  const auto a = lint_text(R"(
    process Left := A ; Left endproc
    process Stuck := GO !1 ; stop [] [1 == 1] -> GO !2 ; stop endproc
    process Sys := Left |[GO]| Stuck endproc
  )");
  EXPECT_TRUE(has_code(a, "MV003"));
}

TEST(LintGolden, Mv004UnreachableBehindPrefixIsOnlyAdvice) {
  // The GO occurrence sits behind a B prefix, exactly the noc router
  // restriction idiom: the operand can still move, so no error.
  const auto a = lint_text(R"(
    process Left := A ; Left endproc
    process Busy := B ; GO ; Busy endproc
    process Sys := Left |[GO]| Busy endproc
  )");
  EXPECT_TRUE(a.clean());
  const auto& d = first(a, "MV004");
  EXPECT_EQ(d.severity, core::Severity::kAdvice);
  EXPECT_FALSE(has_code(a, "MV003"));
}

TEST(LintGolden, Mv005SyncGateInNeitherAlphabet) {
  const auto a = lint_text(R"(
    process A := X ; A endproc
    process B := Y ; B endproc
    process Sys := A |[Z]| B endproc
  )");
  EXPECT_TRUE(a.clean());
  EXPECT_NE(first(a, "MV005").message.find("Z"), std::string::npos);
}

TEST(LintGolden, Mv006ConstantlyFalseGuard) {
  const auto a = lint_text(R"(
    process P := [1 == 2] -> DEAD ; stop [] LIVE ; P endproc
  )");
  EXPECT_TRUE(a.clean());
  EXPECT_TRUE(has_code(a, "MV006"));
}

TEST(LintGolden, Mv007HideAndRenameOfAbsentGate) {
  const auto a = lint_text(R"(
    process P := hide GHOST in A ; stop endproc
    process Q := rename PHANTOM -> X in B ; stop endproc
  )");
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(a.count(core::Severity::kWarning), 2u);
  EXPECT_TRUE(has_code(a, "MV007"));
}

TEST(LintGolden, Mv008SyncOnGateHiddenInsideOperand) {
  const auto a = lint_text(R"(
    process A := S ; A endproc
    process B := S ; B endproc
    process Sys := (hide S in A) |[S]| B endproc
  )");
  EXPECT_FALSE(a.clean());
  EXPECT_TRUE(has_code(a, "MV008"));
}

TEST(LintGolden, Mv021HidePlacementAdvice) {
  // G is local to the left operand and not synchronised: the hide can be
  // pushed into that operand before the product is built.
  const auto a = lint_text(R"(
    process A := G ; S ; A endproc
    process B := S ; B endproc
    process Sys := hide G in (A |[S]| B) endproc
  )");
  EXPECT_TRUE(a.clean());
  const auto& d = first(a, "MV021");
  EXPECT_EQ(d.severity, core::Severity::kAdvice);
  EXPECT_NE(d.message.find("left"), std::string::npos);
  EXPECT_NE(d.hint.find("planner"), std::string::npos);
}

TEST(LintGolden, Mv021SilentWhenSynchronisedOrShared) {
  // Synchronised gate: the hide must stay above the par.
  const auto sync = lint_text(R"(
    process A := G ; A endproc
    process B := G ; B endproc
    process Sys := hide G in (A |[G]| B) endproc
  )");
  EXPECT_FALSE(has_code(sync, "MV021"));
  // Interleaved but used by both operands: pushing the hide into one side
  // would change the other's alphabet, so no advice either.
  const auto shared = lint_text(R"(
    process A := G ; S ; A endproc
    process B := G ; S ; B endproc
    process Sys := hide G in (A |[S]| B) endproc
  )");
  EXPECT_FALSE(has_code(shared, "MV021"));
}

TEST(LintGolden, Mv009UnboundValueVariable) {
  const auto a = lint_text("process P := OUT !x ; stop endproc");
  EXPECT_FALSE(a.clean());
  EXPECT_NE(first(a, "MV009").message.find("x"), std::string::npos);
}

TEST(LintGolden, Mv009BoundVariablesStayClean) {
  const auto a = lint_text(R"(
    process P (n) := IN ?x:0..2 ; OUT !(x + n) ; P (n) endproc
  )");
  EXPECT_TRUE(a.diagnostics.empty());
}

TEST(LintGolden, Mv010ParseFailureCarriesPosition) {
  try {
    (void)parse_program("process P :=\n  OUT !! ; stop\nendproc");
    FAIL() << "expected ProcParseError";
  } catch (const ProcParseError& e) {
    EXPECT_EQ(e.diagnostic().code, "MV010");
    EXPECT_EQ(e.diagnostic().severity, core::Severity::kError);
    EXPECT_GT(e.diagnostic().line, 0u);
  }
}

TEST(LintGolden, Mv011DelayRacingNondeterminism) {
  imc::Imc m;
  m.add_states(3);
  m.add_interactive(0, "a", 1);
  m.add_interactive(0, "b", 2);
  m.add_markovian(0, 1.5, 1);
  const auto a = analyze::lint_imc(m);
  EXPECT_TRUE(a.clean());
  EXPECT_NE(first(a, "MV011").message.find("states 0"), std::string::npos);
}

TEST(LintGolden, Mv012RateCutByMaximalProgress) {
  imc::Imc m;
  m.add_states(2);
  m.add_interactive(0, "i", 1);  // outgoing tau: state 0 is unstable
  m.add_markovian(0, 2.0, 1);
  const auto a = analyze::lint_imc(m);
  EXPECT_TRUE(has_code(a, "MV012"));
  EXPECT_FALSE(has_code(a, "MV011"));
}

TEST(LintGolden, Mv013ResidualNondeterminismIsAdvice) {
  imc::Imc m;
  m.add_states(3);
  m.add_interactive(0, "a", 1);
  m.add_interactive(0, "b", 2);
  const auto a = analyze::lint_imc(m);
  const auto& d = first(a, "MV013");
  EXPECT_EQ(d.severity, core::Severity::kAdvice);
}

TEST(LintGolden, DeterministicImcIsSilent) {
  imc::Imc m;
  m.add_states(3);
  m.add_interactive(0, "a", 1);
  m.add_markovian(1, 3.0, 2);
  EXPECT_TRUE(analyze::lint_imc(m).diagnostics.empty());
}

TEST(LintGolden, Mv020FixedDelayAdvisory) {
  const core::Diagnostic d = analyze::fixed_delay_advisory(1.0, 0.1);
  EXPECT_EQ(d.code, "MV020");
  EXPECT_EQ(d.severity, core::Severity::kAdvice);
  EXPECT_NE(d.message.find("Erlang"), std::string::npos);
  // Halving the bound must grow the phase count (~4x asymptotically).
  const auto phases = [](double eps) {
    const std::string m = analyze::fixed_delay_advisory(1.0, eps).message;
    const auto at = m.find("Erlang-");
    return std::stoul(m.substr(at + 7));
  };
  EXPECT_GT(phases(0.05), 2 * phases(0.1));
  EXPECT_THROW((void)analyze::fixed_delay_advisory(0.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)analyze::fixed_delay_advisory(1.0, 1.5),
               std::invalid_argument);
}

// --- renderers and gate ------------------------------------------------------

TEST(LintRender, JsonEscapesAndListsEveryField) {
  const auto a = lint_text("process P := A ; Missing endproc");
  const std::string json = core::render_json(a.diagnostics);
  EXPECT_NE(json.find("\"code\":\"MV001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  core::Diagnostic quoted{"MV000", core::Severity::kAdvice,
                          "say \"hi\"\n", "p\\q", 1, 2, ""};
  const std::string s = quoted.to_json();
  EXPECT_NE(s.find("say \\\"hi\\\"\\n"), std::string::npos);
  EXPECT_NE(s.find("p\\\\q"), std::string::npos);
}

TEST(LintRender, JsonStringEscapesControlBytesAndPassesUtf8Through) {
  // The one escaper behind diagnostics and dse --json.
  EXPECT_EQ(core::json_string("\"\\\n\t\r\x01" "\xc3\xa9"),
            "\"\\\"\\\\\\n\\t\\r\\u0001\xc3\xa9\"");
}

TEST(LintRender, SummaryCountsBySeverity) {
  const auto a = lint_text(R"(
    process P := hide GHOST in A ; Missing endproc
  )");
  EXPECT_EQ(a.count(core::Severity::kError), 1u);
  EXPECT_EQ(a.count(core::Severity::kWarning), 1u);
  EXPECT_NE(a.summary().find("1 error"), std::string::npos);
}

TEST(LintGate, RequireWellFormedThrowsOnErrorsOnly) {
  const Program warn = parse_program(
      "process P := hide GHOST in A ; stop endproc");
  EXPECT_NO_THROW(analyze::require_well_formed(warn));
  const Program bad = parse_program("process P := A ; Missing endproc");
  try {
    analyze::require_well_formed(bad);
    FAIL() << "expected ModelError";
  } catch (const analyze::ModelError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_NE(std::string(e.what()).find("MV001"), std::string::npos);
  }
}

// --- the headline contract ---------------------------------------------------

// Seven interleaved ten-state counters give a 10^7-state product in which
// the composed GO can never fire; its right operand is stuck from its
// initial state.  The lint must prove the deadlock from the syntax alone:
// well under 50 ms, zero states generated.
TEST(LintScale, FindsDeadlockInTenMillionStateModelWithoutExploring) {
  std::string text;
  std::string left = "Cell0";
  for (int i = 0; i < 7; ++i) {
    const std::string id = std::to_string(i);
    text += "process Cell" + id + " (n) :=\n";
    text += "    [n < 9] -> INC" + id + " ; Cell" + id + " (n + 1)\n";
    text += " [] [n > 0] -> DEC" + id + " ; Cell" + id + " (n - 1)\n";
    text += "endproc\n";
    if (i > 0) {
      left = "(" + left + " ||| Cell" + id + " (0))";
    } else {
      left = "Cell0 (0)";
    }
  }
  text += "process Blocked := GO ; stop endproc\n";
  text += "process System := " + left + " |[GO]| Blocked endproc\n";

  const auto program =
      std::make_shared<const Program>(parse_program(text));
  const auto t0 = std::chrono::steady_clock::now();
  const analyze::Analysis a = analyze::lint_program(*program);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

  EXPECT_FALSE(a.clean());
  const auto& d = first(a, "MV003");
  EXPECT_NE(d.message.find("GO"), std::string::npos);
  EXPECT_EQ(a.stats.states_generated, 0u);  // the no-exploration contract
  EXPECT_LT(ms, 50.0);
  EXPECT_LT(a.stats.seconds, 0.050);

  // The same proof gates exploration: proc_oracle refuses to start on the
  // 10^7-state product instead of diverging into it.
  EXPECT_THROW((void)explore::proc_oracle(program, "System", {}),
               analyze::ModelError);
}

}  // namespace
