// Golden tests for the static analyzer (src/analyze): one minimal trigger
// per diagnostic code, the alphabet fixpoint, the renderers, and the
// headline contract — a structural deadlock the lint proves in microseconds
// on a model whose state space exploration would need >10^6 states to hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/alphabet_table.hpp"
#include "analyze/analyze.hpp"
#include "analyze/bounds.hpp"
#include "builtin_models.hpp"
#include "compose/plan.hpp"
#include "core/hash.hpp"
#include "dse/grid.hpp"
#include "dse/scenario.hpp"
#include "explore/engine.hpp"
#include "fame/coherence_n.hpp"
#include "fame/mpi.hpp"
#include "noc/mesh.hpp"
#include "noc/router.hpp"
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

// --- the alphabet table against the string-set fixpoint ---------------------

using analyze::GateSet;

// The string-set transfer functions the table replaced, kept as an oracle.
GateSet oracle_alpha(const Term* t,
                     const std::map<std::string, GateSet>& defs) {
  switch (t->kind()) {
    case Term::Kind::kStop:
    case Term::Kind::kExit:
      return {};
    case Term::Kind::kPrefix: {
      GateSet a = oracle_alpha(t->children()[0].get(), defs);
      a.insert(t->gate());
      return a;
    }
    case Term::Kind::kGuard:
      return oracle_alpha(t->children()[0].get(), defs);
    case Term::Kind::kChoice:
    case Term::Kind::kSeq: {
      GateSet a;
      for (const TermPtr& c : t->children()) {
        const GateSet ca = oracle_alpha(c.get(), defs);
        a.insert(ca.begin(), ca.end());
      }
      return a;
    }
    case Term::Kind::kPar: {
      const GateSet l = oracle_alpha(t->children()[0].get(), defs);
      const GateSet r = oracle_alpha(t->children()[1].get(), defs);
      GateSet a = l;
      a.insert(r.begin(), r.end());
      for (const std::string& g : t->gates()) {
        if (!(l.contains(g) && r.contains(g))) {
          a.erase(g);
        }
      }
      return a;
    }
    case Term::Kind::kHide: {
      GateSet a = oracle_alpha(t->children()[0].get(), defs);
      for (const std::string& g : t->gates()) {
        a.erase(g);
      }
      return a;
    }
    case Term::Kind::kRename: {
      GateSet a;
      for (const std::string& g :
           oracle_alpha(t->children()[0].get(), defs)) {
        const auto it = t->gate_map().find(g);
        a.insert(it == t->gate_map().end() ? g : it->second);
      }
      return a;
    }
    case Term::Kind::kCall: {
      const auto it = defs.find(t->callee());
      return it == defs.end() ? GateSet{} : it->second;
    }
  }
  return {};
}

// Kleene passes in definition-name order, updating in place.
std::map<std::string, GateSet> oracle_alphabets(const Program& p,
                                                std::size_t& passes) {
  std::map<std::string, GateSet> a;
  for (const auto& [name, def] : p.definitions()) {
    a.emplace(name, GateSet{});
  }
  passes = 0;
  for (bool changed = true; changed;) {
    changed = false;
    ++passes;
    for (const auto& [name, def] : p.definitions()) {
      GateSet next = oracle_alpha(def.body.get(), a);
      if (next != a[name]) {
        a[name] = std::move(next);
        changed = true;
      }
    }
  }
  return a;
}

// Random programs over a pool of gates whose names sort differently from
// their numbers (g10 < g2), with mutual recursion, calls to an undefined
// process, renames onto gates that already occur and sync lists drawn
// independently of the operands (so many sync gates are one-sided).
class RandomProgram {
 public:
  RandomProgram(std::uint32_t seed, std::size_t gates, std::size_t defs)
      : rng_(seed), gates_(gates), defs_(defs) {}

  Program build() {
    Program p;
    for (std::size_t d = 0; d < defs_; ++d) {
      p.define(def_name(d), {}, term(4));
    }
    // One definition runs through the whole pool, so wide pools really
    // produce alphabets of more than one word.
    TermPtr all = call(def_name(pick(defs_)));
    for (std::size_t g = 0; g < gates_; ++g) {
      all = prefix(gate_name(g), all);
    }
    p.define("Wide", {}, all);
    return p;
  }

  TermPtr term(int depth) {
    const std::size_t kind = depth <= 0 ? pick(3) : pick(11);
    switch (kind) {
      case 0:
        return coin() ? stop() : exit_();
      case 1:  // the last name is never defined
        return call(pick(4) == 0 ? "Nowhere" : def_name(pick(defs_)));
      case 2:
      case 3:
        return prefix(gate(), depth <= 0 ? stop() : term(depth - 1));
      case 4:
        return guard(lit(coin() ? 1 : 0), term(depth - 1));
      case 5:
        return choice({term(depth - 1), term(depth - 1)});
      case 6:
      case 7:
        return par(term(depth - 1), gate_list(), term(depth - 1));
      case 8:
        return hide(gate_list(1), term(depth - 1));
      case 9: {
        std::map<std::string, std::string> map;
        const std::size_t n = 1 + pick(3);
        for (std::size_t i = 0; i < n; ++i) {
          map[gate()] = gate();
        }
        return rename(std::move(map), term(depth - 1));
      }
      default:
        return seq(term(depth - 1), term(depth - 1));
    }
  }

 private:
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  bool coin() { return pick(2) == 0; }
  static std::string def_name(std::size_t d) {
    return "P" + std::to_string(d);
  }
  static std::string gate_name(std::size_t g) {
    return "g" + std::to_string(g);
  }
  std::string gate() { return gate_name(pick(gates_)); }
  std::vector<std::string> gate_list(std::size_t at_least = 0) {
    std::vector<std::string> out;
    const std::size_t n = at_least + pick(3);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(gate());
    }
    return out;
  }

  std::mt19937 rng_;
  std::size_t gates_;
  std::size_t defs_;
};

void collect_subterms(const Term* t, std::vector<const Term*>& out) {
  out.push_back(t);
  for (const TermPtr& c : t->children()) {
    collect_subterms(c.get(), out);
  }
}

TEST(AlphabetTable, MatchesTheStringSetFixpoint) {
  std::size_t wide = 0;
  std::size_t wider = 0;
  for (std::uint32_t seed = 1; seed <= 60; ++seed) {
    const std::size_t pool = seed % 3 == 0 ? 150 : seed % 3 == 1 ? 70 : 9;
    RandomProgram gen(seed, pool, 1 + seed % 6);
    const Program p = gen.build();
    const TermPtr root = gen.term(3);
    const analyze::AlphabetTable table(p, root);
    wide += table.gate_count() > 64 ? 1 : 0;
    wider += table.gate_count() > 128 ? 1 : 0;

    std::size_t passes = 0;
    const std::map<std::string, GateSet> want = oracle_alphabets(p, passes);
    EXPECT_EQ(table.passes(), passes) << "seed " << seed;
    ASSERT_EQ(table.definition_count(), want.size());
    for (std::size_t d = 0; d < table.definition_count(); ++d) {
      const std::vector<std::string> got = table.names(table.definition(d));
      EXPECT_EQ(got, (std::vector<std::string>(
                         want.at(table.definition_name(d)).begin(),
                         want.at(table.definition_name(d)).end())))
          << "seed " << seed << " definition " << table.definition_name(d);
    }
    std::vector<const Term*> subterms;
    for (const auto& [name, def] : p.definitions()) {
      collect_subterms(def.body.get(), subterms);
    }
    collect_subterms(root.get(), subterms);
    for (const Term* t : subterms) {
      const GateSet a = oracle_alpha(t, want);
      ASSERT_EQ(table.names(table.of(t)),
                (std::vector<std::string>(a.begin(), a.end())))
          << "seed " << seed << " term " << t->to_string();
    }
    for (std::size_t g = 1; g < table.gate_count(); ++g) {
      ASSERT_LT(table.name(static_cast<analyze::GateId>(g - 1)),
                table.name(static_cast<analyze::GateId>(g)));
    }
    const TermPtr stranger = call("Stranger");
    EXPECT_THROW((void)table.of(stranger.get()), std::out_of_range);
  }
  EXPECT_GT(wide, 0u);
  EXPECT_GT(wider, 0u);
}

// --- every analysis output, pinned -------------------------------------------

struct GoldenInput {
  std::string group;
  std::string name;
  std::shared_ptr<const Program> program;
  TermPtr root;
};

std::shared_ptr<const Program> shared(Program p) {
  return std::make_shared<const Program>(std::move(p));
}

Program read_example(const std::string& file) {
  std::ifstream in(std::string(MULTIVAL_EXAMPLE_MODELS) + "/" + file);
  if (!in) {
    throw std::runtime_error("cannot read example model " + file);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_program(text.str());
}

// The builtin case studies, the shipped example models, every gate program
// of the builtin dse sweeps and the five statespace models.
std::vector<GoldenInput> golden_inputs() {
  std::vector<GoldenInput> out;
  for (const fixtures::BuiltinModel& m : fixtures::builtin_models()) {
    out.push_back({"builtins", m.name, m.program, call(m.entry)});
  }
  out.push_back({"examples", "counter", shared(read_example("counter.proc")),
                 call("Count", {lit(0)})});
  out.push_back({"examples", "mutex", shared(read_example("mutex.proc")),
                 call("System")});
  out.push_back({"examples", "producer_consumer",
                 shared(read_example("producer_consumer.proc")),
                 call("System")});
  for (const std::string sweep : {"default", "smoke"}) {
    const dse::SweepSpec spec =
        dse::parse_sweep_spec(dse::builtin_sweep_spec(sweep));
    compose::MinimizeCache cache;
    for (const dse::Point& point : dse::expand(spec, &dse::derived_quantities)) {
      for (dse::GateModel& gate :
           dse::instantiate(point, compose::Strategy::kPlanned, &cache)
               .gates) {
        out.push_back({"dse " + sweep, gate.name,
                       shared(std::move(gate.program)), call(gate.entry)});
      }
    }
  }
  {
    Program p;
    const std::string entry =
        noc::add_router(p, noc::MeshDims{}, 0, noc::default_ports({}, 0));
    out.push_back({"statespace", "router", shared(std::move(p)),
                   call(entry)});
  }
  fame::PingPongConfig pingpong;
  pingpong.rounds = 2;
  out.push_back({"statespace", "ping-pong",
                 shared(fame::pingpong_program(pingpong)), call("PingPong")});
  out.push_back({"statespace", "msi-3",
                 shared(fame::coherence_system_n_program(fame::Protocol::kMsi,
                                                         3)),
                 call("SystemN")});
  out.push_back({"statespace", "mesi-3",
                 shared(fame::coherence_system_n_program(
                     fame::Protocol::kMesi, 3)),
                 call("SystemN")});
  out.push_back({"statespace", "mesh-3x3-flows",
                 shared(noc::stream_program({{0, 8}, {8, 0}}, true,
                                            noc::MeshDims{3, 3})),
                 call("Scenario")});
  return out;
}

void hash_strings(core::Hasher& h, const std::vector<std::string>& v) {
  h.u64(v.size());
  for (const std::string& s : v) {
    h.str(s);
  }
}

// Pins the alphabet fixpoint, lint's diagnostics and summary line, the
// bound report and the composition plan of every golden input, one digest
// per input group and analysis.  On a mismatch the failure prints the line
// to paste; a moved digest means the analysis changed its answer, so paste
// it only when that change is intended.
TEST(AnalysisGolden, ProgramsMatchTheParent) {
  const std::map<std::string, std::string> golden = {
      {"builtins alphabets", "cc705deb0e9a5edafd1cf06ce92369de"},
      {"builtins bounds", "df406ce099fcd7324122edd603a283d7"},
      {"builtins lint", "a336c68c26703bdb71811ea065353306"},
      {"builtins plan", "f3eb91089e35c54bafef0136323fa9d6"},
      {"dse default alphabets", "d09941a7833c039439d544c5ff61a844"},
      {"dse default bounds", "f32b5ca072f1ca1c94798caca4ea19b7"},
      {"dse default lint", "b818cb814e412c08d0595ca835445ebe"},
      {"dse default plan", "a638aa51ce225680fccea0055e16a398"},
      {"dse smoke alphabets", "f651571e7f4668a48d3f0e2f34f05520"},
      {"dse smoke bounds", "fff85b70d82cee1587ebe582dfa0d169"},
      {"dse smoke lint", "5e05a36e565de403f05b9d12c3ada6d1"},
      {"dse smoke plan", "c34424bf4961b2e891f71bad609fe18e"},
      {"examples alphabets", "f807a480614778b11349b96e884fb87d"},
      {"examples bounds", "f920f3bc29dca8708aee99835ec6cfb6"},
      {"examples lint", "9f8a760367fe9f93be15fb54f69c1090"},
      {"examples plan", "0310f69d3bc6f33c50c417ea5cf15301"},
      {"statespace alphabets", "4d04506d3580478f30f47b7cf4b03dc6"},
      {"statespace bounds", "31f14f935cb0de75cd99b91597ec462b"},
      {"statespace lint", "cf9769430197a0c6a4683735fe72b093"},
      {"statespace plan", "82e2181592100f965b59a52edc345ba1"},
  };
  std::map<std::string, core::Hasher> h;
  for (const GoldenInput& in : golden_inputs()) {
    const Program& p = *in.program;
    core::Hasher& alpha = h[in.group + " alphabets"];
    alpha.str(in.name);
    for (const auto& [def, gates] : analyze::alphabets(p)) {
      alpha.str(def);
      hash_strings(alpha, {gates.begin(), gates.end()});
    }

    core::Hasher& lint = h[in.group + " lint"];
    const analyze::Analysis a = analyze::lint_program(p, in.root);
    lint.str(in.name);
    lint.str(core::render_text(a.diagnostics));
    lint.str(a.summary());

    core::Hasher& bounds = h[in.group + " bounds"];
    const analyze::BoundReport r = analyze::predicted_bounds(p, in.root);
    bounds.str(in.name);
    bounds.u64(r.total);
    for (const analyze::ComponentBound& c : r.components) {
      bounds.str(c.name);
      bounds.u64(c.states);
      bounds.str(c.cause);
    }
    bounds.str(core::render_text(r.diagnostics));

    core::Hasher& plan = h[in.group + " plan"];
    const compose::Plan pl = compose::plan_term(in.program, in.root);
    plan.str(in.name);
    plan.u64(pl.planned ? 1 : 0);
    plan.str(pl.grammar);
    hash_strings(plan, pl.components);
    plan.u64(pl.component_bounds.size());
    for (const std::uint64_t b : pl.component_bounds) {
      plan.u64(b);
    }
    hash_strings(plan, pl.static_skips);
    plan.str(pl.fallback_reason);
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

}  // namespace
