// Tests for the LOTOS-flavoured textual front end of the process calculus,
// plus garbage-input sweeps over the process and formula parsers.
#include <gtest/gtest.h>

#include <random>

#include "bisim/equivalence.hpp"
#include "core/flow.hpp"
#include "markov/steady.hpp"
#include "lts/analysis.hpp"
#include "mc/evaluator.hpp"
#include "mc/parser.hpp"
#include "mc/properties.hpp"
#include "proc/generator.hpp"
#include "proc/parser.hpp"

namespace {

using namespace multival;
using namespace multival::proc;

// --- value expressions ------------------------------------------------------

TEST(ProcExprParser, Arithmetic) {
  Env env;
  env.bind("x", 7);
  EXPECT_EQ(parse_value_expr("1 + 2 * 3")->eval(env), 7);
  EXPECT_EQ(parse_value_expr("(1 + 2) * 3")->eval(env), 9);
  EXPECT_EQ(parse_value_expr("x % 4")->eval(env), 3);
  EXPECT_EQ(parse_value_expr("-x + 10")->eval(env), 3);
  EXPECT_EQ(parse_value_expr("min(x, 3) + max(x, 9)")->eval(env), 12);
}

TEST(ProcExprParser, BooleansAndComparisons) {
  Env env;
  env.bind("n", 2);
  EXPECT_EQ(parse_value_expr("n < 3 && n > 0")->eval(env), 1);
  EXPECT_EQ(parse_value_expr("n == 2 || n == 5")->eval(env), 1);
  EXPECT_EQ(parse_value_expr("!(n <= 1)")->eval(env), 1);
  EXPECT_EQ(parse_value_expr("n != 2")->eval(env), 0);
  EXPECT_EQ(parse_value_expr("n >= 3")->eval(env), 0);
}

TEST(ProcExprParser, Errors) {
  EXPECT_THROW((void)parse_value_expr(""), ProcParseError);
  EXPECT_THROW((void)parse_value_expr("1 +"), ProcParseError);
  EXPECT_THROW((void)parse_value_expr("(1"), ProcParseError);
  EXPECT_THROW((void)parse_value_expr("1 2"), ProcParseError);
  EXPECT_THROW((void)parse_value_expr("99999999999"), ProcParseError);
}

// --- behaviours -----------------------------------------------------------------

TEST(ProcBehaviourParser, PrefixChain) {
  Program p;
  const lts::Lts l = generate_term(p, parse_behaviour("A; B; stop"));
  EXPECT_EQ(l.num_states(), 3u);
  EXPECT_EQ(l.actions().name(l.out(0)[0].action), "A");
}

TEST(ProcBehaviourParser, OffersAndValues) {
  Program p;
  const lts::Lts l = generate_term(
      p, parse_behaviour("CH !3 ; OUT ?x:0..1 !(x + 10) ; stop"));
  EXPECT_EQ(l.actions().name(l.out(0)[0].action), "CH !3");
  bool saw = false;
  for (const auto& t : l.all_transitions()) {
    saw = saw || l.actions().name(t.action) == std::string("OUT !1 !11");
  }
  EXPECT_TRUE(saw);
}

TEST(ProcBehaviourParser, ChoiceAndGuard) {
  Program p;
  const lts::Lts l = generate_term(
      p, parse_behaviour("[1 == 1] -> YES; stop [] [0 == 1] -> NO; stop"));
  ASSERT_EQ(l.out(l.initial_state()).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "YES");
}

TEST(ProcBehaviourParser, ParallelOperators) {
  Program p;
  const lts::Lts inter = generate_term(
      p, parse_behaviour("A; stop ||| B; stop"));
  EXPECT_EQ(inter.num_states(), 4u);
  const lts::Lts sync = generate_term(
      p, parse_behaviour("S; stop |[S]| S; stop"));
  EXPECT_EQ(sync.num_transitions(), 1u);
}

TEST(ProcBehaviourParser, HideAndRename) {
  Program p;
  const lts::Lts hidden = generate_term(
      p, parse_behaviour("hide A in A; B; stop"));
  EXPECT_TRUE(lts::ActionTable::is_tau(hidden.out(0)[0].action));
  const lts::Lts renamed = generate_term(
      p, parse_behaviour("rename A -> Z in A !1 ; stop"));
  EXPECT_EQ(renamed.actions().name(renamed.out(0)[0].action), "Z !1");
}

TEST(ProcBehaviourParser, SequentialComposition) {
  Program p;
  const lts::Lts l = generate_term(
      p, parse_behaviour("(A; exit) >> (B; stop)"));
  bool saw_tau = false;
  for (const auto& t : l.all_transitions()) {
    saw_tau = saw_tau || lts::ActionTable::is_tau(t.action);
  }
  EXPECT_TRUE(saw_tau);
  EXPECT_TRUE(mc::check(l, mc::can_do(mc::act("B"))));
}

// --- full programs -----------------------------------------------------------------

TEST(ProcProgramParser, RecursiveCounter) {
  const Program p = parse_program(R"(
    -- a bounded counter, LOTOS style
    process Count (n) :=
        [n < 3] -> UP;   Count (n + 1)
     [] [n > 0] -> DOWN; Count (n - 1)
    endproc
  )");
  const lts::Lts l = generate(p, "Count", {0});
  EXPECT_EQ(l.num_states(), 4u);
  EXPECT_EQ(l.num_transitions(), 6u);
}

TEST(ProcProgramParser, MultipleDefinitionsAndComposition) {
  const Program p = parse_program(R"(
    process Producer := PUT !1 ; Producer endproc
    process Consumer := PUT ?x:0..2 ; GET !x ; Consumer endproc
    process System := hide PUT in (Producer |[PUT]| Consumer) endproc
  )");
  const lts::Lts l = generate(p, "System");
  EXPECT_TRUE(mc::check(l, mc::deadlock_freedom()));
  EXPECT_TRUE(mc::check(l, mc::can_do(mc::act("GET !1"))));
  EXPECT_TRUE(mc::check(l, mc::never(mc::act("GET !2"))));
}

TEST(ProcProgramParser, ParsedModelMatchesBuilderModel) {
  // The same one-place buffer written via the builder API and via text
  // must be strongly bisimilar.
  const Program text = parse_program(R"(
    process Buf := IN ?x:0..1 ; OUT !x ; Buf endproc
  )");
  Program built;
  built.define("Buf", {},
               prefix("IN", {accept("x", 0, 1)},
                      prefix("OUT", {emit(evar("x"))}, call("Buf"))));
  EXPECT_TRUE(bisim::equivalent(generate(text, "Buf"), generate(built, "Buf"),
                                bisim::Equivalence::kStrong));
}

TEST(ProcProgramParser, CommentsBothStyles) {
  const Program p = parse_program(
      "-- lotos comment\n"
      "process P := // c++ comment\n"
      "  A; stop\n"
      "endproc\n");
  EXPECT_EQ(generate(p, "P").num_transitions(), 1u);
}

TEST(ProcProgramParser, NegativeAcceptBounds) {
  const Program p = parse_program(R"(
    process P := CH ?x:-1..1 ; stop endproc
  )");
  const lts::Lts l = generate(p, "P");
  EXPECT_EQ(l.out(l.initial_state()).size(), 3u);
}

TEST(ProcProgramParser, Errors) {
  EXPECT_THROW((void)parse_program("process := stop endproc"),
               ProcParseError);
  EXPECT_THROW((void)parse_program("process P := stop"), ProcParseError);
  EXPECT_THROW((void)parse_program("process P := A stop endproc"),
               ProcParseError);
  EXPECT_THROW((void)parse_behaviour("A; stop trailing"), ProcParseError);
  // Reserved gate name through the parser surfaces the builder's check,
  // wrapped with a source position like every other parse failure.
  EXPECT_THROW((void)parse_behaviour("i; stop"), ProcParseError);
}

TEST(ProcProgramParser, ErrorMessageHasPosition) {
  try {
    (void)parse_program("process P :=\n  A;\nendproc");
    FAIL() << "expected ProcParseError";
  } catch (const ProcParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    // The structured diagnostic carries the same position plus the token.
    EXPECT_EQ(e.diagnostic().code, "MV010");
    EXPECT_EQ(e.diagnostic().line, 3u);
    EXPECT_NE(e.diagnostic().message.find("near end of input"),
              std::string::npos);
  }
}

TEST(ProcProgramParser, BuilderErrorsCarryPosition) {
  try {
    (void)parse_behaviour("A; i; stop");
    FAIL() << "expected ProcParseError";
  } catch (const ProcParseError& e) {
    EXPECT_EQ(e.diagnostic().code, "MV010");
    EXPECT_EQ(e.diagnostic().line, 1u);
    EXPECT_EQ(e.diagnostic().column, 4u);
    EXPECT_NE(e.diagnostic().message.find("reserved"), std::string::npos);
  }
  try {
    (void)parse_behaviour("G ?x:5..1 ; stop");
    FAIL() << "expected ProcParseError";
  } catch (const ProcParseError& e) {
    EXPECT_NE(e.diagnostic().message.find("empty range"), std::string::npos);
    EXPECT_EQ(e.diagnostic().line, 1u);
  }
  try {
    (void)parse_program(
        "process P := stop endproc\nprocess P := stop endproc");
    FAIL() << "expected ProcParseError";
  } catch (const ProcParseError& e) {
    EXPECT_NE(e.diagnostic().message.find("redefinition"), std::string::npos);
    EXPECT_EQ(e.diagnostic().line, 2u);
  }
}

// --- pretty-printer round trips ------------------------------------------------------

TEST(PrettyPrint, TermSyntaxReparses) {
  const TermPtr t = hide(
      {"MID"},
      par(prefix("IN", {accept("x", 0, 1)},
                 prefix("MID", {emit(evar("x"))}, stop())),
          {"MID"},
          choice({guard(lit(1) == lit(1),
                        prefix("MID", {accept("y", 0, 1)}, exit_())),
                  prefix("OTHER", stop())})));
  const TermPtr back = parse_behaviour(t->to_string());
  Program empty;
  EXPECT_TRUE(bisim::equivalent(generate_term(empty, t),
                                generate_term(empty, back),
                                bisim::Equivalence::kStrong))
      << t->to_string();
}

TEST(PrettyPrint, ProgramSyntaxReparses) {
  Program p;
  p.define("Count", {"n"},
           choice({guard(evar("n") < lit(2),
                         prefix("UP", call("Count", {evar("n") + lit(1)}))),
                   guard(evar("n") > lit(0),
                         prefix("DN", call("Count", {evar("n") - lit(1)})))}));
  p.define("Main", {}, rename({{"UP", "TICK"}}, call("Count", {lit(0)})));
  const Program back = parse_program(p.to_string());
  EXPECT_TRUE(bisim::equivalent(generate(p, "Main"), generate(back, "Main"),
                                bisim::Equivalence::kStrong))
      << p.to_string();
}

TEST(PrettyPrint, SeqAndExprsReparse) {
  const TermPtr t =
      seq(prefix("A", {emit(emin(lit(3), lit(5)) + lit(1))}, exit_()),
          prefix("B", stop()));
  const TermPtr back = parse_behaviour(t->to_string());
  Program empty;
  EXPECT_TRUE(bisim::equivalent(generate_term(empty, t),
                                generate_term(empty, back),
                                bisim::Equivalence::kStrong));
}

// --- a textual model through the whole flow ---------------------------------------

TEST(ProcProgramParser, TextualModelEndToEnd) {
  const Program p = parse_program(R"(
    process Station :=
        ARRIVE; SERVE; Station
    endproc
  )");
  const lts::Lts l = generate(p, "Station");
  const imc::Imc m =
      core::decorate_with_rates(l, {{"ARRIVE", 1.0}, {"SERVE", 4.0}});
  const auto closed = core::close_model(m);
  const auto pi = markov::steady_state(closed.ctmc);
  EXPECT_NEAR(markov::throughput(closed.ctmc, pi, "SERVE"), 0.8, 1e-9);
}

// --- parser robustness: a nesting budget -----------------------------------------

/// @p n copies of @p open, then @p core, then @p n copies of @p close.
std::string nested(std::size_t n, const std::string& open,
                   const std::string& core, const std::string& close) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    s += open;
  }
  s += core;
  for (std::size_t i = 0; i < n; ++i) {
    s += close;
  }
  return s;
}

/// @p item joined by @p op, @p n items in all.
std::string chain(std::size_t n, const std::string& item,
                  const std::string& op) {
  std::string s = item;
  for (std::size_t i = 1; i < n; ++i) {
    s += op + item;
  }
  return s;
}

/// True if @p text fails to parse on the nesting budget, not otherwise.
bool proc_too_deep(const std::string& text) {
  try {
    (void)parse_program(text);
  } catch (const ProcParseError& e) {
    return e.diagnostic().message.find("nesting deeper than") !=
           std::string::npos;
  }
  return false;
}

bool formula_too_deep(const std::string& text) {
  try {
    (void)mc::parse_formula(text);
  } catch (const mc::ParseError& e) {
    return std::string(e.what()).find("nesting deeper than") !=
           std::string::npos;
  }
  return false;
}

TEST(ProcProgramParser, DeepNestingIsAParseError) {
  // 40,000 parentheses around stop overflowed the stack of gen and lint.
  try {
    (void)parse_program("process P :=\n" + nested(40000, "(", "stop", ")") +
                        " endproc");
    FAIL() << "expected ProcParseError";
  } catch (const ProcParseError& e) {
    EXPECT_EQ(e.diagnostic().code, "MV010");
    EXPECT_EQ(e.diagnostic().line, 2u);
    // The budget runs out after 256 parentheses: the input's first line
    // ends with the body's level, every '(' on the next one adds a level.
    EXPECT_EQ(e.diagnostic().column, core::kMaxParseNesting + 1);
    EXPECT_NE(e.diagnostic().message.find("nesting deeper than 256 levels"),
              std::string::npos);
  }
  // Every way of building a deep tree counts: prefix chains, unary
  // operators, operator chains, value expressions.
  for (const std::string& body :
       {chain(40000, "A", " ; ") + " ; stop",
        nested(40000, "hide A in ", "stop", ""),
        chain(100000, "stop", " ||| "), chain(100000, "exit", " >> "),
        "[" + nested(40000, "(", "1", ")") + " == 1] -> stop",
        "[" + nested(40000, "- ", "1", "") + " == 1] -> stop",
        "[" + chain(100000, "1", " + ") + " == 1] -> stop",
        "[" + chain(100000, "1", " && ") + "] -> stop"}) {
    EXPECT_TRUE(proc_too_deep("process P := " + body + " endproc"))
        << body.substr(0, 40);
  }
  // The budget is exact: n parentheses around "A ; stop" nest n + 2 levels.
  const std::size_t n = core::kMaxParseNesting - 2;
  const Program p = parse_program("process P := " +
                                  nested(n, "(", "A ; stop", ")") + " endproc");
  EXPECT_EQ(generate(p, "P").num_states(), 2u);
  EXPECT_TRUE(proc_too_deep("process P := " +
                            nested(n + 1, "(", "A ; stop", ")") + " endproc"));
}

TEST(ParserState, DeepNestingIsAParseError) {
  // 30,000 parentheses overflowed the stack of check-file and of serve.
  try {
    (void)mc::parse_formula(nested(30000, "(", "tt", ")"));
    FAIL() << "expected mc::ParseError";
  } catch (const mc::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "at position " + std::to_string(core::kMaxParseNesting) +
                  ": nesting deeper than 256 levels"),
              std::string::npos);
  }
  for (const std::string& f :
       {nested(30000, "!", "tt", ""), nested(30000, "mu X. ", "tt", ""),
        nested(30000, "<any> ", "tt", ""), chain(100000, "tt", " && "),
        chain(100000, "tt", " || "),
        "<" + nested(30000, "(", "any", ")") + "> tt",
        "<" + chain(100000, "any", " | ") + "> tt"}) {
    EXPECT_TRUE(formula_too_deep(f)) << f.substr(0, 40);
  }
  // n parentheses around tt nest n + 1 levels.
  const std::size_t n = core::kMaxParseNesting - 1;
  EXPECT_EQ(mc::parse_formula(nested(n, "(", "tt", ")"))->to_string(),
            mc::parse_formula("tt")->to_string());
  EXPECT_TRUE(formula_too_deep(nested(n + 1, "(", "tt", ")")));
}

// --- parser robustness: garbage never crashes -----------------------------------

class FuzzSeed : public ::testing::TestWithParam<std::uint32_t> {};

std::string random_garbage(std::uint32_t seed) {
  static const char alphabet[] =
      "abcXYZ01 ;:!?().,[]<>|&-+*/'\"\n\tprocessmunutt";
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> len(0, 60);
  std::uniform_int_distribution<std::size_t> ch(0, sizeof(alphabet) - 2);
  std::string s;
  const std::size_t n = len(rng);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(alphabet[ch(rng)]);
  }
  return s;
}

TEST_P(FuzzSeed, FormulaParserThrowsCleanly) {
  const std::string input = random_garbage(GetParam());
  try {
    (void)mc::parse_formula(input);
  } catch (const mc::ParseError&) {
    // expected for garbage
  } catch (const std::invalid_argument&) {
    // reserved-name style rejections are also acceptable
  }
}

TEST_P(FuzzSeed, ProcParserThrowsCleanly) {
  const std::string input = random_garbage(GetParam() + 1000);
  try {
    (void)proc::parse_program(input);
  } catch (const proc::ProcParseError&) {
  } catch (const std::invalid_argument&) {
  }
  try {
    (void)proc::parse_behaviour(input);
  } catch (const proc::ProcParseError&) {
  } catch (const std::invalid_argument&) {
  }
}

INSTANTIATE_TEST_SUITE_P(Garbage, FuzzSeed, ::testing::Range(0u, 50u));

}  // namespace
