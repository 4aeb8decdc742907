// Compositional static analysis ("model lint") over process-calculus
// programs and IMC inputs — the pre-flight layer of the flow.
//
// Everything here runs in time polynomial in the *syntax* of the model
// (respectively linear in the transitions of an already-built IMC) and
// never constructs a state space: the whole point is to catch design
// errors before a potentially exponential generation or a wasted solver
// run, the way CADP's static checkers front-load CAESAR.
//
// The analysis is built on one lattice: per-definition action alphabets,
// elements of the powerset of gate names ordered by inclusion, computed as
// the least fixed point of the (monotone) syntactic transfer functions of
// the operators.  alpha(P) *over-approximates* the set of visible gates P
// can ever perform, so "g not in alpha(P)" soundly proves that g can never
// fire — the direction every never-firing-gate verdict below relies on.
// The lattice is represented as bitsets over the program's gate ids, which
// are numbered in name order (analyze::AlphabetTable, alphabet_table.hpp):
// lint, the bound analysis and the planner each build one table per
// program and read every alphabet from it.  Gate names appear only at the
// edge: alphabets() below, diagnostic text and plan grammar.
//
// Checks (stable codes; see README for the reference table):
//   MV001 error    reference to an undefined process
//   MV002 error    process call arity mismatch
//   MV003 error    sync gate that can never fire, and every initial action
//                  of the offering operand needs such a gate: the component
//                  is stuck from its initial state (structural deadlock)
//   MV004 advice   sync gate that can never fire, operand not provably
//                  stuck (restriction idiom; possibly intentional)
//   MV005 warning  sync-set gate never performed by either operand
//   MV006 warning  dead choice branch (guard constantly false)
//   MV007 warning  hide/rename of a gate the operand never performs
//   MV008 error    synchronisation on a gate hidden inside an operand
//   MV009 error    unbound value variable
//   MV010 error    malformed model text (wraps parse failures)
//   MV011 warning  Markovian delay racing unresolved nondeterminism
//   MV012 warning  Markovian delay cut by maximal progress (dead rate)
//   MV013 advice   residual interactive nondeterminism (scheduler bounds)
//   MV020 advice   fixed-delay phase-type approximation advisory
//   MV021 advice   hide-placement: a hidden gate local to one operand of a
//                  composition could be hidden below it (smaller products)
//   MV030 error    xMAS netlist structural error (dangling or doubly-driven
//                  port, bad attribute, unknown channel endpoint)
//   MV031 error    xMAS join input on a token-free cycle: no initial token
//                  and no path from a source can ever reach it, so the join
//                  (and everything behind it) is structurally deadlocked
//   MV032 warning  xMAS fork feeding both inputs of one join through paths
//                  of unequal queue capacity (the classic overflow/deadlock
//                  idiom: the deeper path fills while the shallower blocks)
//   MV033 warning  xMAS merge input that can never carry a token because a
//                  constant switch predicate upstream kills its only feed
//                  (merge starvation; the arbiter degenerates)
//   MV040 advice   predicted state-space bound report (interval abstract
//                  interpretation; see analyze/bounds.hpp)
//   MV041 err/warn a process parameter grows without bound along a recursion
//                  (error when provably unguarded and unthrottled)
//   MV042 advice   a parallel component's predicted bound exceeds the given
//                  budget (names the operand to split)
//
// Soundness directions: MV001/002/005/007/008/009 are exact (syntactic);
// MV003/MV004's "never fires" part is sound (alphabet over-approximation),
// and the error severity additionally requires a proof that the offering
// component cannot take ANY first action (every initial path needs a
// never-firing gate) — occurrences behind other prefixes may be unreachable
// for value/reachability reasons the lattice cannot see, so they only ever
// downgrade to advice; MV006 only folds closed constant guards (no false
// positives); MV011-013 are exact on the given IMC.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/diag.hpp"
#include "imc/imc.hpp"
#include "proc/process.hpp"
#include "xmas/netlist.hpp"

namespace multival::analyze {

using GateSet = std::set<std::string>;

/// Work counters of one lint pass.  states_generated is structurally zero —
/// the analyzer has no path into proc::generate or the explore engine —
/// and is carried explicitly so callers (tests, bench_analyze) can assert
/// the "no state-space generation" contract.
struct AnalysisStats {
  std::size_t definitions = 0;
  std::size_t terms_visited = 0;     ///< syntax nodes walked by the checks
  std::size_t fixpoint_passes = 0;   ///< Kleene iterations over all defs
  std::size_t states_generated = 0;  ///< always 0: lint never explores
  double seconds = 0.0;
};

struct Analysis {
  std::vector<core::Diagnostic> diagnostics;
  AnalysisStats stats;

  [[nodiscard]] bool clean() const {
    return !core::has_errors(diagnostics);
  }
  [[nodiscard]] std::size_t count(core::Severity s) const;
  /// "2 errors, 1 warning, 0 advisories (5 defs, 42 terms, 3 passes)".
  [[nodiscard]] std::string summary() const;
};

/// Per-definition over-approximate action alphabets, least fixed point over
/// the (possibly mutually recursive) definitions of @p program: the names of
/// AlphabetTable(program)'s definition alphabets.
[[nodiscard]] std::map<std::string, GateSet> alphabets(
    const proc::Program& program);

/// Lints every definition of @p program, plus (when non-null) the anonymous
/// root term @p root — typically the entry call an exploration would start
/// from, so unbound-entry errors surface here too.
[[nodiscard]] Analysis lint_program(const proc::Program& program,
                                    const proc::TermPtr& root = nullptr);

/// Lints an IMC: nondeterministic-delay races, maximal-progress-dead rates,
/// residual nondeterminism (MV011/MV012/MV013).
[[nodiscard]] Analysis lint_imc(const imc::Imc& m);

/// Lints an xMAS netlist on pure structure: Netlist::check()'s MV030
/// well-formedness errors, then — on well-formed netlists only — the
/// deadlock-idiom checks MV031 (join input on a token-free cycle, via a
/// least fixed point of "this channel can ever carry a token"), MV032
/// (fork->join reconvergence through unequal queue capacity) and MV033
/// (merge starvation under constant switch predicates).  Zero states
/// generated, like every other check here; MV031's carriability fixed point
/// is sound (a non-carriable join input really never fires), the
/// warning-severity idioms are heuristic.
[[nodiscard]] Analysis lint_netlist(const xmas::Netlist& n);

/// MV020: the Erlang order k needed to approximate a deterministic delay
/// @p delay within relative Wasserstein-1 error @p rel_error (0 < e < 1),
/// and its state-space cost.  Uses the asymptotic k ~ 2/(pi e^2) law and
/// refines against phase::evaluate_fixed_delay_fit for small orders.
[[nodiscard]] core::Diagnostic fixed_delay_advisory(double delay,
                                                    double rel_error);

/// Thrown by the pre-flight gates (explore generation, the evaluation
/// service) when a model has error-severity findings.  what() carries the
/// rendered diagnostics.
class ModelError : public std::runtime_error {
 public:
  explicit ModelError(std::vector<core::Diagnostic> diagnostics);
  [[nodiscard]] const std::vector<core::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

 private:
  std::vector<core::Diagnostic> diagnostics_;
};

/// Pre-flight gate: lints and throws ModelError on error-severity findings
/// (warnings and advice never block).
void require_well_formed(const proc::Program& program,
                         const proc::TermPtr& root = nullptr);

}  // namespace multival::analyze
