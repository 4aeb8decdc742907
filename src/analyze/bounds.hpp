// Static state-bound prediction: an interprocedural interval abstract
// interpretation over the process calculus (and xMAS netlists) that
// computes, per definition and per parallel component, a sound
// over-approximation of the number of reachable states — *before* any
// state is generated.
//
// The abstract domain is the product of
//
//   - control locations: exactly the term nodes the generator's lift()
//     stabilises on (stop / exit / prefix / choice — guards and calls
//     resolve away at configuration-build time, par/hide/rename/seq wrap
//     sub-configurations structurally), and
//   - value intervals: every counter variable is tracked as an integer
//     interval [lo, hi], seeded from initialisers and accept ranges,
//     refined through guards, joined over call sites and widened to ±inf
//     when a recursion keeps growing it (a Kleene fixpoint in the style of
//     analyze::alphabets and xmas::carriable_channels).
//
// A sequential component then contributes
//
//     sum over reachable locations L of  prod over v in fv(L) width(I(v))
//
// states; parallel composition multiplies component bounds (a par
// configuration is a pair of sub-configurations), with sync-gate-aware
// tightening: a sync gate only one operand performs can never fire, so
// prefixes on it contribute their own location but never their
// continuation (the same never-firing direction MV003/MV004 rely on).
// hide and rename wrap configurations one-to-one and are bound-neutral;
// sequential composition is |left| * (env combinations of the right) plus
// |right|.
//
// Soundness: every reachable generator configuration maps to a counted
// (location, valuation) pair whose variables lie inside the converged
// intervals, so predicted >= actual always (asserted over every builtin
// case study and randomised terms in tests/bounds_test.cpp).  On pure xMAS
// queue fabrics the bound is *exact*: a compiled queue is one choice
// location with n in [0, capacity], contributing exactly capacity+1
// states.  The price of the non-relational domain is honest: counters
// whose bound lives in a synchronising peer (the xstream credit loop)
// widen to infinity — which is precisely the component the compositional
// planner must not generate standalone (the PR 8 runtime fallback, now
// routed around statically).
//
// Diagnostics (stable codes, same contract as analyze.hpp — zero states
// generated):
//   MV040 advice   predicted-bound report (total + per-component factors)
//   MV041 error    a definition parameter grows without bound along a
//                  recursion no guard constrains and no sync gate can
//                  throttle: generation provably diverges (the proof names
//                  the offending recursion path)
//   MV041 warning  same growth, but a guard mentions the counter or the
//                  recursion passes a synchronised gate: the bound may
//                  live in a peer (the credit-counter idiom), so only the
//                  *standalone* component is proved unbounded
//   MV042 advice   a parallel component's predicted bound exceeds the
//                  given budget: names the operand to split or merge first
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "proc/process.hpp"
#include "xmas/compile.hpp"
#include "xmas/netlist.hpp"

namespace multival::analyze {

/// Saturating state-count arithmetic: kUnboundedStates is the absorbing
/// "infinite" element of the counting semiring.
inline constexpr std::uint64_t kUnboundedStates =
    ~static_cast<std::uint64_t>(0);

[[nodiscard]] std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b);
[[nodiscard]] std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b);
/// "123" or "unbounded".
[[nodiscard]] std::string format_states(std::uint64_t n);

/// An integer interval with +-infinity sentinels.  Finite endpoints are
/// proc::Value (int32) range; arithmetic saturates into the sentinels.
struct Interval {
  static constexpr std::int64_t kNegInf =
      std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kPosInf =
      std::numeric_limits<std::int64_t>::max();

  std::int64_t lo = kNegInf;
  std::int64_t hi = kPosInf;

  [[nodiscard]] static Interval top() { return {}; }
  [[nodiscard]] static Interval exactly(std::int64_t v) { return {v, v}; }
  [[nodiscard]] static Interval range(std::int64_t lo, std::int64_t hi) {
    return {lo, hi};
  }

  [[nodiscard]] bool bounded() const {
    return lo != kNegInf && hi != kPosInf;
  }
  /// Number of integers in the interval; kUnboundedStates when infinite.
  [[nodiscard]] std::uint64_t width() const;
  [[nodiscard]] Interval join(const Interval& o) const {
    return {lo < o.lo ? lo : o.lo, hi > o.hi ? hi : o.hi};
  }
  /// "[0, 4]", "[0, +inf)".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Interval&, const Interval&) = default;
};

struct BoundOptions {
  /// MV042 fires for every parallel component whose predicted bound
  /// exceeds this many states; 0 disables the check (MV040/MV041 still
  /// report).
  std::uint64_t component_budget = 0;
  /// Gates the caller already knows can never fire (e.g. the sync context
  /// of an enclosing composition a component was cut out of).
  GateSet blocked;
};

/// Converged analysis of one reachable definition.
struct DefBound {
  std::string name;
  std::vector<std::string> params;
  /// Converged parameter intervals (joined over every call site), aligned
  /// with params.
  std::vector<Interval> intervals;
  /// States this definition's body contributes under the root's blocked
  /// set (kUnboundedStates when a parameter widened).
  std::uint64_t states = 0;
  bool widened = false;
  /// The MV041 proof path, e.g. "PopSide -> PopSide (owe + 1)"; empty
  /// unless widened.
  std::string widening_path;
};

/// Predicted bound of one top-level parallel component of the root term.
struct ComponentBound {
  std::string name;  ///< callee name or a structural sketch
  std::uint64_t states = 0;
  /// Set when states == kUnboundedStates: which counter diverges.
  std::string cause;
};

struct BoundReport {
  /// Predicted bound of the whole root term (kUnboundedStates when any
  /// factor is unbounded).
  std::uint64_t total = 0;
  [[nodiscard]] bool unbounded() const { return total == kUnboundedStates; }
  /// Top-level parallel components (through par/hide/rename and
  /// zero-argument calls), in term order; total is their product.
  std::vector<ComponentBound> components;
  /// Reachable definitions, name order.
  std::vector<DefBound> defs;
  /// MV040 report + any MV041/MV042 findings.
  std::vector<core::Diagnostic> diagnostics;
  AnalysisStats stats;  ///< states_generated is structurally 0

  /// "predicted <= 1328 states over 4 components (2 defs widened)".
  [[nodiscard]] std::string summary() const;
};

/// Runs the interval fixpoint and the counting pass over closed term
/// @p root of @p program.  Never generates a state; never throws on a
/// model the parser accepted (unknown callees count as one location and
/// are MV001 territory, not ours).
[[nodiscard]] BoundReport predicted_bounds(const proc::Program& program,
                                           const proc::TermPtr& root,
                                           const BoundOptions& opts = {});

/// Convenience: predicted_bounds(...).total.
[[nodiscard]] std::uint64_t predicted_states(const proc::Program& program,
                                             const proc::TermPtr& root,
                                             const BoundOptions& opts = {});

/// The same total, under the alphabet fixpoint @p defs of @p program (as
/// returned by alphabets(program)) instead of a fresh one, so a caller
/// predicting many roots of one program runs that fixpoint once.
[[nodiscard]] std::uint64_t predicted_states(
    const proc::Program& program, const proc::TermPtr& root,
    const std::map<std::string, GateSet>& defs, const BoundOptions& opts = {});

/// Structural bound of a checked xMAS netlist, mirroring the compiler's
/// element semantics exactly: a live queue is one choice location with
/// occupancy in [0, capacity] (capacity+1 states), a drain-only queue
/// init+1, a switch latch 2, a merge arbiter 3 (2 when one feed is
/// starved), a burst source burst+1, free sources and sinks 1; dead
/// structure (outside the carriability fixed point) contributes nothing.
/// Exact (== the explored state count) on pure queue fabrics, an upper
/// bound everywhere else.  Implemented by compiling the netlist and
/// analysing the result, so the factors track the compiler by
/// construction; throws what xmas::compile throws (MV030 structural
/// errors, MV031 deadlocks).
[[nodiscard]] BoundReport predicted_bounds(const xmas::Netlist& n,
                                           const xmas::CompileOptions& copts =
                                               {},
                                           const BoundOptions& opts = {});

[[nodiscard]] std::uint64_t predicted_states(const xmas::Netlist& n,
                                             const xmas::CompileOptions&
                                                 copts = {},
                                             const BoundOptions& opts = {});

}  // namespace multival::analyze
