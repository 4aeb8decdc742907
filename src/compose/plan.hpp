// Composition-order planning: the front half of the generate–minimise–
// compose pipeline (the paper's compositional strategy, with CADP-style
// "smart reduction" order heuristics).
//
// plan_term flattens the parallel structure of a closed behaviour term into
// components (descending through |[G]|, |||, hide and zero-argument calls),
// verifies that the structure is *safely reassociable* — at every parallel
// node the sync set covers the operands' shared alphabet, and hidden-gate
// scopes do not leak — and then greedily builds a compose::Node tree by
// repeatedly merging the pair of component groups with the best predicted
// reduction:
//
//     score(X, Y) = (w_sync * |A_X ∩ A_Y| + w_hide * |newly hideable|)
//                   / |A_X ∪ A_Y|
//
// where alphabets come from the analyze fixed point (analyze::term_alphabet
// — syntax only, no state space).  Shared gates constrain the product
// (smaller intermediates); gates whose every user has been merged can be
// hidden immediately, turning them into tau for the per-join minimisation
// to erase.  Every join is built by lts::parallel, wrapped in hide (when
// gates become local) and a minimisation point, so intermediates stay
// within a small multiple of the final LTS.
//
// A term whose structure is not safely reassociable (or has no parallel
// structure at all) falls back to a single-leaf plan — monolithic
// generation followed by the same final minimisation, with the reason
// recorded — so every caller can route through plans unconditionally.
//
// Every minimisation point (per join and final) minimises modulo
// divergence-preserving branching bisimulation.  Both strategies end at
// bisim::canonical_form(minimal LTS), so the planned and the flat pipeline
// return *byte-identical* results (asserted in tests/plan_test.cpp); only
// the peak intermediate sizes differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bisim/equivalence.hpp"
#include "compose/pipeline.hpp"
#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::compose {

/// Pipeline strategy of the case-study generators: planned compositional
/// (the default) or monolithic flat generation (the opt-out baseline).
enum class Strategy {
  kPlanned,
  kFlat,
};

[[nodiscard]] const char* to_string(Strategy s);

/// Tighter cap on *standalone component* generation (the smaller of this
/// and PlanOptions::max_states applies).  A component whose bound lives in
/// a peer (a credit counter, a sequencer) is infinite on its own; hitting
/// this cap makes evaluate_plan retry monolithically (where the peer
/// constrains it) after a short detour instead of grinding to the full
/// max_states first.
inline constexpr std::size_t kMaxComponentStates = 1u << 17;

struct PlanOptions {
  /// State cap per intermediate product.
  std::size_t max_states = 1u << 22;
  /// Joins are built sequentially.
  static constexpr unsigned workers = 1;
};

/// A composition plan: the compose::Node tree plus its provenance.
struct Plan {
  NodePtr root;  ///< never null; evaluate with compose::evaluate
  /// True if the parallel structure was reassociated by the planner; false
  /// for the single-leaf (monolithic) fallback.
  bool planned = false;
  std::string fallback_reason;           ///< set when !planned
  std::vector<std::string> components;   ///< leaf names, plan order
  /// Predicted standalone state bound per component (analyze::
  /// predicted_states; kUnboundedStates when a counter widens), aligned
  /// with components.  The planner uses these to break merge-order score
  /// ties towards smaller intermediate products and to route around
  /// doomed components *statically*: a component predicted to exceed the
  /// standalone cap never starts generating — the plan falls back to
  /// monolithic up front, recording a "static skip (MV042)" step, instead
  /// of grinding to kMaxComponentStates first (the runtime overflow
  /// fallback in evaluate_plan remains as the backstop).
  std::vector<std::uint64_t> component_bounds;
  /// "static skip (MV042): ..." provenance lines; evaluate_plan replays
  /// them into EvalStats::steps so the skip is visible in reports.
  std::vector<std::string> static_skips;
  std::string grammar;                   ///< rendered plan expression
  /// Provenance: the term this plan evaluates, in its program.  Lets
  /// evaluate_plan retry monolithically when a *component* overflows the
  /// state cap standalone (a leaf only bounded by its peers — e.g. a
  /// credit counter whose bound lives in the other operand).
  std::shared_ptr<const proc::Program> program;
  proc::TermPtr term;
};

/// Plans the composition of closed behaviour term @p root of @p program.
[[nodiscard]] Plan plan_term(std::shared_ptr<const proc::Program> program,
                             proc::TermPtr root, const PlanOptions& opts = {});

/// Plans `entry` (a zero-argument process) of @p program.
[[nodiscard]] Plan plan_program(std::shared_ptr<const proc::Program> program,
                                std::string_view entry,
                                const PlanOptions& opts = {});

struct PlanResult {
  lts::Lts lts;  ///< minimal (divergence-preserving branching), canonical
  EvalStats stats;
};

/// Evaluates @p plan (minimisation results cached in @p cache when
/// non-null, subtree reuse via plan keys) and returns the canonical
/// minimal LTS.  A component or join over the state cap makes it retry
/// the plan's term monolithically, recording a "monolithic fallback" step.
[[nodiscard]] PlanResult evaluate_plan(const Plan& plan,
                                       const PlanOptions& opts = {},
                                       MinimizeCache* cache = nullptr);

/// The monolithic reference path in the same normal form: generate @p root
/// flat, minimise once, canonicalise.  Byte-identical to the planned result
/// of the same term.
[[nodiscard]] PlanResult flat_reference(
    std::shared_ptr<const proc::Program> program, proc::TermPtr root,
    const PlanOptions& opts = {}, MinimizeCache* cache = nullptr);

/// The one path from a process program to its LTS under a Strategy: the
/// case-study builders that take one (noc, fame, xstream, xmas) and the dse
/// point instantiation call it instead of choosing flat or planned
/// themselves:
///   kPlanned -> evaluate_plan(plan_program(...)).lts  (minimal, canonical)
///   kFlat    -> proc::generate under opts.max_states  (the raw LTS)
[[nodiscard]] lts::Lts pipeline_lts(
    std::shared_ptr<const proc::Program> program, std::string_view entry,
    Strategy strategy, const PlanOptions& opts = {},
    MinimizeCache* cache = nullptr);

}  // namespace multival::compose
