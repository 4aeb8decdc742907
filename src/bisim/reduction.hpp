// The normal form of the compositional pipeline (compose/plan).
//
// canonical_form is an isomorphism-invariant renumbering.  On a
// bisimulation-minimal LTS (no two states equivalent — which every quotient
// out of bisim::minimize is) iterated signature refinement separates all
// states, and the resulting rank order depends only on the isomorphism
// class of the LTS, never on generation order.  Two pipelines that produce
// bisimilar minimal LTSs — e.g. the planned compositional path and the flat
// monolithic path — therefore produce *byte-identical* canonical forms,
// which is what lets the plan machinery assert "same result" by comparing
// serialised bytes.
#pragma once

#include "bisim/equivalence.hpp"
#include "lts/lts.hpp"

namespace multival::bisim {

/// Deterministic, isomorphism-invariant renumbering: states are ordered by
/// iterated strong-bisimulation signature ranks (initial state first),
/// actions are re-interned in sorted label order, and each state's
/// transitions are sorted by (label, destination).  Canonical on
/// bisimulation-minimal inputs; still deterministic (but possibly
/// generation-order dependent) if equivalent states remain.
[[nodiscard]] lts::Lts canonical_form(const lts::Lts& l);

/// The normal form both the planned and the flat pipeline end at:
/// canonical_form(minimize(l, e).quotient).  Solvers fed through either
/// path therefore see byte-identical inputs.
[[nodiscard]] lts::Lts canonical_minimized(
    const lts::Lts& l, Equivalence e = Equivalence::kDivergenceBranching);

}  // namespace multival::bisim
