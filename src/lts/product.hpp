// LTS-level parallel composition, hiding and renaming.
//
// These mirror the LOTOS operators `|[G]|`, `hide G in P` and renaming, but
// operate on already-generated LTSs — the building blocks of the
// compositional verification flow (generate components, minimise, compose).
//
// Labels carry value offers ("GATE !1 !2"); the *gate* of a label is its
// first whitespace-delimited token.  Synchronisation is requested per gate
// but requires full label equality, which implements LOTOS value matching.
// The "exit" action always synchronises (LOTOS delta); "i" never does.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lts/lts.hpp"

namespace multival::lts {

/// Gate part of a label: the prefix before the first space.
[[nodiscard]] std::string_view label_gate(std::string_view label);

/// The pair numbering of a product: the state of the pair (sa, sb), added
/// to the product and to its worklist if new.
using PairState = std::function<StateId(StateId sa, StateId sb)>;

/// Runs once per product state, before that state's interactive moves are
/// added, with the state, its pair (sa, sb) and the pair numbering.
using ProductHook = std::function<void(StateId state, StateId sa, StateId sb,
                                       const PairState& state_of)>;

/// Parallel composition of @p a and @p b synchronising on the gates in
/// @p sync_gates (plus "exit").  Only the reachable part is built; a
/// product with more than @p max_states states throws StateSpaceLimit.
/// @p hook, if set, runs on each product state and may add states through
/// the numbering it is given (imc::parallel adds its Markovian
/// interleavings this way).
///
/// The sync decision is made once per join, on action ids: a flag for each
/// action of each operand, and for each synchronising action of @p b the
/// id of @p a's action with the same label.  Equal labels have equal gates
/// ("i" and "exit" have fixed ids), so both operands flag a shared label
/// alike, and value matching compares ids.  States are numbered in order
/// of discovery from a LIFO worklist, and the result interns labels in
/// order of first use.
[[nodiscard]] Lts parallel(
    const Lts& a, const Lts& b, std::span<const std::string> sync_gates,
    std::size_t max_states = std::numeric_limits<std::size_t>::max(),
    const ProductHook& hook = {});

/// Relabels every transition of @p l by @p f, which runs once per distinct
/// action.  The result interns labels in order of first use (states in
/// order, each state's edges in order), not in @p l's table order.
[[nodiscard]] Lts relabel(
    const Lts& l, const std::function<std::string(std::string_view)>& f);

/// Renames every label whose gate is in @p gates to "i".
[[nodiscard]] Lts hide(const Lts& l, std::span<const std::string> gates);

/// Renames gates according to @p gate_map (offers are preserved).
[[nodiscard]] Lts rename(
    const Lts& l, const std::unordered_map<std::string, std::string>& gate_map);

}  // namespace multival::lts
