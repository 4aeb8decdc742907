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

/// Parallel composition of @p a and @p b synchronising on the gates in
/// @p sync_gates (plus "exit").  Only the reachable part is built; a
/// product with more than @p max_states states throws StateSpaceLimit.
[[nodiscard]] Lts parallel(
    const Lts& a, const Lts& b, std::span<const std::string> sync_gates,
    std::size_t max_states = std::numeric_limits<std::size_t>::max());

/// N-ary composition: folds `parallel` left to right with the same gate set.
/// All components synchronise together on every gate in @p sync_gates only if
/// each offers it; for pairwise-distinct channels use distinct gate names.
[[nodiscard]] Lts parallel_all(std::span<const Lts> components,
                               std::span<const std::string> sync_gates);

/// Interleaving (no synchronisation except "exit").
[[nodiscard]] Lts interleave(const Lts& a, const Lts& b);

/// Renames every label whose gate is in @p gates to "i".
[[nodiscard]] Lts hide(const Lts& l, std::span<const std::string> gates);

/// Renames gates according to @p gate_map (offers are preserved).
[[nodiscard]] Lts rename(
    const Lts& l, const std::unordered_map<std::string, std::string>& gate_map);

}  // namespace multival::lts
