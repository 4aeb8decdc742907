// Strong bisimulation minimisation by signature-based partition refinement
// (Kanellakis–Smolka style with hashed signatures).
#pragma once

#include "bisim/partition.hpp"
#include "lts/lts.hpp"

namespace multival::bisim {

/// Quotient LTS together with the partition that produced it.
struct MinimizeResult {
  lts::Lts quotient;
  Partition partition;
};

/// Coarsest strong-bisimulation partition refining @p initial.
[[nodiscard]] Partition strong_partition(const lts::Lts& l,
                                         const Partition& initial);

/// Coarsest strong-bisimulation partition (trivial initial partition).
[[nodiscard]] Partition strong_partition(const lts::Lts& l);

/// Minimal LTS modulo strong bisimulation.
[[nodiscard]] MinimizeResult minimize_strong(const lts::Lts& l);

/// Coarsest weak-bisimulation (observational-equivalence) partition: strong
/// refinement over the tau-saturated transition relation
/// (s =tau*=> a =tau*=> t for visible a; s =tau*=> t for tau).
[[nodiscard]] Partition weak_partition(const lts::Lts& l);

/// Minimal LTS modulo weak bisimulation (inert tau transitions dropped).
[[nodiscard]] MinimizeResult minimize_weak(const lts::Lts& l);

/// Builds the quotient LTS of @p l under @p p: one state per block, one
/// transition (B,a,B') per pair of related blocks.  When @p skip_inert_tau is
/// true, tau self-block transitions are dropped (branching quotients).
/// Transitions are emitted in the order of their first occurrence over
/// @p l's states and edges, and labels are interned in order of first
/// emission; the (B,a,B') dedup is exact, through one open-addressing
/// table over the emitted triples (expected linear time).
[[nodiscard]] lts::Lts quotient_lts(const lts::Lts& l, const Partition& p,
                                    bool skip_inert_tau);

}  // namespace multival::bisim
