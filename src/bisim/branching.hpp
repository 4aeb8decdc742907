// Branching bisimulation minimisation (Groote–Vaandrager style, implemented
// with tau-SCC collapse followed by signature refinement in topological
// order of the inert-tau DAG).
//
// The divergence-sensitive variant keeps a "divergent" marker on states
// lying on a tau cycle, so that livelocks are preserved by minimisation
// (divergence-preserving branching bisimulation in the sense used by CADP's
// BCG_MIN "divbranching" option).
#pragma once

#include "bisim/partition.hpp"
#include "bisim/strong.hpp"
#include "lts/lts.hpp"

namespace multival::bisim {

struct BranchingOptions {
  bool divergence_sensitive = false;
};

/// Coarsest branching-bisimulation partition refining @p initial.
[[nodiscard]] Partition branching_partition(const lts::Lts& l,
                                            const Partition& initial,
                                            const BranchingOptions& opts = {});

/// Coarsest branching-bisimulation partition (trivial initial partition).
[[nodiscard]] Partition branching_partition(const lts::Lts& l,
                                            const BranchingOptions& opts = {});

/// Minimal LTS modulo (divergence-preserving) branching bisimulation.
/// Inert tau transitions are removed; with divergence sensitivity, divergent
/// blocks keep a tau self-loop.  The tau cycles are contracted once, for
/// the refinement and for the divergent blocks: from the trivial partition
/// the block-restricted contraction of branching_partition is the
/// unrestricted one, so the partition equals branching_partition(l, opts).
[[nodiscard]] MinimizeResult minimize_branching(
    const lts::Lts& l, const BranchingOptions& opts = {});

}  // namespace multival::bisim
