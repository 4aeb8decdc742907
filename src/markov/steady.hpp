// Steady-state analysis of CTMCs (the role of BCG_STEADY in CADP).
//
// Irreducible chains are solved by Gauss–Seidel on the global balance
// equations.  Reducible chains are decomposed into bottom strongly connected
// components (BSCCs): each BSCC is solved locally and weighted by the
// probability of reaching it from the initial distribution.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/graph.hpp"
#include "markov/ctmc.hpp"

namespace multival::markov {

struct SolverOptions {
  /// Certified interval width at which iteration stops: absolute for
  /// probabilities (values in [0,1]), relative to max(1, largest value)
  /// for expected times (values unbounded).
  double tolerance = 1e-12;
  std::size_t max_iterations = 200000;
};

/// Thrown when an iterative solver fails to reach the tolerance.
struct SolverFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Steady-state distribution of @p c from its initial distribution.
/// Works for reducible chains (BSCC decomposition).
[[nodiscard]] std::vector<double> steady_state(const Ctmc& c,
                                               const SolverOptions& opts = {});

/// The rate graph of @p c: one edge per transition, each state's edges in
/// insertion order.
[[nodiscard]] core::Digraph transition_graph(const Ctmc& c);

/// Bottom strongly connected components of the rate graph.
struct BsccDecomposition {
  /// scc id of each state.
  std::vector<std::uint32_t> component_of;
  std::size_t num_components = 0;
  /// Which components are bottom (no edge leaving the component).
  std::vector<bool> is_bottom;
};
[[nodiscard]] BsccDecomposition bscc_decomposition(const Ctmc& c);

/// Probability, for each state, of eventually reaching @p target (a state
/// set); computed on the embedded jump chain by Gauss–Seidel.
[[nodiscard]] std::vector<double> reachability_probability(
    const Ctmc& c, const std::vector<bool>& target,
    const SolverOptions& opts = {});

}  // namespace multival::markov
