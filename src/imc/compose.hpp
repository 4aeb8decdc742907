// IMC composition and closure operators: parallel composition (interactive
// CSP-style synchronisation; Markovian transitions interleave), hiding,
// maximal progress, and CTMC extraction by elimination of vanishing states.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "imc/imc.hpp"
#include "markov/ctmc.hpp"

namespace multival::imc {

/// Parallel composition synchronising interactive transitions on the gates
/// in @p sync_gates (plus "exit"); Markovian transitions interleave.
/// Only the reachable part is built, by lts::parallel's pair-product loop.
[[nodiscard]] Imc parallel(const Imc& a, const Imc& b,
                           std::span<const std::string> sync_gates);

/// Renames interactive labels whose gate is in @p gates to tau.
[[nodiscard]] Imc hide(const Imc& m, std::span<const std::string> gates);

/// Hides every visible interactive label.
[[nodiscard]] Imc hide_all(const Imc& m);

/// Maximal progress: removes Markovian transitions from unstable states
/// (states with an outgoing tau), reflecting that internal moves take no
/// time and therefore win every race against an exponential delay.
[[nodiscard]] Imc maximal_progress(const Imc& m);

/// How to treat residual interactive nondeterminism during CTMC extraction.
enum class NondetPolicy {
  kReject,   ///< throw NondeterminismError (the CADP situation the paper
             ///< mentions: "nondeterminism currently not accepted")
  kUniform,  ///< resolve uniformly at random (a memoryless scheduler)
};

struct NondeterminismError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown when interactive transitions form a cycle (zero-time divergence).
struct TimelockError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The extracted CTMC plus the mapping back to IMC states.
struct CtmcExtraction {
  markov::Ctmc ctmc;
  /// ctmc state -> originating IMC state (markovian-only states survive).
  std::vector<StateId> imc_state_of;
};

/// Flattens a closed IMC (apply hide_all + maximal_progress first) into a
/// CTMC by eliminating vanishing states: a state with interactive
/// transitions resolves instantaneously to the distribution of
/// markovian-only states it reaches.  Markovian labels are preserved for
/// throughput queries.
[[nodiscard]] CtmcExtraction to_ctmc(const Imc& m,
                                     NondetPolicy policy = NondetPolicy::kReject);

/// Restriction of an IMC to its reachable part.
[[nodiscard]] Imc trim(const Imc& m);

}  // namespace multival::imc
