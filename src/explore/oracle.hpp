// Generic on-the-fly state-space exploration: the SuccessorOracle interface
// plays the role of OPEN/CAESAR in CADP — any model that can name its
// initial state and enumerate the transitions of a given state becomes
// explorable without pre-building its LTS.
//
// States are opaque canonical byte strings.  The engine (engine.hpp) never
// interprets them; it only hashes, stores and hands them back to the
// oracle.  Oracles are cloneable: the parallel explorer gives every worker
// thread its own clone, and clones over the same model must produce
// byte-identical encodings (that is the whole contract that makes the
// shared state store work).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "imc/imc.hpp"
#include "lts/lts.hpp"
#include "proc/generator.hpp"
#include "proc/process.hpp"

namespace multival::explore {

/// One outgoing transition of an oracle state.
struct Step {
  std::string label;  ///< "i", "exit", or "GATE !v1 !v2" (or "rate r")
  std::string dst;    ///< successor state, canonical encoding
};

class SuccessorOracle {
 public:
  virtual ~SuccessorOracle() = default;

  /// Canonical encoding of the initial state.
  [[nodiscard]] virtual std::string initial() = 0;

  /// Appends the transitions of @p state to @p out, in a deterministic
  /// order (the same for every clone).
  virtual void successors(std::string_view state, std::vector<Step>& out) = 0;

  /// Fresh oracle over the same model, producing identical encodings.
  /// Clones may be driven concurrently from different threads.
  [[nodiscard]] virtual std::unique_ptr<SuccessorOracle> clone() const = 0;
};

using OraclePtr = std::unique_ptr<SuccessorOracle>;

/// Replays an already-built LTS (state encoding: 4-byte little-endian id).
/// @p l must outlive the oracle and all its clones.
[[nodiscard]] OraclePtr lts_oracle(const lts::Lts& l);

/// Views an IMC as an LTS-level oracle: interactive transitions keep their
/// label, Markovian transitions become "rate r" / "LABEL; rate r" labels
/// (the imc_io convention), so an explored IMC can be streamed to disk and
/// re-read as an IMC.  @p m must outlive the oracle.
[[nodiscard]] OraclePtr imc_oracle(const imc::Imc& m);

/// Explores process `entry(args)` of @p program on the fly, one
/// proc::TermExplorer per clone.
[[nodiscard]] OraclePtr proc_oracle(
    std::shared_ptr<const proc::Program> program, std::string_view entry,
    std::vector<proc::Value> args = {},
    const proc::GenerateOptions& options = {});

/// Convenience overload taking the program by value.
[[nodiscard]] OraclePtr proc_oracle(proc::Program program,
                                    std::string_view entry,
                                    std::vector<proc::Value> args = {},
                                    const proc::GenerateOptions& options = {});

/// Explores an anonymous closed behaviour term of @p program.
[[nodiscard]] OraclePtr term_oracle(
    std::shared_ptr<const proc::Program> program, proc::TermPtr root,
    const proc::GenerateOptions& options = {});

}  // namespace multival::explore
