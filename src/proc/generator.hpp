// Explicit-state LTS generation from a process Program (the role played by
// CAESAR in CADP).
//
// A generator first compiles the terms reachable from the root.  It numbers
// them in a deterministic pre-order (the stop term, then the root, its
// children and the bodies of called processes), resolves every variable to
// a slot in its term's free-variable list, gives every gate an id and
// interns actions.  Runtime configurations are hash-consed records over
// those numbers: parallel / hiding / renaming / sequential contexts over
// sequential leaves (term index, one value per free variable of the term).
// Each record is stored once, in a word arena indexed by an open-addressing
// table, so no name and no string lives in a configuration.
//
// Successors follow the SOS rules in a fixed order.  A configuration's
// moves are a pure function of its id, so the moves of every parallel
// operand, the sub-configurations distinct states share, are memoised in
// one flat arena.  Hide, rename and sequence rewrite their operand's list
// in place, and a state's own list is not stored.
//
// The generator explores the configuration graph breadth-first and emits an
// Lts whose labels are "GATE !v1 !v2", "i" for internal actions, and "exit"
// for successful termination.  A process body with a free variable that is
// not one of its parameters, or a root term with a free variable, throws
// std::out_of_range when it is first unfolded.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::proc {

struct GenerateOptions {
  /// Hard cap on the number of distinct states; exceeded -> throws
  /// StateSpaceLimit.
  std::size_t max_states = 1u << 22;
  /// Bound on sequential unfolding (guards/choices/calls) when computing the
  /// transitions of a single state; exceeded -> throws UnguardedRecursion.
  /// Also bounds the nesting of a state TermExplorer decodes.
  std::size_t max_unfold_depth = 2048;
};

/// Thrown when the state space exceeds GenerateOptions::max_states.
using StateSpaceLimit = lts::StateSpaceLimit;

/// Thrown on (probable) unguarded recursion, e.g. P := P [] a;Q.
struct UnguardedRecursion : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Generates the LTS of process @p entry called with @p args.
[[nodiscard]] lts::Lts generate(const Program& program,
                                std::string_view entry,
                                std::vector<Value> args = {},
                                const GenerateOptions& options = {});

/// Generates the LTS of an anonymous behaviour term (closed).
[[nodiscard]] lts::Lts generate_term(const Program& program, const TermPtr& t,
                                     const GenerateOptions& options = {});

/// On-the-fly deadlock search: explores breadth-first and stops at the
/// first deadlocked state, without completing the state space.  The trace
/// is shortest (by transition count).
struct DeadlockSearchResult {
  bool found = false;
  std::vector<std::string> trace;  ///< labels from the initial state
  std::size_t states_explored = 0;
};

[[nodiscard]] DeadlockSearchResult find_deadlock(
    const Program& program, std::string_view entry,
    std::vector<Value> args = {}, const GenerateOptions& options = {});

/// On-the-fly successor enumeration over hash-consed runtime configurations
/// — the role OPEN/CAESAR plays for CADP.  States are canonical byte
/// strings: per configuration record, the LEB128 index of its term in the
/// numbering above, its child records, then its values (zigzag LEB128).
/// Encodings depend only on the structure of the program and the root,
/// never on heap addresses, so explorers over equal programs and roots
/// agree byte for byte, within one process or across processes.  That is
/// what lets the parallel exploration engine (src/explore) hand each
/// worker thread its own TermExplorer, and what makes narrow-fingerprint
/// runs (`explore --fp bits`) repeat from one process to the next.
///
/// `successors` decodes defensively: a truncated, corrupted or foreign
/// state either decodes to some configuration of this program, whose
/// successors are then computed (and may throw) like any other's, or throws
/// std::runtime_error("TermExplorer: malformed state (...)").
class TermExplorer {
 public:
  struct Move {
    std::string label;  ///< "i", "exit", or "GATE !v1 !v2"
    std::string dst;    ///< canonical encoding of the successor state
  };

  /// @p program and @p root must outlive the explorer.
  TermExplorer(const Program& program, TermPtr root,
               const GenerateOptions& options = {});
  TermExplorer(TermExplorer&&) noexcept;
  TermExplorer& operator=(TermExplorer&&) noexcept;
  ~TermExplorer();

  /// Canonical encoding of the initial configuration.
  [[nodiscard]] std::string initial();

  /// Transitions of the configuration encoded by @p state, in the
  /// deterministic order of the SOS rules.
  [[nodiscard]] std::vector<Move> successors(std::string_view state);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace multival::proc
