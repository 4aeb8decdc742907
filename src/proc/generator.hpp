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
// for successful termination.  That breadth-first loop is the only
// exploration loop: generate, generate_term, find_deadlock and
// explore::explore all run it, so state i is the i-th configuration reached
// whichever of them asks.  A process body with a free variable that is
// not one of its parameters, or a root term with a free variable, throws
// std::out_of_range when it is first unfolded.
#pragma once

#include <cstddef>
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
};

/// Thrown when the state space exceeds GenerateOptions::max_states.
using StateSpaceLimit = lts::StateSpaceLimit;

/// Thrown on (probable) unguarded recursion, e.g. P := P [] a;Q: computing
/// one state's transitions unfolded guards, choices and calls more than
/// 2048 levels deep.
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

/// On-the-fly deadlock search: runs the generation loop and stops at the
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

}  // namespace multival::proc
