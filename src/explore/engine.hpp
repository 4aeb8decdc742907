// On-the-fly state-space exploration of a process model, with statistics.
//
// explore() runs the compiled generator's breadth-first loop
// (proc::generate_term), the only exploration loop there is, and reads the
// statistics off the breadth-first-numbered LTS it returns.  The LTS is the
// one `gen` writes, byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::explore {

struct ExploreOptions {
  /// Read by nothing: exploration runs the generator's loop on the calling
  /// thread.  It stays only because perfbench/wl_statespace.cpp assigns it.
  unsigned workers = 1;
  /// Hard cap on distinct states; exceeded -> throws LimitExceeded.
  std::size_t max_states = 1u << 22;
};

/// Thrown when the state space exceeds ExploreOptions::max_states.
using LimitExceeded = lts::StateSpaceLimit;

struct ExploreStats {
  std::size_t num_states = 0;
  std::size_t num_transitions = 0;
  double seconds = 0.0;
  double states_per_sec = 0.0;
  std::size_t peak_frontier = 0;   ///< states in the widest BFS level
  std::size_t levels = 0;          ///< BFS levels (depth + 1)
  std::uint64_t dedup_hits = 0;    ///< transitions into a state already seen

  /// Two-column metric/value table for core::report-style printing.
  [[nodiscard]] core::Table to_table(const std::string& model) const;
};

struct ExploreResult {
  lts::Lts lts;
  ExploreStats stats;
};

/// A process model to explore: a program and its closed root term.
/// proc_oracle builds one once the model passes the lint.
struct ProcModel {
  std::shared_ptr<const proc::Program> program;
  proc::TermPtr root;
};

/// Lints process `entry(args)` of @p program (analyze::require_well_formed,
/// which throws analyze::ModelError) before anything is generated, and
/// returns a handle on the program and root.
[[nodiscard]] std::unique_ptr<const ProcModel> proc_oracle(
    std::shared_ptr<const proc::Program> program, std::string_view entry,
    std::vector<proc::Value> args = {});

/// Convenience overload taking the program by value.
[[nodiscard]] std::unique_ptr<const ProcModel> proc_oracle(
    proc::Program program, std::string_view entry,
    std::vector<proc::Value> args = {});

/// Explores the full reachable state space of @p model and returns the
/// breadth-first-numbered LTS plus statistics.
[[nodiscard]] ExploreResult explore(const ProcModel& model,
                                    const ExploreOptions& options = {});

}  // namespace multival::explore
