#include "explore/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "analyze/analyze.hpp"
#include "proc/generator.hpp"

namespace multival::explore {

std::unique_ptr<const ProcModel> proc_oracle(
    std::shared_ptr<const proc::Program> program, std::string_view entry,
    std::vector<proc::Value> args) {
  if (program == nullptr) {
    throw std::invalid_argument("proc_oracle: null program");
  }
  std::vector<proc::ExprPtr> arg_exprs;
  arg_exprs.reserve(args.size());
  for (const proc::Value v : args) {
    arg_exprs.push_back(proc::lit(v));
  }
  proc::TermPtr root = proc::call(entry, std::move(arg_exprs));
  // Pre-flight lint: reject ill-formed models (undefined references, arity
  // mismatches, structural deadlocks, ...) in syntax-polynomial time before
  // committing to a potentially exponential exploration.
  analyze::require_well_formed(*program, root);
  return std::make_unique<const ProcModel>(
      ProcModel{std::move(program), std::move(root)});
}

std::unique_ptr<const ProcModel> proc_oracle(proc::Program program,
                                             std::string_view entry,
                                             std::vector<proc::Value> args) {
  return proc_oracle(
      std::make_shared<const proc::Program>(std::move(program)), entry,
      std::move(args));
}

ExploreResult explore(const ProcModel& model, const ExploreOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  proc::GenerateOptions gopts;
  gopts.max_states = options.max_states;
  ExploreResult result;
  result.lts = proc::generate_term(*model.program, model.root, gopts);
  const lts::Lts& l = result.lts;
  ExploreStats& stats = result.stats;

  // Breadth-first numbering gives each level a contiguous id range
  // [begin, end); the next level ends after the largest successor id.
  for (std::size_t begin = 0, end = 1; begin < end;) {
    ++stats.levels;
    stats.peak_frontier = std::max(stats.peak_frontier, end - begin);
    std::size_t next = end;
    for (std::size_t s = begin; s < end; ++s) {
      for (const lts::OutEdge& e : l.out(static_cast<lts::StateId>(s))) {
        next = std::max<std::size_t>(next, e.dst + 1);
      }
    }
    begin = end;
    end = next;
  }

  const auto t1 = std::chrono::steady_clock::now();
  stats.seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.num_states = l.num_states();
  stats.num_transitions = l.num_transitions();
  stats.states_per_sec =
      stats.seconds > 0.0 ? static_cast<double>(stats.num_states) / stats.seconds
                          : 0.0;
  // Every transition but the ones that discovered a state (all states but
  // the initial one) lands on a state already seen.
  stats.dedup_hits = stats.num_transitions + 1 - stats.num_states;
  return result;
}

core::Table ExploreStats::to_table(const std::string& model) const {
  core::Table t("exploration: " + model, {"metric", "value"});
  t.add_row({"states", std::to_string(num_states)});
  t.add_row({"transitions", std::to_string(num_transitions)});
  t.add_row({"time (s)", core::fmt(seconds)});
  t.add_row({"states/sec", core::fmt(states_per_sec, 0)});
  t.add_row({"peak frontier", std::to_string(peak_frontier)});
  t.add_row({"levels", std::to_string(levels)});
  t.add_row({"dedup hits", std::to_string(dedup_hits)});
  return t;
}

}  // namespace multival::explore
