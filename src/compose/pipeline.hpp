// Compositional verification pipeline (the paper's "refined approaches
// based on compositional verification": alternate state-space generation
// and minimisation).
//
// A composition expression is a tree of leaves (component LTSs or lazy
// generators), parallel compositions, hidings and minimisation points.
// Evaluating it with minimisation enabled implements the compositional
// strategy; evaluating with minimisation disabled measures the monolithic
// baseline.  Peak intermediate sizes are recorded so bench exp_f8 can show
// how the compositional strategy controls state-space explosion.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bisim/equivalence.hpp"
#include "core/hash.hpp"
#include "core/lru.hpp"
#include "core/report.hpp"
#include "core/sync.hpp"
#include "lts/lts.hpp"

namespace multival::compose {

class Node;
using NodePtr = std::shared_ptr<const Node>;

class Node {
 public:
  enum class Kind { kLeaf, kPar, kHide, kMinimize };

  Kind kind = Kind::kLeaf;
  std::string name;                                // diagnostic label
  std::function<lts::Lts()> generator;             // kLeaf
  std::vector<NodePtr> children;                   // operands
  std::vector<std::string> gates;                  // kPar sync / kHide set
  bisim::Equivalence equivalence = bisim::Equivalence::kBranching;  // kMinimize
  /// Structural identity of the subtree below this node (set by the
  /// planner on minimisation points): a stable key derived from the source
  /// terms, NOT from any generated LTS.  Lets a MinimizeCache skip the
  /// entire subtree — generation included — when a re-plan reuses it.
  std::string plan_key;
};

/// Leaf holding an already-built LTS.
[[nodiscard]] NodePtr leaf(lts::Lts l, std::string name = "leaf");
/// Leaf generating its LTS on demand.
[[nodiscard]] NodePtr leaf(std::function<lts::Lts()> gen,
                           std::string name = "leaf");
/// Parallel composition of two subtrees synchronising on @p sync_gates.
[[nodiscard]] NodePtr compose2(NodePtr a, std::vector<std::string> sync_gates,
                               NodePtr b);
/// Hide the gates in @p gates.
[[nodiscard]] NodePtr hide_gates(std::vector<std::string> gates, NodePtr p);
/// Minimisation point (a no-op when evaluating monolithically).
[[nodiscard]] NodePtr minimize_here(
    NodePtr p, bisim::Equivalence e = bisim::Equivalence::kBranching);

/// One evaluation step's size and wall-time record.
struct StepStat {
  std::string description;
  std::size_t states_before = 0;
  std::size_t states_after = 0;  // == before except at minimisation points
  double seconds = 0.0;          // wall time of this step alone
};

struct EvalStats {
  std::size_t peak_states = 0;
  std::size_t peak_transitions = 0;
  std::vector<StepStat> steps;

  /// Total wall time across all steps.
  [[nodiscard]] double total_seconds() const;

  /// step | states before -> after | time (ms) table for core::report-style
  /// printing (every step is also pushed to core::record_generation).
  [[nodiscard]] core::Table to_table(const std::string& title) const;
};

/// Key of a content-tier MinimizeCache entry: the content digest of the
/// pre-minimisation LTS and the equivalence.
[[nodiscard]] core::CacheKey minimize_key(const lts::Lts& input,
                                          bisim::Equivalence e);

/// Key of a plan-subtree MinimizeCache entry (Node::plan_key).
[[nodiscard]] core::CacheKey subtree_key(const std::string& plan_key);

/// Byte-budgeted, thread-safe LRU cache consulted at minimisation points,
/// over two keying tiers:
///   - content: the quotient of a pre-minimisation LTS under an
///     equivalence.  Re-evaluating a pipeline in which one leaf changed
///     then only re-minimises the subtrees whose inputs actually differ:
///     every untouched subtree produces a bitwise-identical intermediate
///     LTS and hits;
///   - plan subtree: the minimised LTS of a whole plan subtree, addressed
///     by the planner's structural key (Node::plan_key).  A hit skips the
///     subtree's generation entirely, so subtree reuse survives
///     re-planning.
/// A dse sweep or a plan evaluation holds one in process, so repeated
/// minimisations stay bounded instead of growing with the sweep.
class MinimizeCache {
 public:
  using Stats = core::LruStats;

  /// @p capacity_bytes bounds the estimated resident bytes of cached LTSs.
  explicit MinimizeCache(std::size_t capacity_bytes = 32u << 20);

  /// The cached quotient of @p input under @p e, if present.
  [[nodiscard]] std::optional<lts::Lts> lookup(const lts::Lts& input,
                                               bisim::Equivalence e);
  /// Records that minimising @p input under @p e yields @p reduced.
  void store(const lts::Lts& input, bisim::Equivalence e,
             const lts::Lts& reduced);
  /// The cached minimised LTS of the plan subtree @p plan_key, if present.
  [[nodiscard]] std::optional<lts::Lts> lookup_subtree(
      const std::string& plan_key);
  void store_subtree(const std::string& plan_key, const lts::Lts& reduced);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t bytes() const;

 private:
  std::optional<lts::Lts> get(const core::CacheKey& key);
  void put(const core::CacheKey& key, const lts::Lts& value);

  mutable core::Mutex mu_;
  core::LruCache<core::CacheKey, lts::Lts, core::CacheKeyHash> lru_
      MV_GUARDED_BY(mu_);
};

/// The former name of MinimizeCache.  Only perfbench/wl_dse.cpp still uses
/// it; remove it with the next change to the benchmark.
using LruMinimizeCache = MinimizeCache;

/// Evaluates the expression.  @p with_minimization toggles the minimisation
/// points; @p stats (optional) receives size records; @p min_cache
/// (optional) short-circuits minimisation points whose input was already
/// minimised (cached steps are recorded with a "(cached)" suffix).
[[nodiscard]] lts::Lts evaluate(const NodePtr& root, bool with_minimization,
                                EvalStats* stats = nullptr,
                                MinimizeCache* min_cache = nullptr);

/// Full-control evaluation options (the planned pipeline's entry point).
struct EvalOptions {
  bool with_minimization = true;
  /// State cap per join product (lts::StateSpaceLimit beyond it).
  std::size_t max_states = 1u << 22;
  EvalStats* stats = nullptr;
  MinimizeCache* cache = nullptr;
};

[[nodiscard]] lts::Lts evaluate(const NodePtr& root, const EvalOptions& opts);

/// Convenience: compositional vs monolithic comparison.
struct Comparison {
  EvalStats compositional;
  EvalStats monolithic;
  bool equivalent = false;  ///< results branching-bisimilar (sanity check)
};
[[nodiscard]] Comparison compare_strategies(const NodePtr& root);

}  // namespace multival::compose
