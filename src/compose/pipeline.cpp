#include "compose/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "lts/product.hpp"

namespace multival::compose {

NodePtr leaf(lts::Lts l, std::string name) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kLeaf;
  node->name = std::move(name);
  auto holder = std::make_shared<lts::Lts>(std::move(l));
  node->generator = [holder]() { return *holder; };
  return node;
}

NodePtr leaf(std::function<lts::Lts()> gen, std::string name) {
  if (!gen) {
    throw std::invalid_argument("compose::leaf: null generator");
  }
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kLeaf;
  node->name = std::move(name);
  node->generator = std::move(gen);
  return node;
}

NodePtr compose2(NodePtr a, std::vector<std::string> sync_gates, NodePtr b) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kPar;
  node->name = "par";
  node->children = {std::move(a), std::move(b)};
  node->gates = std::move(sync_gates);
  return node;
}

NodePtr hide_gates(std::vector<std::string> gates, NodePtr p) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kHide;
  node->name = "hide";
  node->children = {std::move(p)};
  node->gates = std::move(gates);
  return node;
}

NodePtr minimize_here(NodePtr p, bisim::Equivalence e) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kMinimize;
  node->name = std::string("min:") + bisim::to_string(e);
  node->children = {std::move(p)};
  node->equivalence = e;
  return node;
}

namespace {

/// Wall-clock timer for one pipeline step.
class StepTimer {
 public:
  StepTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

void record(EvalStats* stats, const std::string& what, const lts::Lts& l,
            std::size_t states_before, double seconds) {
  core::record_generation(core::GenerationStat{
      "pipeline: " + what, l.num_states(), l.num_transitions(), seconds});
  if (stats == nullptr) {
    return;
  }
  stats->peak_states = std::max(stats->peak_states, l.num_states());
  stats->peak_states = std::max(stats->peak_states, states_before);
  stats->peak_transitions =
      std::max(stats->peak_transitions, l.num_transitions());
  stats->steps.push_back(StepStat{what, states_before, l.num_states(), seconds});
}

class Evaluator {
 public:
  explicit Evaluator(const EvalOptions& opts) : opts_(opts) {}

  lts::Lts eval(const Node& n) {
    switch (n.kind) {
      case Node::Kind::kLeaf: {
        const StepTimer timer;
        lts::Lts l = n.generator();
        record(opts_.stats, "generate " + n.name, l, l.num_states(),
               timer.seconds());
        return l;
      }
      case Node::Kind::kPar: {
        const lts::Lts a = eval(*n.children[0]);
        const lts::Lts b = eval(*n.children[1]);
        const StepTimer timer;
        lts::Lts p = lts::parallel(a, b, n.gates, opts_.max_states);
        record(opts_.stats, "compose", p, p.num_states(), timer.seconds());
        return p;
      }
      case Node::Kind::kHide: {
        lts::Lts inner = eval(*n.children[0]);
        const StepTimer timer;
        lts::Lts h = lts::hide(inner, n.gates);
        record(opts_.stats, "hide", h, h.num_states(), timer.seconds());
        return h;
      }
      case Node::Kind::kMinimize: {
        if (opts_.with_minimization && opts_.cache != nullptr &&
            !n.plan_key.empty()) {
          const StepTimer timer;
          if (std::optional<lts::Lts> cached =
                  opts_.cache->lookup_subtree(n.plan_key)) {
            record(opts_.stats, n.name + " (subtree cached)", *cached,
                   cached->num_states(), timer.seconds());
            return *std::move(cached);
          }
        }
        lts::Lts inner = eval(*n.children[0]);
        if (!opts_.with_minimization) {
          return inner;
        }
        const std::size_t before = inner.num_states();
        const StepTimer timer;
        lts::Lts reduced;
        bool from_cache = false;
        if (opts_.cache != nullptr) {
          if (std::optional<lts::Lts> cached =
                  opts_.cache->lookup(inner, n.equivalence)) {
            reduced = *std::move(cached);
            from_cache = true;
          }
        }
        if (!from_cache) {
          reduced = bisim::minimize(inner, n.equivalence).quotient;
          if (opts_.cache != nullptr) {
            opts_.cache->store(inner, n.equivalence, reduced);
          }
        }
        if (opts_.cache != nullptr && !n.plan_key.empty()) {
          opts_.cache->store_subtree(n.plan_key, reduced);
        }
        record(opts_.stats, from_cache ? n.name + " (cached)" : n.name,
               reduced, before, timer.seconds());
        return reduced;
      }
    }
    throw std::logic_error("compose::evaluate: bad node kind");
  }

 private:
  const EvalOptions& opts_;
};

/// Estimated resident bytes of a cached LTS (budgeting, not accounting).
std::size_t approx_bytes(const lts::Lts& l) {
  std::size_t bytes = 16 * l.num_states() + 12 * l.num_transitions();
  for (lts::ActionId a = 0; a < l.actions().size(); ++a) {
    bytes += 32 + l.actions().name(a).size();
  }
  return bytes;
}

}  // namespace

double EvalStats::total_seconds() const {
  double total = 0.0;
  for (const StepStat& s : steps) {
    total += s.seconds;
  }
  return total;
}

core::Table EvalStats::to_table(const std::string& title) const {
  core::Table t(title, {"step", "states", "time (ms)"});
  for (const StepStat& s : steps) {
    const std::string size =
        s.states_before == s.states_after
            ? std::to_string(s.states_after)
            : std::to_string(s.states_before) + " -> " +
                  std::to_string(s.states_after);
    t.add_row({s.description, size, core::fmt(s.seconds * 1e3, 2)});
  }
  t.add_row({"total (peak " + std::to_string(peak_states) + " states)", "",
             core::fmt(total_seconds() * 1e3, 2)});
  return t;
}

core::CacheKey minimize_key(const lts::Lts& input, bisim::Equivalence e) {
  core::Hasher h;
  h.str("minimize-v1");
  h.str(bisim::to_string(e));
  hash_append(h, input);
  return h.key();
}

core::CacheKey subtree_key(const std::string& plan_key) {
  core::Hasher h;
  h.str("plan-subtree-v1");
  h.str(plan_key);
  return h.key();
}

// ---- MinimizeCache ----------------------------------------------------------

MinimizeCache::MinimizeCache(std::size_t capacity_bytes)
    : lru_(capacity_bytes) {}

std::optional<lts::Lts> MinimizeCache::get(const core::CacheKey& key) {
  const core::MutexLock lock(mu_);
  return lru_.get(key);
}

void MinimizeCache::put(const core::CacheKey& key, const lts::Lts& value) {
  const core::MutexLock lock(mu_);
  lru_.put(key, value, approx_bytes(value));
}

std::optional<lts::Lts> MinimizeCache::lookup(const lts::Lts& input,
                                              bisim::Equivalence e) {
  return get(minimize_key(input, e));
}

void MinimizeCache::store(const lts::Lts& input, bisim::Equivalence e,
                          const lts::Lts& reduced) {
  put(minimize_key(input, e), reduced);
}

std::optional<lts::Lts> MinimizeCache::lookup_subtree(
    const std::string& plan_key) {
  return get(subtree_key(plan_key));
}

void MinimizeCache::store_subtree(const std::string& plan_key,
                                  const lts::Lts& reduced) {
  put(subtree_key(plan_key), reduced);
}

MinimizeCache::Stats MinimizeCache::stats() const {
  const core::MutexLock lock(mu_);
  return lru_.stats();
}

std::size_t MinimizeCache::entries() const {
  const core::MutexLock lock(mu_);
  return lru_.size();
}

std::size_t MinimizeCache::bytes() const {
  const core::MutexLock lock(mu_);
  return lru_.bytes();
}

// ---- evaluation entry points ------------------------------------------------

lts::Lts evaluate(const NodePtr& root, bool with_minimization,
                  EvalStats* stats, MinimizeCache* min_cache) {
  EvalOptions opts;
  opts.with_minimization = with_minimization;
  opts.stats = stats;
  opts.cache = min_cache;
  return evaluate(root, opts);
}

lts::Lts evaluate(const NodePtr& root, const EvalOptions& opts) {
  if (root == nullptr) {
    throw std::invalid_argument("compose::evaluate: null root");
  }
  return Evaluator(opts).eval(*root);
}

Comparison compare_strategies(const NodePtr& root) {
  Comparison cmp;
  const lts::Lts with = evaluate(root, true, &cmp.compositional);
  const lts::Lts without = evaluate(root, false, &cmp.monolithic);
  cmp.equivalent =
      bisim::equivalent(with, without, bisim::Equivalence::kBranching);
  return cmp;
}

}  // namespace multival::compose
