#include "compose/plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "analyze/analyze.hpp"
#include "analyze/bounds.hpp"
#include "bisim/reduction.hpp"
#include "core/hash.hpp"
#include "proc/generator.hpp"

namespace multival::compose {

namespace {

using analyze::GateSet;
using proc::Term;
using proc::TermPtr;

// ---- structural plan keys ---------------------------------------------------

/// Content digest of @p s as 32 hex chars.  Plan keys are derived from
/// *source syntax* (term renderings + reachable definitions), never from
/// generated LTSs, so they are stable across re-planning.
std::string digest_hex(const std::string& s) {
  core::Hasher h;
  h.str(s);
  return h.key().hex();
}

/// Names of definitions transitively reachable from @p t.
void reachable_defs(const proc::Program& program, const Term* t,
                    std::set<std::string>& out) {
  if (t->kind() == Term::Kind::kCall &&
      program.has_definition(t->callee()) &&
      out.insert(t->callee()).second) {
    reachable_defs(program, program.definition(t->callee()).body.get(), out);
  }
  for (const TermPtr& c : t->children()) {
    reachable_defs(program, c.get(), out);
  }
}

/// Leaf key: term rendering plus the renderings of every definition it can
/// reach (a change in any of them changes the generated LTS).
std::string leaf_key(const proc::Program& program, const TermPtr& t) {
  std::set<std::string> defs;
  reachable_defs(program, t.get(), defs);
  std::string blob = t->to_string();
  for (const std::string& name : defs) {
    const auto& def = program.definition(name);
    blob += "\n" + name + "(";
    for (const std::string& p : def.params) {
      blob += p + ",";
    }
    blob += ") := " + def.body->to_string();
  }
  return digest_hex(blob);
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? " " : "") + v[i];
  }
  return out;
}

// ---- flattening -------------------------------------------------------------

struct Component {
  TermPtr term;
  std::string name;
  GateSet alpha;       ///< effective alphabet (blocked sync gates included)
  std::string key;     ///< structural leaf key
};

/// Thrown internally when the structure is not safely reassociable; turned
/// into a single-leaf fallback plan by plan_term.
struct NotPlannable {
  std::string reason;
};

class Flattener {
 public:
  Flattener(const proc::Program& program,
            const std::map<std::string, GateSet>& defs)
      : program_(program), defs_(defs) {}

  /// Collected components, in left-to-right term order.
  std::vector<Component> components;
  /// gate -> indices of the components a hide instance covers.  Populated
  /// only after a successful walk; one instance per gate name (nested or
  /// repeated same-name hides are rejected as not plannable).
  std::map<std::string, std::set<std::size_t>> hide_scopes;

  void walk(const TermPtr& t) {
    switch (t->kind()) {
      case Term::Kind::kPar: {
        const GateSet la = alpha_of(t->children()[0]);
        const GateSet ra = alpha_of(t->children()[1]);
        // Reassociation is sound only if every gate both sides can perform
        // is synchronised here (free interleaving of a shared name cannot
        // be expressed with alphabetised sync sets).
        const GateSet sync(t->gates().begin(), t->gates().end());
        for (const std::string& g : la) {
          if (ra.count(g) != 0 && sync.count(g) == 0) {
            throw NotPlannable{"gate " + g +
                               " interleaves freely between operands that "
                               "both perform it"};
          }
        }
        const std::size_t left_begin = components.size();
        walk(t->children()[0]);
        const std::size_t right_begin = components.size();
        walk(t->children()[1]);
        // A sync gate only one side performs blocks that side's occurrences
        // (LOTOS restriction idiom).  Preserve the blocking under any
        // association order by adding the gate to the alphabet of one
        // component on the silent side: it then always requires that
        // component's participation, which never comes.
        for (const std::string& g : t->gates()) {
          const bool in_l = la.count(g) != 0;
          const bool in_r = ra.count(g) != 0;
          if (in_l == in_r) {
            continue;  // fires (both) or is vacuous (neither)
          }
          components[in_l ? right_begin : left_begin].alpha.insert(g);
        }
        return;
      }
      case Term::Kind::kHide: {
        const std::size_t begin = components.size();
        walk(t->children()[0]);
        for (const std::string& g : t->gates()) {
          if (!hides_seen_.insert(g).second) {
            throw NotPlannable{"gate " + g + " is hidden more than once"};
          }
          std::set<std::size_t>& scope = hide_raw_scopes_[g];
          for (std::size_t i = begin; i < components.size(); ++i) {
            scope.insert(i);
          }
        }
        return;
      }
      case Term::Kind::kCall: {
        // Inline parallel structure behind zero-argument calls (e.g. the
        // "Mesh" entry of the noc scenarios); recursion stops inlining.
        if (t->args().empty() && program_.has_definition(t->callee()) &&
            program_.definition(t->callee()).params.empty() &&
            inlining_.insert(t->callee()).second) {
          walk(program_.definition(t->callee()).body);
          inlining_.erase(t->callee());
          return;
        }
        add_leaf(t, t->callee());
        return;
      }
      default:
        add_leaf(t, sketch(t));
        return;
    }
  }

  /// Validates hidden-gate scoping after the walk: a hidden gate's users
  /// must all lie inside its hide's subtree, otherwise an equally named
  /// visible gate elsewhere would be captured by reassociation.
  void resolve_hides() {
    for (auto& [gate, scope] : hide_raw_scopes_) {
      std::set<std::size_t> users;
      for (std::size_t i = 0; i < components.size(); ++i) {
        if (components[i].alpha.count(gate) != 0) {
          users.insert(i);
        }
      }
      for (const std::size_t u : users) {
        if (scope.count(u) == 0) {
          throw NotPlannable{"hidden gate " + gate +
                             " is also performed outside its hide scope"};
        }
      }
      hide_scopes.emplace(gate, std::move(users));
    }
  }

 private:
  GateSet alpha_of(const TermPtr& t) const {
    return analyze::term_alphabet(t, defs_);
  }

  void add_leaf(const TermPtr& t, std::string name) {
    Component c;
    c.term = t;
    c.name = std::move(name);
    c.alpha = alpha_of(t);
    c.key = leaf_key(program_, t);
    components.push_back(std::move(c));
  }

  static std::string sketch(const TermPtr& t) {
    switch (t->kind()) {
      case Term::Kind::kPrefix:
        return t->gate() + "...";
      case Term::Kind::kRename:
        return "rename";
      case Term::Kind::kChoice:
        return "choice";
      case Term::Kind::kGuard:
        return "guard";
      case Term::Kind::kSeq:
        return "seq";
      case Term::Kind::kStop:
        return "stop";
      case Term::Kind::kExit:
        return "exit";
      default:
        return "leaf";
    }
  }

  const proc::Program& program_;
  const std::map<std::string, GateSet>& defs_;
  std::set<std::string> inlining_;
  std::set<std::string> hides_seen_;
  std::map<std::string, std::set<std::size_t>> hide_raw_scopes_;
};

// ---- greedy order search ----------------------------------------------------

struct Group {
  std::set<std::size_t> members;
  GateSet alpha;        ///< union of member alphabets minus hidden gates
  NodePtr node;
  std::string key;      ///< structural key of the subtree
  std::size_t min_index = 0;
  /// Product of the members' predicted standalone bounds — an
  /// over-approximation of this group's product before minimisation, used
  /// only to break merge-score ties towards smaller intermediates.
  std::uint64_t pred = 1;
};

std::vector<std::string> sorted_vec(const GateSet& s) {
  return {s.begin(), s.end()};
}

/// Gates from @p hides (not yet hidden) whose users all lie in @p members.
std::vector<std::string> newly_hideable(
    const std::map<std::string, std::set<std::size_t>>& hides,
    const std::set<std::string>& already_hidden,
    const std::set<std::size_t>& members) {
  std::vector<std::string> out;
  for (const auto& [gate, users] : hides) {
    if (already_hidden.count(gate) != 0 || users.empty()) {
      continue;
    }
    const bool inside = std::all_of(
        users.begin(), users.end(),
        [&](std::size_t u) { return members.count(u) != 0; });
    if (inside) {
      out.push_back(gate);
    }
  }
  return out;
}

NodePtr leaf_of(std::shared_ptr<const proc::Program> program,
                const Component& c, std::size_t max_states) {
  const TermPtr term = c.term;
  proc::GenerateOptions go;
  go.max_states = max_states;
  return leaf(
      [program, term, go]() {
        return proc::generate_term(*program, term, go);
      },
      c.name);
}

std::string render_node(const Node& n) {
  switch (n.kind) {
    case Node::Kind::kLeaf:
      return n.name;
    case Node::Kind::kPar:
      return "(" + render_node(*n.children[0]) + " |[" + join(n.gates) +
             "]| " + render_node(*n.children[1]) + ")";
    case Node::Kind::kHide:
      return "hide " + join(n.gates) + " in " + render_node(*n.children[0]);
    case Node::Kind::kMinimize:
      return "min(" + render_node(*n.children[0]) + ")";
  }
  return "?";
}

/// Thrown when the static bound analysis proves a component cannot be
/// generated standalone within the cap; plan_term turns it into a
/// monolithic fallback that never starts the doomed generation.
struct StaticSkip {
  std::string reason;
  std::vector<std::string> skips;
  std::vector<std::uint64_t> component_bounds;
};

// The merge score's weights w_sync and w_hide (see plan.hpp's header).
constexpr double kSyncWeight = 1.0;
constexpr double kHideWeight = 0.5;

Plan build_plan(std::shared_ptr<const proc::Program> program, TermPtr root,
                const PlanOptions& opts) {
  const std::map<std::string, GateSet> defs = analyze::alphabets(*program);
  Flattener flat(*program, defs);
  flat.walk(root);
  flat.resolve_hides();

  Plan plan;
  plan.planned = true;
  for (const Component& c : flat.components) {
    plan.components.push_back(c.name);
  }

  // Pre-flight: predict each component's *standalone* bound (the leaf is
  // generated without its peers, exactly like leaf_of below will).  A
  // component whose predicted bound already exceeds the standalone cap is
  // doomed — typically a counter whose ceiling lives in a synchronising
  // peer, like the xstream credit loop — so route to monolithic now
  // instead of paying the capped generation before the runtime fallback.
  const std::size_t cap = std::min(opts.max_states, opts.max_component_states);
  std::vector<std::string> skips;
  for (std::size_t i = 0; i < flat.components.size(); ++i) {
    const Component& c = flat.components[i];
    plan.component_bounds.push_back(
        analyze::predicted_states(*program, c.term, defs));
    const std::uint64_t pred = plan.component_bounds.back();
    if (flat.components.size() > 1 && pred > cap) {
      skips.push_back("static skip (MV042): component '" + c.name +
                      "' predicted " + analyze::format_states(pred) +
                      " states standalone (cap " + std::to_string(cap) + ")");
    }
  }
  if (!skips.empty()) {
    throw StaticSkip{skips.front(), std::move(skips),
                     std::move(plan.component_bounds)};
  }

  // One group per component; greedy pair merging.
  std::vector<Group> groups;
  for (std::size_t i = 0; i < flat.components.size(); ++i) {
    const Component& c = flat.components[i];
    Group g;
    g.members = {i};
    g.alpha = c.alpha;
    g.node = leaf_of(program, c,
                     std::min(opts.max_states, opts.max_component_states));
    g.key = c.key;
    g.min_index = i;
    g.pred = plan.component_bounds[i];
    groups.push_back(std::move(g));
  }
  std::set<std::string> hidden;

  const auto wrap = [&](Group& g, const std::vector<std::string>& to_hide) {
    if (!to_hide.empty()) {
      g.node = hide_gates(to_hide, std::move(g.node));
      g.key = digest_hex("hide(" + join(to_hide) + "," + g.key + ")");
      for (const std::string& h : to_hide) {
        hidden.insert(h);
        g.alpha.erase(h);
      }
    }
    g.node = minimize_here(std::move(g.node), opts.equivalence);
    g.key = digest_hex("min(" + std::string(bisim::to_string(opts.equivalence)) +
                       "," + g.key + ")");
    const_cast<Node&>(*g.node).plan_key = g.key;
  };

  while (groups.size() > 1) {
    double best = -1.0;
    std::uint64_t best_pred = analyze::kUnboundedStates;
    std::size_t bi = 0;
    std::size_t bj = 1;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      for (std::size_t j = i + 1; j < groups.size(); ++j) {
        GateSet inter;
        std::set_intersection(
            groups[i].alpha.begin(), groups[i].alpha.end(),
            groups[j].alpha.begin(), groups[j].alpha.end(),
            std::inserter(inter, inter.end()));
        GateSet uni = groups[i].alpha;
        uni.insert(groups[j].alpha.begin(), groups[j].alpha.end());
        std::set<std::size_t> members = groups[i].members;
        members.insert(groups[j].members.begin(), groups[j].members.end());
        const std::size_t hideable =
            newly_hideable(flat.hide_scopes, hidden, members).size();
        const double denom = uni.empty() ? 1.0 : double(uni.size());
        const double score =
            (kSyncWeight * double(inter.size()) +
             kHideWeight * double(hideable)) /
            denom;
        // Equal scores are common (symmetric components): break the tie
        // towards the pair with the smaller predicted product, so the
        // cheapest intermediate is built first.
        const std::uint64_t pred =
            analyze::saturating_mul(groups[i].pred, groups[j].pred);
        if (score > best + 1e-12 ||
            (score > best - 1e-12 && pred < best_pred)) {
          best = score > best ? score : best;
          best_pred = pred;
          bi = i;
          bj = j;
        }
      }
    }
    Group merged;
    merged.members = groups[bi].members;
    merged.members.insert(groups[bj].members.begin(),
                          groups[bj].members.end());
    GateSet inter;
    std::set_intersection(groups[bi].alpha.begin(), groups[bi].alpha.end(),
                          groups[bj].alpha.begin(), groups[bj].alpha.end(),
                          std::inserter(inter, inter.end()));
    merged.alpha = groups[bi].alpha;
    merged.alpha.insert(groups[bj].alpha.begin(), groups[bj].alpha.end());
    merged.min_index = std::min(groups[bi].min_index, groups[bj].min_index);
    merged.pred = analyze::saturating_mul(groups[bi].pred, groups[bj].pred);
    merged.node = compose2(std::move(groups[bi].node), sorted_vec(inter),
                           std::move(groups[bj].node));
    merged.key = digest_hex("par(" + groups[bi].key + ",[" +
                            join(sorted_vec(inter)) + "]," + groups[bj].key +
                            ")");
    wrap(merged, newly_hideable(flat.hide_scopes, hidden, merged.members));
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(bj));
    groups[bi] = std::move(merged);
  }

  // Single-component terms (or after all merges): ensure the final node is
  // a minimisation point and that zero-user hides did not slip through
  // (hiding a gate nobody performs is a no-op, so dropping them is sound).
  Group& top = groups.front();
  if (top.node->kind != Node::Kind::kMinimize) {
    wrap(top, newly_hideable(flat.hide_scopes, hidden, top.members));
  }
  plan.root = top.node;
  plan.grammar = render_node(*plan.root);
  return plan;
}

Plan fallback_plan(std::shared_ptr<const proc::Program> program, TermPtr root,
                   const PlanOptions& opts, std::string reason) {
  Plan plan;
  plan.planned = false;
  plan.fallback_reason = std::move(reason);
  plan.components = {"flat"};
  plan.program = program;
  plan.term = root;
  proc::GenerateOptions go;
  go.max_states = opts.max_states;
  NodePtr l = leaf(
      [program, root, go]() {
        return proc::generate_term(*program, root, go);
      },
      "flat");
  NodePtr m = minimize_here(std::move(l), opts.equivalence);
  const_cast<Node&>(*m).plan_key =
      digest_hex("min(" + std::string(bisim::to_string(opts.equivalence)) +
                 ",flat," + leaf_key(*program, root) + ")");
  plan.root = m;
  plan.grammar = render_node(*plan.root);
  return plan;
}

}  // namespace

const char* to_string(Strategy s) {
  return s == Strategy::kPlanned ? "planned" : "flat";
}

Plan plan_term(std::shared_ptr<const proc::Program> program, TermPtr root,
               const PlanOptions& opts) {
  if (program == nullptr || root == nullptr) {
    throw std::invalid_argument("compose::plan_term: null program or term");
  }
  try {
    Plan plan = build_plan(program, root, opts);
    if (plan.components.size() < 2) {
      return fallback_plan(program, root, opts,
                           "no parallel structure to reassociate");
    }
    plan.program = program;
    plan.term = root;
    return plan;
  } catch (const NotPlannable& np) {
    return fallback_plan(program, root, opts, np.reason);
  } catch (const StaticSkip& skip) {
    Plan plan = fallback_plan(program, root, opts, skip.reason);
    plan.static_skips = skip.skips;
    plan.component_bounds = skip.component_bounds;
    return plan;
  }
}

Plan plan_program(std::shared_ptr<const proc::Program> program,
                  std::string_view entry, const PlanOptions& opts) {
  return plan_term(program, proc::call(entry), opts);
}

std::string render_plan(const Plan& plan) {
  return plan.root == nullptr ? std::string() : render_node(*plan.root);
}

PlanResult evaluate_plan(const Plan& plan, const PlanOptions& opts,
                         MinimizeCache* cache) {
  if (plan.root == nullptr) {
    throw std::invalid_argument("compose::evaluate_plan: empty plan");
  }
  PlanResult result;
  // Components the planner routed around statically never start
  // generating; surface the skips in the step log where the runtime
  // fallback would otherwise have appeared.
  for (const std::string& skip : plan.static_skips) {
    result.stats.steps.push_back({skip, 0, 0, 0.0});
  }
  EvalOptions eo;
  eo.with_minimization = true;
  eo.max_states = opts.max_states;
  eo.stats = &result.stats;
  eo.cache = cache;
  // A component can blow past the cap *standalone* when its bound lives in
  // a peer (e.g. a credit counter whose ceiling is the other operand), and
  // a join can blow past it before its minimisation.  The composed system
  // may still be small: retry monolithically, where the constraint applies
  // during generation.
  lts::Lts minimal;
  try {
    minimal = evaluate(plan.root, eo);
  } catch (const lts::StateSpaceLimit& e) {
    if (!plan.planned || plan.program == nullptr || plan.term == nullptr) {
      throw;
    }
    result.stats.steps.push_back(
        {std::string("monolithic fallback (") + e.what() + ")", 0, 0, 0.0});
    const Plan retry = fallback_plan(
        plan.program, plan.term, opts,
        std::string("exceeded the state cap: ") + e.what());
    minimal = evaluate(retry.root, eo);
  }
  // The root is a minimisation point, so `minimal` is minimal modulo
  // opts.equivalence; the canonical form is therefore isomorphism-invariant
  // and byte-identical across planned / flat / re-planned evaluations.
  result.lts = bisim::canonical_form(minimal);
  return result;
}

PlanResult flat_reference(std::shared_ptr<const proc::Program> program,
                          TermPtr root, const PlanOptions& opts,
                          MinimizeCache* cache) {
  if (program == nullptr || root == nullptr) {
    throw std::invalid_argument(
        "compose::flat_reference: null program or term");
  }
  return evaluate_plan(fallback_plan(program, root, opts, "flat reference"),
                       opts, cache);
}

lts::Lts pipeline_lts(std::shared_ptr<const proc::Program> program,
                      std::string_view entry, Strategy strategy,
                      const PlanOptions& opts, MinimizeCache* cache) {
  if (program == nullptr) {
    throw std::invalid_argument("compose::pipeline_lts: null program");
  }
  if (strategy == Strategy::kFlat) {
    proc::GenerateOptions go;
    go.max_states = opts.max_states;
    return proc::generate(*program, entry, {}, go);
  }
  return evaluate_plan(plan_program(program, entry, opts), opts, cache).lts;
}

}  // namespace multival::compose
