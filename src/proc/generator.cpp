#include "proc/generator.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace multival::proc {

namespace {

using lts::Lts;
using lts::StateId;

using CfgId = std::uint32_t;
using ActionId = std::uint32_t;
using GateId = std::uint32_t;
using TermId = std::uint32_t;

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

// Actions 0 and 1 are tau and exit.  Their gates are sentinels that no gate
// name maps to, so a visible gate renamed to "i" or "exit" stays visible.
constexpr ActionId kTau = 0;
constexpr ActionId kExit = 1;
constexpr GateId kTauGate = 0;
constexpr GateId kExitGate = 1;

/// The stop term is compiled first, so the stop leaf is always term 0.
constexpr TermId kStopTerm = 0;

/// One transition of a configuration: interned action, successor.
struct Move {
  ActionId action = 0;
  CfgId dst = 0;
};

/// A run of moves in Generator::moves_; size kNone means "not computed".
struct Span {
  std::uint32_t begin = 0;
  std::uint32_t size = kNone;
};

std::uint64_t mix(std::uint64_t h, std::uint32_t w) {
  h = (h ^ w) * 0xff51afd7ed558ccdull;
  return h ^ (h >> 32);
}

std::uint64_t hash_words(std::span<const std::uint32_t> words) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ words.size();
  for (const std::uint32_t w : words) {
    h = mix(h, w);
  }
  return h;
}

/// Open-addressing (linear probing) set of dense ids whose records live in
/// the caller's arena.  Each slot keeps 32 bits of the record's hash next
/// to its id, so growing never touches the records and most probes that
/// miss never touch them either.
class IdTable {
 public:
  /// Returns the id whose record @p same accepts, or adds @p fresh.
  template <class Same>
  std::uint32_t find_or_add(std::uint64_t hash, std::uint32_t fresh,
                            Same&& same) {
    if ((count_ + 1) * 4 > slots_.size() * 3) {
      grow();
    }
    const auto tag = static_cast<std::uint32_t>(hash ^ (hash >> 32));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s = Slot{tag, fresh};
        ++count_;
        return fresh;
      }
      if (s.tag == tag && same(s.id)) {
        return s.id;
      }
    }
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t id = kNone;
  };

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, slots_.size() * 2));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNone) {
        continue;
      }
      std::size_t i = s.tag & mask;
      while (slots_[i].id != kNone) {
        i = (i + 1) & mask;
      }
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

/// Runtime configurations are hash-consed records in one word arena:
///
///   leaf   (stop, exit, prefix, choice)  term, one value per free variable
///   par                                  term, left, right
///   hide / rename                        term, inner
///   seq                                  term, current, one value per free
///                                        variable of the continuation
///
/// The term index fixes the record's kind and length.  A leaf's values are
/// its environment restricted to the term's free variables, in the order
/// of Term::free_vars(); every term's expressions are compiled once against
/// that slot layout, so no name is looked up while generating.  CfgIds are
/// dense, so the memo, the state map and the record offsets are vectors.
class Generator {
 public:
  Generator(const Program& program, TermPtr root,
            const GenerateOptions& options)
      : program_(program), options_(options), root_(std::move(root)) {
    gate_names_ = {"i", "exit"};  // sentinels: gate_ids_ never maps to them
    (void)compile(stop().get());
    root_edge_ = edge(*root_, {});
    finish_gates();
    actions_.push_back(ActionRec{kTauGate, 0, 0});
    actions_.push_back(ActionRec{kExitGate, 0, 0});
    labels_ = {"i", "exit"};
  }

  /// The one exploration loop: breadth-first over configuration ids, so
  /// state i is the i-th configuration reached, and every move is added to
  /// @p out in SOS order.  With @p stop_at_deadlock it stops at the first
  /// state without moves and returns it; otherwise it returns lts::kNoState.
  StateId run(Lts& out, bool stop_at_deadlock) {
    (void)state_of(lift(root_edge_, 0, 0));
    out.add_state();
    out.set_initial_state(0);
    std::vector<lts::ActionId> lts_action(actions_.size(), kNone);
    for (StateId src = 0; src < states_.size(); ++src) {
      const std::span<const Move> moves = successors(states_[src]);
      if (moves.empty() && stop_at_deadlock) {
        return src;
      }
      for (const Move& m : moves) {
        const StateId dst = state_of(m.dst);
        if (dst == out.num_states()) {
          out.add_state();
        }
        if (m.action >= lts_action.size()) {
          lts_action.resize(actions_.size(), kNone);
        }
        if (lts_action[m.action] == kNone) {
          lts_action[m.action] = out.actions().intern(labels_[m.action]);
        }
        out.add_transition(src, lts_action[m.action], dst);
      }
    }
    return lts::kNoState;
  }

 private:
  /// The moves of a state's root configuration, in SOS order.  They are not
  /// stored (each state is expanded once); the span lives until the next
  /// call.
  std::span<const Move> successors(CfgId id) {
    scratch_.clear();
    vals_.clear();
    append(id, 0);
    return scratch_;
  }

  /// A child term and, for each of its free variables, the slot it reads
  /// in the parent's scope.
  struct Edge {
    TermId term = 0;
    std::vector<std::uint32_t> slots;
    std::string unbound;  // first free variable the scope lacks, if any
  };

  struct Offer {
    bool accept = false;
    CompiledExpr emit;  // over the term's slots, then earlier offers
    Value lo = 0;
    Value hi = 0;
  };

  /// A term compiled against its slot layout: the term's free variables
  /// (a prefix adds one slot per offer holding that offer's value; a call's
  /// body reads the argument values).
  struct Code {
    const Term* term = nullptr;
    Term::Kind kind = Term::Kind::kStop;
    std::uint32_t vars = 0;          // number of free variables
    std::uint32_t record_vars = 0;   // values stored in the record
    std::vector<Edge> next;          // children; prefix: continuation; call: body
    std::vector<CompiledExpr> exprs;  // guard: condition; call: arguments
    std::vector<Offer> offers;        // prefix
    GateId gate = 0;                  // prefix
    std::vector<GateId> gates;  // par/hide: 1 for a member gate; rename: map
    const Program::Definition* def = nullptr;  // call
  };

  struct ActionRec {
    GateId gate = 0;
    std::uint32_t values_at = 0;
    std::uint32_t arity = 0;
  };

  // ---- compilation ---------------------------------------------------------

  /// Numbers @p t and everything reachable from it (children, called
  /// bodies) in pre-order, compiling each term once.
  TermId compile(const Term* t) {
    const auto [it, fresh] =
        term_ids_.emplace(t, static_cast<TermId>(codes_.size()));
    if (!fresh) {
      return it->second;
    }
    const TermId id = it->second;
    codes_.emplace_back();
    Code c;
    c.term = t;
    c.kind = t->kind();
    c.vars = static_cast<std::uint32_t>(t->free_vars().size());
    const std::vector<std::string>& scope = t->free_vars();
    switch (t->kind()) {
      case Term::Kind::kStop:
      case Term::Kind::kExit:
        break;
      case Term::Kind::kPrefix: {
        c.gate = gate_id(t->gate());
        std::vector<std::string> offer_scope = scope;
        for (const proc::Offer& o : t->offers()) {
          Offer oc;
          oc.accept = o.kind == proc::Offer::Kind::kAccept;
          if (oc.accept) {
            oc.lo = o.lo;
            oc.hi = o.hi;
          } else {
            oc.emit = CompiledExpr(*o.expr, resolver(offer_scope));
          }
          // An emit's slot holds its value but binds no name.
          offer_scope.push_back(oc.accept ? o.var : std::string());
          c.offers.push_back(std::move(oc));
        }
        c.next.push_back(edge(*t->children()[0], offer_scope));
        break;
      }
      case Term::Kind::kGuard:
        c.exprs.emplace_back(*t->condition(), resolver(scope));
        c.next.push_back(edge(*t->children()[0], scope));
        break;
      case Term::Kind::kCall:
        for (const ExprPtr& a : t->args()) {
          c.exprs.emplace_back(*a, resolver(scope));
        }
        if (program_.has_definition(t->callee())) {
          c.def = &program_.definition(t->callee());
          c.next.push_back(edge(*c.def->body, c.def->params));
        }
        break;
      case Term::Kind::kPar:
      case Term::Kind::kHide:
      case Term::Kind::kRename:
      case Term::Kind::kChoice:
      case Term::Kind::kSeq:
        for (const TermPtr& child : t->children()) {
          c.next.push_back(edge(*child, scope));
        }
        for (const std::string& g : t->gates()) {
          (void)gate_id(g);
        }
        for (const auto& [from, to] : t->gate_map()) {
          (void)gate_id(from);
          (void)gate_id(to);
        }
        break;
    }
    if (c.kind == Term::Kind::kSeq) {
      c.record_vars =
          static_cast<std::uint32_t>(t->children()[1]->free_vars().size());
    } else if (is_leaf(c.kind)) {
      c.record_vars = c.vars;
    }
    codes_[id] = std::move(c);
    return id;
  }

  static bool is_leaf(Term::Kind k) {
    return k == Term::Kind::kStop || k == Term::Kind::kExit ||
           k == Term::Kind::kPrefix || k == Term::Kind::kChoice;
  }

  /// Resolves a name to its latest binding in @p scope.
  static std::optional<std::uint32_t> slot_in(
      const std::vector<std::string>& scope, const std::string& name) {
    for (std::size_t i = scope.size(); i-- > 0;) {
      if (scope[i] == name) {
        return static_cast<std::uint32_t>(i);
      }
    }
    return std::nullopt;
  }

  static CompiledExpr::Resolver resolver(
      const std::vector<std::string>& scope) {
    return [&scope](const std::string& name) { return slot_in(scope, name); };
  }

  Edge edge(const Term& child, const std::vector<std::string>& scope) {
    Edge e;
    for (const std::string& v : child.free_vars()) {
      const auto slot = slot_in(scope, v);
      if (!slot && e.unbound.empty()) {
        e.unbound = v;
      }
      e.slots.push_back(slot.value_or(0));
    }
    e.term = compile(&child);
    return e;
  }

  GateId gate_id(const std::string& name) {
    const auto [it, fresh] =
        gate_ids_.emplace(name, static_cast<GateId>(gate_names_.size()));
    if (fresh) {
      gate_names_.push_back(name);
    }
    return it->second;
  }

  /// Builds the per-gate tables of par, hide and rename once every gate
  /// of the reachable terms has its id.
  void finish_gates() {
    const std::size_t n = gate_names_.size();
    for (Code& c : codes_) {
      switch (c.kind) {
        case Term::Kind::kPar:
          c.gates.assign(n, 0);
          c.gates[kExitGate] = 1;  // exit always synchronises
          for (const std::string& g : c.term->gates()) {
            c.gates[gate_ids_.at(g)] = 1;
          }
          break;
        case Term::Kind::kHide:
          c.gates.assign(n, 0);
          for (const std::string& g : c.term->gates()) {
            c.gates[gate_ids_.at(g)] = 1;
          }
          break;
        case Term::Kind::kRename:
          c.gates.resize(n);
          for (GateId g = 0; g < n; ++g) {
            c.gates[g] = g;
          }
          for (const auto& [from, to] : c.term->gate_map()) {
            c.gates[gate_ids_.at(from)] = gate_ids_.at(to);
          }
          break;
        default:
          break;
      }
    }
  }

  // ---- actions -------------------------------------------------------------

  ActionId action(GateId gate, std::span<const Value> values) {
    std::uint64_t h = mix(values.size(), gate);
    for (const Value v : values) {
      h = mix(h, static_cast<std::uint32_t>(v));
    }
    const auto fresh = static_cast<ActionId>(actions_.size());
    const ActionId a = action_ids_.find_or_add(h, fresh, [&](ActionId id) {
      const ActionRec& r = actions_[id];
      return r.gate == gate && r.arity == values.size() &&
             std::equal(values.begin(), values.end(),
                        action_values_.begin() + r.values_at);
    });
    if (a == fresh) {
      actions_.push_back(ActionRec{
          gate, static_cast<std::uint32_t>(action_values_.size()),
          static_cast<std::uint32_t>(values.size())});
      action_values_.insert(action_values_.end(), values.begin(),
                            values.end());
      std::string s = gate_names_[gate];
      for (const Value v : values) {
        s += " !";
        s += std::to_string(v);
      }
      labels_.push_back(std::move(s));
    }
    return a;
  }

  ActionId renamed(const Code& c, ActionId a) {
    const ActionRec r = actions_[a];
    const GateId g = c.gates[r.gate];
    if (g == r.gate) {
      return a;
    }
    // Copy: interning may grow action_values_.
    const std::vector<Value> values(
        action_values_.begin() + r.values_at,
        action_values_.begin() + r.values_at + r.arity);
    return action(g, values);
  }

  // ---- configuration interning -------------------------------------------

  /// Interns the record words_[at..end): returns the id of an equal record
  /// (dropping the new copy) or makes it a new configuration.
  CfgId intern(std::size_t at) {
    const std::span<const std::uint32_t> rec(words_.data() + at,
                                             words_.size() - at);
    const auto fresh = static_cast<CfgId>(at_.size());
    const CfgId id = cfg_ids_.find_or_add(hash_words(rec), fresh, [&](CfgId c) {
      // Equal terms imply equal record lengths.
      return words_[at_[c]] == rec[0] &&
             std::equal(rec.begin() + 1, rec.end(),
                        words_.begin() + at_[c] + 1);
    });
    if (id == fresh) {
      at_.push_back(static_cast<std::uint32_t>(at));
      memo_.emplace_back();
    } else {
      words_.resize(at);
    }
    return id;
  }

  CfgId wrap(TermId t, CfgId inner) {
    const std::size_t at = words_.size();
    words_.push_back(t);
    words_.push_back(inner);
    return intern(at);
  }

  CfgId par(TermId t, CfgId left, CfgId right) {
    const std::size_t at = words_.size();
    words_.push_back(t);
    words_.push_back(left);
    words_.push_back(right);
    return intern(at);
  }

  /// seq(t) over @p current, its continuation values copied from the
  /// record at @p values_at.
  CfgId seq(TermId t, CfgId current, std::size_t values_at) {
    const std::size_t at = words_.size();
    words_.push_back(t);
    words_.push_back(current);
    for (std::uint32_t i = 0; i < codes_[t].record_vars; ++i) {
      const std::uint32_t w = words_[values_at + i];
      words_.push_back(w);
    }
    return intern(at);
  }

  CfgId stopped() {
    const std::size_t at = words_.size();
    words_.push_back(kStopTerm);
    return intern(at);
  }

  // ---- lifting: term + env -> configuration --------------------------------

  /// Lifts @p e's term under its projection of the scope at vals_[scope..].
  CfgId lift(const Edge& e, std::size_t scope, std::size_t depth) {
    if (!e.unbound.empty()) {
      throw std::out_of_range("generate: unbound variable " + e.unbound);
    }
    const std::size_t env = vals_.size();
    for (const std::uint32_t s : e.slots) {
      const Value v = vals_[scope + s];
      vals_.push_back(v);
    }
    const CfgId id = lift_term(e.term, env, depth);
    vals_.resize(env);
    return id;
  }

  [[nodiscard]] std::span<const Value> env_at(std::size_t env,
                                              std::size_t n) const {
    return {vals_.data() + env, n};
  }

  /// Normalises structural operators into configuration nodes, resolves
  /// guards, and unfolds process calls; the term's environment is
  /// vals_[env..].  @p depth guards against unguarded recursion.
  CfgId lift_term(TermId t, std::size_t env, std::size_t depth) {
    bump(depth);
    const Code& c = codes_[t];
    switch (c.kind) {
      case Term::Kind::kPar: {
        const CfgId l = lift(c.next[0], env, depth + 1);
        const CfgId r = lift(c.next[1], env, depth + 1);
        return par(t, l, r);
      }
      case Term::Kind::kHide:
      case Term::Kind::kRename:
        return wrap(t, lift(c.next[0], env, depth + 1));
      case Term::Kind::kSeq: {
        const CfgId l = lift(c.next[0], env, depth + 1);
        const std::size_t at = words_.size();
        words_.push_back(t);
        words_.push_back(l);
        for (const std::uint32_t s : c.next[1].slots) {
          words_.push_back(static_cast<std::uint32_t>(vals_[env + s]));
        }
        return intern(at);
      }
      case Term::Kind::kGuard:
        if (c.exprs[0].eval(env_at(env, c.vars)) != 0) {
          return lift(c.next[0], env, depth + 1);
        }
        return stopped();
      case Term::Kind::kCall: {
        if (c.def == nullptr) {
          throw std::out_of_range("Program: undefined process " +
                                  c.term->callee());
        }
        if (c.def->params.size() != c.exprs.size()) {
          throw std::invalid_argument(
              "call of " + c.term->callee() + ": expected " +
              std::to_string(c.def->params.size()) + " argument(s), got " +
              std::to_string(c.exprs.size()));
        }
        const std::size_t args = vals_.size();
        for (const CompiledExpr& a : c.exprs) {
          const Value v = a.eval(env_at(env, c.vars));
          vals_.push_back(v);
        }
        const CfgId id = lift(c.next[0], args, depth + 1);
        vals_.resize(args);
        return id;
      }
      case Term::Kind::kStop:
      case Term::Kind::kExit:
      case Term::Kind::kPrefix:
      case Term::Kind::kChoice: {
        const std::size_t at = words_.size();
        words_.push_back(t);
        for (std::uint32_t i = 0; i < c.vars; ++i) {
          words_.push_back(static_cast<std::uint32_t>(vals_[env + i]));
        }
        return intern(at);
      }
    }
    throw std::logic_error("lift: bad term kind");
  }

  // ---- SOS transition rules -------------------------------------------------

  /// Appends the moves of @p id to scratch_: from the memo when present,
  /// else computed (and not stored).
  void append(CfgId id, std::size_t depth) {
    const Span s = memo_[id];
    if (s.size != kNone) {
      scratch_.insert(scratch_.end(), moves_.begin() + s.begin,
                      moves_.begin() + s.begin + s.size);
      return;
    }
    expand(id, depth);
  }

  /// The moves of a parallel operand, computed on first use and then
  /// served from the memo.  A computation that throws stores nothing.
  Span memoised(CfgId id, std::size_t depth) {
    if (memo_[id].size != kNone) {
      return memo_[id];
    }
    const std::size_t mark = scratch_.size();
    expand(id, depth);
    const Span s{static_cast<std::uint32_t>(moves_.size()),
                 static_cast<std::uint32_t>(scratch_.size() - mark)};
    moves_.insert(moves_.end(), scratch_.begin() + mark, scratch_.end());
    scratch_.resize(mark);
    memo_[id] = s;
    return s;
  }

  /// Pushes the moves of @p id onto scratch_ in SOS order.  scratch_ is a
  /// stack: each call only ever touches the moves above its own mark.
  ///
  /// Only parallel operands are memoised: they are what states share.  The
  /// operand of a hide, rename or sequence belongs to that one wrapper, so
  /// its moves are rewritten in place instead of being stored twice.
  void expand(CfgId id, std::size_t depth) {
    bump(depth);
    const std::size_t at = at_[id];
    const TermId t = words_[at];
    const Code& c = codes_[t];
    const std::size_t mark = scratch_.size();
    switch (c.kind) {
      case Term::Kind::kStop:
        return;
      case Term::Kind::kExit:
        scratch_.push_back(Move{kExit, stopped()});
        return;
      case Term::Kind::kPrefix: {
        const std::size_t scope = push_record_values(at + 1, c.vars);
        vals_.resize(scope + c.vars + c.offers.size());
        enumerate_offers(c, 0, scope, depth);
        vals_.resize(scope);
        return;
      }
      case Term::Kind::kChoice: {
        const std::size_t scope = push_record_values(at + 1, c.vars);
        for (const Edge& branch : c.next) {
          append(lift(branch, scope, depth + 1), depth + 1);
        }
        vals_.resize(scope);
        return;
      }
      case Term::Kind::kPar:
        expand_par(t, words_[at + 1], words_[at + 2], depth);
        return;
      case Term::Kind::kSeq:
        append(words_[at + 1], depth + 1);
        for (std::size_t i = mark; i < scratch_.size(); ++i) {
          Move& m = scratch_[i];  // lifting and interning leave scratch_ be
          if (m.action == kExit) {
            const std::size_t env = push_record_values(at + 2, c.record_vars);
            m = Move{kTau, lift_term(c.next[1].term, env, depth + 1)};
            vals_.resize(env);
          } else {
            m.dst = seq(t, m.dst, at + 2);
          }
        }
        return;
      case Term::Kind::kHide:
        append(words_[at + 1], depth + 1);
        for (std::size_t i = mark; i < scratch_.size(); ++i) {
          Move& m = scratch_[i];
          if (c.gates[actions_[m.action].gate] != 0) {
            m.action = kTau;
          }
          m.dst = wrap(t, m.dst);
        }
        return;
      case Term::Kind::kRename:
        append(words_[at + 1], depth + 1);
        for (std::size_t i = mark; i < scratch_.size(); ++i) {
          Move& m = scratch_[i];
          m = Move{renamed(c, m.action), wrap(t, m.dst)};
        }
        return;
      case Term::Kind::kGuard:
      case Term::Kind::kCall:
        break;
    }
    throw std::logic_error("transitions: bad config kind");
  }

  /// Copies @p n record values starting at word @p at onto vals_; returns
  /// where they start.
  std::size_t push_record_values(std::size_t at, std::uint32_t n) {
    const std::size_t start = vals_.size();
    for (std::uint32_t i = 0; i < n; ++i) {
      vals_.push_back(static_cast<Value>(words_[at + i]));
    }
    return start;
  }

  /// Left-to-right enumeration of value offers: offer i's value goes to
  /// slot vars + i; emits evaluate over the earlier slots, accepts range
  /// over [lo, hi] (ending at hi, so hi = INT32_MAX cannot overflow).
  void enumerate_offers(const Code& c, std::size_t i, std::size_t scope,
                        std::size_t depth) {
    const std::size_t slot = scope + c.vars + i;
    if (i == c.offers.size()) {
      const ActionId a = action(
          c.gate, env_at(scope + c.vars, c.offers.size()));
      scratch_.push_back(Move{a, lift(c.next[0], scope, depth + 1)});
      return;
    }
    const Offer& o = c.offers[i];
    if (!o.accept) {
      vals_[slot] = o.emit.eval(env_at(scope, c.vars + i));
      enumerate_offers(c, i + 1, scope, depth);
      return;
    }
    for (Value v = o.lo;; ++v) {
      vals_[slot] = v;
      enumerate_offers(c, i + 1, scope, depth);
      if (v == o.hi) {
        break;
      }
    }
  }

  void expand_par(TermId t, CfgId left, CfgId right, std::size_t depth) {
    const std::vector<GateId>& sync = codes_[t].gates;
    const Span lm = memoised(left, depth + 1);
    const Span rm = memoised(right, depth + 1);
    const auto syncs = [&](ActionId a) {
      return sync[actions_[a].gate] != 0;
    };
    for (std::uint32_t i = lm.begin; i < lm.begin + lm.size; ++i) {
      const Move m = moves_[i];
      if (!syncs(m.action)) {
        scratch_.push_back(Move{m.action, par(t, m.dst, right)});
      }
    }
    for (std::uint32_t j = rm.begin; j < rm.begin + rm.size; ++j) {
      const Move m = moves_[j];
      if (!syncs(m.action)) {
        scratch_.push_back(Move{m.action, par(t, left, m.dst)});
      }
    }
    for (std::uint32_t i = lm.begin; i < lm.begin + lm.size; ++i) {
      const Move l = moves_[i];
      if (!syncs(l.action)) {
        continue;
      }
      for (std::uint32_t j = rm.begin; j < rm.begin + rm.size; ++j) {
        const Move r = moves_[j];
        if (r.action == l.action) {
          scratch_.push_back(Move{l.action, par(t, l.dst, r.dst)});
        }
      }
    }
  }

  // ---- state management --------------------------------------------------

  StateId state_of(CfgId cfg) {
    if (cfg >= cfg_to_state_.size()) {
      cfg_to_state_.resize(at_.size(), lts::kNoState);
    }
    StateId& s = cfg_to_state_[cfg];
    if (s != lts::kNoState) {
      return s;
    }
    if (states_.size() >= options_.max_states) {
      throw StateSpaceLimit("generate: state space exceeds " +
                            std::to_string(options_.max_states) + " states");
    }
    s = static_cast<StateId>(states_.size());
    states_.push_back(cfg);
    return s;
  }

  // Bound on sequential unfolding (guards/choices/calls) when computing the
  // transitions of a single state.
  static constexpr std::size_t kMaxUnfoldDepth = 2048;

  void bump(std::size_t depth) const {
    if (depth > kMaxUnfoldDepth) {
      throw UnguardedRecursion(
          "generate: unfolding depth exceeded (unguarded recursion?)");
    }
  }

  const Program& program_;
  GenerateOptions options_;
  TermPtr root_;

  // Compiled terms, numbered in pre-order from the stop term and the root.
  std::vector<Code> codes_;
  std::unordered_map<const Term*, TermId> term_ids_;
  Edge root_edge_;
  std::unordered_map<std::string, GateId> gate_ids_;
  std::vector<std::string> gate_names_;

  // Interned actions and their labels.
  std::vector<ActionRec> actions_;
  std::vector<Value> action_values_;
  std::vector<std::string> labels_;
  IdTable action_ids_;

  // Configurations: records back to back in words_, CfgId -> offset in at_.
  std::vector<std::uint32_t> words_;
  std::vector<std::uint32_t> at_;
  IdTable cfg_ids_;

  // Memo: CfgId -> its moves in moves_.  scratch_ is a stack of the lists
  // being built; vals_ a stack of scopes (offsets, never pointers: both
  // grow during recursion).
  std::vector<Span> memo_;
  std::vector<Move> moves_;
  std::vector<Move> scratch_;
  std::vector<Value> vals_;

  // Exploration: StateId -> CfgId in breadth-first order, and back.
  std::vector<CfgId> states_;
  std::vector<StateId> cfg_to_state_;
};

/// The root term of generate and find_deadlock: @p entry called with
/// @p args.
TermPtr entry_call(std::string_view entry, const std::vector<Value>& args) {
  std::vector<ExprPtr> arg_exprs;
  arg_exprs.reserve(args.size());
  for (const Value v : args) {
    arg_exprs.push_back(lit(v));
  }
  return call(entry, std::move(arg_exprs));
}

}  // namespace

Lts generate(const Program& program, std::string_view entry,
             std::vector<Value> args, const GenerateOptions& options) {
  return generate_term(program, entry_call(entry, args), options);
}

Lts generate_term(const Program& program, const TermPtr& t,
                  const GenerateOptions& options) {
  if (t == nullptr) {
    throw std::invalid_argument("generate_term: null term");
  }
  Lts out;
  (void)Generator(program, t, options).run(out, false);
  return out;
}

DeadlockSearchResult find_deadlock(const Program& program,
                                   std::string_view entry,
                                   std::vector<Value> args,
                                   const GenerateOptions& options) {
  Lts l;
  const StateId dead =
      Generator(program, entry_call(entry, args), options).run(l, true);
  DeadlockSearchResult result;
  if (dead == lts::kNoState) {
    result.states_explored = l.num_states();
    return result;
  }
  result.found = true;
  result.states_explored = dead + 1;
  // A state's first in-edge is the one that discovered it, so walking those
  // edges back from the deadlock gives a shortest trace.
  std::vector<lts::Transition> parent(l.num_states(),
                                      lts::Transition{lts::kNoState, 0, 0});
  for (StateId s = 0; s < dead; ++s) {
    for (const lts::OutEdge& e : l.out(s)) {
      if (e.dst != 0 && parent[e.dst].src == lts::kNoState) {
        parent[e.dst] = lts::Transition{s, e.action, e.dst};
      }
    }
  }
  for (StateId s = dead; s != 0; s = parent[s].src) {
    result.trace.emplace_back(l.actions().name(parent[s].action));
  }
  std::reverse(result.trace.begin(), result.trace.end());
  return result;
}

}  // namespace multival::proc
