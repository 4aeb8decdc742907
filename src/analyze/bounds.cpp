#include "analyze/bounds.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "proc/expr.hpp"
#include "xmas/compile.hpp"

namespace multival::analyze {

// ---- saturating count arithmetic --------------------------------------------

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  if (a == kUnboundedStates || b == kUnboundedStates) {
    return kUnboundedStates;
  }
  std::uint64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return kUnboundedStates;
  }
  return r;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (a == kUnboundedStates || b == kUnboundedStates) {
    return kUnboundedStates;
  }
  std::uint64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    return kUnboundedStates;
  }
  return r;
}

std::string format_states(std::uint64_t n) {
  return n == kUnboundedStates ? "unbounded" : std::to_string(n);
}

// ---- intervals ---------------------------------------------------------------

std::uint64_t Interval::width() const {
  if (lo == kNegInf || hi == kPosInf) {
    return kUnboundedStates;
  }
  if (lo > hi) {
    return 0;
  }
  return (static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo)) + 1;
}

std::string Interval::to_string() const {
  std::string out = lo == kNegInf ? "(-inf" : "[" + std::to_string(lo);
  out += ", ";
  out += hi == kPosInf ? "+inf)" : std::to_string(hi) + "]";
  return out;
}

namespace {

using proc::BinaryOp;
using proc::Expr;
using proc::ExprPtr;
using proc::Term;
using proc::TermPtr;
using proc::UnaryOp;

constexpr std::int64_t kNegInf = Interval::kNegInf;
constexpr std::int64_t kPosInf = Interval::kPosInf;

// Saturating int64 endpoint arithmetic.  Invariant throughout: a lower
// endpoint is kNegInf or finite, an upper endpoint kPosInf or finite, so
// the sentinel cases below never see +inf and -inf competing for the same
// endpoint.
std::int64_t sat_add64(std::int64_t a, std::int64_t b) {
  if (a == kPosInf || b == kPosInf) {
    return kPosInf;
  }
  if (a == kNegInf || b == kNegInf) {
    return kNegInf;
  }
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return a > 0 ? kPosInf : kNegInf;
  }
  return r;
}

std::int64_t sat_sub64(std::int64_t a, std::int64_t b) {
  if (a == kPosInf || b == kNegInf) {
    return kPosInf;
  }
  if (a == kNegInf || b == kPosInf) {
    return kNegInf;
  }
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) {
    return a > b ? kPosInf : kNegInf;
  }
  return r;
}

std::int64_t neg64(std::int64_t v) {
  if (v == kPosInf) {
    return kNegInf;
  }
  if (v == kNegInf) {
    return kPosInf;
  }
  return -v;
}

Interval iv_add(const Interval& a, const Interval& b) {
  return {sat_add64(a.lo, b.lo), sat_add64(a.hi, b.hi)};
}

Interval iv_sub(const Interval& a, const Interval& b) {
  return {sat_sub64(a.lo, b.hi), sat_sub64(a.hi, b.lo)};
}

Interval iv_neg(const Interval& a) { return {neg64(a.hi), neg64(a.lo)}; }

std::int64_t clamp128(__int128 v) {
  if (v >= static_cast<__int128>(kPosInf)) {
    return kPosInf;
  }
  if (v <= static_cast<__int128>(kNegInf)) {
    return kNegInf;
  }
  return static_cast<std::int64_t>(v);
}

Interval iv_mul(const Interval& a, const Interval& b) {
  if (!a.bounded() || !b.bounded()) {
    return Interval::top();
  }
  const __int128 p[4] = {
      static_cast<__int128>(a.lo) * b.lo, static_cast<__int128>(a.lo) * b.hi,
      static_cast<__int128>(a.hi) * b.lo, static_cast<__int128>(a.hi) * b.hi};
  return {clamp128(std::min({p[0], p[1], p[2], p[3]})),
          clamp128(std::max({p[0], p[1], p[2], p[3]}))};
}

bool def_zero(const Interval& x) { return x.lo == 0 && x.hi == 0; }
bool def_nonzero(const Interval& x) { return x.lo > 0 || x.hi < 0; }

Interval bool_iv(bool def_true, bool def_false) {
  if (def_true) {
    return Interval::exactly(1);
  }
  if (def_false) {
    return Interval::exactly(0);
  }
  return Interval::range(0, 1);
}

bool is_cmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// a op b  <=>  b flip(op) a
BinaryOp flip_cmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

// !(a op b)  <=>  a negate(op) b
BinaryOp negate_cmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGe;
    case BinaryOp::kLe:
      return BinaryOp::kGt;
    case BinaryOp::kGt:
      return BinaryOp::kLe;
    case BinaryOp::kGe:
      return BinaryOp::kLt;
    case BinaryOp::kEq:
      return BinaryOp::kNe;
    default:
      return BinaryOp::kEq;  // kNe
  }
}

Interval cmp_iv(BinaryOp op, const Interval& a, const Interval& b) {
  switch (op) {
    case BinaryOp::kEq:
      return bool_iv(a.bounded() && b.bounded() && a.lo == a.hi &&
                         b.lo == b.hi && a.lo == b.lo,
                     a.hi < b.lo || b.hi < a.lo);
    case BinaryOp::kNe:
      return bool_iv(a.hi < b.lo || b.hi < a.lo,
                     a.bounded() && b.bounded() && a.lo == a.hi &&
                         b.lo == b.hi && a.lo == b.lo);
    case BinaryOp::kLt:
      return bool_iv(a.hi < b.lo, a.lo >= b.hi);
    case BinaryOp::kLe:
      return bool_iv(a.hi != kPosInf && a.hi <= b.lo,
                     b.hi != kPosInf && a.lo > b.hi);
    case BinaryOp::kGt:
      return bool_iv(a.lo > b.hi, a.hi <= b.lo);
    case BinaryOp::kGe:
      return bool_iv(b.hi != kPosInf && a.lo >= b.hi,
                     a.hi != kPosInf && a.hi < b.lo);
    default:
      return Interval::range(0, 1);
  }
}

// ---- abstract expression evaluation -----------------------------------------

using AbsEnv = std::map<std::string, Interval>;

Interval aeval(const Expr* e, const AbsEnv& env) {
  switch (e->kind()) {
    case Expr::Kind::kConst:
      return Interval::exactly(e->constant());
    case Expr::Kind::kVar: {
      const auto it = env.find(e->var_name());
      return it == env.end() ? Interval::top() : it->second;
    }
    case Expr::Kind::kUnary: {
      const Interval a = aeval(e->lhs().get(), env);
      if (e->unary_op() == UnaryOp::kNeg) {
        return iv_neg(a);
      }
      return bool_iv(def_zero(a), def_nonzero(a));
    }
    case Expr::Kind::kBinary: {
      const Interval a = aeval(e->lhs().get(), env);
      const Interval b = aeval(e->rhs().get(), env);
      const BinaryOp op = e->binary_op();
      if (is_cmp(op)) {
        return cmp_iv(op, a, b);
      }
      switch (op) {
        case BinaryOp::kAdd:
          return iv_add(a, b);
        case BinaryOp::kSub:
          return iv_sub(a, b);
        case BinaryOp::kMul:
          return iv_mul(a, b);
        case BinaryOp::kDiv:
          return Interval::top();
        case BinaryOp::kMod: {
          if (b.lo == b.hi && b.lo > 0 && b.lo != kPosInf) {
            const std::int64_t c = b.lo - 1;
            return a.lo >= 0 ? Interval::range(0, c) : Interval::range(-c, c);
          }
          return Interval::top();
        }
        case BinaryOp::kAnd:
          return bool_iv(def_nonzero(a) && def_nonzero(b),
                         def_zero(a) || def_zero(b));
        case BinaryOp::kOr:
          return bool_iv(def_nonzero(a) || def_nonzero(b),
                         def_zero(a) && def_zero(b));
        case BinaryOp::kMin:
          return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
        case BinaryOp::kMax:
          return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
        default:
          return Interval::top();
      }
    }
  }
  return Interval::top();
}

// ---- guard refinement --------------------------------------------------------

// Narrows env[v] against `v op b`; false when the intersection is empty.
bool narrow_var(AbsEnv& env, const std::string& v, BinaryOp op,
                const Interval& b) {
  const auto it = env.find(v);
  Interval x = it == env.end() ? Interval::top() : it->second;
  switch (op) {
    case BinaryOp::kLt:
      if (b.hi != kPosInf) {
        x.hi = std::min(x.hi, b.hi - 1);
      }
      break;
    case BinaryOp::kLe:
      x.hi = std::min(x.hi, b.hi);
      break;
    case BinaryOp::kGt:
      if (b.lo != kNegInf) {
        x.lo = std::max(x.lo, b.lo + 1);
      }
      break;
    case BinaryOp::kGe:
      x.lo = std::max(x.lo, b.lo);
      break;
    case BinaryOp::kEq:
      x.lo = std::max(x.lo, b.lo);
      x.hi = std::min(x.hi, b.hi);
      break;
    case BinaryOp::kNe:
      if (b.lo == b.hi && b.bounded()) {
        if (x.lo == b.lo) {
          x.lo = sat_add64(x.lo, 1);
        }
        if (x.hi == b.lo) {
          x.hi = sat_sub64(x.hi, 1);
        }
      }
      break;
    default:
      break;
  }
  if (x.lo > x.hi) {
    return false;
  }
  env[v] = x;
  return true;
}

bool refine_true(const Expr* e, AbsEnv& env);
bool refine_false(const Expr* e, AbsEnv& env);

bool narrow_cmp(BinaryOp op, const Expr* l, const Expr* r, AbsEnv& env) {
  const Interval a = aeval(l, env);
  const Interval b = aeval(r, env);
  if (def_zero(cmp_iv(op, a, b))) {
    return false;
  }
  if (l->kind() == Expr::Kind::kVar &&
      !narrow_var(env, l->var_name(), op, b)) {
    return false;
  }
  if (r->kind() == Expr::Kind::kVar &&
      !narrow_var(env, r->var_name(), flip_cmp(op), aeval(l, env))) {
    return false;
  }
  return true;
}

bool refine_true(const Expr* e, AbsEnv& env) {
  switch (e->kind()) {
    case Expr::Kind::kConst:
      return e->constant() != 0;
    case Expr::Kind::kVar:
      return narrow_var(env, e->var_name(), BinaryOp::kNe,
                        Interval::exactly(0));
    case Expr::Kind::kUnary:
      if (e->unary_op() == UnaryOp::kNot) {
        return refine_false(e->lhs().get(), env);
      }
      return true;
    case Expr::Kind::kBinary: {
      const BinaryOp op = e->binary_op();
      if (op == BinaryOp::kAnd) {
        return refine_true(e->lhs().get(), env) &&
               refine_true(e->rhs().get(), env);
      }
      if (op == BinaryOp::kOr) {
        const Interval a = aeval(e->lhs().get(), env);
        const Interval b = aeval(e->rhs().get(), env);
        if (def_zero(a) && def_zero(b)) {
          return false;
        }
        if (def_zero(a)) {
          return refine_true(e->rhs().get(), env);
        }
        if (def_zero(b)) {
          return refine_true(e->lhs().get(), env);
        }
        return true;  // either side could hold: no sound narrowing
      }
      if (is_cmp(op)) {
        return narrow_cmp(op, e->lhs().get(), e->rhs().get(), env);
      }
      return !def_zero(aeval(e, env));
    }
  }
  return true;
}

bool refine_false(const Expr* e, AbsEnv& env) {
  switch (e->kind()) {
    case Expr::Kind::kConst:
      return e->constant() == 0;
    case Expr::Kind::kVar:
      return narrow_var(env, e->var_name(), BinaryOp::kEq,
                        Interval::exactly(0));
    case Expr::Kind::kUnary:
      if (e->unary_op() == UnaryOp::kNot) {
        return refine_true(e->lhs().get(), env);
      }
      return true;
    case Expr::Kind::kBinary: {
      const BinaryOp op = e->binary_op();
      if (is_cmp(op)) {
        return narrow_cmp(negate_cmp(op), e->lhs().get(), e->rhs().get(),
                          env);
      }
      if (op == BinaryOp::kOr) {  // !(a || b) => !a && !b
        return refine_false(e->lhs().get(), env) &&
               refine_false(e->rhs().get(), env);
      }
      if (op == BinaryOp::kAnd) {  // !(a && b): refine when one side is known
        const Interval a = aeval(e->lhs().get(), env);
        const Interval b = aeval(e->rhs().get(), env);
        if (def_nonzero(a) && def_nonzero(b)) {
          return false;
        }
        if (def_nonzero(a)) {
          return refine_false(e->rhs().get(), env);
        }
        if (def_nonzero(b)) {
          return refine_false(e->lhs().get(), env);
        }
        return true;
      }
      return !def_nonzero(aeval(e, env));
    }
  }
  return true;
}

// Environment refined by assuming @p cond holds; nullopt when the guard is
// definitely infeasible under @p env.
std::optional<AbsEnv> refine(const ExprPtr& cond, const AbsEnv& env) {
  AbsEnv out = env;
  if (cond.get() != nullptr && !refine_true(cond.get(), out)) {
    return std::nullopt;
  }
  return out;
}

// ---- phase A: interprocedural interval fixpoint ------------------------------

struct WidenRec {
  std::string param;   // which parameter widened first
  std::string path;    // "caller -> callee (arg expr)"
  bool guarded = false;  // a crossed guard mentions the growing expression
};

/// Parameter intervals per definition name.
using ParamIntervals = std::map<std::string, std::vector<Interval>>;

/// The environment of definition @p name: each parameter's interval in
/// @p params, top where none is recorded.
AbsEnv param_env(const proc::Program& prog, const ParamIntervals& params,
                 const std::string& name) {
  AbsEnv env;
  const auto& d = prog.definition(name);
  const auto it = params.find(name);
  for (std::size_t i = 0; i < d.params.size(); ++i) {
    env[d.params[i]] = it != params.end() && i < it->second.size()
                           ? it->second[i]
                           : Interval::top();
  }
  return env;
}

class IntervalFixpoint {
 public:
  IntervalFixpoint(const proc::Program& prog, AnalysisStats* stats)
      : prog_(prog), stats_(stats) {}

  void run(const TermPtr& root) {
    bool changed = true;
    while (changed) {
      ++stats_->fixpoint_passes;
      changed = false;
      contribs_.clear();
      caller_ = "<root>";
      walk(root.get(), AbsEnv{}, {});
      std::vector<std::string> names;
      names.reserve(params_.size());
      for (const auto& [name, ivs] : params_) {
        names.push_back(name);
      }
      for (const std::string& name : names) {
        caller_ = name;
        walk(prog_.definition(name).body.get(), param_env(prog_, params_, name), {});
      }
      for (const Contribution& c : contribs_) {
        changed = apply(c) || changed;
      }
    }
  }

  [[nodiscard]] const ParamIntervals& params() const { return params_; }
  [[nodiscard]] const std::map<std::string, WidenRec>& widened() const {
    return widen_;
  }

 private:
  struct Contribution {
    std::string caller;
    const Term* site = nullptr;
    std::vector<Interval> args;
    std::set<std::string> guard_vars;
  };

  void walk(const Term* t, AbsEnv env, std::set<std::string> guard_vars) {
    ++stats_->terms_visited;
    switch (t->kind()) {
      case Term::Kind::kStop:
      case Term::Kind::kExit:
        return;
      case Term::Kind::kPrefix: {
        for (const proc::Offer& o : t->offers()) {
          if (o.kind == proc::Offer::Kind::kAccept) {
            env[o.var] = Interval::range(o.lo, o.hi);
          }
        }
        walk(t->children()[0].get(), std::move(env), std::move(guard_vars));
        return;
      }
      case Term::Kind::kGuard: {
        auto refined = refine(t->condition(), env);
        if (!refined) {
          return;  // infeasible path contributes nothing
        }
        if (t->condition().get() != nullptr) {
          const auto& fv = t->condition()->free_vars();
          guard_vars.insert(fv.begin(), fv.end());
        }
        walk(t->children()[0].get(), std::move(*refined),
             std::move(guard_vars));
        return;
      }
      case Term::Kind::kChoice:
      case Term::Kind::kSeq:
      case Term::Kind::kPar:
        for (const TermPtr& c : t->children()) {
          walk(c.get(), env, guard_vars);
        }
        return;
      case Term::Kind::kHide:
      case Term::Kind::kRename:
        walk(t->children()[0].get(), std::move(env), std::move(guard_vars));
        return;
      case Term::Kind::kCall: {
        Contribution c;
        c.caller = caller_;
        c.site = t;
        c.guard_vars = std::move(guard_vars);
        c.args.reserve(t->args().size());
        for (const ExprPtr& a : t->args()) {
          c.args.push_back(aeval(a.get(), env));
        }
        contribs_.push_back(std::move(c));
        return;
      }
    }
  }

  // Unstable joins tolerated per definition parameter *per direction*
  // before that direction is widened to infinity.  12 clears the guard
  // constants of every in-tree model (queue capacities <= 8, counter
  // guards < 10), so guard-bounded counters converge exactly; raising it
  // trades fixpoint passes for exactness on larger constants.
  static constexpr std::size_t kWidenAfter = 12;

  bool apply(const Contribution& c) {
    const std::string& callee = c.site->callee();
    if (!prog_.has_definition(callee)) {
      return false;  // MV001 territory
    }
    const auto& d = prog_.definition(callee);
    auto it = params_.find(callee);
    if (it == params_.end()) {
      std::vector<Interval> ivs(d.params.size(), Interval::top());
      for (std::size_t i = 0; i < std::min(ivs.size(), c.args.size()); ++i) {
        ivs[i] = c.args[i];
      }
      params_.emplace(callee, std::move(ivs));
      lo_ticks_[callee].assign(d.params.size(), 0);
      hi_ticks_[callee].assign(d.params.size(), 0);
      return true;
    }
    bool changed = false;
    std::vector<Interval>& cur = it->second;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const Interval arg =
          i < c.args.size() ? c.args[i] : Interval::top();
      Interval nj = cur[i].join(arg);
      if (nj == cur[i]) {
        continue;
      }
      if (nj.lo < cur[i].lo && ++lo_ticks_[callee][i] > kWidenAfter) {
        nj.lo = kNegInf;
        record_widen(callee, d, i, c);
      }
      if (nj.hi > cur[i].hi && ++hi_ticks_[callee][i] > kWidenAfter) {
        nj.hi = kPosInf;
        record_widen(callee, d, i, c);
      }
      cur[i] = nj;
      changed = true;
    }
    return changed;
  }

  void record_widen(const std::string& callee,
                    const proc::Program::Definition& d, std::size_t i,
                    const Contribution& c) {
    if (widen_.contains(callee)) {
      return;  // keep the first proof path per definition
    }
    WidenRec rec;
    rec.param = i < d.params.size() ? d.params[i] : "?";
    std::string arg = "?";
    if (i < c.site->args().size()) {
      arg = c.site->args()[i]->to_string();
      for (const std::string& v : c.site->args()[i]->free_vars()) {
        if (c.guard_vars.contains(v)) {
          rec.guarded = true;
        }
      }
    }
    rec.path = c.caller + " -> " + callee + " (" + arg + ")";
    widen_.emplace(callee, std::move(rec));
  }

  const proc::Program& prog_;
  AnalysisStats* stats_;
  std::string caller_;
  ParamIntervals params_;
  std::map<std::string, std::vector<std::size_t>> lo_ticks_;
  std::map<std::string, std::vector<std::size_t>> hi_ticks_;
  std::map<std::string, WidenRec> widen_;
  std::vector<Contribution> contribs_;
};

// ---- phase B: location x valuation counting ---------------------------------

// Counts (over-approximately) the configurations the generator's lift()
// can intern, mirroring its semantics: guards and calls resolve away,
// stop/exit/prefix/choice are stable leaf locations with environments
// restricted to their free variables, par/hide/rename/seq wrap structurally.
// Recursion is cut with an in-progress marker (a cycle's locations are
// counted at first entry — exact for tail recursion), and per-definition
// results are memoised per blocked-gate set.  Memoisation is SCC-aware: a
// result computed while an enclosing definition of the same recursive
// component was still open is context-dependent and must not be cached, or
// a later independent entry into the component would undercount (unsound).
// The alphabet table is the caller's: one table serves every root of a
// program (compose::build_plan predicts all its components against one).
class Counter {
 public:
  Counter(const proc::Program& prog, const ParamIntervals& params,
          const AlphabetTable& table, AnalysisStats* stats)
      : prog_(prog), params_(params), stats_(stats), table_(table),
        keys_(table.words()) {}

  [[nodiscard]] std::uint64_t count_term(const Term* t, const AbsEnv& env,
                                         BitsView blocked) {
    ++stats_->terms_visited;
    switch (t->kind()) {
      case Term::Kind::kStop:
        return 1;
      case Term::Kind::kExit:
        return 2;  // the exit location plus the post-delta terminated one
      case Term::Kind::kPrefix: {
        const std::uint64_t own = env_width(env, t->free_vars());
        if (blocked.test(table_.gates(t)[0])) {
          return own;  // the prefix waits forever: continuation unreachable
        }
        AbsEnv e2 = env;
        bind_accepts(*t, e2);
        return saturating_add(own,
                              count_term(t->children()[0].get(), e2, blocked));
      }
      case Term::Kind::kChoice: {
        std::uint64_t n = env_width(env, t->free_vars());
        for (const TermPtr& br : t->children()) {
          n = saturating_add(n, branch_post(br.get(), env, blocked));
        }
        return n;
      }
      case Term::Kind::kGuard: {
        auto refined = refine(t->condition(), env);
        if (!refined) {
          return 1;  // lift() resolves a false guard to the stopped config
        }
        const std::uint64_t n =
            count_term(t->children()[0].get(), *refined, blocked);
        if (t->condition().get() != nullptr &&
            def_nonzero(aeval(t->condition().get(), env))) {
          return n;
        }
        return saturating_add(n, 1);  // some valuations may still stop here
      }
      case Term::Kind::kPar: {
        const auto [bl, br] = par_blocked(t, blocked);
        return saturating_mul(count_term(t->children()[0].get(), env, bl),
                              count_term(t->children()[1].get(), env, br));
      }
      case Term::Kind::kHide:
        return count_term(t->children()[0].get(), env,
                          hidden_blocked(t, blocked));
      case Term::Kind::kRename:
        return count_term(t->children()[0].get(), env,
                          table_.inverse_image(t, blocked));
      case Term::Kind::kSeq: {
        const std::uint64_t left =
            count_term(t->children()[0].get(), env, blocked);
        const std::uint64_t right_envs =
            env_width(env, t->children()[1]->free_vars());
        return saturating_add(
            saturating_mul(left, right_envs),
            count_term(t->children()[1].get(), env, blocked));
      }
      case Term::Kind::kCall:
        return count_call(table_.callee(t), blocked);
    }
    return 1;
  }

  /// States of definition @p d (an AlphabetTable index) under @p blocked.
  [[nodiscard]] std::uint64_t count_call(std::size_t d, BitsView blocked) {
    if (d == AlphabetTable::kNoDefinition) {
      return 1;
    }
    const std::uint32_t key = key_of(2 * d, blocked);
    if (keys_state_[key].memoised) {
      return keys_state_[key].value;
    }
    if (keys_state_[key].in_progress) {
      touched_.push_back(key);
      return 0;  // cycle: these locations were counted at first entry
    }
    keys_state_[key].in_progress = true;
    std::vector<std::uint32_t> saved = std::move(touched_);
    touched_.clear();
    const std::uint64_t v =
        count_term(table_.definition_body(d),
                   param_env(prog_, params_, table_.definition_name(d)),
                   blocked);
    keys_state_[key].in_progress = false;
    std::erase(touched_, key);  // a cycle closed here is self-contained
    if (touched_.empty()) {
      // No open ancestor was involved: a context-free result.
      keys_state_[key].memoised = true;
      keys_state_[key].value = v;
    }
    saved.insert(saved.end(), touched_.begin(), touched_.end());
    touched_ = std::move(saved);
    return v;
  }

  // The blocked sets the operands of a kPar node run under: a sync gate the
  // other side can never perform (alphabet over-approximation) can never
  // fire, exactly the MV003/MV004 direction.
  [[nodiscard]] std::pair<Bits, Bits> par_blocked(const Term* t,
                                                  BitsView blocked) const {
    Bits bl(blocked);
    Bits br(blocked);
    const BitsView al = table_.of(t->children()[0].get());
    const BitsView ar = table_.of(t->children()[1].get());
    for (const GateId g : table_.gates(t)) {
      if (!ar.test(g)) {
        bl.set(g);
      }
      if (!al.test(g)) {
        br.set(g);
      }
    }
    return {std::move(bl), std::move(br)};
  }

  // Hidden actions fire freely below the hide.
  [[nodiscard]] Bits hidden_blocked(const Term* t, BitsView blocked) const {
    Bits b2(blocked);
    for (const GateId g : table_.gates(t)) {
      b2.reset(g);
    }
    return b2;
  }

  [[nodiscard]] const AlphabetTable& table() const { return table_; }

 private:
  struct KeyState {
    std::uint64_t value = 0;
    bool memoised = false;
    bool in_progress = false;
  };

  // The dense id of (@p tag, @p blocked), with its state slot.  count_call
  // tags definition d with 2d, post_call with 2d + 1.
  std::uint32_t key_of(std::size_t tag, BitsView blocked) {
    const std::uint32_t key = keys_.intern(tag, blocked);
    if (key >= keys_state_.size()) {
      keys_state_.emplace_back();
    }
    return key;
  }

  // States reachable AFTER one action of a choice branch: the branch's own
  // prefix/guard spine is transient (lift() re-derives it per transition and
  // only continuations become configurations).
  [[nodiscard]] std::uint64_t branch_post(const Term* t, const AbsEnv& env,
                                          BitsView blocked) {
    ++stats_->terms_visited;
    switch (t->kind()) {
      case Term::Kind::kStop:
        return 0;
      case Term::Kind::kExit:
        return 1;
      case Term::Kind::kPrefix: {
        if (blocked.test(table_.gates(t)[0])) {
          return 0;
        }
        AbsEnv e2 = env;
        bind_accepts(*t, e2);
        return count_term(t->children()[0].get(), e2, blocked);
      }
      case Term::Kind::kGuard: {
        auto refined = refine(t->condition(), env);
        if (!refined) {
          return 0;  // a dead branch offers nothing
        }
        return branch_post(t->children()[0].get(), *refined, blocked);
      }
      case Term::Kind::kChoice: {
        std::uint64_t n = 0;
        for (const TermPtr& br : t->children()) {
          n = saturating_add(n, branch_post(br.get(), env, blocked));
        }
        return n;
      }
      case Term::Kind::kCall:
        return post_call(table_.callee(t), blocked);
      default:
        // Structural branches (par/hide/rename/seq): every post-action
        // continuation is one of the term's own counted configurations.
        return count_term(t, env, blocked);
    }
  }

  [[nodiscard]] std::uint64_t post_call(std::size_t d, BitsView blocked) {
    if (d == AlphabetTable::kNoDefinition) {
      return 1;
    }
    const std::uint32_t key = key_of(2 * d + 1, blocked);
    if (keys_state_[key].in_progress) {
      touched_.push_back(key);
      return 0;  // unguarded recursion through choice: already covered
    }
    keys_state_[key].in_progress = true;
    const std::uint64_t v = branch_post(
        table_.definition_body(d),
        param_env(prog_, params_, table_.definition_name(d)), blocked);
    keys_state_[key].in_progress = false;
    std::erase(touched_, key);
    return v;
  }

  static void bind_accepts(const Term& t, AbsEnv& env) {
    for (const proc::Offer& o : t.offers()) {
      if (o.kind == proc::Offer::Kind::kAccept) {
        env[o.var] = Interval::range(o.lo, o.hi);
      }
    }
  }

  // The generator restricts each configuration's environment to the term's
  // free variables, so exactly those widths multiply.  A variable missing
  // from env stays unbound in the restricted environment too (one shared
  // "absent" binding), so it contributes factor 1, not infinity.
  [[nodiscard]] static std::uint64_t env_width(
      const AbsEnv& env, const std::vector<std::string>& vars) {
    std::uint64_t w = 1;
    for (const std::string& v : vars) {
      const auto it = env.find(v);
      if (it == env.end()) {
        continue;
      }
      w = saturating_mul(w, it->second.width());
    }
    return w;
  }

  const proc::Program& prog_;
  const ParamIntervals& params_;
  AnalysisStats* stats_;
  const AlphabetTable& table_;
  SetKeys keys_;  ///< (tag, blocked) -> index into keys_state_
  std::vector<KeyState> keys_state_;
  std::vector<std::uint32_t> touched_;  ///< keys of open frames a cycle hit
};

// ---- component decomposition and report assembly ----------------------------

std::string sketch(const Term* t) {
  std::string s = t->to_string();
  if (s.size() > 40) {
    s.resize(37);
    s += "...";
  }
  return s;
}

// Splits the root into its top-level parallel components, descending
// through par/hide/rename and inlining zero-argument calls whose body is
// itself structural — the same spine compose::plan_term flattens.
void collect_leaves(Counter& counter, const proc::Program& prog,
                    const TermPtr& t, BitsView blocked,
                    std::set<std::string>& inlined,
                    std::vector<std::pair<TermPtr, Bits>>& out) {
  switch (t->kind()) {
    case Term::Kind::kPar: {
      const auto [bl, br] = counter.par_blocked(t.get(), blocked);
      collect_leaves(counter, prog, t->children()[0], bl, inlined, out);
      collect_leaves(counter, prog, t->children()[1], br, inlined, out);
      return;
    }
    case Term::Kind::kHide:
      collect_leaves(counter, prog, t->children()[0],
                     counter.hidden_blocked(t.get(), blocked), inlined, out);
      return;
    case Term::Kind::kRename:
      collect_leaves(counter, prog, t->children()[0],
                     counter.table().inverse_image(t.get(), blocked), inlined,
                     out);
      return;
    case Term::Kind::kCall:
      if (t->args().empty() && prog.has_definition(t->callee()) &&
          !inlined.contains(t->callee())) {
        const TermPtr& body = prog.definition(t->callee()).body;
        const Term::Kind k = body->kind();
        if (k == Term::Kind::kPar || k == Term::Kind::kHide ||
            k == Term::Kind::kRename) {
          inlined.insert(t->callee());
          collect_leaves(counter, prog, body, blocked, inlined, out);
          return;
        }
      }
      out.emplace_back(t, Bits(blocked));
      return;
    default:
      out.emplace_back(t, Bits(blocked));
      return;
  }
}

void collect_callees(const Term* t, std::set<std::string>& out) {
  if (t->kind() == Term::Kind::kCall) {
    out.insert(t->callee());
  }
  for (const TermPtr& c : t->children()) {
    collect_callees(c.get(), out);
  }
}

// Definitions syntactically reachable from @p t through the call graph.
std::set<std::string> reachable_defs(const Term* t,
                                     const proc::Program& prog) {
  std::set<std::string> seen;
  std::vector<std::string> work;
  collect_callees(t, seen);
  work.assign(seen.begin(), seen.end());
  while (!work.empty()) {
    const std::string name = std::move(work.back());
    work.pop_back();
    if (!prog.has_definition(name)) {
      continue;
    }
    std::set<std::string> next;
    collect_callees(prog.definition(name).body.get(), next);
    for (const std::string& n : next) {
      if (seen.insert(n).second) {
        work.push_back(n);
      }
    }
  }
  return seen;
}

// The gates of the @p kind nodes (kPar: sync lists, kPrefix: prefix gates)
// inside @p t, into @p out.
void collect_gates(const AlphabetTable& table, const Term* t, Term::Kind kind,
                   Bits& out) {
  if (t->kind() == kind) {
    for (const GateId g : table.gates(t)) {
      out.set(g);
    }
  }
  for (const TermPtr& c : t->children()) {
    collect_gates(table, c.get(), kind, out);
  }
}

// A widened definition is "throttled" when it (or a callee) performs a gate
// some parallel composition in the model synchronises on: the counter's
// growth rate is then governed by a peer, and the peer may bound it — the
// credit-counter idiom.  Being generous here only ever downgrades MV041
// from error to warning, which is the sound direction.
bool is_throttled(const std::string& def, const proc::Program& prog,
                  const AlphabetTable& table, BitsView sync_gates) {
  Bits prefixes = table.no_gates();
  const Term* body = prog.definition(def).body.get();
  collect_gates(table, body, Term::Kind::kPrefix, prefixes);
  for (const std::string& callee : reachable_defs(body, prog)) {
    if (prog.has_definition(callee)) {
      collect_gates(table, prog.definition(callee).body.get(),
                    Term::Kind::kPrefix, prefixes);
    }
  }
  return count_common(prefixes, sync_gates) != 0;
}

std::string cause_for(const TermPtr& t, const proc::Program& prog,
                      const std::map<std::string, WidenRec>& widen) {
  for (const std::string& name : reachable_defs(t.get(), prog)) {
    const auto it = widen.find(name);
    if (it != widen.end()) {
      return "parameter '" + it->second.param + "' of '" + name +
             "' grows without bound (" + it->second.path + ")";
    }
  }
  if (t->kind() == Term::Kind::kCall) {
    const auto it = widen.find(t->callee());
    if (it != widen.end()) {
      return "parameter '" + it->second.param + "' of '" + t->callee() +
             "' grows without bound (" + it->second.path + ")";
    }
  }
  return "a counter's interval is unbounded";
}

// The whole analysis of @p root under the alphabet table @p table of
// @p program; stats.seconds is left to the caller.
BoundReport bounds_under(const proc::Program& program, const TermPtr& root,
                         const AlphabetTable& table,
                         const BoundOptions& opts) {
  if (root == nullptr) {
    throw std::invalid_argument("analyze::predicted_bounds: null root term");
  }
  BoundReport r;

  IntervalFixpoint fix(program, &r.stats);
  fix.run(root);
  r.stats.definitions = fix.params().size();

  Counter counter(program, fix.params(), table, &r.stats);

  std::set<std::string> inlined;
  std::vector<std::pair<TermPtr, Bits>> leaves;
  collect_leaves(counter, program, root, table.no_gates(), inlined, leaves);

  r.total = 1;
  for (const auto& [term, blocked] : leaves) {
    ComponentBound cb;
    cb.name = term->kind() == Term::Kind::kCall ? term->callee()
                                                : sketch(term.get());
    cb.states = counter.count_term(term.get(), {}, blocked);
    if (cb.states == kUnboundedStates) {
      cb.cause = cause_for(term, program, fix.widened());
    }
    r.total = saturating_mul(r.total, cb.states);
    r.components.push_back(std::move(cb));
  }

  for (const auto& [name, ivs] : fix.params()) {
    DefBound db;
    db.name = name;
    db.params = program.definition(name).params;
    db.intervals = ivs;
    db.states =
        counter.count_call(table.definition_index(name), table.no_gates());
    const auto wit = fix.widened().find(name);
    if (wit != fix.widened().end()) {
      db.widened = true;
      db.widening_path = wit->second.path;
    }
    r.defs.push_back(std::move(db));
  }

  // MV040: the predicted-bound report itself.
  {
    core::Diagnostic d;
    d.code = "MV040";
    d.severity = core::Severity::kAdvice;
    d.message = "predicted state bound: " + format_states(r.total) + " over " +
                std::to_string(r.components.size()) +
                (r.components.size() == 1 ? " component" : " components");
    std::string breakdown;
    for (const ComponentBound& cb : r.components) {
      if (!breakdown.empty()) {
        breakdown += " * ";
      }
      breakdown += cb.name + "=" + format_states(cb.states);
    }
    d.hint = breakdown;
    r.diagnostics.push_back(std::move(d));
  }

  // MV041: unbounded-counter proofs, one per widened definition.  They
  // need every gate the model synchronises on, gathered at the first.
  std::optional<Bits> sync_gates;
  for (const DefBound& db : r.defs) {
    if (!db.widened) {
      continue;
    }
    if (!sync_gates) {
      sync_gates = table.no_gates();
      collect_gates(table, root.get(), Term::Kind::kPar, *sync_gates);
      for (const auto& [name, def] : program.definitions()) {
        collect_gates(table, def.body.get(), Term::Kind::kPar, *sync_gates);
      }
    }
    const WidenRec& rec = fix.widened().at(db.name);
    const bool throttled = is_throttled(db.name, program, table, *sync_gates);
    core::Diagnostic d;
    d.code = "MV041";
    d.severity = (!rec.guarded && !throttled) ? core::Severity::kError
                                              : core::Severity::kWarning;
    d.message = "parameter '" + rec.param + "' of process '" + db.name +
                "' can grow without bound (recursion " + rec.path + ")";
    d.path = db.name;
    if (d.severity == core::Severity::kError) {
      d.hint = "every cycle through this recursion increases '" + rec.param +
               "' and no guard or synchronisation bounds it: generation "
               "from '" +
               db.name + "' diverges";
    } else if (throttled) {
      d.hint = "the growth is throttled by synchronised gate(s), so the "
               "bound may live in a peer component; generating '" +
               db.name + "' standalone would still diverge";
    } else {
      d.hint = "a crossed guard mentions the growing expression, so the "
               "recursion may be bounded for value reasons the interval "
               "domain cannot see";
    }
    r.diagnostics.push_back(std::move(d));
  }

  // MV042: component-exceeds-budget advice.
  if (opts.component_budget > 0) {
    for (const ComponentBound& cb : r.components) {
      if (cb.states <= opts.component_budget) {
        continue;
      }
      core::Diagnostic d;
      d.code = "MV042";
      d.severity = core::Severity::kAdvice;
      d.message = "component '" + cb.name + "' predicted " +
                  format_states(cb.states) + " states exceeds the budget of " +
                  std::to_string(opts.component_budget);
      d.path = cb.name;
      d.hint = "split '" + cb.name +
               "' or compose it with its synchronising peer before "
               "generation; compose::plan_term routes around it (static "
               "skip)";
      if (!cb.cause.empty()) {
        d.hint += "; " + cb.cause;
      }
      r.diagnostics.push_back(std::move(d));
    }
  }
  return r;
}

}  // namespace

std::string BoundReport::summary() const {
  std::size_t w = 0;
  for (const DefBound& d : defs) {
    if (d.widened) {
      ++w;
    }
  }
  std::string s = "predicted ";
  s += unbounded() ? "unbounded" : "<= " + std::to_string(total) + " states";
  s += " over " + std::to_string(components.size());
  s += components.size() == 1 ? " component" : " components";
  s += " (" + std::to_string(w);
  s += w == 1 ? " def widened)" : " defs widened)";
  return s;
}

BoundReport predicted_bounds(const proc::Program& program,
                             const proc::TermPtr& root,
                             const BoundOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  const AlphabetTable table(program, root);
  BoundReport r = bounds_under(program, root, table, opts);
  r.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

std::uint64_t predicted_states(const proc::Program& program,
                               const proc::TermPtr& root,
                               const BoundOptions& opts) {
  return predicted_bounds(program, root, opts).total;
}

std::uint64_t predicted_states(const proc::Program& program,
                               const proc::TermPtr& root,
                               const AlphabetTable& table,
                               const BoundOptions& opts) {
  return bounds_under(program, root, table, opts).total;
}

BoundReport predicted_bounds(const xmas::Netlist& n,
                             const xmas::CompileOptions& copts,
                             const BoundOptions& opts) {
  const xmas::Compiled c = xmas::compile(n, copts);
  return predicted_bounds(*c.program, proc::call(c.entry), opts);
}

std::uint64_t predicted_states(const xmas::Netlist& n,
                               const xmas::CompileOptions& copts,
                               const BoundOptions& opts) {
  return predicted_bounds(n, copts, opts).total;
}

}  // namespace multival::analyze
