#include "proc/expr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace multival::proc {

namespace {

std::vector<std::string> merge_vars(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) {
  std::vector<std::string> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const char* op_name(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "==";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "&&";
    case BinaryOp::kOr:
      return "||";
    case BinaryOp::kMin:
      return "min";
    case BinaryOp::kMax:
      return "max";
  }
  return "?";
}

}  // namespace

ExprPtr Expr::make_const(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kConst;
  e->value_ = v;
  return e;
}

ExprPtr Expr::make_var(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kVar;
  e->name_ = std::move(name);
  e->free_vars_ = {e->name_};
  return e;
}

ExprPtr Expr::make_unary(UnaryOp op, ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kUnary;
  e->uop_ = op;
  e->free_vars_ = a->free_vars();
  e->lhs_ = std::move(a);
  return e;
}

ExprPtr Expr::make_binary(BinaryOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kBinary;
  e->bop_ = op;
  e->free_vars_ = merge_vars(a->free_vars(), b->free_vars());
  e->lhs_ = std::move(a);
  e->rhs_ = std::move(b);
  return e;
}

Value Expr::eval(const Env& env) const {
  std::vector<Value> slots;
  const CompiledExpr code(
      *this, [&](const std::string& name) -> std::optional<std::uint32_t> {
        const auto v = env.lookup(name);
        if (!v) {
          return std::nullopt;
        }
        slots.push_back(*v);
        return static_cast<std::uint32_t>(slots.size() - 1);
      });
  return code.eval(slots);
}

// ---------------------------------------------------------- CompiledExpr --

namespace {

[[noreturn]] void overflow(const char* op) {
  throw std::domain_error(std::string("Expr::eval: int32 overflow in ") + op);
}

Value apply_op(UnaryOp op, Value a) {
  switch (op) {
    case UnaryOp::kNeg:
      if (a == std::numeric_limits<Value>::min()) {
        overflow("unary -");
      }
      return -a;
    case UnaryOp::kNot:
      return a == 0 ? 1 : 0;
  }
  throw std::logic_error("Expr::eval: bad unary operator");
}

Value apply_op(BinaryOp op, Value a, Value b) {
  Value r = 0;
  switch (op) {
    case BinaryOp::kAdd:
      if (__builtin_add_overflow(a, b, &r)) {
        overflow("+");
      }
      return r;
    case BinaryOp::kSub:
      if (__builtin_sub_overflow(a, b, &r)) {
        overflow("-");
      }
      return r;
    case BinaryOp::kMul:
      if (__builtin_mul_overflow(a, b, &r)) {
        overflow("*");
      }
      return r;
    case BinaryOp::kDiv:
      if (b == 0) {
        throw std::domain_error("Expr::eval: division by zero");
      }
      if (b == -1 && a == std::numeric_limits<Value>::min()) {
        overflow("/");
      }
      return a / b;
    case BinaryOp::kMod:
      if (b == 0) {
        throw std::domain_error("Expr::eval: modulo by zero");
      }
      if (b == -1 && a == std::numeric_limits<Value>::min()) {
        overflow("%");
      }
      return a % b;
    case BinaryOp::kEq:
      return a == b ? 1 : 0;
    case BinaryOp::kNe:
      return a != b ? 1 : 0;
    case BinaryOp::kLt:
      return a < b ? 1 : 0;
    case BinaryOp::kLe:
      return a <= b ? 1 : 0;
    case BinaryOp::kGt:
      return a > b ? 1 : 0;
    case BinaryOp::kGe:
      return a >= b ? 1 : 0;
    case BinaryOp::kMin:
      return std::min(a, b);
    case BinaryOp::kMax:
      return std::max(a, b);
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;  // short-circuited by the caller
  }
  throw std::logic_error("Expr::eval: bad binary operator");
}

}  // namespace

CompiledExpr::CompiledExpr(const Expr& e, const Resolver& slot_of) {
  (void)add(e, slot_of);
}

std::uint32_t CompiledExpr::add(const Expr& e, const Resolver& slot_of) {
  Node n;
  n.kind = e.kind();
  switch (e.kind()) {
    case Expr::Kind::kConst:
      n.arg = e.constant();
      break;
    case Expr::Kind::kVar:
      if (const auto slot = slot_of(e.var_name())) {
        n.arg = static_cast<Value>(*slot);
      } else {
        n.bound = false;
        n.arg = static_cast<Value>(unbound_.size());
        unbound_.push_back(e.var_name());
      }
      break;
    case Expr::Kind::kUnary:
      n.uop = e.unary_op();
      n.lhs = add(*e.lhs(), slot_of);
      break;
    case Expr::Kind::kBinary:
      n.bop = e.binary_op();
      n.lhs = add(*e.lhs(), slot_of);
      n.rhs = add(*e.rhs(), slot_of);
      break;
  }
  nodes_.push_back(n);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

Value CompiledExpr::eval(std::span<const Value> slots) const {
  if (nodes_.empty()) {
    throw std::logic_error("CompiledExpr::eval: empty expression");
  }
  return run(static_cast<std::uint32_t>(nodes_.size() - 1), slots);
}

Value CompiledExpr::run(std::uint32_t node,
                        std::span<const Value> slots) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Expr::Kind::kConst:
      return n.arg;
    case Expr::Kind::kVar:
      if (!n.bound) {
        throw std::out_of_range("Expr::eval: unbound variable " +
                                unbound_[static_cast<std::size_t>(n.arg)]);
      }
      return slots[static_cast<std::size_t>(n.arg)];
    case Expr::Kind::kUnary:
      return apply_op(n.uop, run(n.lhs, slots));
    case Expr::Kind::kBinary: {
      const Value a = run(n.lhs, slots);
      if (n.bop == BinaryOp::kAnd) {
        return (a != 0 && run(n.rhs, slots) != 0) ? 1 : 0;
      }
      if (n.bop == BinaryOp::kOr) {
        return (a != 0 || run(n.rhs, slots) != 0) ? 1 : 0;
      }
      return apply_op(n.bop, a, run(n.rhs, slots));
    }
  }
  throw std::logic_error("Expr::eval: bad expression");
}

std::string Expr::to_string() const {
  const std::string l = lhs_ ? lhs_->to_string() : "";
  const std::string r = rhs_ ? rhs_->to_string() : "";
  switch (kind_) {
    case Kind::kConst:
      return std::to_string(value_);
    case Kind::kVar:
      return name_;
    case Kind::kUnary:
      return (uop_ == UnaryOp::kNeg ? "-" : "!") + l;
    case Kind::kBinary:
      if (bop_ == BinaryOp::kMin || bop_ == BinaryOp::kMax) {
        return std::string(op_name(bop_)) + "(" + l + ", " + r + ")";
      }
      return "(" + l + " " + op_name(bop_) + " " + r + ")";
  }
  return "?";
}

// ------------------------------------------------------------------- Env --

void Env::bind(std::string_view name, Value v) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& e, std::string_view n) { return e.first < n; });
  if (it != entries_.end() && it->first == name) {
    it->second = v;
  } else {
    entries_.emplace(it, std::string(name), v);
  }
}

std::optional<Value> Env::lookup(std::string_view name) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& e, std::string_view n) { return e.first < n; });
  if (it != entries_.end() && it->first == name) {
    return it->second;
  }
  return std::nullopt;
}

Env Env::restricted_to(std::span<const std::string> vars) const {
  Env out;
  for (const std::string& v : vars) {
    const auto val = lookup(v);
    if (val) {
      out.bind(v, *val);
    }
  }
  return out;
}

std::size_t Env::hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : entries_) {
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(value)) + 1;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

// --------------------------------------------------------------- builders --

ExprPtr lit(Value v) { return Expr::make_const(v); }
ExprPtr evar(std::string_view name) {
  return Expr::make_var(std::string(name));
}

#define MULTIVAL_BINOP(sym, op)                             \
  ExprPtr operator sym(ExprPtr a, ExprPtr b) {              \
    return Expr::make_binary(op, std::move(a), std::move(b)); \
  }
MULTIVAL_BINOP(+, BinaryOp::kAdd)
MULTIVAL_BINOP(-, BinaryOp::kSub)
MULTIVAL_BINOP(*, BinaryOp::kMul)
MULTIVAL_BINOP(/, BinaryOp::kDiv)
MULTIVAL_BINOP(%, BinaryOp::kMod)
MULTIVAL_BINOP(==, BinaryOp::kEq)
MULTIVAL_BINOP(!=, BinaryOp::kNe)
MULTIVAL_BINOP(<, BinaryOp::kLt)
MULTIVAL_BINOP(<=, BinaryOp::kLe)
MULTIVAL_BINOP(>, BinaryOp::kGt)
MULTIVAL_BINOP(>=, BinaryOp::kGe)
MULTIVAL_BINOP(&&, BinaryOp::kAnd)
MULTIVAL_BINOP(||, BinaryOp::kOr)
#undef MULTIVAL_BINOP

ExprPtr operator!(ExprPtr a) {
  return Expr::make_unary(UnaryOp::kNot, std::move(a));
}
ExprPtr operator-(ExprPtr a) {
  return Expr::make_unary(UnaryOp::kNeg, std::move(a));
}
ExprPtr emin(ExprPtr a, ExprPtr b) {
  return Expr::make_binary(BinaryOp::kMin, std::move(a), std::move(b));
}
ExprPtr emax(ExprPtr a, ExprPtr b) {
  return Expr::make_binary(BinaryOp::kMax, std::move(a), std::move(b));
}

}  // namespace multival::proc
