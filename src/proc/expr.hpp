// Integer expressions and environments for the LOTOS-like process calculus.
//
// The value domain is int32_t ("LOTOS with naturals/booleans folded into
// ints"): booleans are 0/1; division by zero and int32 overflow throw.
// Expressions are immutable shared trees with cached free-variable sets.
// They are evaluated in one place, CompiledExpr, which reads variables from
// numbered slots; Env is the named environment Expr::eval resolves against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace multival::proc {

using Value = std::int32_t;

class Env;

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class UnaryOp { kNeg, kNot };
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kMin,
  kMax,
};

class Expr {
 public:
  enum class Kind { kConst, kVar, kUnary, kBinary };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] Value constant() const { return value_; }
  [[nodiscard]] const std::string& var_name() const { return name_; }
  [[nodiscard]] UnaryOp unary_op() const { return uop_; }
  [[nodiscard]] BinaryOp binary_op() const { return bop_; }
  /// Operand(s): lhs() is set for kUnary and kBinary, rhs() for kBinary.
  [[nodiscard]] const ExprPtr& lhs() const { return lhs_; }
  [[nodiscard]] const ExprPtr& rhs() const { return rhs_; }

  /// Evaluates under @p env (through CompiledExpr); throws std::out_of_range
  /// on unbound variables and std::domain_error on division/modulo by zero
  /// and on int32 overflow.
  [[nodiscard]] Value eval(const Env& env) const;

  /// Sorted, deduplicated free variables (cached).
  [[nodiscard]] const std::vector<std::string>& free_vars() const {
    return free_vars_;
  }

  [[nodiscard]] std::string to_string() const;

  static ExprPtr make_const(Value v);
  static ExprPtr make_var(std::string name);
  static ExprPtr make_unary(UnaryOp op, ExprPtr a);
  static ExprPtr make_binary(BinaryOp op, ExprPtr a, ExprPtr b);

 private:
  Kind kind_ = Kind::kConst;
  Value value_ = 0;
  std::string name_;
  UnaryOp uop_ = UnaryOp::kNeg;
  BinaryOp bop_ = BinaryOp::kAdd;
  ExprPtr lhs_;
  ExprPtr rhs_;
  std::vector<std::string> free_vars_;
};

/// An expression compiled against a slot layout: each variable becomes the
/// index of the slot it reads, so evaluation touches no names.  This is the
/// one evaluator: Expr::eval compiles against an Env, and the process
/// generator compiles each term's expressions once against the term's slots.
///
/// Arithmetic is checked: division or modulo by zero, int32 overflow of
/// +, -, * and unary minus, and INT_MIN / -1 and INT_MIN % -1 all throw
/// std::domain_error.  && and || short-circuit.
class CompiledExpr {
 public:
  /// Maps a variable name to its slot, or std::nullopt if it is unbound.
  using Resolver =
      std::function<std::optional<std::uint32_t>(const std::string&)>;

  CompiledExpr() = default;
  CompiledExpr(const Expr& e, const Resolver& slot_of);

  /// Evaluates over @p slots.  Reaching an unbound variable throws
  /// std::out_of_range; a slot index past @p slots is a caller bug.
  [[nodiscard]] Value eval(std::span<const Value> slots) const;

 private:
  struct Node {
    Expr::Kind kind = Expr::Kind::kConst;
    UnaryOp uop = UnaryOp::kNeg;
    BinaryOp bop = BinaryOp::kAdd;
    Value arg = 0;  // constant, slot, or (unbound variable) index in unbound_
    bool bound = true;
    std::uint32_t lhs = 0;
    std::uint32_t rhs = 0;
  };

  std::uint32_t add(const Expr& e, const Resolver& slot_of);
  [[nodiscard]] Value run(std::uint32_t node,
                          std::span<const Value> slots) const;

  std::vector<Node> nodes_;             // post-order: the root is last
  std::vector<std::string> unbound_;    // names of unbound variables
};

/// Canonical variable environment: sorted by name, no duplicates.
class Env {
 public:
  Env() = default;

  /// Binds (or rebinds) @p name.
  void bind(std::string_view name, Value v);

  [[nodiscard]] std::optional<Value> lookup(std::string_view name) const;

  /// Environment restricted to @p vars, in any order; names of @p vars
  /// that are not bound here are left out.
  [[nodiscard]] Env restricted_to(std::span<const std::string> vars) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& entries()
      const {
    return entries_;
  }

  friend bool operator==(const Env&, const Env&) = default;

  [[nodiscard]] std::size_t hash() const;

 private:
  std::vector<std::pair<std::string, Value>> entries_;  // sorted by name
};

// ---- builders ---------------------------------------------------------------

[[nodiscard]] ExprPtr lit(Value v);
[[nodiscard]] ExprPtr evar(std::string_view name);

[[nodiscard]] ExprPtr operator+(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator-(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator*(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator/(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator%(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator==(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator!=(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator<(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator<=(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator>(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator>=(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator&&(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator||(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr operator!(ExprPtr a);
[[nodiscard]] ExprPtr operator-(ExprPtr a);
[[nodiscard]] ExprPtr emin(ExprPtr a, ExprPtr b);
[[nodiscard]] ExprPtr emax(ExprPtr a, ExprPtr b);

}  // namespace multival::proc
