#include "mc/formula.hpp"

#include <algorithm>
#include <stdexcept>

namespace multival::mc {

// ---------------------------------------------------------------- actions --

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative glob with '*' backtracking and '?' single-char wildcard.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t match = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

ActionPtr ActionFormula::make(Kind k, std::string pattern, ActionPtr l,
                              ActionPtr r) {
  auto node = std::make_shared<ActionFormula>();
  node->kind_ = k;
  node->pattern_ = std::move(pattern);
  node->lhs_ = std::move(l);
  node->rhs_ = std::move(r);
  return node;
}

bool ActionFormula::matches(std::string_view label, bool is_tau) const {
  switch (kind_) {
    case Kind::kAny:
      return true;
    case Kind::kTau:
      return is_tau;
    case Kind::kVisible:
      return !is_tau;
    case Kind::kGlob:
      return !is_tau && glob_match(pattern_, label);
    case Kind::kNot:
      return !lhs_->matches(label, is_tau);
    case Kind::kAnd:
      return lhs_->matches(label, is_tau) && rhs_->matches(label, is_tau);
    case Kind::kOr:
      return lhs_->matches(label, is_tau) || rhs_->matches(label, is_tau);
  }
  return false;
}

std::string ActionFormula::to_string() const {
  const std::string l = lhs_ ? lhs_->to_string() : "";
  const std::string r = rhs_ ? rhs_->to_string() : "";
  switch (kind_) {
    case Kind::kAny:
      return "any";
    case Kind::kTau:
      return "tau";
    case Kind::kVisible:
      return "visible";
    case Kind::kGlob:
      return "'" + pattern_ + "'";
    case Kind::kNot:
      return "!" + l;
    case Kind::kAnd:
      return "(" + l + " & " + r + ")";
    case Kind::kOr:
      return "(" + l + " | " + r + ")";
  }
  return "?";
}

ActionPtr act_any() {
  return ActionFormula::make(ActionFormula::Kind::kAny, {}, nullptr, nullptr);
}
ActionPtr act_tau() {
  return ActionFormula::make(ActionFormula::Kind::kTau, {}, nullptr, nullptr);
}
ActionPtr act_visible() {
  return ActionFormula::make(ActionFormula::Kind::kVisible, {}, nullptr,
                             nullptr);
}
ActionPtr act(std::string_view glob) {
  return ActionFormula::make(ActionFormula::Kind::kGlob, std::string(glob),
                             nullptr, nullptr);
}
ActionPtr act_not(ActionPtr a) {
  return ActionFormula::make(ActionFormula::Kind::kNot, {}, std::move(a),
                             nullptr);
}
ActionPtr act_and(ActionPtr a, ActionPtr b) {
  return ActionFormula::make(ActionFormula::Kind::kAnd, {}, std::move(a),
                             std::move(b));
}
ActionPtr act_or(ActionPtr a, ActionPtr b) {
  return ActionFormula::make(ActionFormula::Kind::kOr, {}, std::move(a),
                             std::move(b));
}

// ----------------------------------------------------------------- states --

FormulaPtr StateFormula::make(Kind k, std::string v, ActionPtr a, FormulaPtr l,
                              FormulaPtr r) {
  auto node = std::make_shared<StateFormula>();
  node->kind_ = k;
  node->var_ = std::move(v);
  node->action_ = std::move(a);
  node->lhs_ = std::move(l);
  node->rhs_ = std::move(r);
  return node;
}

namespace {

void collect_free(const StateFormula& f, std::vector<std::string>& bound,
                  std::vector<std::string>& out) {
  using Kind = StateFormula::Kind;
  switch (f.kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
      return;
    case Kind::kVar:
      if (std::find(bound.begin(), bound.end(), f.var()) == bound.end()) {
        out.push_back(f.var());
      }
      return;
    case Kind::kMu:
    case Kind::kNu:
      bound.push_back(f.var());
      collect_free(*f.lhs(), bound, out);
      bound.pop_back();
      return;
    case Kind::kNot:
    case Kind::kDiamond:
    case Kind::kBox:
      collect_free(*f.lhs(), bound, out);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      collect_free(*f.lhs(), bound, out);
      collect_free(*f.rhs(), bound, out);
      return;
  }
}

}  // namespace

std::vector<std::string> StateFormula::free_vars() const {
  std::vector<std::string> bound;
  std::vector<std::string> out;
  collect_free(*this, bound, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string StateFormula::to_string() const {
  const std::string a = action_ ? action_->to_string() : "";
  const std::string l = lhs_ ? lhs_->to_string() : "";
  const std::string r = rhs_ ? rhs_->to_string() : "";
  switch (kind_) {
    case Kind::kTrue:
      return "tt";
    case Kind::kFalse:
      return "ff";
    case Kind::kAnd:
      return "(" + l + " && " + r + ")";
    case Kind::kOr:
      return "(" + l + " || " + r + ")";
    case Kind::kNot:
      return "!" + l;
    case Kind::kDiamond:
      return "<" + a + "> " + l;
    case Kind::kBox:
      return "[" + a + "] " + l;
    case Kind::kMu:
      return "mu " + var_ + ". " + l;
    case Kind::kNu:
      return "nu " + var_ + ". " + l;
    case Kind::kVar:
      return var_;
  }
  return "?";
}

FormulaPtr f_true() {
  return StateFormula::make(StateFormula::Kind::kTrue, {}, nullptr, nullptr,
                            nullptr);
}
FormulaPtr f_false() {
  return StateFormula::make(StateFormula::Kind::kFalse, {}, nullptr, nullptr,
                            nullptr);
}
FormulaPtr f_and(FormulaPtr a, FormulaPtr b) {
  return StateFormula::make(StateFormula::Kind::kAnd, {}, nullptr,
                            std::move(a), std::move(b));
}
FormulaPtr f_or(FormulaPtr a, FormulaPtr b) {
  return StateFormula::make(StateFormula::Kind::kOr, {}, nullptr, std::move(a),
                            std::move(b));
}
FormulaPtr f_not(FormulaPtr a) {
  return StateFormula::make(StateFormula::Kind::kNot, {}, nullptr,
                            std::move(a), nullptr);
}
FormulaPtr dia(ActionPtr a, FormulaPtr f) {
  return StateFormula::make(StateFormula::Kind::kDiamond, {}, std::move(a),
                            std::move(f), nullptr);
}
FormulaPtr box(ActionPtr a, FormulaPtr f) {
  return StateFormula::make(StateFormula::Kind::kBox, {}, std::move(a),
                            std::move(f), nullptr);
}
FormulaPtr mu(std::string_view v, FormulaPtr body) {
  return StateFormula::make(StateFormula::Kind::kMu, std::string(v), nullptr,
                            std::move(body), nullptr);
}
FormulaPtr nu(std::string_view v, FormulaPtr body) {
  return StateFormula::make(StateFormula::Kind::kNu, std::string(v), nullptr,
                            std::move(body), nullptr);
}
FormulaPtr var(std::string_view name) {
  return StateFormula::make(StateFormula::Kind::kVar, std::string(name),
                            nullptr, nullptr, nullptr);
}

}  // namespace multival::mc
