#include "mc/parser.hpp"

#include <cctype>
#include <string>

#include "core/diag.hpp"

namespace multival::mc {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  FormulaPtr parse_state() {
    FormulaPtr f = state_expr();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing input");
    }
    return f;
  }

  ActionPtr parse_action() {
    ActionPtr a = action_or();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing input");
    }
    return a;
  }

 private:
  // ---- state formulas ----------------------------------------------------

  /// A leading mu/nu is parsed by state_unary, which extends its body as
  /// far to the right as a whole state formula goes.
  FormulaPtr state_expr() { return state_or(); }

  FormulaPtr state_or() {
    core::NestingLevel level(depth_);
    FormulaPtr f = state_and();
    while (true) {
      skip_ws();
      if (!eat_symbol("||")) {
        return f;
      }
      f = f_or(std::move(f), state_and());
      deeper(level);
    }
  }

  FormulaPtr state_and() {
    core::NestingLevel level(depth_);
    FormulaPtr f = state_unary();
    while (true) {
      skip_ws();
      if (!eat_symbol("&&")) {
        return f;
      }
      f = f_and(std::move(f), state_unary());
      deeper(level);
    }
  }

  FormulaPtr state_unary() {
    core::NestingLevel level(depth_);
    deeper(level);
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of formula");
    }
    const char c = text_[pos_];
    if (c == '!') {
      ++pos_;
      return f_not(state_unary());
    }
    if (c == '<') {
      ++pos_;
      ActionPtr a = action_or();
      expect('>');
      return dia(std::move(a), state_unary());
    }
    if (c == '[') {
      ++pos_;
      ActionPtr a = action_or();
      expect(']');
      return box(std::move(a), state_unary());
    }
    if (c == '(') {
      ++pos_;
      FormulaPtr f = state_expr();
      expect(')');
      return f;
    }
    if (eat_keyword("tt")) {
      return f_true();
    }
    if (eat_keyword("ff")) {
      return f_false();
    }
    if (eat_keyword("mu")) {
      const std::string v = ident();
      expect('.');
      return mu(v, state_expr());
    }
    if (eat_keyword("nu")) {
      const std::string v = ident();
      expect('.');
      return nu(v, state_expr());
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return var(ident());
    }
    fail("expected a state formula");
  }

  // ---- action formulas -----------------------------------------------------

  ActionPtr action_or() {
    core::NestingLevel level(depth_);
    ActionPtr a = action_and();
    while (true) {
      skip_ws();
      // '|' but not '||' (which belongs to the state level).
      if (pos_ + 1 < text_.size() && text_[pos_] == '|' &&
          text_[pos_ + 1] == '|') {
        return a;
      }
      if (!eat_symbol("|")) {
        return a;
      }
      a = act_or(std::move(a), action_and());
      deeper(level);
    }
  }

  ActionPtr action_and() {
    core::NestingLevel level(depth_);
    ActionPtr a = action_unary();
    while (true) {
      skip_ws();
      if (pos_ + 1 < text_.size() && text_[pos_] == '&' &&
          text_[pos_ + 1] == '&') {
        return a;
      }
      if (!eat_symbol("&")) {
        return a;
      }
      a = act_and(std::move(a), action_unary());
      deeper(level);
    }
  }

  ActionPtr action_unary() {
    core::NestingLevel level(depth_);
    deeper(level);
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of action formula");
    }
    const char c = text_[pos_];
    if (c == '!') {
      ++pos_;
      return act_not(action_unary());
    }
    if (c == '(') {
      ++pos_;
      ActionPtr a = action_or();
      expect(')');
      return a;
    }
    if (c == '\'' || c == '"') {
      ++pos_;
      const std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != c) {
        ++pos_;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated label literal");
      }
      const std::string glob(text_.substr(start, pos_ - start));
      ++pos_;
      return act(glob);
    }
    if (eat_keyword("any")) {
      return act_any();
    }
    if (eat_keyword("tau")) {
      return act_tau();
    }
    if (eat_keyword("visible")) {
      return act_visible();
    }
    fail("expected an action formula");
  }

  // ---- lexing helpers ---------------------------------------------------------

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat_symbol(std::string_view sym) {
    skip_ws();
    if (text_.substr(pos_).starts_with(sym)) {
      pos_ += sym.size();
      return true;
    }
    return false;
  }

  /// Consumes @p kw only if it is a full word.
  bool eat_keyword(std::string_view kw) {
    skip_ws();
    if (!text_.substr(pos_).starts_with(kw)) {
      return false;
    }
    const std::size_t end = pos_ + kw.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_')) {
      return false;
    }
    pos_ = end;
    return true;
  }

  std::string ident() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected an identifier");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  /// Takes one more level of @p level's nesting, failing past
  /// core::kMaxParseNesting.
  void deeper(core::NestingLevel& level) {
    if (!level.deeper()) {
      fail("nesting deeper than " + std::to_string(core::kMaxParseNesting) +
           " levels");
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("formula parse error at position " +
                     std::to_string(pos_) + ": " + what + " in \"" +
                     std::string(text_) + "\"");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // nesting, see deeper()
};

}  // namespace

FormulaPtr parse_formula(std::string_view text) {
  return Parser(text).parse_state();
}

ActionPtr parse_action_formula(std::string_view text) {
  return Parser(text).parse_action();
}

}  // namespace multival::mc
