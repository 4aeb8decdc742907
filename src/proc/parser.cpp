#include "proc/parser.hpp"

#include <cctype>
#include <string>
#include <vector>

namespace multival::proc {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      // Comments: "--" or "//" to end of line.
      if (pos_ + 1 < text_.size() &&
          ((c == '-' && text_[pos_ + 1] == '-') ||
           (c == '/' && text_[pos_ + 1] == '/'))) {
        while (pos_ < text_.size() && text_[pos_] != '\n') {
          ++pos_;
        }
        continue;
      }
      break;
    }
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  [[nodiscard]] bool peek_symbol(std::string_view sym) {
    skip_ws();
    return text_.substr(pos_).starts_with(sym);
  }

  bool eat_symbol(std::string_view sym) {
    if (peek_symbol(sym)) {
      pos_ += sym.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] bool peek_keyword(std::string_view kw) {
    skip_ws();
    if (!text_.substr(pos_).starts_with(kw)) {
      return false;
    }
    const std::size_t end = pos_ + kw.size();
    return end >= text_.size() || !is_ident_char(text_[end]);
  }

  bool eat_keyword(std::string_view kw) {
    if (peek_keyword(kw)) {
      pos_ += kw.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] bool peek_ident() {
    skip_ws();
    return pos_ < text_.size() && is_ident_start(text_[pos_]);
  }

  std::string ident() {
    skip_ws();
    if (!peek_ident()) {
      fail("expected an identifier");
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_ident_char(text_[pos_])) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  [[nodiscard]] bool peek_number() {
    skip_ws();
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  Value number() {
    skip_ws();
    if (!peek_number()) {
      fail("expected a number");
    }
    long long v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + (text_[pos_] - '0');
      if (v > 0x7fffffff) {
        fail("integer literal too large");
      }
      ++pos_;
    }
    return static_cast<Value>(v);
  }

  void expect_symbol(std::string_view sym) {
    if (!eat_symbol(sym)) {
      fail(std::string("expected '") + std::string(sym) + "'");
    }
  }

  void expect_keyword(std::string_view kw) {
    if (!eat_keyword(kw)) {
      fail(std::string("expected keyword '") + std::string(kw) + "'");
    }
  }

  /// The token starting at the current position, for "near '...'" context:
  /// an identifier/number, a run of punctuation, or end of input.
  [[nodiscard]] std::string offending_token(std::size_t from) const {
    std::size_t p = from;
    while (p < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[p]))) {
      ++p;
    }
    if (p >= text_.size()) {
      return "end of input";
    }
    std::size_t end = p;
    if (is_ident_start(text_[end]) ||
        std::isdigit(static_cast<unsigned char>(text_[end]))) {
      while (end < text_.size() && is_ident_char(text_[end])) {
        ++end;
      }
    } else {
      while (end < text_.size() && end - p < 3 &&
             !std::isspace(static_cast<unsigned char>(text_[end])) &&
             !is_ident_char(text_[end])) {
        ++end;
      }
    }
    return "'" + std::string(text_.substr(p, end - p)) + "'";
  }

  /// Position of the next token; pair with fail_at() to anchor an error to
  /// a construct's start rather than wherever parsing stopped.
  [[nodiscard]] std::size_t mark() {
    skip_ws();
    return pos_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    fail_at(pos_, what);
  }

  [[noreturn]] void fail_at(std::size_t pos, const std::string& what) const {
    // Compute line/column for a readable, clickable position.
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ProcParseError(core::Diagnostic{
        "MV010", core::Severity::kError,
        what + " near " + offending_token(pos), {}, line, col, {}});
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Recursive-descent parser producing Term / Expr trees.
class ProcParser {
 public:
  explicit ProcParser(std::string_view text) : lex_(text) {}

  Program program() {
    Program p;
    while (!lex_.at_end()) {
      lex_.expect_keyword("process");
      const std::size_t at = lex_.mark();
      const std::string name = lex_.ident();
      std::vector<std::string> params;
      if (lex_.eat_symbol("(")) {
        if (!lex_.eat_symbol(")")) {
          params.push_back(lex_.ident());
          while (lex_.eat_symbol(",")) {
            params.push_back(lex_.ident());
          }
          lex_.expect_symbol(")");
        }
      }
      lex_.expect_symbol(":=");
      TermPtr body = behaviour();
      lex_.expect_keyword("endproc");
      try {
        p.define(name, std::move(params), std::move(body));
      } catch (const std::invalid_argument& e) {
        lex_.fail_at(at, e.what());
      }
    }
    return p;
  }

  TermPtr whole_behaviour() {
    TermPtr t = behaviour();
    if (!lex_.at_end()) {
      lex_.fail("trailing input after behaviour");
    }
    return t;
  }

  ExprPtr whole_expr() {
    ExprPtr e = expr();
    if (!lex_.at_end()) {
      lex_.fail("trailing input after expression");
    }
    return e;
  }

 private:
  // behaviour := par ('[]' par)*
  TermPtr behaviour() {
    std::vector<TermPtr> branches{par_expr()};
    while (lex_.eat_symbol("[]")) {
      branches.push_back(par_expr());
    }
    return branches.size() == 1 ? branches[0] : choice(std::move(branches));
  }

  /// Takes one more level of @p level's nesting, failing past
  /// core::kMaxParseNesting.
  void deeper(core::NestingLevel& level) {
    if (!level.deeper()) {
      lex_.fail("nesting deeper than " +
                std::to_string(core::kMaxParseNesting) + " levels");
    }
  }

  // par := seq (('|[' gates ']|' | '|||') seq)*
  TermPtr par_expr() {
    core::NestingLevel level(depth_);
    TermPtr t = seq_expr();
    while (true) {
      if (lex_.peek_symbol("|[")) {
        lex_.expect_symbol("|[");
        std::vector<std::string> gates;
        if (!lex_.peek_symbol("]|")) {
          gates.push_back(lex_.ident());
          while (lex_.eat_symbol(",")) {
            gates.push_back(lex_.ident());
          }
        }
        lex_.expect_symbol("]|");
        t = par(std::move(t), std::move(gates), seq_expr());
      } else if (lex_.peek_symbol("|||")) {
        lex_.expect_symbol("|||");
        t = interleaving(std::move(t), seq_expr());
      } else {
        return t;
      }
      deeper(level);
    }
  }

  // seq := prefix ('>>' prefix)*
  TermPtr seq_expr() {
    core::NestingLevel level(depth_);
    TermPtr t = prefix_expr();
    while (lex_.eat_symbol(">>")) {
      t = seq(std::move(t), prefix_expr());
      deeper(level);
    }
    return t;
  }

  TermPtr prefix_expr() {
    core::NestingLevel level(depth_);
    deeper(level);
    if (lex_.eat_keyword("stop")) {
      return stop();
    }
    if (lex_.eat_keyword("exit")) {
      return exit_();
    }
    if (lex_.eat_keyword("hide")) {
      std::vector<std::string> gates{lex_.ident()};
      while (lex_.eat_symbol(",")) {
        gates.push_back(lex_.ident());
      }
      lex_.expect_keyword("in");
      return hide(std::move(gates), prefix_expr());
    }
    if (lex_.eat_keyword("rename")) {
      std::map<std::string, std::string> mapping;
      do {
        const std::string from = lex_.ident();
        lex_.expect_symbol("->");
        mapping[from] = lex_.ident();
      } while (lex_.eat_symbol(","));
      lex_.expect_keyword("in");
      return rename(std::move(mapping), prefix_expr());
    }
    if (lex_.eat_symbol("(")) {
      TermPtr t = behaviour();
      lex_.expect_symbol(")");
      return t;
    }
    if (lex_.peek_symbol("[")) {
      // Guard: [ expr ] -> B
      lex_.expect_symbol("[");
      ExprPtr cond = expr();
      lex_.expect_symbol("]");
      lex_.expect_symbol("->");
      return guard(std::move(cond), prefix_expr());
    }
    if (lex_.peek_ident()) {
      const std::size_t at = lex_.mark();
      const std::string name = lex_.ident();
      // Gate prefix: offers then ';'.  Call: optional '(' args ')'.
      if (lex_.peek_symbol("!") || lex_.peek_symbol("?") ||
          lex_.peek_symbol(";")) {
        std::vector<Offer> offers;
        while (true) {
          if (lex_.eat_symbol("!")) {
            offers.push_back(emit(atom_expr_for_offer()));
          } else if (lex_.eat_symbol("?")) {
            const std::size_t var_at = lex_.mark();
            const std::string var = lex_.ident();
            lex_.expect_symbol(":");
            const Value lo = signed_number();
            lex_.expect_symbol("..");
            const Value hi = signed_number();
            try {
              offers.push_back(accept(var, lo, hi));
            } catch (const std::invalid_argument& e) {
              lex_.fail_at(var_at, e.what());
            }
          } else {
            break;
          }
        }
        lex_.expect_symbol(";");
        try {
          return prefix(name, std::move(offers), prefix_expr());
        } catch (const std::invalid_argument& e) {
          lex_.fail_at(at, e.what());
        }
      }
      std::vector<ExprPtr> args;
      if (lex_.eat_symbol("(")) {
        if (!lex_.eat_symbol(")")) {
          args.push_back(expr());
          while (lex_.eat_symbol(",")) {
            args.push_back(expr());
          }
          lex_.expect_symbol(")");
        }
      }
      return call(name, std::move(args));
    }
    lex_.fail("expected a behaviour");
  }

  Value signed_number() {
    if (lex_.eat_symbol("-")) {
      return static_cast<Value>(-lex_.number());
    }
    return lex_.number();
  }

  /// Offers use tight expressions: a single atom, or a parenthesised
  /// expression ("G !x" or "G !(x + 1)"), so "G !x ; P" lexes cleanly.
  ExprPtr atom_expr_for_offer() { return unary_expr(); }

  // ---- value expressions (precedence climbing) -------------------------

  ExprPtr expr() { return or_expr(); }

  ExprPtr or_expr() {
    core::NestingLevel level(depth_);
    ExprPtr e = and_expr();
    while (true) {
      // '||' but not '|||' / '|[':
      if (lex_.peek_symbol("|||") || lex_.peek_symbol("|[")) {
        return e;
      }
      if (!lex_.eat_symbol("||")) {
        return e;
      }
      e = std::move(e) || and_expr();
      deeper(level);
    }
  }

  ExprPtr and_expr() {
    core::NestingLevel level(depth_);
    ExprPtr e = cmp_expr();
    while (lex_.eat_symbol("&&")) {
      e = std::move(e) && cmp_expr();
      deeper(level);
    }
    return e;
  }

  ExprPtr cmp_expr() {
    core::NestingLevel level(depth_);
    ExprPtr e = add_expr();
    while (true) {
      if (lex_.eat_symbol("==")) {
        e = std::move(e) == add_expr();
      } else if (lex_.eat_symbol("!=")) {
        e = std::move(e) != add_expr();
      } else if (lex_.eat_symbol("<=")) {
        e = std::move(e) <= add_expr();
      } else if (lex_.eat_symbol(">=")) {
        e = std::move(e) >= add_expr();
      } else if (!lex_.peek_symbol("<<") && lex_.peek_symbol("<")) {
        lex_.expect_symbol("<");
        e = std::move(e) < add_expr();
      } else if (!lex_.peek_symbol(">>") && lex_.peek_symbol(">")) {
        lex_.expect_symbol(">");
        e = std::move(e) > add_expr();
      } else {
        return e;
      }
      deeper(level);
    }
  }

  ExprPtr add_expr() {
    core::NestingLevel level(depth_);
    ExprPtr e = mul_expr();
    while (true) {
      if (lex_.eat_symbol("+")) {
        e = std::move(e) + mul_expr();
      } else if (!lex_.peek_symbol("->") && lex_.peek_symbol("-")) {
        lex_.expect_symbol("-");
        e = std::move(e) - mul_expr();
      } else {
        return e;
      }
      deeper(level);
    }
  }

  ExprPtr mul_expr() {
    core::NestingLevel level(depth_);
    ExprPtr e = unary_expr();
    while (true) {
      if (lex_.eat_symbol("*")) {
        e = std::move(e) * unary_expr();
      } else if (lex_.eat_symbol("/")) {
        e = std::move(e) / unary_expr();
      } else if (lex_.eat_symbol("%")) {
        e = std::move(e) % unary_expr();
      } else {
        return e;
      }
      deeper(level);
    }
  }

  ExprPtr unary_expr() {
    core::NestingLevel level(depth_);
    deeper(level);
    if (lex_.eat_symbol("!")) {
      return !unary_expr();
    }
    if (!lex_.peek_symbol("->") && lex_.eat_symbol("-")) {
      return -unary_expr();
    }
    if (lex_.eat_symbol("(")) {
      ExprPtr e = expr();
      lex_.expect_symbol(")");
      return e;
    }
    if (lex_.peek_number()) {
      return lit(lex_.number());
    }
    if (lex_.peek_ident()) {
      const std::string name = lex_.ident();
      if (name == "min" || name == "max") {
        lex_.expect_symbol("(");
        ExprPtr a = expr();
        lex_.expect_symbol(",");
        ExprPtr b = expr();
        lex_.expect_symbol(")");
        return name == "min" ? emin(std::move(a), std::move(b))
                             : emax(std::move(a), std::move(b));
      }
      return evar(name);
    }
    lex_.fail("expected a value expression");
  }

  Lexer lex_;
  std::size_t depth_ = 0;  // nesting, see deeper()
};

}  // namespace

Program parse_program(std::string_view text) {
  return ProcParser(text).program();
}

TermPtr parse_behaviour(std::string_view text) {
  return ProcParser(text).whole_behaviour();
}

ExprPtr parse_value_expr(std::string_view text) {
  return ProcParser(text).whole_expr();
}

}  // namespace multival::proc
