// Structured diagnostics shared by the proc parser and the static analyzer
// (src/analyze): one stable representation for everything the toolchain can
// report about a model *before* touching its state space.
//
// Every diagnostic carries a stable code ("MV0xx", see README's reference
// table), a severity, a human message, the term path / source position it
// anchors to, and an optional fix hint.  Text and JSON renderers live here
// so the CLI, the parser and the evaluation service all print identically.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace multival::core {

enum class Severity {
  kError,    ///< the model is ill-formed; downstream tools must reject it
  kWarning,  ///< almost certainly a modelling mistake, but well-formed
  kAdvice,   ///< informational (intentional idioms, approximation notes)
};

[[nodiscard]] std::string_view to_string(Severity s);

struct Diagnostic {
  std::string code;     ///< stable "MV0xx" identifier
  Severity severity = Severity::kError;
  std::string message;  ///< one-line description of the finding
  std::string path;     ///< term path, e.g. "System: par |[GO]| / right"
  std::size_t line = 0;    ///< 1-based source line; 0 = no position
  std::size_t column = 0;  ///< 1-based source column; 0 = no position
  std::string hint;     ///< optional fix hint

  /// "error MV003 at System: par |[GO]| — message (hint: ...)".
  [[nodiscard]] std::string to_text() const;
  /// One JSON object with all fields (strings escaped).
  [[nodiscard]] std::string to_json() const;
};

/// Renders one diagnostic per line.
[[nodiscard]] std::string render_text(std::span<const Diagnostic> diags);
/// Renders a JSON array of diagnostic objects.
[[nodiscard]] std::string render_json(std::span<const Diagnostic> diags);

/// @p s as a quoted JSON string: '"', '\\', newline, tab and carriage
/// return get their two-character escapes, every other byte below 0x20 is
/// written as \u00XX, and all other bytes (UTF-8 included) pass through.
[[nodiscard]] std::string json_string(std::string_view s);

/// True if any diagnostic has severity kError.
[[nodiscard]] bool has_errors(std::span<const Diagnostic> diags);

/// Deepest nesting the recursive-descent parsers accept: .proc behaviours
/// and value expressions, and formulas.  A parenthesis, a prefix, a unary
/// operator and each further operand of an operator chain count one level,
/// so the parsers' recursion and the depth of the trees they build are
/// bounded, and so are the recursive walks over those trees.  A .proc
/// parenthesis level takes about 9.5 KiB of stack in an ASan build, so 256
/// levels stay far inside an 8 MiB stack there.
inline constexpr std::size_t kMaxParseNesting = 256;

/// Holds the levels it takes of a parser's nesting depth until it is
/// destroyed.
class NestingLevel {
 public:
  explicit NestingLevel(std::size_t& depth) : depth_(depth), saved_(depth) {}
  NestingLevel(const NestingLevel&) = delete;
  NestingLevel& operator=(const NestingLevel&) = delete;
  ~NestingLevel() { depth_ = saved_; }

  /// Takes one more level; false once the depth exceeds kMaxParseNesting.
  [[nodiscard]] bool deeper() { return ++depth_ <= kMaxParseNesting; }

 private:
  std::size_t& depth_;
  std::size_t saved_;
};

}  // namespace multival::core
