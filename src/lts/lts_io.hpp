// Textual I/O for LTSs in the Aldebaran (.aut) format used by CADP:
//
//   des (<initial>, <num-transitions>, <num-states>)
//   (<src>, "<label>", <dst>)
//   ...
//
// Labels containing no special characters may be unquoted; we always write
// quoted labels except for "i".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "lts/lts.hpp"

namespace multival::lts {

/// Writes @p l in .aut format.
void write_aut(std::ostream& os, const Lts& l);

/// Renders @p l as a .aut string.
[[nodiscard]] std::string to_aut(const Lts& l);

/// The three numbers of a .aut header, as declared.
struct AutHeader {
  std::uint64_t initial = 0;
  std::uint64_t transitions = 0;
  std::uint64_t states = 0;
};

/// Parses the header, the first non-blank line of @p text, without
/// reading further, so that a caller can judge the declared size before
/// anything is allocated.  Throws std::runtime_error if it is missing or
/// malformed; the counts are not range-checked.
[[nodiscard]] AutHeader parse_aut_header(std::string_view text);

/// Parses a .aut description.  Throws std::runtime_error on malformed input.
[[nodiscard]] Lts read_aut(std::istream& is);

/// Parses a .aut string.
[[nodiscard]] Lts from_aut(const std::string& text);

/// Writes @p l as a Graphviz digraph (tau edges dashed, initial state
/// double-circled) for visual inspection of small models.
void write_dot(std::ostream& os, const Lts& l);
[[nodiscard]] std::string to_dot(const Lts& l);

}  // namespace multival::lts
