#include "lts/lts_io.hpp"

#include <cctype>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace multival::lts {

void write_aut(std::ostream& os, const Lts& l) {
  os << "des (" << l.initial_state() << ", " << l.num_transitions() << ", "
     << l.num_states() << ")\n";
  for (StateId s = 0; s < l.num_states(); ++s) {
    for (const OutEdge& e : l.out(s)) {
      const std::string_view label = l.actions().name(e.action);
      if (label == "i") {
        os << '(' << s << ", i, " << e.dst << ")\n";
      } else {
        os << '(' << s << ", \"" << label << "\", " << e.dst << ")\n";
      }
    }
  }
}

std::string to_aut(const Lts& l) {
  std::ostringstream os;
  write_aut(os, l);
  return os.str();
}

namespace {

[[noreturn]] void malformed(const std::string& line) {
  throw std::runtime_error("read_aut: malformed line: " + line);
}

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
}

std::uint64_t parse_number(const std::string& s, std::size_t& i) {
  skip_ws(s, i);
  if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
    malformed(s);
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    const auto d = static_cast<std::uint64_t>(s[i] - '0');
    if (v > (kMax - d) / 10) {
      malformed(s);  // would wrap past 64 bits
    }
    v = v * 10 + d;
    ++i;
  }
  return v;
}

void expect(const std::string& s, std::size_t& i, char c) {
  skip_ws(s, i);
  if (i >= s.size() || s[i] != c) {
    malformed(s);
  }
  ++i;
}

std::string parse_label(const std::string& s, std::size_t& i) {
  skip_ws(s, i);
  if (i >= s.size()) {
    malformed(s);
  }
  if (s[i] == '"') {
    ++i;
    std::string label;
    while (i < s.size() && s[i] != '"') {
      label.push_back(s[i]);
      ++i;
    }
    if (i >= s.size()) {
      malformed(s);
    }
    ++i;  // closing quote
    return label;
  }
  std::string label;
  while (i < s.size() && s[i] != ',' &&
         !std::isspace(static_cast<unsigned char>(s[i]))) {
    label.push_back(s[i]);
    ++i;
  }
  if (label.empty()) {
    malformed(s);
  }
  return label;
}

}  // namespace

Lts read_aut(std::istream& is) {
  std::string line;
  // Header.
  do {
    if (!std::getline(is, line)) {
      throw std::runtime_error("read_aut: missing 'des' header");
    }
  } while (line.find_first_not_of(" \t\r\n") == std::string::npos);

  std::size_t i = line.find("des");
  if (i == std::string::npos) {
    throw std::runtime_error("read_aut: missing 'des' header");
  }
  i += 3;
  expect(line, i, '(');
  const std::uint64_t initial = parse_number(line, i);
  expect(line, i, ',');
  const std::uint64_t ntrans = parse_number(line, i);
  expect(line, i, ',');
  const std::uint64_t nstates = parse_number(line, i);
  expect(line, i, ')');

  // kNoState is a sentinel, so ids run below it.
  if (nstates > kNoState) {
    throw std::runtime_error("read_aut: state count out of range");
  }
  Lts l;
  l.add_states(nstates);
  if (initial >= nstates) {
    throw std::runtime_error("read_aut: initial state out of range");
  }
  l.set_initial_state(static_cast<StateId>(initial));

  std::uint64_t parsed = 0;
  while (parsed < ntrans) {
    if (!std::getline(is, line)) {
      throw std::runtime_error("read_aut: fewer transitions than declared");
    }
    std::size_t j = 0;
    skip_ws(line, j);
    if (j >= line.size()) {
      continue;  // blank line
    }
    expect(line, j, '(');
    const std::uint64_t src = parse_number(line, j);
    expect(line, j, ',');
    const std::string label = parse_label(line, j);
    expect(line, j, ',');
    const std::uint64_t dst = parse_number(line, j);
    expect(line, j, ')');
    if (src >= nstates || dst >= nstates) {
      throw std::runtime_error("read_aut: state id out of range");
    }
    l.add_transition(static_cast<StateId>(src), std::string_view(label),
                     static_cast<StateId>(dst));
    ++parsed;
  }
  return l;
}

Lts from_aut(const std::string& text) {
  std::istringstream is(text);
  return read_aut(is);
}

void write_dot(std::ostream& os, const Lts& l) {
  os << "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n";
  if (l.num_states() > 0) {
    os << "  " << l.initial_state() << " [shape=doublecircle];\n";
  }
  for (StateId s = 0; s < l.num_states(); ++s) {
    for (const OutEdge& e : l.out(s)) {
      const std::string_view label = l.actions().name(e.action);
      os << "  " << s << " -> " << e.dst << " [label=\"";
      for (const char c : label) {
        if (c == '"' || c == '\\') {
          os << '\\';
        }
        os << c;
      }
      os << '"';
      if (ActionTable::is_tau(e.action)) {
        os << ", style=dashed";
      }
      os << "];\n";
    }
  }
  os << "}\n";
}

std::string to_dot(const Lts& l) {
  std::ostringstream os;
  write_dot(os, l);
  return os.str();
}

}  // namespace multival::lts
