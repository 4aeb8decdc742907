#include "imc/imc_io.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lts/lts.hpp"
#include "lts/lts_io.hpp"

namespace multival::imc {

namespace {

std::string rate_label(const MarkEdge& e) {
  std::ostringstream os;
  if (!e.label.empty()) {
    os << e.label << "; ";
  }
  os << "rate " << e.rate;
  return os.str();
}

/// The rate and probe label that @p label encodes, if it encodes a
/// Markovian transition.
std::optional<Delay> parse_rate_label(std::string_view label) {
  std::string_view rest = label;
  std::string probe;
  const std::size_t semi = rest.find(';');
  if (semi != std::string_view::npos) {
    probe = std::string(rest.substr(0, semi));
    // Trim trailing spaces of the probe.
    while (!probe.empty() && probe.back() == ' ') {
      probe.pop_back();
    }
    rest = rest.substr(semi + 1);
    while (!rest.empty() && rest.front() == ' ') {
      rest.remove_prefix(1);
    }
  }
  if (!rest.starts_with("rate ")) {
    return std::nullopt;
  }
  rest.remove_prefix(5);
  while (!rest.empty() && rest.front() == ' ') {
    rest.remove_prefix(1);
  }
  double rate = 0.0;
  try {
    std::size_t consumed = 0;
    rate = std::stod(std::string(rest), &consumed);
    if (consumed != rest.size() || !(rate > 0.0) || !std::isfinite(rate)) {
      throw std::runtime_error("imc read_aut: bad rate in \"" +
                               std::string(label) + '"');
    }
  } catch (const std::invalid_argument&) {
    throw std::runtime_error("imc read_aut: bad rate in \"" +
                             std::string(label) + '"');
  }
  return Delay{rate, std::move(probe)};
}

}  // namespace

void write_aut(std::ostream& os, const Imc& m) {
  os << "des (" << m.initial_state() << ", "
     << m.num_interactive() + m.num_markovian() << ", " << m.num_states()
     << ")\n";
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (const InterEdge& e : m.interactive(s)) {
      const std::string_view label = m.actions().name(e.action);
      if (label == "i") {
        os << '(' << s << ", i, " << e.dst << ")\n";
      } else {
        os << '(' << s << ", \"" << label << "\", " << e.dst << ")\n";
      }
    }
    for (const MarkEdge& e : m.markovian(s)) {
      os << '(' << s << ", \"" << rate_label(e) << "\", " << e.dst << ")\n";
    }
  }
}

std::string to_aut(const Imc& m) {
  std::ostringstream os;
  write_aut(os, m);
  return os.str();
}

Imc read_aut(std::istream& is) {
  return lift(lts::read_aut(is), parse_rate_label);
}

Imc from_aut(const std::string& text) {
  std::istringstream is(text);
  return read_aut(is);
}

}  // namespace multival::imc
