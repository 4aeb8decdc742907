#include "dse/grid.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace multival::dse {

namespace {

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) {
    return "";
  }
  const std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream is(line);
  std::string w;
  while (is >> w) {
    words.push_back(w);
  }
  return words;
}

[[noreturn]] void fail(std::size_t lineno, const std::string& message) {
  throw SpecError("line " + std::to_string(lineno) + ": " + message);
}

}  // namespace

AxisValue parse_axis_value(const std::string& text) {
  if (text.empty()) {
    throw SpecError("empty axis value");
  }
  long l = 0;
  auto [lp, lec] = std::from_chars(text.data(), text.data() + text.size(), l);
  if (lec == std::errc{} && lp == text.data() + text.size()) {
    return l;
  }
  try {
    std::size_t pos = 0;
    const double d = std::stod(text, &pos);
    if (pos == text.size()) {
      return d;
    }
  } catch (const std::out_of_range&) {
    // The token *is* numeric — it parsed, it just does not fit a double
    // ("1e999").  Silently demoting it to a word axis value would make the
    // sweep enumerate it as a string; reject instead.
    throw SpecError("numeric axis value '" + text + "' is out of range");
  } catch (const std::invalid_argument&) {
    // Not numeric at all: fall through to the word case.
  }
  return text;
}

std::string to_string(const AxisValue& v) {
  if (const long* l = std::get_if<long>(&v)) {
    return std::to_string(*l);
  }
  if (const double* d = std::get_if<double>(&v)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

std::optional<double> numeric(const AxisValue& v) {
  if (const long* l = std::get_if<long>(&v)) {
    return static_cast<double>(*l);
  }
  if (const double* d = std::get_if<double>(&v)) {
    return *d;
  }
  return std::nullopt;
}

const char* to_string(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::kLe:
      return "<=";
    case ConstraintOp::kGe:
      return ">=";
    case ConstraintOp::kLt:
      return "<";
    case ConstraintOp::kGt:
      return ">";
    case ConstraintOp::kEq:
      return "==";
    case ConstraintOp::kNe:
      return "!=";
  }
  return "?";
}

ConstraintOp parse_constraint_op(const std::string& text) {
  if (text == "<=") {
    return ConstraintOp::kLe;
  }
  if (text == ">=") {
    return ConstraintOp::kGe;
  }
  if (text == "<") {
    return ConstraintOp::kLt;
  }
  if (text == ">") {
    return ConstraintOp::kGt;
  }
  if (text == "==") {
    return ConstraintOp::kEq;
  }
  if (text == "!=") {
    return ConstraintOp::kNe;
  }
  throw SpecError("unknown constraint operator '" + text + "'");
}

bool Constraint::admits(const std::map<std::string, AxisValue>& point,
                        const std::map<std::string, AxisValue>& derived) const {
  const AxisValue* lhs = nullptr;
  if (const auto it = point.find(name); it != point.end()) {
    lhs = &it->second;
  } else if (const auto it = derived.find(name); it != derived.end()) {
    lhs = &it->second;
  } else {
    throw SpecError("constraint refers to unknown quantity '" + name + "'");
  }
  const std::optional<double> ln = numeric(*lhs);
  const std::optional<double> rn = numeric(value);
  if (ln.has_value() && rn.has_value()) {
    switch (op) {
      case ConstraintOp::kLe:
        return *ln <= *rn;
      case ConstraintOp::kGe:
        return *ln >= *rn;
      case ConstraintOp::kLt:
        return *ln < *rn;
      case ConstraintOp::kGt:
        return *ln > *rn;
      case ConstraintOp::kEq:
        return *ln == *rn;
      case ConstraintOp::kNe:
        return *ln != *rn;
    }
  }
  const std::string ls = to_string(*lhs);
  const std::string rs = to_string(value);
  switch (op) {
    case ConstraintOp::kEq:
      return ls == rs;
    case ConstraintOp::kNe:
      return ls != rs;
    default:
      throw SpecError("constraint '" + name + " " +
                      std::string(to_string(op)) + " " + rs +
                      "': ordering needs numeric operands");
  }
}

std::size_t Space::raw_size() const {
  std::size_t n = 1;
  for (const Axis& a : axes) {
    n *= a.values.size();
  }
  return axes.empty() ? 0 : n;
}

SweepSpec parse_sweep_spec(const std::string& text) {
  SweepSpec spec;
  Space* open = nullptr;  // inside a space ... end block
  std::istringstream is(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::string line = trim(raw);
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> words = split_words(line);
    const std::string& head = words[0];
    if (head == "sweep") {
      if (words.size() != 2) {
        fail(lineno, "expected: sweep <name>");
      }
      spec.name = words[1];
    } else if (head == "objective") {
      if (words.size() != 3 || (words[2] != "min" && words[2] != "max")) {
        fail(lineno, "expected: objective <metric> <min|max>");
      }
      spec.objectives.emplace_back(words[1], words[2] == "max");
    } else if (head == "space") {
      if (open != nullptr) {
        fail(lineno, "nested 'space' (missing 'end'?)");
      }
      if (words.size() != 2) {
        fail(lineno, "expected: space <family>");
      }
      spec.spaces.push_back(Space{words[1], {}, {}});
      open = &spec.spaces.back();
    } else if (head == "end") {
      if (open == nullptr) {
        fail(lineno, "'end' outside a space block");
      }
      if (open->axes.empty()) {
        fail(lineno, "space '" + open->family + "' declares no axes");
      }
      open = nullptr;
    } else if (head == "axis") {
      if (open == nullptr) {
        fail(lineno, "'axis' outside a space block");
      }
      // axis <name> = v1, v2, ...
      const std::size_t eq = line.find('=');
      if (words.size() < 2 || eq == std::string::npos) {
        fail(lineno, "expected: axis <name> = v1, v2, ...");
      }
      Axis axis;
      axis.name = trim(line.substr(4, eq - 4));
      if (axis.name.empty() || axis.name.find(' ') != std::string::npos) {
        fail(lineno, "bad axis name");
      }
      for (const Axis& existing : open->axes) {
        if (existing.name == axis.name) {
          fail(lineno, "duplicate axis '" + axis.name + "'");
        }
      }
      std::string values = line.substr(eq + 1);
      std::size_t start = 0;
      while (start <= values.size()) {
        std::size_t comma = values.find(',', start);
        if (comma == std::string::npos) {
          comma = values.size();
        }
        const std::string item = trim(values.substr(start, comma - start));
        if (item.empty()) {
          fail(lineno, "empty axis value");
        }
        AxisValue v;
        try {
          v = parse_axis_value(item);
        } catch (const SpecError& e) {
          fail(lineno, e.what());
        }
        if (std::find(axis.values.begin(), axis.values.end(), v) !=
            axis.values.end()) {
          fail(lineno, "duplicate axis value '" + item + "'");
        }
        axis.values.push_back(v);
        start = comma + 1;
        if (comma == values.size()) {
          break;
        }
      }
      if (axis.values.empty()) {
        fail(lineno, "axis '" + axis.name + "' has no values");
      }
      open->axes.push_back(std::move(axis));
    } else if (head == "constraint") {
      if (open == nullptr) {
        fail(lineno, "'constraint' outside a space block");
      }
      if (words.size() != 4) {
        fail(lineno, "expected: constraint <name> <op> <value>");
      }
      Constraint c;
      c.name = words[1];
      try {
        c.op = parse_constraint_op(words[2]);
        c.value = parse_axis_value(words[3]);
      } catch (const SpecError& e) {
        fail(lineno, e.what());
      }
      open->constraints.push_back(std::move(c));
    } else {
      fail(lineno, "unknown directive '" + head + "'");
    }
  }
  if (open != nullptr) {
    throw SpecError("unterminated space block (missing 'end')");
  }
  if (spec.spaces.empty()) {
    throw SpecError("sweep spec declares no spaces");
  }
  return spec;
}

const std::string& builtin_sweep_spec(const std::string& name) {
  // The D1 exhibit grid: 58 raw points across all four generator families,
  // 4 pruned by the noc node-count constraint (the xmas queues-guard
  // constraint admits every current builtin fabric).  The xstream 'items'
  // axis does not influence the continuous-throughput sub-model, so half of
  // the xstream throughput probes are within-sweep duplicates and must hit
  // the service cache.
  static const std::string kDefault =
      "sweep d1\n"
      "space noc\n"
      "  axis width = 2, 3\n"
      "  axis height = 2, 3\n"
      "  axis buffer = 1, 2\n"
      "  axis link_rate = 1.0, 2.0\n"
      "  constraint nodes <= 6\n"
      "end\n"
      "space fame\n"
      "  axis protocol = msi, mesi\n"
      "  axis topology = bus, ring, crossbar\n"
      "  axis mpi = eager, rendezvous\n"
      "  axis rounds = 1\n"
      "  constraint rounds <= 4\n"
      "end\n"
      "space xstream\n"
      "  axis capacity = 1, 2, 3\n"
      "  axis push_rate = 0.6, 1.2\n"
      "  axis items = 2, 4\n"
      "end\n"
      "space xmas\n"
      "  axis fabric = credit-loop, vc-pair, mesh2\n"
      "  axis capacity = 1, 2, 3\n"
      "  axis inject_rate = 0.6, 1.2\n"
      "  constraint queues <= 3\n"
      "end\n";
  static const std::string kSmoke =
      "sweep smoke\n"
      "space noc\n"
      "  axis width = 2\n"
      "  axis height = 2\n"
      "  axis link_rate = 1.0, 2.0\n"
      "end\n"
      "space fame\n"
      "  axis protocol = msi, mesi\n"
      "  axis topology = bus\n"
      "end\n"
      "space xstream\n"
      "  axis capacity = 1, 2\n"
      "end\n"
      "space xmas\n"
      "  axis fabric = credit-loop\n"
      "  axis capacity = 1, 2\n"
      "end\n";
  if (name == "default") {
    return kDefault;
  }
  if (name == "smoke") {
    return kSmoke;
  }
  throw SpecError("unknown builtin sweep '" + name +
                  "' (known: default, smoke)");
}

long Point::get_long(const std::string& axis, long fallback) const {
  const auto it = axes.find(axis);
  if (it == axes.end()) {
    return fallback;
  }
  if (const long* l = std::get_if<long>(&it->second)) {
    return *l;
  }
  throw SpecError("axis '" + axis + "' of " + id + " must be an integer");
}

double Point::get_double(const std::string& axis, double fallback) const {
  const auto it = axes.find(axis);
  if (it == axes.end()) {
    return fallback;
  }
  if (const std::optional<double> d = numeric(it->second)) {
    return *d;
  }
  throw SpecError("axis '" + axis + "' of " + id + " must be numeric");
}

std::string Point::get_word(const std::string& axis,
                            const std::string& fallback) const {
  const auto it = axes.find(axis);
  if (it == axes.end()) {
    return fallback;
  }
  return to_string(it->second);
}

std::vector<Point> expand(const SweepSpec& spec, DerivedFn derived,
                          std::size_t* pruned) {
  std::vector<Point> points;
  std::size_t dropped = 0;
  for (const Space& space : spec.spaces) {
    std::set<std::string> wanted;
    for (const Constraint& c : space.constraints) {
      wanted.insert(c.name);
    }
    std::vector<std::size_t> idx(space.axes.size(), 0);
    bool done = space.axes.empty();
    while (!done) {
      Point p;
      p.family = space.family;
      for (std::size_t a = 0; a < space.axes.size(); ++a) {
        p.axes[space.axes[a].name] = space.axes[a].values[idx[a]];
        p.axis_order.push_back(space.axes[a].name);
      }
      std::string id = space.family + "/";
      for (std::size_t a = 0; a < space.axes.size(); ++a) {
        id += (a == 0 ? "" : ",") + space.axes[a].name + "=" +
              to_string(p.axes[space.axes[a].name]);
      }
      p.id = std::move(id);

      const std::map<std::string, AxisValue> extra =
          derived != nullptr ? derived(space.family, p.axes, wanted)
                             : std::map<std::string, AxisValue>{};
      bool admitted = true;
      for (const Constraint& c : space.constraints) {
        admitted = admitted && c.admits(p.axes, extra);
      }
      if (admitted) {
        points.push_back(std::move(p));
      } else {
        ++dropped;
      }

      // Odometer increment, last axis fastest.
      std::size_t a = space.axes.size();
      while (a > 0) {
        --a;
        if (++idx[a] < space.axes[a].values.size()) {
          break;
        }
        idx[a] = 0;
        if (a == 0) {
          done = true;
        }
      }
    }
  }
  if (pruned != nullptr) {
    *pruned = dropped;
  }
  return points;
}

}  // namespace multival::dse
