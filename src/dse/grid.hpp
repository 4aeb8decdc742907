// Parameterised design spaces for the DSE orchestrator (src/dse).
//
// A sweep spec declares one or more *spaces*; each space names a generator
// family ("noc", "fame", "xstream", "xmas") and a typed grid of axes.  An axis is a
// name plus an explicit list of values (integers, reals or enumeration
// words); the grid is the cross product of its axes, pruned by constraint
// predicates.  Expansion order is deterministic: axes vary in declaration
// order with the last axis fastest, so a spec always enumerates the same
// points with the same ids regardless of thread count or platform.
//
// The declarative text format, one directive per line ('#' comments):
//
//   sweep <name>                       optional sweep title
//   objective <metric> <min|max>       optional; defaults in pareto.hpp
//   space <family>
//     axis <name> = v1, v2, ...
//     constraint <name> <op> <value>   op in <= >= < > == !=
//   end
//
// Constraint names refer to axes of the enclosing space or to derived
// quantities the family defines (e.g. "nodes" = width*height for noc).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace multival::dse {

/// Malformed sweep spec (parse error, unknown axis/op, bad value...).
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One axis value: integer, real or enumeration word.  Integers and reals
/// are deliberately distinct types — "2" configures a width, "2.0" a rate —
/// and render back exactly as written.
using AxisValue = std::variant<long, double, std::string>;

/// Parses "3" -> long, "3.5" -> double, anything else -> string.
[[nodiscard]] AxisValue parse_axis_value(const std::string& text);

/// Canonical rendering (longs as decimal, doubles round-trip, words raw).
[[nodiscard]] std::string to_string(const AxisValue& v);

/// Numeric view: longs and doubles convert, words do not.
[[nodiscard]] std::optional<double> numeric(const AxisValue& v);

struct Axis {
  std::string name;
  std::vector<AxisValue> values;  ///< at least one; duplicates rejected
};

enum class ConstraintOp { kLe, kGe, kLt, kGt, kEq, kNe };

[[nodiscard]] const char* to_string(ConstraintOp op);
[[nodiscard]] ConstraintOp parse_constraint_op(const std::string& text);

/// `name op value`, evaluated per candidate point.  Numeric comparison when
/// both sides are numeric; otherwise string equality (== / != only).
struct Constraint {
  std::string name;
  ConstraintOp op = ConstraintOp::kLe;
  AxisValue value;

  /// True when the point satisfies the predicate.  @p derived supplies
  /// quantities that are not axes (family-specific, may return nullopt).
  [[nodiscard]] bool admits(
      const std::map<std::string, AxisValue>& point,
      const std::map<std::string, AxisValue>& derived) const;
};

/// One design space: a generator family plus its grid.
struct Space {
  std::string family;  ///< "noc" | "fame" | "xstream" | "xmas"
  std::vector<Axis> axes;
  std::vector<Constraint> constraints;

  /// Cross-product size before pruning.
  [[nodiscard]] std::size_t raw_size() const;
};

/// One concrete design point: the family, the axis assignment, and a stable
/// human-readable id ("noc/width=2,height=3,buffer=1").
struct Point {
  std::string id;
  std::string family;
  std::map<std::string, AxisValue> axes;
  std::vector<std::string> axis_order;  ///< declaration order, for rendering

  [[nodiscard]] long get_long(const std::string& axis, long fallback) const;
  [[nodiscard]] double get_double(const std::string& axis,
                                  double fallback) const;
  [[nodiscard]] std::string get_word(const std::string& axis,
                                     const std::string& fallback) const;
};

struct SweepSpec {
  std::string name = "sweep";
  std::vector<Space> spaces;
  /// Metric/direction overrides; empty = pareto.hpp defaults.
  std::vector<std::pair<std::string, bool>> objectives;  ///< (metric, maximise)
};

/// Parses the declarative text format above.  Throws SpecError with a
/// "line N: ..." message on malformed input.
[[nodiscard]] SweepSpec parse_sweep_spec(const std::string& text);

/// The shipped sweeps: "default" (the ≥24-point noc+fame+xstream+xmas grid
/// of EXPERIMENTS.md D1) and "smoke" (a small subset for CI).
[[nodiscard]] const std::string& builtin_sweep_spec(const std::string& name);

/// Expands every space of @p spec into points, in declaration order, with
/// the last axis varying fastest, dropping points any constraint rejects.
/// @p derived computes family-specific derived quantities for constraint
/// evaluation (see scenario.hpp); it is handed the names the space's
/// constraints use, so it may skip a quantity none of them asks for.
/// @p pruned (optional) receives the number of points removed by
/// constraints.
using DerivedFn = std::map<std::string, AxisValue> (*)(
    const std::string& family, const std::map<std::string, AxisValue>& axes,
    const std::set<std::string>& wanted);
[[nodiscard]] std::vector<Point> expand(const SweepSpec& spec,
                                        DerivedFn derived,
                                        std::size_t* pruned = nullptr);

}  // namespace multival::dse
