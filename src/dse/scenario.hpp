// Instantiation of design points: each point of a family expands into
//   - gate models: the process programs the analyze lint must pass before
//     any state space is generated (the pre-sweep gate), and
//   - probes: serve-tier requests (verb + arg + .aut/.imc payload) whose
//     results are folded into the point's metric vector.
//
// Families and axes (unset axes take the listed defaults):
//
//   noc      width=2 height=2 buffer=1 src=0 dst=nodes-1
//            inject_rate=4.0 link_rate=2.0 eject_rate=4.0
//            derived: nodes = width*height
//            probes:  latency    = bounds(single-packet IMC), midpoint
//                     throughput = throughput(stream IMC, uniform:LO*)
//
//   fame     protocol=msi topology=bus mpi=eager rounds=1 base_rate=1.0
//            probes:  latency    = bounds(ping-pong IMC), midpoint / rounds
//                     throughput = rounds / total time (derived)
//
//   xstream  capacity=2 items=capacity push_rate=1.0 net_rate=10.0
//            credit_rate=10.0 pop_rate=2.0
//            probes:  latency    = bounds(drain-scenario IMC) / items
//                     throughput = throughput(virtual-queue IMC, POP*)
//
//   xmas     fabric=credit-loop capacity=2 items=capacity inject_rate=1.0
//            service_rate=2.0 transfer_rate=10.0
//            fabric in {credit-loop, vc-pair, mesh2} (builtin_fabric);
//            instantiation is gated on analyze::lint_netlist (MV03x), so a
//            structurally deadlocked fabric is rejected with zero states
//            derived: queues = payload queues in the fabric
//            probes:  latency    = bounds(burst compile, items tokens)/items
//                     throughput = throughput(free-running compile,
//                                  uniform glob over the sink gates)
//
// All families derive occupancy by Little's law (latency x throughput) and
// report the total payload state count as the model-complexity metric.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "compose/plan.hpp"
#include "dse/grid.hpp"
#include "proc/process.hpp"
#include "serve/protocol.hpp"

namespace multival::dse {

/// One model the analyze lint gates before the point may be solved.
struct GateModel {
  std::string name;  ///< e.g. "noc/single-packet"
  proc::Program program;
  std::string entry;
};

/// One serve-tier request derived from a point.
struct Probe {
  std::string name;  ///< "latency" | "throughput"
  serve::Verb verb = serve::Verb::kBounds;
  std::string arg;
  std::string payload;        ///< extended-.aut IMC text
  std::size_t imc_states = 0; ///< payload size before closure
};

struct Instantiated {
  /// Lint input only: run_sweep clears it once the point is linted.
  std::vector<GateModel> gates;
  std::vector<Probe> probes;
  std::size_t model_states = 0;  ///< sum of probe payload state counts
};

/// The metric vector every family produces (see pareto.hpp for objectives).
struct Metrics {
  double latency = 0.0;     ///< expected end-to-end time (midpoint of bounds)
  double latency_width = 0.0;  ///< certified scheduler-interval width
  double throughput = 0.0;
  double occupancy = 0.0;   ///< Little's law: latency * throughput
  double states = 0.0;      ///< payload state count (model complexity)
};

/// Derived quantities available to constraints (grid.hpp expand()):
/// "nodes" (noc), "queues" (xmas) and, for every family,
/// "predicted_states", the static bound of the point's primary gate model.
[[nodiscard]] std::map<std::string, AxisValue> derived_quantities(
    const std::string& family, const std::map<std::string, AxisValue>& axes);

/// The same, except that "predicted_states" is computed only when
/// @p wanted names it: the bound analysis costs milliseconds per point,
/// the other quantities next to nothing.  expand() passes the names its
/// space's constraints use.
[[nodiscard]] std::map<std::string, AxisValue> derived_quantities(
    const std::string& family, const std::map<std::string, AxisValue>& axes,
    const std::set<std::string>& wanted);

/// True for the supported families ("noc", "fame", "xstream", "xmas").
[[nodiscard]] bool known_family(const std::string& family);

/// "unknown family '<family>' (known: noc, fame, xstream, xmas)", the text
/// of the SpecError that run_sweep and instantiate throw.
[[nodiscard]] std::string unknown_family_message(const std::string& family);

/// Builds gate models and probes for @p point.  Throws SpecError on an
/// unknown family, unknown axis, or an axis value outside the generator's
/// documented range.  The probe payload LTSs are built with @p strategy
/// (planned generate–minimise–compose by default; kFlat is the monolithic
/// baseline) and, when @p cache is non-null, share its minimisation/subtree
/// entries across the sweep's points.
[[nodiscard]] Instantiated instantiate(
    const Point& point,
    compose::Strategy strategy = compose::Strategy::kPlanned,
    compose::MinimizeCache* cache = nullptr);

/// Folds the solved probe bodies (keyed by probe name) into the metric
/// vector.  Throws std::runtime_error when a body does not parse.
[[nodiscard]] Metrics derive_metrics(
    const Point& point, const Instantiated& inst,
    const std::map<std::string, std::string>& bodies);

/// Body parsers for the serve result grammar (exposed for tests):
/// "reach in [a, b]; time in [c, d]" and "throughput(glob) = v".
[[nodiscard]] std::pair<double, double> parse_time_bounds(
    const std::string& body);
[[nodiscard]] double parse_throughput(const std::string& body);

}  // namespace multival::dse
