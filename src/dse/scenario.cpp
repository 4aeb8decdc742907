#include "dse/scenario.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analyze/analyze.hpp"
#include "analyze/bounds.hpp"
#include "core/flow.hpp"
#include "fame/mpi.hpp"
#include "fame/topology.hpp"
#include "imc/imc_io.hpp"
#include "noc/mesh.hpp"
#include "noc/perf.hpp"
#include "proc/generator.hpp"
#include "xmas/compile.hpp"
#include "xmas/netlist.hpp"
#include "xstream/queue_model.hpp"

namespace multival::dse {

namespace {

/// Rejects axes the family does not define, so a typo in a spec fails the
/// whole sweep loudly instead of silently sweeping a default.
void check_axes(const Point& p, const std::set<std::string>& known) {
  for (const auto& [name, value] : p.axes) {
    if (known.count(name) == 0) {
      std::string hint;
      for (const std::string& k : known) {
        hint += (hint.empty() ? "" : ", ") + k;
      }
      throw SpecError("point " + p.id + ": family '" + p.family +
                      "' has no axis '" + name + "' (known: " + hint + ")");
    }
  }
}

void check_range(const Point& p, const std::string& axis, long v, long lo,
                 long hi) {
  if (v < lo || v > hi) {
    throw SpecError("point " + p.id + ": " + axis + "=" + std::to_string(v) +
                    " outside " + std::to_string(lo) + ".." +
                    std::to_string(hi));
  }
}

Probe imc_probe(std::string name, serve::Verb verb, std::string arg,
                const imc::Imc& m) {
  Probe probe;
  probe.name = std::move(name);
  probe.verb = verb;
  probe.arg = std::move(arg);
  probe.payload = imc::to_aut(m);
  probe.imc_states = m.num_states();
  return probe;
}

Instantiated instantiate_noc(const Point& p, compose::Strategy strategy,
                             compose::MinimizeCache* cache) {
  check_axes(p, {"width", "height", "buffer", "src", "dst", "inject_rate",
                 "link_rate", "eject_rate"});
  noc::MeshDims dims;
  dims.width = static_cast<int>(p.get_long("width", 2));
  dims.height = static_cast<int>(p.get_long("height", 2));
  dims.buffer_depth = static_cast<int>(p.get_long("buffer", 1));
  check_range(p, "width", dims.width, 2, 4);
  check_range(p, "height", dims.height, 2, 4);
  check_range(p, "buffer", dims.buffer_depth, 1, 3);
  const int src = static_cast<int>(p.get_long("src", 0));
  const int dst =
      static_cast<int>(p.get_long("dst", static_cast<long>(dims.nodes() - 1)));
  check_range(p, "src", src, 0, dims.nodes() - 1);
  check_range(p, "dst", dst, 0, dims.nodes() - 1);
  if (src == dst) {
    throw SpecError("point " + p.id + ": src == dst");
  }
  noc::NocRates rates;
  rates.inject_rate = p.get_double("inject_rate", rates.inject_rate);
  rates.link_rate = p.get_double("link_rate", rates.link_rate);
  rates.eject_rate = p.get_double("eject_rate", rates.eject_rate);

  const auto packet = std::make_shared<const proc::Program>(
      noc::single_packet_program(src, dst, /*hide_links=*/false, dims));
  const auto stream = std::make_shared<const proc::Program>(
      noc::stream_program({noc::Flow{src, dst}}, /*hide_links=*/false, dims));
  Instantiated inst;
  inst.gates.push_back({"noc/single-packet", *packet, "Scenario"});
  inst.gates.push_back({"noc/stream", *stream, "Scenario"});

  const std::map<std::string, double> table = noc::rate_table(rates, dims);
  inst.probes.push_back(imc_probe(
      "latency", serve::Verb::kBounds, "",
      core::decorate_with_rates(
          compose::pipeline_lts(packet, "Scenario", strategy, {}, cache),
          table)));
  // Arbitration races (two packets for one output port) are resolved
  // uniformly, matching noc::delivery_throughput.
  inst.probes.push_back(imc_probe(
      "throughput", serve::Verb::kThroughput, "uniform:LO*",
      core::decorate_with_rates(
          compose::pipeline_lts(stream, "Scenario", strategy, {}, cache),
          table)));
  return inst;
}

Instantiated instantiate_fame(const Point& p, compose::Strategy strategy,
                              compose::MinimizeCache* cache) {
  check_axes(p, {"protocol", "topology", "mpi", "rounds", "base_rate"});
  fame::PingPongConfig config;
  const std::string protocol = p.get_word("protocol", "msi");
  if (protocol == "msi") {
    config.protocol = fame::Protocol::kMsi;
  } else if (protocol == "mesi") {
    config.protocol = fame::Protocol::kMesi;
  } else {
    throw SpecError("point " + p.id + ": unknown protocol '" + protocol + "'");
  }
  const std::string topology = p.get_word("topology", "bus");
  if (topology == "bus") {
    config.topology = fame::Topology::kBus;
  } else if (topology == "ring") {
    config.topology = fame::Topology::kRing;
  } else if (topology == "crossbar") {
    config.topology = fame::Topology::kCrossbar;
  } else {
    throw SpecError("point " + p.id + ": unknown topology '" + topology + "'");
  }
  const std::string impl = p.get_word("mpi", "eager");
  if (impl == "eager") {
    config.impl = fame::MpiImpl::kEager;
  } else if (impl == "rendezvous") {
    config.impl = fame::MpiImpl::kRendezvous;
  } else {
    throw SpecError("point " + p.id + ": unknown mpi mode '" + impl + "'");
  }
  config.rounds = static_cast<int>(p.get_long("rounds", 1));
  check_range(p, "rounds", config.rounds, 1, 8);
  config.base_rate = p.get_double("base_rate", 1.0);
  if (!(config.base_rate > 0.0)) {
    throw SpecError("point " + p.id + ": base_rate must be > 0");
  }

  const auto pingpong =
      std::make_shared<const proc::Program>(fame::pingpong_program(config));
  Instantiated inst;
  inst.gates.push_back({"fame/ping-pong", *pingpong, "PingPong"});
  const auto rates = fame::topology_rates(config.topology, {"M", "S0", "S1"},
                                          config.base_rate);
  inst.probes.push_back(imc_probe(
      "latency", serve::Verb::kBounds, "",
      core::decorate_with_rates(
          compose::pipeline_lts(pingpong, "PingPong", strategy, {}, cache),
          rates)));
  return inst;
}

Instantiated instantiate_xstream(const Point& p, compose::Strategy strategy,
                                 compose::MinimizeCache* cache) {
  check_axes(p, {"capacity", "items", "push_rate", "net_rate", "credit_rate",
                 "pop_rate"});
  xstream::QueueConfig cfg;
  cfg.capacity = static_cast<int>(p.get_long("capacity", 2));
  cfg.max_value = 0;  // payload values do not influence timing
  check_range(p, "capacity", cfg.capacity, 1, 4);
  const int items =
      static_cast<int>(p.get_long("items", static_cast<long>(cfg.capacity)));
  check_range(p, "items", items, 1, 8);
  const std::map<std::string, double> rates = {
      {"PUSH", p.get_double("push_rate", 1.0)},
      {"NET", p.get_double("net_rate", 10.0)},
      {"CREDIT", p.get_double("credit_rate", 10.0)},
      {"POP", p.get_double("pop_rate", 2.0)}};
  for (const auto& [gate, rate] : rates) {
    if (!(rate > 0.0)) {
      throw SpecError("point " + p.id + ": rate of " + gate + " must be > 0");
    }
  }

  const proc::Program queue = xstream::virtual_queue_program(cfg);
  const auto drain = std::make_shared<const proc::Program>(
      xstream::drain_scenario_program(cfg, items));
  Instantiated inst;
  inst.gates.push_back({"xstream/virtual-queue", queue, "VirtualQueue"});
  inst.gates.push_back({"xstream/drain", *drain, "DrainScenario"});
  inst.probes.push_back(imc_probe(
      "latency", serve::Verb::kBounds, "",
      core::decorate_with_rates(
          compose::pipeline_lts(drain, "DrainScenario", strategy, {}, cache),
          rates)));
  // The continuous-queue throughput sub-model does not depend on the
  // 'items' axis: points differing only in items share this payload, and
  // the sweep must solve it exactly once (content-addressed cache).
  inst.probes.push_back(imc_probe(
      "throughput", serve::Verb::kThroughput, "POP*",
      core::decorate_with_rates(
          proc::generate(queue, "VirtualQueue"), rates)));
  return inst;
}

Instantiated instantiate_xmas(const Point& p, compose::Strategy strategy,
                              compose::MinimizeCache* cache) {
  check_axes(p, {"fabric", "capacity", "items", "inject_rate", "service_rate",
                 "transfer_rate"});
  const std::string fabric = p.get_word("fabric", "credit-loop");
  const int capacity = static_cast<int>(p.get_long("capacity", 2));
  check_range(p, "capacity", capacity, 1, 4);
  const int items =
      static_cast<int>(p.get_long("items", static_cast<long>(capacity)));
  check_range(p, "items", items, 1, 8);
  const double inject = p.get_double("inject_rate", 1.0);
  const double service = p.get_double("service_rate", 2.0);
  const double transfer = p.get_double("transfer_rate", 10.0);
  for (const auto& [axis, rate] : std::map<std::string, double>{
           {"inject_rate", inject},
           {"service_rate", service},
           {"transfer_rate", transfer}}) {
    if (!(rate > 0.0)) {
      throw SpecError("point " + p.id + ": " + axis + " must be > 0");
    }
  }

  xmas::Netlist net;
  try {
    net = xmas::builtin_fabric(fabric, capacity);
  } catch (const std::invalid_argument& e) {
    throw SpecError("point " + p.id + ": " + e.what());
  }
  // The netlist-level gate: a structurally deadlocked fabric (MV031 etc.)
  // never reaches compilation, let alone the solvers — zero states spent.
  const analyze::Analysis lint = analyze::lint_netlist(net);
  if (!lint.clean()) {
    std::string first;
    for (const core::Diagnostic& d : lint.diagnostics) {
      if (d.severity == core::Severity::kError) {
        first = d.to_text();
        break;
      }
    }
    throw SpecError("point " + p.id + ": fabric '" + fabric +
                    "' fails xMAS lint: " + first);
  }

  const xmas::Compiled steady = xmas::compile(net);
  xmas::CompileOptions burst_opts;
  burst_opts.burst = items;
  const xmas::Compiled burst = xmas::compile(net, burst_opts);
  const std::map<std::string, double> rates =
      xmas::rate_table(steady, inject, service, transfer);

  Instantiated inst;
  inst.gates.push_back(
      {"xmas/" + fabric + "/burst", *burst.program, burst.entry});
  inst.gates.push_back(
      {"xmas/" + fabric + "/steady", *steady.program, steady.entry});

  // Every gate is decorated (sources inject, sinks service, fabric-internal
  // transfers), so the closed model has no residual interactive
  // nondeterminism to schedule away.
  inst.probes.push_back(imc_probe(
      "latency", serve::Verb::kBounds, "",
      core::decorate_with_rates(
          xmas::compiled_lts(burst, strategy, {}, cache), rates)));
  inst.probes.push_back(imc_probe(
      "throughput", serve::Verb::kThroughput,
      std::string("uniform:").append(xmas::sink_glob(steady)),
      core::decorate_with_rates(
          xmas::compiled_lts(steady, strategy, {}, cache), rates)));
  return inst;
}

using Instantiate = Instantiated (*)(const Point&, compose::Strategy,
                                     compose::MinimizeCache*);

/// The supported families, in the order error messages name them.
constexpr std::array<std::pair<std::string_view, Instantiate>, 4> kFamilies{{
    {"noc", &instantiate_noc},
    {"fame", &instantiate_fame},
    {"xstream", &instantiate_xstream},
    {"xmas", &instantiate_xmas},
}};

Instantiate find_family(const std::string& family) {
  const auto it =
      std::find_if(kFamilies.begin(), kFamilies.end(),
                   [&family](const auto& f) { return f.first == family; });
  return it == kFamilies.end() ? nullptr : it->second;
}

}  // namespace

std::map<std::string, AxisValue> derived_quantities(
    const std::string& family, const std::map<std::string, AxisValue>& axes) {
  return derived_quantities(family, axes, {"predicted_states"});
}

std::map<std::string, AxisValue> derived_quantities(
    const std::string& family, const std::map<std::string, AxisValue>& axes,
    const std::set<std::string>& wanted) {
  std::map<std::string, AxisValue> d;
  const auto axis_long = [&axes](const char* key, long dflt) {
    if (const auto it = axes.find(key); it != axes.end()) {
      if (const long* l = std::get_if<long>(&it->second)) {
        return *l;
      }
    }
    return dflt;
  };
  const auto axis_word = [&axes](const char* key, const char* dflt) {
    if (const auto it = axes.find(key); it != axes.end()) {
      if (const std::string* w = std::get_if<std::string>(&it->second)) {
        return *w;
      }
    }
    return std::string(dflt);
  };
  if (family == "noc") {
    d["nodes"] = axis_long("width", 2) * axis_long("height", 2);
  } else if (family == "xmas") {
    long queues = 0;
    try {
      const xmas::Netlist fab =
          xmas::builtin_fabric(axis_word("fabric", "credit-loop"));
      for (const auto& e : fab.elements()) {
        if (e.kind == xmas::PrimitiveKind::kQueue) ++queues;
      }
    } catch (const std::invalid_argument&) {
      // unknown fabric: instantiate() reports it with a proper SpecError
    }
    d["queues"] = queues;
  }
  if (!wanted.contains("predicted_states")) {
    return d;
  }
  // "predicted_states": the static bound of the point's primary gate model
  // (analyze::predicted_bounds — interval abstract interpretation, zero
  // states generated), so a spec can prune points *before* instantiation
  // with e.g. "predicted_states <= 100000".  Saturates to LONG_MAX when the
  // analysis proves a standalone counter unbounded (the xstream drain) or
  // the product overflows; out-of-range axes are left for instantiate() to
  // report, so this never throws.
  const auto predict = [&d](const std::uint64_t states) {
    constexpr auto kLongMax = std::numeric_limits<long>::max();
    d["predicted_states"] =
        states > static_cast<std::uint64_t>(kLongMax)
            ? kLongMax
            : static_cast<long>(states);
  };
  try {
    if (family == "noc") {
      noc::MeshDims dims;
      dims.width = static_cast<int>(axis_long("width", 2));
      dims.height = static_cast<int>(axis_long("height", 2));
      dims.buffer_depth = static_cast<int>(axis_long("buffer", 1));
      const int src = static_cast<int>(axis_long("src", 0));
      const int dst = static_cast<int>(
          axis_long("dst", static_cast<long>(dims.nodes() - 1)));
      const proc::Program p =
          noc::single_packet_program(src, dst, /*hide_links=*/false, dims);
      predict(analyze::predicted_states(p, proc::call("Scenario")));
    } else if (family == "fame") {
      // The program depends on protocol, mpi and rounds, read as
      // instantiate_fame reads them; topology and base_rate only set rates.
      fame::PingPongConfig config;
      config.protocol = axis_word("protocol", "msi") == "mesi"
                            ? fame::Protocol::kMesi
                            : fame::Protocol::kMsi;
      config.impl = axis_word("mpi", "eager") == "rendezvous"
                        ? fame::MpiImpl::kRendezvous
                        : fame::MpiImpl::kEager;
      config.rounds = static_cast<int>(axis_long("rounds", 1));
      const proc::Program p = fame::pingpong_program(config);
      predict(analyze::predicted_states(p, proc::call("PingPong")));
    } else if (family == "xstream") {
      xstream::QueueConfig cfg;
      cfg.capacity = static_cast<int>(axis_long("capacity", 2));
      cfg.max_value = 0;
      const int items = static_cast<int>(
          axis_long("items", static_cast<long>(cfg.capacity)));
      const proc::Program p = xstream::drain_scenario_program(cfg, items);
      predict(analyze::predicted_states(p, proc::call("DrainScenario")));
    } else if (family == "xmas") {
      const xmas::Netlist fab =
          xmas::builtin_fabric(axis_word("fabric", "credit-loop"),
                               static_cast<int>(axis_long("capacity", 2)));
      predict(analyze::predicted_states(fab));
    }
  } catch (const std::exception&) {
    // Bad axis combination: no predicted_states entry; instantiate() will
    // reject the point with a proper SpecError if it survives pruning.
  }
  return d;
}

bool known_family(const std::string& family) {
  return find_family(family) != nullptr;
}

std::string unknown_family_message(const std::string& family) {
  std::string known;
  for (const auto& f : kFamilies) {
    known += (known.empty() ? "" : ", ") + std::string(f.first);
  }
  return "unknown family '" + family + "' (known: " + known + ")";
}

Instantiated instantiate(const Point& point, compose::Strategy strategy,
                         compose::MinimizeCache* cache) {
  const Instantiate family = find_family(point.family);
  if (family == nullptr) {
    throw SpecError("point " + point.id + ": " +
                    unknown_family_message(point.family));
  }
  Instantiated inst = family(point, strategy, cache);
  for (const Probe& probe : inst.probes) {
    inst.model_states += probe.imc_states;
  }
  return inst;
}

std::pair<double, double> parse_time_bounds(const std::string& body) {
  const std::string marker = "time in [";
  const std::size_t at = body.find(marker);
  if (at == std::string::npos) {
    throw std::runtime_error("no time bounds in '" + body + "'");
  }
  std::size_t pos = at + marker.size();
  const auto take = [&]() {
    std::size_t used = 0;
    const double v = std::stod(body.substr(pos), &used);
    pos += used;
    return v;
  };
  try {
    const double lo = take();
    pos = body.find(',', pos);
    if (pos == std::string::npos) {
      throw std::runtime_error("comma");
    }
    ++pos;
    const double hi = take();
    return {lo, hi};
  } catch (const std::exception&) {
    throw std::runtime_error("malformed time bounds in '" + body + "'");
  }
}

double parse_throughput(const std::string& body) {
  const std::size_t eq = body.rfind('=');
  if (eq == std::string::npos) {
    throw std::runtime_error("no throughput value in '" + body + "'");
  }
  try {
    std::size_t used = 0;
    const std::string tail = body.substr(eq + 1);
    const double v = std::stod(tail, &used);
    (void)used;
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("malformed throughput in '" + body + "'");
  }
}

Metrics derive_metrics(const Point& point, const Instantiated& inst,
                       const std::map<std::string, std::string>& bodies) {
  const auto body = [&](const std::string& name) -> const std::string& {
    const auto it = bodies.find(name);
    if (it == bodies.end()) {
      throw std::runtime_error("point " + point.id + ": probe '" + name +
                               "' has no result");
    }
    return it->second;
  };
  Metrics m;
  m.states = static_cast<double>(inst.model_states);
  const auto [lo, hi] = parse_time_bounds(body("latency"));
  double total = 0.5 * (lo + hi);
  m.latency_width = hi - lo;
  if (point.family == "fame") {
    // One serve probe: per-round latency and the round rate both derive
    // from the served total ping-pong time.
    const double rounds = static_cast<double>(point.get_long("rounds", 1));
    m.latency = total / rounds;
    m.throughput = total > 0.0 ? rounds / total : 0.0;
  } else if (point.family == "xstream" || point.family == "xmas") {
    const long capacity = point.get_long("capacity", 2);
    const double items =
        static_cast<double>(point.get_long("items", capacity));
    m.latency = total / items;  // per-item transfer time under saturation
    m.throughput = parse_throughput(body("throughput"));
  } else {
    m.latency = total;
    m.throughput = parse_throughput(body("throughput"));
  }
  m.occupancy = m.latency * m.throughput;
  return m;
}

}  // namespace multival::dse
