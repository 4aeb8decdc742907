// Tests for the src/dse subsystem: sweep-spec parsing, deterministic grid
// expansion with constraint pruning, Pareto non-dominated sorting, and the
// end-to-end orchestrator (gate -> serve -> metrics -> fronts), including
// the determinism contract: identical JSON across worker counts and
// backends, and the same error whichever worker meets it first.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analyze/bounds.hpp"
#include "core/hash.hpp"
#include "core/report.hpp"
#include "dse/driver.hpp"
#include "dse/grid.hpp"
#include "dse/pareto.hpp"
#include "dse/scenario.hpp"
#include "fame/mpi.hpp"
#include "proc/process.hpp"
#include "serve/server.hpp"

namespace {

using namespace multival;

// --- grid: parsing -------------------------------------------------------

TEST(DseGrid, ParsesSpacesAxesAndConstraints) {
  const dse::SweepSpec spec = dse::parse_sweep_spec(
      "# comment\n"
      "sweep demo\n"
      "objective latency min\n"
      "objective states min\n"
      "space noc\n"
      "  axis width = 2, 3\n"
      "  axis height = 2\n"
      "  constraint nodes <= 6\n"
      "end\n");
  EXPECT_EQ(spec.name, "demo");
  ASSERT_EQ(spec.spaces.size(), 1u);
  EXPECT_EQ(spec.spaces[0].family, "noc");
  ASSERT_EQ(spec.spaces[0].axes.size(), 2u);
  EXPECT_EQ(spec.spaces[0].axes[0].name, "width");
  EXPECT_EQ(spec.spaces[0].axes[0].values.size(), 2u);
  ASSERT_EQ(spec.spaces[0].constraints.size(), 1u);
  EXPECT_EQ(spec.spaces[0].constraints[0].name, "nodes");
  ASSERT_EQ(spec.objectives.size(), 2u);
  EXPECT_EQ(spec.objectives[0].first, "latency");
  EXPECT_FALSE(spec.objectives[0].second);
  EXPECT_EQ(spec.spaces[0].raw_size(), 2u);
}

TEST(DseGrid, ParseErrorsCarryLineNumbers) {
  try {
    (void)dse::parse_sweep_spec("sweep x\nspace noc\n  axis = 1\nend\n");
    FAIL() << "expected SpecError";
  } catch (const dse::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)dse::parse_sweep_spec("axis w = 1\n"), dse::SpecError);
  EXPECT_THROW((void)dse::parse_sweep_spec("space noc\n"), dse::SpecError);
  EXPECT_THROW(
      (void)dse::parse_sweep_spec("space noc\naxis w = 1, 1\nend\n"),
      dse::SpecError);
  EXPECT_THROW(
      (void)dse::parse_sweep_spec("space noc\nconstraint w ~ 3\nend\n"),
      dse::SpecError);
}

TEST(DseGrid, AxisValuesKeepTheirType) {
  EXPECT_TRUE(std::holds_alternative<long>(dse::parse_axis_value("2")));
  EXPECT_TRUE(std::holds_alternative<double>(dse::parse_axis_value("2.0")));
  EXPECT_TRUE(
      std::holds_alternative<std::string>(dse::parse_axis_value("mesi")));
  EXPECT_EQ(dse::to_string(dse::parse_axis_value("2")), "2");
  EXPECT_EQ(dse::to_string(dse::parse_axis_value("mesi")), "mesi");
}

TEST(DseGrid, OutOfRangeNumericAxisValueIsRejectedNotDemotedToWord) {
  // "1e999" parses as a number but overflows double; it must be rejected,
  // not silently enumerated as a *string* axis value.
  EXPECT_THROW((void)dse::parse_axis_value("1e999"), dse::SpecError);
  try {
    (void)dse::parse_sweep_spec(
        "space noc\n"
        "  axis width = 2, 1e999\n"
        "end\n");
    FAIL() << "expected SpecError";
  } catch (const dse::SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
}

// --- grid: expansion -----------------------------------------------------

TEST(DseGrid, ExpansionOrderIsLastAxisFastest) {
  const dse::SweepSpec spec = dse::parse_sweep_spec(
      "space xstream\n"
      "  axis capacity = 1, 2\n"
      "  axis items = 1, 2\n"
      "end\n");
  const std::vector<dse::Point> pts =
      dse::expand(spec, dse::derived_quantities);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].id, "xstream/capacity=1,items=1");
  EXPECT_EQ(pts[1].id, "xstream/capacity=1,items=2");
  EXPECT_EQ(pts[2].id, "xstream/capacity=2,items=1");
  EXPECT_EQ(pts[3].id, "xstream/capacity=2,items=2");
  EXPECT_EQ(pts[0].get_long("capacity", -1), 1);
  EXPECT_EQ(pts[3].get_long("items", -1), 2);
}

TEST(DseGrid, ConstraintsPruneOnAxesAndDerivedQuantities) {
  const dse::SweepSpec spec = dse::parse_sweep_spec(
      "space noc\n"
      "  axis width = 2, 3\n"
      "  axis height = 2, 3\n"
      "  constraint nodes <= 6\n"  // derived: width * height
      "end\n");
  std::size_t pruned = 0;
  const std::vector<dse::Point> pts =
      dse::expand(spec, dse::derived_quantities, &pruned);
  EXPECT_EQ(pts.size(), 3u);  // 3x3 = 9 nodes is pruned
  EXPECT_EQ(pruned, 1u);
  for (const dse::Point& p : pts) {
    EXPECT_LE(p.get_long("width", 0) * p.get_long("height", 0), 6);
  }
}

TEST(DseGrid, PredictedStatesConstraintPrunesBeforeInstantiation) {
  // "predicted_states" is the static bound of the point's gate model
  // (analyze/bounds — no state is ever generated): capacity-4 builtin
  // fabrics predict more queue states than capacity-1 ones, so a tight
  // budget prunes the expensive corners of the grid up front.
  const dse::SweepSpec open_spec = dse::parse_sweep_spec(
      "space xmas\n"
      "  axis fabric = vc-pair\n"
      "  axis capacity = 1, 4\n"
      "end\n");
  const std::vector<dse::Point> all =
      dse::expand(open_spec, dse::derived_quantities);
  ASSERT_EQ(all.size(), 2u);
  const auto predicted = [](const dse::Point& p) {
    return std::get<long>(
        dse::derived_quantities(p.family, p.axes).at("predicted_states"));
  };
  const long small = predicted(all[0]);
  const long big = predicted(all[1]);
  ASSERT_GT(small, 0);
  ASSERT_GT(big, small);

  const dse::SweepSpec capped = dse::parse_sweep_spec(
      "space xmas\n"
      "  axis fabric = vc-pair\n"
      "  axis capacity = 1, 4\n"
      "  constraint predicted_states <= " + std::to_string(small) + "\n"
      "end\n");
  std::size_t pruned = 0;
  const std::vector<dse::Point> kept =
      dse::expand(capped, dse::derived_quantities, &pruned);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(pruned, 1u);
  EXPECT_EQ(kept[0].get_long("capacity", -1), 1);
}

TEST(DseGrid, FamePredictedStatesFollowsProtocolAndMpi) {
  // The fame gate model depends on the mpi axis: a rendezvous point is
  // bounded by the rendezvous program, not by the eager one.
  const std::pair<const char*, fame::Protocol> protocols[] = {
      {"msi", fame::Protocol::kMsi}, {"mesi", fame::Protocol::kMesi}};
  const std::pair<const char*, fame::MpiImpl> impls[] = {
      {"eager", fame::MpiImpl::kEager},
      {"rendezvous", fame::MpiImpl::kRendezvous}};
  for (const auto& [protocol_word, protocol] : protocols) {
    std::vector<long> by_impl;
    for (const auto& [impl_word, impl] : impls) {
      fame::PingPongConfig config;
      config.protocol = protocol;
      config.impl = impl;
      config.rounds = 2;
      const long derived = std::get<long>(
          dse::derived_quantities("fame", {{"protocol", protocol_word},
                                           {"mpi", impl_word},
                                           {"rounds", 2L}})
              .at("predicted_states"));
      EXPECT_EQ(static_cast<std::uint64_t>(derived),
                analyze::predicted_states(fame::pingpong_program(config),
                                          proc::call("PingPong")))
          << protocol_word << "/" << impl_word;
      by_impl.push_back(derived);
    }
    EXPECT_NE(by_impl[0], by_impl[1]) << protocol_word;
  }
}

TEST(DseGrid, PredictedStatesIsDerivedOnlyWhenWanted) {
  // expand() hands derived_quantities the names its constraints use; the
  // bound analysis runs only for "predicted_states", the cheap quantities
  // always.
  const std::map<std::string, dse::AxisValue> noc = {{"width", 3L},
                                                     {"height", 2L}};
  const auto lean = dse::derived_quantities("noc", noc, {"nodes"});
  EXPECT_EQ(std::get<long>(lean.at("nodes")), 6);
  EXPECT_FALSE(lean.contains("predicted_states"));
  const auto full = dse::derived_quantities("noc", noc);
  EXPECT_EQ(std::get<long>(full.at("nodes")), 6);
  EXPECT_GT(std::get<long>(full.at("predicted_states")), 0);
  EXPECT_EQ(dse::derived_quantities("noc", noc, {"predicted_states"}), full);

  const std::map<std::string, dse::AxisValue> xmas = {
      {"fabric", "vc-pair"}, {"capacity", 1L}};
  const auto queues_only = dse::derived_quantities("xmas", xmas, {});
  EXPECT_GT(std::get<long>(queues_only.at("queues")), 0);
  EXPECT_FALSE(queues_only.contains("predicted_states"));
  EXPECT_TRUE(dse::derived_quantities("xmas", xmas).contains(
      "predicted_states"));

  for (const char* family : {"fame", "xstream"}) {
    EXPECT_TRUE(dse::derived_quantities(family, {}, {}).empty()) << family;
    EXPECT_TRUE(
        dse::derived_quantities(family, {}).contains("predicted_states"))
        << family;
  }
}

TEST(DseGrid, WordConstraintsUseStringEquality) {
  const dse::SweepSpec spec = dse::parse_sweep_spec(
      "space fame\n"
      "  axis protocol = msi, mesi\n"
      "  constraint protocol != msi\n"
      "end\n");
  const std::vector<dse::Point> pts =
      dse::expand(spec, dse::derived_quantities);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].get_word("protocol", ""), "mesi");
}

TEST(DseGrid, BuiltinSweepsExpandToTheDocumentedSizes) {
  std::size_t pruned = 0;
  const std::vector<dse::Point> d = dse::expand(
      dse::parse_sweep_spec(dse::builtin_sweep_spec("default")),
      dse::derived_quantities, &pruned);
  EXPECT_EQ(d.size(), 54u);
  EXPECT_EQ(pruned, 4u);
  EXPECT_GE(d.size(), 24u);  // the EXPERIMENTS.md D1 floor

  const std::vector<dse::Point> s = dse::expand(
      dse::parse_sweep_spec(dse::builtin_sweep_spec("smoke")),
      dse::derived_quantities);
  EXPECT_LE(s.size(), 8u);
  EXPECT_THROW((void)dse::builtin_sweep_spec("no-such-sweep"),
               dse::SpecError);
}

// --- scenario ------------------------------------------------------------

TEST(DseScenario, UnknownAxisNamesTheKnownOnes) {
  dse::Point p;
  p.family = "noc";
  p.id = "noc/typo=1";
  p.axes["buffr"] = 1L;
  p.axis_order = {"buffr"};
  try {
    (void)dse::instantiate(p);
    FAIL() << "expected SpecError";
  } catch (const dse::SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("buffr"), std::string::npos) << msg;
    EXPECT_NE(msg.find("buffer"), std::string::npos) << msg;  // the hint
  }
}

TEST(DseScenario, OutOfRangeAxisValueIsRejected) {
  dse::Point p;
  p.family = "noc";
  p.id = "noc/width=9";
  p.axes["width"] = 9L;
  p.axis_order = {"width"};
  EXPECT_THROW((void)dse::instantiate(p), dse::SpecError);
}

TEST(DseScenario, ResponseBodiesParse) {
  const auto [lo, hi] =
      dse::parse_time_bounds("reach in [1, 1]; time in [0.25, 0.75]");
  EXPECT_DOUBLE_EQ(lo, 0.25);
  EXPECT_DOUBLE_EQ(hi, 0.75);
  EXPECT_DOUBLE_EQ(dse::parse_throughput("throughput(POP*) = 1.5"), 1.5);
  EXPECT_THROW((void)dse::parse_time_bounds("gibberish"), std::runtime_error);
}

// --- pareto --------------------------------------------------------------

dse::Metrics make_metrics(double latency, double throughput,
                          std::size_t states) {
  dse::Metrics m;
  m.latency = latency;
  m.latency_width = 0.0;
  m.throughput = throughput;
  m.occupancy = latency * throughput;
  m.states = states;
  return m;
}

TEST(DsePareto, DominationNeedsNoWorseEverywhereStrictlyBetterSomewhere) {
  const std::vector<dse::Objective> obj = {{"latency", false},
                                           {"throughput", true}};
  const dse::Metrics fast = make_metrics(1.0, 2.0, 10);
  const dse::Metrics slow = make_metrics(2.0, 2.0, 10);
  const dse::Metrics tradeoff = make_metrics(0.5, 1.0, 10);
  EXPECT_TRUE(dse::dominates(fast, slow, obj));
  EXPECT_FALSE(dse::dominates(slow, fast, obj));
  EXPECT_FALSE(dse::dominates(fast, fast, obj));  // equal: not strict
  // fast vs tradeoff: each wins one objective -> incomparable.
  EXPECT_FALSE(dse::dominates(fast, tradeoff, obj));
  EXPECT_FALSE(dse::dominates(tradeoff, fast, obj));
}

TEST(DsePareto, NonDominatedSortPeelsFronts) {
  const std::vector<dse::Objective> obj = {{"latency", false},
                                           {"throughput", true}};
  const std::vector<dse::Metrics> pts = {
      make_metrics(1.0, 2.0, 1),  // front 0
      make_metrics(2.0, 3.0, 1),  // front 0 (trade-off with the first)
      make_metrics(2.0, 2.0, 1),  // dominated by both -> front 1
      make_metrics(3.0, 1.0, 1),  // dominated by everything -> front 2
  };
  const std::vector<int> ranks = dse::pareto_ranks(pts, obj);
  EXPECT_EQ(ranks, (std::vector<int>{0, 0, 1, 2}));
}

TEST(DsePareto, ObjectiveOverridesValidate) {
  const std::vector<dse::Objective> defaults = dse::resolve_objectives({});
  ASSERT_EQ(defaults.size(), 4u);
  EXPECT_EQ(defaults[0].metric, "latency");
  const std::vector<dse::Objective> one =
      dse::resolve_objectives({{"states", false}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_THROW((void)dse::resolve_objectives({{"goodness", true}}),
               dse::SpecError);
  EXPECT_THROW(
      (void)dse::resolve_objectives({{"states", false}, {"states", true}}),
      dse::SpecError);
}

// --- driver (end to end, in-process service) -----------------------------

TEST(DseDriver, SmokeSweepEvaluatesEveryPointAndSolvesDistinctKeysOnce) {
  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec("smoke"));
  dse::DriverOptions opts;
  opts.workers = 2;
  const dse::SweepResult r = dse::run_sweep(spec, opts);

  EXPECT_TRUE(r.all_ok());
  EXPECT_FALSE(r.points.empty());
  EXPECT_FALSE(r.front.empty());  // dominance is strict: never empty
  for (const dse::PointResult& p : r.points) {
    EXPECT_EQ(p.status, "ok") << p.point.id;
    EXPECT_GE(p.rank, 0) << p.point.id;
    EXPECT_GT(p.metrics.latency, 0.0) << p.point.id;
    EXPECT_GT(p.metrics.states, 0u) << p.point.id;
    for (const dse::ProbeResult& probe : p.probes) {
      EXPECT_EQ(probe.key.size(), 32u);  // 128-bit hex
      EXPECT_EQ(probe.status, serve::Status::kOk) << p.point.id;
    }
  }

  // The acceptance property: one solve per distinct content hash, all
  // duplicates served by the coalescer/cache, nothing shed.
  ASSERT_TRUE(r.have_service_metrics);
  EXPECT_EQ(r.service.solves, r.distinct_keys);
  EXPECT_EQ(r.service.shed, 0u);
  EXPECT_EQ(r.service.timed_out, 0u);
  EXPECT_EQ(r.service.invalid, 0u);
  // Every distinct probe reaches a numerical solver at least once (a bounds
  // probe logs one SolveStat per inner solve, so >= rather than ==).
  EXPECT_GE(r.solver.solves, r.distinct_keys);
}

TEST(DseDriver, DuplicateProbesAreFlaggedDeterministically) {
  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec("default"));
  const dse::SweepResult r = dse::run_sweep(spec);
  std::set<std::string> seen;
  std::size_t duplicates = 0;
  for (const dse::PointResult& p : r.points) {
    for (const dse::ProbeResult& probe : p.probes) {
      const bool first = seen.insert(probe.key).second;
      EXPECT_EQ(probe.duplicate, !first) << p.point.id << "/" << probe.name;
      duplicates += probe.duplicate ? 1 : 0;
    }
  }
  EXPECT_EQ(seen.size(), r.distinct_keys);
  EXPECT_GT(duplicates, 0u);  // the default sweep shares sub-models
  EXPECT_EQ(seen.size() + duplicates, r.probes_submitted);
}

TEST(DseDriver, JsonIsByteIdenticalAcrossWorkerCounts) {
  for (const char* name : {"smoke", "default"}) {
    const dse::SweepSpec spec =
        dse::parse_sweep_spec(dse::builtin_sweep_spec(name));
    std::string reference;
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
      dse::DriverOptions opts;
      opts.workers = workers;
      const dse::SweepResult r = dse::run_sweep(spec, opts);
      // The pipeline counters are order-independent only while the cache
      // evicts nothing.
      EXPECT_EQ(r.pipeline.evictions, 0u) << name;
      const std::string json = dse::to_json(r, false);
      if (reference.empty()) {
        reference = json;
        // Timing off really drops the scheduling-dependent fields.
        EXPECT_EQ(json.find("_ms"), std::string::npos) << name;
      } else {
        EXPECT_EQ(json, reference) << name << " at -j " << workers;
      }
    }
  }
}

TEST(DseDriver, EveryWorkerCountThrowsTheErrorOfTheLowestFailingPoint) {
  // Point 0 fails on its fabric's lint, after building the fabric; point 1
  // fails at once on an axis range, so a worker may meet it first.  How
  // many of the valid fame points after them run depends on the workers.
  const dse::SweepSpec spec = dse::parse_sweep_spec(
      "sweep two-failures\n"
      "space xmas\n"
      "  axis fabric = credit-loop-deadlock\n"
      "end\n"
      "space noc\n"
      "  axis width = 5\n"
      "end\n"
      "space fame\n"
      "  axis protocol = msi, mesi\n"
      "  axis topology = bus, ring, crossbar\n"
      "end\n");
  std::string reference;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    dse::DriverOptions opts;
    opts.workers = workers;
    try {
      (void)dse::run_sweep(spec, opts);
      ADD_FAILURE() << "expected SpecError at -j " << workers;
    } catch (const dse::SpecError& e) {
      if (reference.empty()) {
        reference = e.what();
        EXPECT_NE(reference.find("credit-loop-deadlock"), std::string::npos)
            << reference;
      } else {
        EXPECT_EQ(e.what(), reference) << "at -j " << workers;
      }
    }
  }
}

TEST(DseDriver, SocketBackendMatchesInProcess) {
  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec("smoke"));
  dse::DriverOptions opts;
  opts.workers = 4;
  const std::string in_process =
      dse::to_json(dse::run_sweep(spec, opts), false);

  const std::string socket_path =
      "/tmp/mvdse_test_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions sopts;
  sopts.endpoint = socket_path;
  sopts.service.workers = 2;
  serve::Server server(sopts);
  std::thread server_thread([&server] { server.run(); });
  opts.socket = socket_path;
  std::string over_socket;
  try {
    over_socket = dse::to_json(dse::run_sweep(spec, opts), false);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  server.stop();
  server_thread.join();

  // The socket backend has no service or solver block: those counters live
  // in the server.  Everything before them is the same.
  const std::size_t service = in_process.find(",\n  \"service\"");
  ASSERT_NE(service, std::string::npos);
  EXPECT_EQ(over_socket, in_process.substr(0, service) + "\n}\n");
}

TEST(DseDriver, SolverBlockIgnoresAFullSolveLog) {
  // The solver block counts the sweep's own service solves, so a
  // process-wide solve log already at its cap (a long-lived process after
  // many sweeps) must not change the JSON.
  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec("smoke"));
  dse::DriverOptions opts;
  opts.workers = 2;
  core::clear_solve_log();
  const std::string fresh = dse::to_json(dse::run_sweep(spec, opts), false);
  core::clear_solve_log();
  while (core::solve_log_dropped() == 0) {
    core::record_solve(core::SolveStat{"filler", {}, 1, 1, 0.0, 0.0});
  }
  const dse::SweepResult full = dse::run_sweep(spec, opts);
  EXPECT_GT(full.solver.solves, 0u);
  EXPECT_EQ(dse::to_json(full, false), fresh);
  core::clear_solve_log();
}

TEST(DseDriver, CsvListsEveryPointInExpansionOrder) {
  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec("smoke"));
  const dse::SweepResult r = dse::run_sweep(spec);
  const std::string csv = dse::to_csv(r);
  std::size_t lines = 0;
  for (const char c : csv) {
    lines += (c == '\n') ? 1 : 0;
  }
  EXPECT_EQ(lines, r.points.size() + 1);  // header + one row per point
  EXPECT_EQ(csv.find("id,family,status,rank"), 0u);
}

// Pins the timing-free JSON of the builtin sweeps: a rewrite of the point
// builders that changed every payload alike would still pass the
// worker-count comparison above, but not this.  On a mismatch the failure
// prints the line to paste; paste it only when the change is meant to
// alter the sweep's answers.
TEST(DseGolden, SweepsMatchTheParent) {
  const std::map<std::string, std::string> golden = {
      {"default", "674e37e065d13559a343b75989e4bd5b"},
      {"smoke", "3a082a486b4bd73636177666455c86f3"},
  };
  for (const auto& [name, digest] : golden) {
    const dse::SweepSpec spec =
        dse::parse_sweep_spec(dse::builtin_sweep_spec(name));
    core::Hasher h;
    h.str(dse::to_json(dse::run_sweep(spec), /*include_timing=*/false));
    const std::string actual = h.key().hex();
    EXPECT_EQ(actual, digest)
        << "digest changed: {\"" << name << "\", \"" << actual << "\"},";
  }
}

TEST(DseDriver, UnknownFamilyInSpecThrowsBeforeEvaluation) {
  const dse::SweepSpec spec = dse::parse_sweep_spec(
      "space quantum\n  axis qubits = 2\nend\n");
  try {
    (void)dse::run_sweep(spec);
    FAIL() << "expected SpecError";
  } catch (const dse::SpecError& e) {
    // Every family is named, the fourth (xmas) included.
    EXPECT_NE(std::string(e.what()).find("(known: noc, fame, xstream, xmas)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
