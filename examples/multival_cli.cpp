// multival_cli — command-line driver over Aldebaran (.aut) files, in the
// spirit of CADP's bcg_info / bcg_min / bisimulator / evaluator:
//
//   multival_cli info  <file.aut>
//   multival_cli min   <strong|weak|branching|divbranching> <in.aut> [out.aut]
//   multival_cli det   <in.aut> [out.aut]
//   multival_cli cmp   <strong|weak|branching|divbranching|trace> <a.aut> <b.aut>
//   multival_cli check <file.aut> '<mu-calculus formula>'
//   multival_cli deadlocks <file.aut>
//   multival_cli gen   <model.proc> <EntryProcess> [args...] [-o out.aut]
//   multival_cli explore <model.proc> <EntryProcess> [args...]
//       [--plan|--flat] [-o out.aut|out.mvl]
//       (default --plan: generate-minimise-compose through the planner;
//        --flat: the monolithic generator's LTS, as gen writes it, with
//        exploration statistics)
//   multival_cli compose (--builtin <name> | <model.proc> <Entry>)
//       [--flat] [-o out.aut|out.mvl]
//       (prints the composition plan, the per-step size table and the
//        byte-identity check against the flat reference pipeline)
//   multival_cli lint  <model.proc> [EntryProcess [args...]]
//                      [--json] [--strict] [--bounds [--budget N]]
//       (--bounds adds the MV040-MV042 static state-bound prediction;
//        --budget N flags components predicted above N states)
//   multival_cli lint  --imc <file.imc> | --builtin <name|all>
//                      [--json] [--strict]
//   multival_cli lint  --fixed-delay D [--error-bound EPS]   (MV020 advisory)
//   multival_cli solve <file.imc> [--stats] [--plan|--flat]
//       (aut with "rate r" labels; default --plan lumps the IMC by
//        stochastic branching bisimulation before solving)
//   multival_cli check-file <file.aut> <props.mcl>
//       props.mcl: one "name: formula" per line; '#' comments
//   multival_cli dot   <file.aut> [out.dot]
//   multival_cli serve --socket <path|host:port> [-j N] [--queue N]
//       [--deadline MS] [--cache-mb N] [--cache-dir DIR] [--admit N]
//       (--admit N rejects models over N states pre-queue, MV042)
//       (endpoints whose last ':'-field is a decimal port are TCP;
//        port 0 binds an ephemeral port, printed on startup)
//   multival_cli client --socket <endpoint> <ping|shutdown>
//   multival_cli client --socket <endpoint> stats [--json]
//   multival_cli client --socket <endpoint> reach <file.imc> [time-bound]
//   multival_cli client --socket <endpoint> bounds <file.imc>
//   multival_cli client --socket <endpoint> check <file.aut> '<formula>'
//   multival_cli client --socket <endpoint> throughput <file.imc>
//       <label-glob>
//   multival_cli dse [--spec <file> | --builtin <default|smoke>] [-j N]
//       [--socket EP[,EP...] [--retry-ms MS]] [--deadline MS] [--repeat N]
//       [--json PATH] [--csv PATH] [--no-timing] [--flat]
//       (a comma-separated --socket list routes probes over the replicas
//        by content hash — see serve::Router)
//   multival_cli xmas (<file.xmas> | --builtin <name> [--capacity N])
//       [--lint | --compile | --solve] [--items N] [--json] [--strict]
//       [--flat] [-o out.proc]
//       (--lint is the default: MV030-033 structural checks, zero states;
//        --compile prints the lowered proc program; --solve runs the
//        steady-state throughput probe, plus burst latency with --items)
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "cli_util.hpp"

#include "analyze/analyze.hpp"
#include "analyze/bounds.hpp"
#include "compose/plan.hpp"
#include "dse/driver.hpp"
#include "dse/grid.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/trace.hpp"
#include "fame/coherence.hpp"
#include "fame/coherence_n.hpp"
#include "lts/analysis.hpp"
#include "lts/lts_io.hpp"
#include "mc/diagnostic.hpp"
#include "mc/evaluator.hpp"
#include "mc/parser.hpp"
#include "core/flow.hpp"
#include "imc/imc_io.hpp"
#include "imc/lump.hpp"
#include "imc/scheduler.hpp"
#include "markov/absorption.hpp"
#include "markov/steady.hpp"
#include "noc/mesh.hpp"
#include "xstream/queue_model.hpp"
#include "core/report.hpp"
#include "explore/engine.hpp"
#include "explore/lts_stream.hpp"
#include "proc/generator.hpp"
#include "proc/parser.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/solvers.hpp"
#include "xmas/compile.hpp"
#include "xmas/netlist.hpp"
#include "xmas/parser.hpp"

namespace {

using namespace multival;

using cli::UsageError;
using cli::parse_double;
using cli::parse_long;
using cli::parse_unsigned;
using cli::read_file;

lts::Lts load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return lts::read_aut(in);
}

void save(const lts::Lts& l, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  lts::write_aut(out, l);
}

bisim::Equivalence parse_equivalence(const std::string& name) {
  if (name == "strong") {
    return bisim::Equivalence::kStrong;
  }
  if (name == "weak") {
    return bisim::Equivalence::kWeak;
  }
  if (name == "branching") {
    return bisim::Equivalence::kBranching;
  }
  if (name == "divbranching") {
    return bisim::Equivalence::kDivergenceBranching;
  }
  throw std::runtime_error("unknown equivalence: " + name);
}

int cmd_info(const std::string& path) {
  const lts::Lts l = load(path);
  std::cout << path << ":\n"
            << "  states:       " << l.num_states() << "\n"
            << "  transitions:  " << l.num_transitions() << "\n"
            << "  labels:       " << l.actions().size() - 2 << " visible\n"
            << "  deadlocks:    " << lts::deadlock_states(l).size() << "\n"
            << "  tau cycles:   " << (lts::has_tau_cycle(l) ? "yes" : "no")
            << "\n"
            << "  unreachable:  " << lts::trim(l).removed_states << "\n";
  return 0;
}

int cmd_min(const std::string& equiv, const std::string& in,
            const std::string& out) {
  const lts::Lts l = load(in);
  const auto r = bisim::minimize(l, parse_equivalence(equiv));
  std::cout << in << ": " << l.num_states() << " -> "
            << r.quotient.num_states() << " states (" << equiv << ")\n";
  if (!out.empty()) {
    save(r.quotient, out);
    std::cout << "written to " << out << "\n";
  }
  return 0;
}

int cmd_det(const std::string& in, const std::string& out) {
  const lts::Lts l = load(in);
  const lts::Lts d = bisim::determinize(l);
  std::cout << in << ": " << l.num_states() << " -> " << d.num_states()
            << " deterministic states\n";
  if (!out.empty()) {
    save(d, out);
    std::cout << "written to " << out << "\n";
  }
  return 0;
}

int cmd_cmp(const std::string& equiv, const std::string& a,
            const std::string& b) {
  const lts::Lts la = load(a);
  const lts::Lts lb = load(b);
  const bool eq = equiv == "trace"
                      ? bisim::weak_trace_equivalent(la, lb)
                      : bisim::equivalent(la, lb, parse_equivalence(equiv));
  std::cout << (eq ? "TRUE" : "FALSE") << " (" << equiv << ")\n";
  return eq ? 0 : 1;
}

int cmd_check(const std::string& path, const std::string& formula_text) {
  const lts::Lts l = load(path);
  const mc::FormulaPtr f = mc::parse_formula(formula_text);
  const bool holds = mc::check(l, f);
  std::cout << (holds ? "TRUE" : "FALSE") << "  — " << f->to_string() << "\n";
  return holds ? 0 : 1;
}

int cmd_deadlocks(const std::string& path) {
  const lts::Lts l = load(path);
  const auto dead = lts::deadlock_states(l);
  if (dead.empty()) {
    std::cout << "no reachable deadlock\n";
    return 0;
  }
  std::cout << dead.size() << " reachable deadlock state(s)\n";
  const mc::Trace t = mc::deadlock_trace(l);
  std::cout << "shortest trace: " << t.to_string() << " (state "
            << t.final_state << ")\n";
  return 1;
}

int cmd_gen(int argc, char** argv) {
  // gen <model.proc> <Entry> [int args...] [-o out.aut]
  const std::string model_path = argv[2];
  const std::string entry = argv[3];
  std::vector<proc::Value> args;
  std::string out_path;
  for (int i = 4; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("gen: unknown flag " + a);
    } else {
      args.push_back(
          static_cast<proc::Value>(parse_long(a, "gen process argument")));
    }
  }
  const std::string text = read_file(model_path);
  const proc::Program program = proc::parse_program(text);
  const lts::Lts l = proc::generate(program, entry, args);
  std::cout << entry << ": " << l.num_states() << " states, "
            << l.num_transitions() << " transitions\n";
  if (!out_path.empty()) {
    save(l, out_path);
    std::cout << "written to " << out_path << "\n";
  } else {
    lts::write_aut(std::cout, l);
  }
  return 0;
}

void save_any(const lts::Lts& l, const std::string& out_path) {
  if (out_path.size() >= 4 &&
      out_path.compare(out_path.size() - 4, 4, ".mvl") == 0) {
    explore::save_lts_stream(out_path, l);
  } else {
    save(l, out_path);
  }
  std::cout << "written to " << out_path << "\n";
}

/// Prints a Plan's provenance: the rendered grammar, and the fallback
/// reason when the structure was not safely reassociable.
void print_plan(const compose::Plan& plan) {
  std::cout << "plan: " << plan.grammar << "\n";
  if (!plan.planned) {
    std::cout << "monolithic fallback: " << plan.fallback_reason << "\n";
  }
}

int cmd_explore(int argc, char** argv) {
  // explore <model.proc> <Entry> [int args...] [--plan|--flat]
  //         [-o out.aut|out.mvl]
  const std::string model_path = argv[2];
  const std::string entry = argv[3];
  std::vector<proc::Value> args;
  std::string out_path;
  bool plan_requested = false;
  bool flat = false;
  for (int i = 4; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--plan") {
      plan_requested = true;
    } else if (a == "--flat") {
      flat = true;
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("explore: unknown flag " + a);
    } else {
      args.push_back(
          static_cast<proc::Value>(parse_long(a, "explore process argument")));
    }
  }
  if (plan_requested && flat) {
    throw UsageError("explore: --plan is incompatible with --flat");
  }
  const std::string text = read_file(model_path);
  auto program = std::make_shared<const proc::Program>(
      proc::parse_program(text));
  if (!flat) {
    // Default: the planned generate-minimise-compose pipeline.  The result
    // is the canonical minimal LTS (divergence-preserving branching).
    std::vector<proc::ExprPtr> eargs;
    eargs.reserve(args.size());
    for (const proc::Value v : args) {
      eargs.push_back(proc::lit(v));
    }
    const compose::PlanOptions popts;
    const compose::Plan plan = compose::plan_term(
        program, proc::call(entry, std::move(eargs)), popts);
    print_plan(plan);
    const compose::PlanResult r = compose::evaluate_plan(plan, popts);
    r.stats.to_table("explore " + entry).print(std::cout);
    std::cout << entry << ": " << r.lts.num_states() << " states, "
              << r.lts.num_transitions()
              << " transitions (minimal mod divbranching, peak "
              << r.stats.peak_states << " states)\n";
    if (!out_path.empty()) {
      save_any(r.lts, out_path);
    }
    return 0;
  }
  const explore::ExploreResult r =
      explore::explore(*explore::proc_oracle(program, entry, args));
  r.stats.to_table(entry).print(std::cout);
  if (!out_path.empty()) {
    save_any(r.lts, out_path);
  }
  return 0;
}

int cmd_check_file(const std::string& aut_path,
                   const std::string& props_path) {
  const lts::Lts l = load(aut_path);
  std::ifstream in(props_path);
  if (!in) {
    throw std::runtime_error("cannot open " + props_path);
  }
  int failures = 0;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    const std::size_t colon = line.find(':', start);
    if (colon == std::string::npos) {
      throw std::runtime_error(props_path + ":" + std::to_string(lineno) +
                               ": expected 'name: formula'");
    }
    const std::string name = line.substr(start, colon - start);
    const mc::FormulaPtr f = mc::parse_formula(line.substr(colon + 1));
    const bool holds = mc::check(l, f);
    failures += holds ? 0 : 1;
    std::cout << (holds ? "[PASS] " : "[FAIL] ") << name << "\n";
  }
  return failures == 0 ? 0 : 1;
}

int cmd_solve(const std::string& path, bool stats, bool lump) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  const core::SolveContext solve_ctx(path);
  imc::Imc m = imc::read_aut(in);
  std::cout << path << ": " << m.num_states() << " states, "
            << m.num_interactive() << " interactive + " << m.num_markovian()
            << " markovian transitions\n";
  if (lump) {
    // Exact stochastic lumping (maximal progress + branching lumping, rates
    // aggregated per block) — value-preserving by construction, so the
    // solver sees the quotient chain.  `solve --flat` skips it.
    imc::LumpResult lumped = imc::minimize_imc(m);
    std::cout << "lumped: " << m.num_states() << " -> "
              << lumped.quotient.num_states() << " states\n";
    m = std::move(lumped.quotient);
  }

  // Residual interactive nondeterminism: no single CTMC exists, so report
  // certified scheduler bounds (interval iteration, midpoints exact to the
  // solver tolerance) instead of a point value.
  bool nondet = false;
  for (imc::StateId s = 0; s < m.num_states(); ++s) {
    nondet = nondet || m.interactive(s).size() > 1;
  }
  if (nondet) {
    std::cout << "nondeterministic IMC: reporting scheduler bounds\n";
    const imc::Bounds tb = imc::absorption_time_bounds(m);
    std::cout << "expected time to absorption in [" << tb.min << ", "
              << tb.max << "]\n";
    std::vector<bool> absorbing(m.num_states(), false);
    for (imc::StateId s = 0; s < m.num_states(); ++s) {
      absorbing[s] = m.interactive(s).empty() && m.markovian(s).empty();
    }
    const imc::Bounds rb = imc::reachability_bounds(m, absorbing);
    std::cout << "P[eventual absorption] in [" << rb.min << ", " << rb.max
              << "]\n";
    if (stats) {
      core::solve_table().print(std::cout);
    }
    return 0;
  }
  const core::ClosedModel closed = core::close_model(m);
  std::cout << "closed CTMC: " << closed.ctmc.num_states() << " states\n";

  const std::vector<bool> absorbing = markov::absorbing_states(closed.ctmc);
  if (std::find(absorbing.begin(), absorbing.end(), true) != absorbing.end()) {
    std::cout << "expected time to absorption: "
              << markov::expected_absorption_time_from_initial(closed.ctmc)
              << "\n";
    if (stats) {
      core::solve_table().print(std::cout);
    }
    return 0;
  }
  const auto pi = markov::steady_state(closed.ctmc);
  // Report the throughput of every distinct probe label.
  std::set<std::string> labels;
  for (const auto& t : closed.ctmc.transitions()) {
    if (!t.label.empty()) {
      labels.insert(t.label);
    }
  }
  if (labels.empty()) {
    std::cout << "steady state computed; no labelled transitions to "
                 "measure\n";
  }
  for (const std::string& label : labels) {
    std::cout << "throughput(" << label
              << ") = " << markov::throughput(closed.ctmc, pi, label)
              << "\n";
  }
  if (stats) {
    core::solve_table().print(std::cout);
  }
  return 0;
}

/// The shipped case-study generators, lintable by name so CI can gate every
/// model the repo builds programmatically (the .proc examples are covered by
/// the file mode).
struct BuiltinModel {
  std::string entry;
  proc::Program program;
};

BuiltinModel xmas_builtin(const char* fabric) {
  const xmas::Compiled c = xmas::compile(xmas::builtin_fabric(fabric));
  return {c.entry, *c.program};
}

/// THE registry: every builtin model the CLI knows, in one table, so the
/// name list, the lookup and the help/error text cannot drift apart.
struct BuiltinSpec {
  const char* name;
  BuiltinModel (*build)();
};

const std::vector<BuiltinSpec>& builtin_registry() {
  static const std::vector<BuiltinSpec> registry = {
      {"fame-msi",
       [] {
         return BuiltinModel{
             "System", fame::coherence_system_program(fame::Protocol::kMsi)};
       }},
      {"fame-mesi",
       [] {
         return BuiltinModel{
             "System", fame::coherence_system_program(fame::Protocol::kMesi)};
       }},
      {"fame-msi-3",
       [] {
         return BuiltinModel{
             "SystemN",
             fame::coherence_system_n_program(fame::Protocol::kMsi, 3)};
       }},
      {"fame-mesi-3",
       [] {
         return BuiltinModel{
             "SystemN",
             fame::coherence_system_n_program(fame::Protocol::kMesi, 3)};
       }},
      {"noc-mesh", [] { return BuiltinModel{"Mesh", noc::mesh_program()}; }},
      {"noc-mesh-3x3",
       [] {
         return BuiltinModel{
             "Scenario", noc::single_packet_program(0, 8, /*hide_links=*/true,
                                                    noc::MeshDims{3, 3})};
       }},
      {"noc-single-packet",
       [] {
         return BuiltinModel{"Scenario", noc::single_packet_program(0, 3)};
       }},
      {"noc-stream",
       [] {
         return BuiltinModel{"Scenario",
                             noc::stream_program({noc::Flow{0, 3}})};
       }},
      {"xstream",
       [] {
         return BuiltinModel{"VirtualQueue", xstream::virtual_queue_program(
                                                 xstream::QueueConfig{})};
       }},
      {"xstream-lost-credit",
       [] {
         xstream::QueueConfig cfg;
         cfg.variant = xstream::QueueVariant::kLostCredit;
         return BuiltinModel{"VirtualQueue",
                             xstream::virtual_queue_program(cfg)};
       }},
      {"xstream-eager-credit",
       [] {
         xstream::QueueConfig cfg;
         cfg.variant = xstream::QueueVariant::kEagerCredit;
         return BuiltinModel{"VirtualQueue",
                             xstream::virtual_queue_program(cfg)};
       }},
      {"xmas-credit-loop", [] { return xmas_builtin("credit-loop"); }},
      {"xmas-vc-pair", [] { return xmas_builtin("vc-pair"); }},
      {"xmas-mesh2", [] { return xmas_builtin("mesh2"); }},
  };
  return registry;
}

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const BuiltinSpec& spec : builtin_registry()) {
      out.emplace_back(spec.name);
    }
    return out;
  }();
  return names;
}

std::string builtin_names_text() {
  std::string out;
  for (const std::string& name : builtin_names()) {
    out += (out.empty() ? "" : ", ") + name;
  }
  return out;
}

BuiltinModel builtin_model(const std::string& name) {
  for (const BuiltinSpec& spec : builtin_registry()) {
    if (name == spec.name) {
      return spec.build();
    }
  }
  throw UsageError("unknown builtin '" + name +
                   "' (known: " + builtin_names_text() + "; or 'all')");
}

int cmd_lint(int argc, char** argv) {
  // lint <model.proc> [Entry [int args...]] [--json] [--strict]
  // lint --imc <file.imc> | --builtin <name|all> [--json] [--strict]
  // lint --fixed-delay D [--error-bound EPS]   (combinable with any mode)
  // lint ... --bounds [--budget N]   (MV040-MV042 static state bounds)
  std::string model_path;
  std::string imc_path;
  std::string builtin;
  std::string entry;
  std::vector<proc::ExprPtr> entry_args;
  bool json = false;
  bool strict = false;
  bool bounds = false;
  std::uint64_t budget = 0;
  bool have_fixed_delay = false;
  double fixed_delay = 0.0;
  double error_bound = 0.05;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--strict") {
      strict = true;
    } else if (a == "--imc" && i + 1 < argc) {
      imc_path = argv[++i];
    } else if (a == "--builtin" && i + 1 < argc) {
      builtin = argv[++i];
    } else if (a == "--bounds") {
      bounds = true;
    } else if (a == "--budget" && i + 1 < argc) {
      budget = parse_unsigned(argv[++i], "component budget");
    } else if (a == "--fixed-delay" && i + 1 < argc) {
      have_fixed_delay = true;
      fixed_delay = parse_double(argv[++i], "fixed delay");
    } else if (a == "--error-bound" && i + 1 < argc) {
      error_bound = parse_double(argv[++i], "error bound");
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("lint: unknown flag " + a);
    } else if (model_path.empty()) {
      model_path = a;
    } else if (entry.empty()) {
      entry = a;
    } else {
      entry_args.push_back(proc::lit(
          static_cast<proc::Value>(parse_long(a, "lint process argument"))));
    }
  }
  const int modes = static_cast<int>(!model_path.empty()) +
                    static_cast<int>(!imc_path.empty()) +
                    static_cast<int>(!builtin.empty());
  if (modes > 1) {
    throw UsageError(
        "lint: give exactly one of <model.proc>, --imc or --builtin");
  }
  if (modes == 0 && !have_fixed_delay) {
    throw UsageError("lint: nothing to lint");
  }
  if (fixed_delay <= 0.0 && have_fixed_delay) {
    throw UsageError("lint: --fixed-delay must be > 0");
  }
  if (!(error_bound > 0.0) || !(error_bound < 1.0)) {
    throw UsageError("lint: --error-bound must be in (0, 1)");
  }

  std::size_t errors = 0;
  std::size_t findings = 0;
  std::vector<core::Diagnostic> collected;  // for --json
  const auto report = [&](const std::string& name,
                          const analyze::Analysis& a) {
    errors += a.count(core::Severity::kError);
    findings += a.diagnostics.size();
    if (json) {
      collected.insert(collected.end(), a.diagnostics.begin(),
                       a.diagnostics.end());
    } else {
      std::cout << name << ": " << a.summary() << "\n"
                << core::render_text(a.diagnostics);
    }
  };
  const auto report_one = [&](const std::string& name, core::Diagnostic d) {
    analyze::Analysis a;
    a.diagnostics.push_back(std::move(d));
    report(name, a);
  };
  // --bounds: the MV04x static state-bound prediction (analyze/bounds) on
  // top of the structural lint; component factors are printed in text mode,
  // diagnostics merge into the shared exit-code and --json stream.
  const auto report_bounds = [&](const std::string& name,
                                 const proc::Program& program,
                                 const proc::TermPtr& root) {
    analyze::BoundOptions bopts;
    bopts.component_budget = budget;
    const analyze::BoundReport r =
        analyze::predicted_bounds(program, root, bopts);
    for (const core::Diagnostic& d : r.diagnostics) {
      errors += d.severity == core::Severity::kError ? 1 : 0;
    }
    findings += r.diagnostics.size();
    if (json) {
      collected.insert(collected.end(), r.diagnostics.begin(),
                       r.diagnostics.end());
    } else {
      std::cout << name << ": " << r.summary() << "\n";
      for (const analyze::ComponentBound& c : r.components) {
        std::cout << "  component " << c.name << ": "
                  << analyze::format_states(c.states) << " states"
                  << (c.cause.empty() ? "" : " — " + c.cause) << "\n";
      }
      std::cout << core::render_text(r.diagnostics);
    }
  };

  if (!model_path.empty()) {
    const std::string text = read_file(model_path);
    try {
      const proc::Program program = proc::parse_program(text);
      const proc::TermPtr root =
          entry.empty() ? nullptr : proc::call(entry, std::move(entry_args));
      report(model_path, analyze::lint_program(program, root));
      if (bounds) {
        if (root == nullptr) {
          throw UsageError("lint: --bounds needs an Entry process");
        }
        report_bounds(model_path, program, root);
      }
    } catch (const proc::ProcParseError& e) {
      // Parse failures are lint findings (MV010), not tool crashes.
      report_one(model_path, e.diagnostic());
    }
  } else if (!imc_path.empty()) {
    std::ifstream in(imc_path);
    if (!in) {
      throw std::runtime_error("cannot open " + imc_path);
    }
    try {
      const imc::Imc m = imc::read_aut(in);
      report(imc_path, analyze::lint_imc(m));
    } catch (const std::exception& e) {
      report_one(imc_path, core::Diagnostic{
                               "MV010", core::Severity::kError,
                               std::string("malformed .aut model: ") + e.what(),
                               imc_path, 0, 0, ""});
    }
  } else if (!builtin.empty()) {
    const std::vector<std::string> targets =
        builtin == "all" ? builtin_names() : std::vector<std::string>{builtin};
    for (const std::string& name : targets) {
      BuiltinModel m = builtin_model(name);
      report(name, analyze::lint_program(m.program, proc::call(m.entry)));
      if (bounds) {
        report_bounds(name, m.program, proc::call(m.entry));
      }
    }
  }
  if (have_fixed_delay) {
    report_one("fixed-delay " + core::fmt(fixed_delay, 6),
               analyze::fixed_delay_advisory(fixed_delay, error_bound));
  }

  if (json) {
    std::cout << core::render_json(collected) << "\n";
  }
  return errors > 0 || (strict && findings > 0) ? 1 : 0;
}

int cmd_dot(const std::string& in, const std::string& out) {
  const lts::Lts l = load(in);
  if (out.empty()) {
    lts::write_dot(std::cout, l);
  } else {
    std::ofstream os(out);
    if (!os) {
      throw std::runtime_error("cannot write " + out);
    }
    lts::write_dot(os, l);
    std::cout << "written to " << out << "\n";
  }
  return 0;
}

int cmd_compose(int argc, char** argv) {
  // compose (--builtin <name> | <model.proc> <Entry>) [--flat]
  //         [-o out.aut|out.mvl]
  std::string builtin;
  std::string model_path;
  std::string entry;
  std::string out_path;
  bool flat = false;
  const compose::PlanOptions popts;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--builtin" && i + 1 < argc) {
      builtin = argv[++i];
    } else if (a == "--flat") {
      flat = true;
    } else if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("compose: unknown flag " + a);
    } else if (model_path.empty()) {
      model_path = a;
    } else if (entry.empty()) {
      entry = a;
    } else {
      throw UsageError("compose: unexpected argument '" + a + "'");
    }
  }
  if (builtin.empty() == model_path.empty()) {
    throw UsageError("compose: give either --builtin <name> or "
                     "<model.proc> <Entry>");
  }
  if (!model_path.empty() && entry.empty()) {
    throw UsageError("compose: <model.proc> needs an <Entry> process");
  }
  std::shared_ptr<const proc::Program> program;
  if (!builtin.empty()) {
    BuiltinModel m = builtin_model(builtin);
    entry = m.entry;
    program =
        std::make_shared<const proc::Program>(std::move(m.program));
  } else {
    program = std::make_shared<const proc::Program>(
        proc::parse_program(read_file(model_path)));
  }

  const compose::Plan plan = compose::plan_program(program, entry, popts);
  print_plan(plan);
  if (plan.planned) {
    std::cout << "components:";
    for (const std::string& c : plan.components) {
      std::cout << " " << c;
    }
    std::cout << "\n";
  }
  if (flat) {
    // Baseline only: the monolithic generate-then-minimise pipeline in the
    // same canonical normal form.
    compose::PlanResult r = compose::flat_reference(
        program, proc::call(entry, {}), popts);
    r.stats.to_table("compose --flat " + entry).print(std::cout);
    std::cout << entry << ": " << r.lts.num_states() << " states, "
              << r.lts.num_transitions() << " transitions (flat reference)\n";
    if (!out_path.empty()) {
      save_any(r.lts, out_path);
    }
    return 0;
  }
  const compose::PlanResult planned = compose::evaluate_plan(plan, popts);
  planned.stats.to_table("compose " + entry).print(std::cout);
  const std::size_t final_states = planned.lts.num_states();
  std::cout << entry << ": " << final_states << " states, "
            << planned.lts.num_transitions()
            << " transitions (minimal mod divbranching)\n"
            << "peak intermediate: " << planned.stats.peak_states
            << " states ("
            << core::fmt(final_states == 0
                             ? 0.0
                             : static_cast<double>(planned.stats.peak_states) /
                                   static_cast<double>(final_states),
                         2)
            << "x final)\n";

  const compose::PlanResult reference = compose::flat_reference(
      program, proc::call(entry, {}), popts);
  std::ostringstream a;
  std::ostringstream b;
  explore::write_lts_stream(a, planned.lts);
  explore::write_lts_stream(b, reference.lts);
  const bool identical = a.str() == b.str();
  std::cout << "flat reference: " << reference.stats.peak_states
            << " peak states; results "
            << (identical ? "byte-identical" : "DIFFER") << "\n";
  if (!out_path.empty()) {
    save_any(planned.lts, out_path);
  }
  return identical ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket" && i + 1 < argc) {
      opts.endpoint = argv[++i];
    } else if (a == "-j" && i + 1 < argc) {
      opts.service.workers = parse_unsigned(argv[++i], "worker count");
    } else if (a == "--queue" && i + 1 < argc) {
      opts.service.queue_capacity = parse_unsigned(argv[++i], "queue size");
    } else if (a == "--admit" && i + 1 < argc) {
      opts.service.admission_budget =
          parse_unsigned(argv[++i], "admission budget");
    } else if (a == "--deadline" && i + 1 < argc) {
      opts.service.default_deadline =
          std::chrono::milliseconds(parse_unsigned(argv[++i], "deadline"));
    } else if (a == "--cache-mb" && i + 1 < argc) {
      opts.service.cache.capacity_bytes =
          static_cast<std::size_t>(parse_unsigned(argv[++i], "cache size"))
          << 20;
    } else if (a == "--cache-dir" && i + 1 < argc) {
      opts.service.cache.disk_dir = argv[++i];
    } else {
      throw UsageError("serve: unknown flag " + a);
    }
  }
  if (opts.endpoint.empty()) {
    throw UsageError("serve: --socket <path|host:port> is required");
  }
  serve::Server server(std::move(opts));
  // Print the *bound* endpoint: for "host:0" this is the ephemeral port the
  // kernel picked, which is what clients must connect to.
  std::cout << "serving on " << server.bound_endpoint().to_string() << "\n"
            << std::flush;
  server.run();
  server.service().metrics().to_table().print(std::cout);
  return 0;
}

int cmd_client(int argc, char** argv) {
  std::string endpoint;
  std::chrono::milliseconds connect_timeout{0};
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket" && i + 1 < argc) {
      endpoint = argv[++i];
    } else if (a == "--retry-ms" && i + 1 < argc) {
      connect_timeout =
          std::chrono::milliseconds(parse_unsigned(argv[++i], "retry budget"));
    } else if (a == "--json") {
      rest.push_back(a);  // `stats --json`; the verb checks its arguments
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("client: unknown flag " + a);
    } else {
      rest.push_back(a);
    }
  }
  if (endpoint.empty() || rest.empty()) {
    throw UsageError("client: --socket <path|host:port> and a verb are "
                     "required");
  }
  serve::Request request;
  request.id = 1;
  try {
    request.verb = serve::parse_verb(rest[0]);
  } catch (const serve::ProtocolError&) {
    throw UsageError("client: unknown verb '" + rest[0] + "'");
  }
  switch (request.verb) {
    case serve::Verb::kStats:
      if (rest.size() == 2 && rest[1] == "--json") {
        request.arg = "json";  // the service answers with metrics JSON
        break;
      }
      [[fallthrough]];
    case serve::Verb::kPing:
    case serve::Verb::kShutdown:
      if (rest.size() != 1) {
        throw UsageError("client: '" + rest[0] + "' takes no arguments" +
                         (request.verb == serve::Verb::kStats
                              ? " (except stats --json)"
                              : ""));
      }
      break;
    case serve::Verb::kReach:
      if (rest.size() != 2 && rest.size() != 3) {
        throw UsageError("client: reach <file.imc> [time-bound]");
      }
      request.payload = read_file(rest[1]);
      if (rest.size() == 3) {
        request.arg = rest[2];
      }
      break;
    case serve::Verb::kBounds:
      if (rest.size() != 2) {
        throw UsageError("client: bounds <file.imc>");
      }
      request.payload = read_file(rest[1]);
      break;
    case serve::Verb::kCheck:
      if (rest.size() != 3) {
        throw UsageError("client: check <file.aut> '<formula>'");
      }
      request.payload = read_file(rest[1]);
      request.arg = rest[2];
      break;
    case serve::Verb::kThroughput:
      if (rest.size() != 3) {
        throw UsageError("client: throughput <file.imc> <label-glob>");
      }
      request.payload = read_file(rest[1]);
      request.arg = rest[2];
      break;
  }
  serve::Client client(endpoint, connect_timeout);
  const serve::Response response = client.call(request);
  if (response.status == serve::Status::kOk) {
    std::cout << response.body << "\n";
    return 0;
  }
  std::cerr << serve::to_string(response.status) << ": " << response.body
            << "\n";
  if (response.status == serve::Status::kOverloaded) {
    return 3;  // transient: retrying later can succeed
  }
  if (response.status == serve::Status::kInvalid) {
    return 4;  // permanent: the model itself is ill-formed
  }
  return 2;
}

int cmd_dse(int argc, char** argv) {
  // dse [--spec <file> | --builtin <default|smoke>] [-j N] [--socket PATH]
  //     [--retry-ms MS] [--deadline MS] [--repeat N] [--json PATH]
  //     [--csv PATH] [--no-timing]
  std::string spec_path;
  std::string builtin = "default";
  bool builtin_set = false;
  std::string json_path;
  std::string csv_path;
  bool timing = true;
  dse::DriverOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (a == "--builtin" && i + 1 < argc) {
      builtin = argv[++i];
      builtin_set = true;
    } else if (a == "-j" && i + 1 < argc) {
      opts.workers = parse_unsigned(argv[++i], "worker count");
    } else if (a == "--socket" && i + 1 < argc) {
      opts.socket = argv[++i];
    } else if (a == "--retry-ms" && i + 1 < argc) {
      opts.connect_timeout =
          std::chrono::milliseconds(parse_unsigned(argv[++i], "retry budget"));
    } else if (a == "--deadline" && i + 1 < argc) {
      opts.deadline =
          std::chrono::milliseconds(parse_unsigned(argv[++i], "deadline"));
    } else if (a == "--repeat" && i + 1 < argc) {
      opts.repeat = parse_unsigned(argv[++i], "repeat count");
      if (opts.repeat == 0) {
        throw UsageError("dse: --repeat must be >= 1");
      }
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (a == "--no-timing") {
      timing = false;
    } else if (a == "--flat") {
      opts.strategy = compose::Strategy::kFlat;
    } else {
      throw UsageError("dse: unknown flag " + a);
    }
  }
  if (!spec_path.empty() && builtin_set) {
    throw UsageError("dse: --spec and --builtin are mutually exclusive");
  }

  dse::SweepSpec spec;
  try {
    const std::string text =
        spec_path.empty() ? dse::builtin_sweep_spec(builtin)
                          : read_file(spec_path);
    spec = dse::parse_sweep_spec(text);
  } catch (const dse::SpecError& e) {
    throw UsageError(std::string("dse: ") + e.what());
  }

  const dse::SweepResult result = dse::run_sweep(spec, opts);
  std::cout << result.name << ": " << result.raw_points << " grid points, "
            << result.pruned << " pruned by constraints, "
            << result.points.size() << " evaluated ("
            << result.probes_submitted << " probes, "
            << result.distinct_keys << " distinct sub-models)\n";
  if (result.have_service_metrics) {
    std::cout << "serve: " << result.service.solves << " solves, "
              << (result.service.cache_hits + result.service.coalesced)
              << " reused, " << result.service.shed << " shed\n";
  }
  std::cout << "pipeline cache: " << result.pipeline.hits << " hits, "
            << result.pipeline.misses << " misses, "
            << result.pipeline.evictions << " evicted\n";
  dse::front_table(result).print(std::cout);
  for (const dse::PointResult& p : result.points) {
    if (p.status == "gated") {
      std::cerr << p.point.id << ": gated by lint\n";
      for (const std::string& e : p.gate_errors) {
        std::cerr << "  " << e << "\n";
      }
    } else if (p.status == "error") {
      std::cerr << p.point.id << ": evaluation failed\n";
    }
  }
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      throw std::runtime_error("cannot write " + json_path);
    }
    os << dse::to_json(result, timing);
    std::cout << "written to " << json_path << "\n";
  }
  if (!csv_path.empty()) {
    std::ofstream os(csv_path);
    if (!os) {
      throw std::runtime_error("cannot write " + csv_path);
    }
    os << dse::to_csv(result);
    std::cout << "written to " << csv_path << "\n";
  }
  return result.all_ok() ? 0 : 1;
}

int cmd_xmas(int argc, char** argv) {
  // xmas (<file.xmas> | --builtin <name> [--capacity N]) [--lint | --compile
  //      | --solve] [--items N] [--json] [--strict] [--flat] [-o out.proc]
  std::string path;
  std::string builtin;
  int capacity = 2;
  bool have_capacity = false;
  int items = 0;
  std::string mode;  // "lint" (default), "compile", "solve"
  bool json = false;
  bool strict = false;
  bool flat = false;
  std::string out_path;
  const auto set_mode = [&](const char* m) {
    if (!mode.empty() && mode != m) {
      throw UsageError("xmas: give at most one of --lint, --compile, --solve");
    }
    mode = m;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--builtin" && i + 1 < argc) {
      builtin = argv[++i];
    } else if (a == "--capacity" && i + 1 < argc) {
      capacity = static_cast<int>(parse_long(argv[++i], "capacity"));
      have_capacity = true;
    } else if (a == "--items" && i + 1 < argc) {
      items = static_cast<int>(parse_long(argv[++i], "items"));
    } else if (a == "--lint") {
      set_mode("lint");
    } else if (a == "--compile") {
      set_mode("compile");
    } else if (a == "--solve") {
      set_mode("solve");
    } else if (a == "--json") {
      json = true;
    } else if (a == "--strict") {
      strict = true;
    } else if (a == "--flat") {
      flat = true;
    } else if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError("xmas: unknown flag " + a);
    } else if (path.empty()) {
      path = a;
    } else {
      throw UsageError("xmas: more than one netlist file given");
    }
  }
  if (mode.empty()) {
    mode = "lint";
  }
  if (path.empty() == builtin.empty()) {
    throw UsageError("xmas: give either <file.xmas> or --builtin <name>");
  }
  if (have_capacity && builtin.empty()) {
    throw UsageError(
        "xmas: --capacity only applies to --builtin fabrics (file netlists "
        "size their own queues)");
  }
  if (items < 0 || items > 64) {
    throw UsageError("xmas: --items must be in 0..64");
  }

  // Findings (parse errors included) are reported through the one lint
  // channel, so `xmas --lint` output matches `lint` byte-for-byte in shape.
  const std::string name = path.empty() ? builtin : path;
  const auto report = [&](const analyze::Analysis& a) {
    if (json) {
      std::cout << core::render_json(a.diagnostics) << "\n";
    } else {
      std::cout << name << ": " << a.summary() << "\n"
                << core::render_text(a.diagnostics);
    }
    const std::size_t errors = a.count(core::Severity::kError);
    return errors > 0 || (strict && !a.diagnostics.empty()) ? 1 : 0;
  };

  xmas::Netlist net;
  if (!builtin.empty()) {
    try {
      net = xmas::builtin_fabric(builtin, capacity);
    } catch (const std::invalid_argument& e) {
      throw UsageError("xmas: " + std::string(e.what()));
    }
  } else {
    try {
      net = xmas::parse_netlist(read_file(path));
    } catch (const xmas::ParseError& e) {
      analyze::Analysis a;
      a.diagnostics.push_back(e.diagnostic());
      report(a);
      return 1;
    }
  }

  const analyze::Analysis lint = analyze::lint_netlist(net);
  if (mode == "lint") {
    return report(lint);
  }
  if (!lint.clean()) {
    // compile/solve gate on the structural lint, like explore/serve gate on
    // the program lint.
    return report(lint);
  }

  xmas::CompileOptions copts;
  copts.burst = mode == "compile" ? items : 0;
  const xmas::Compiled compiled = xmas::compile(net, copts);
  if (mode == "compile") {
    const std::string text = compiled.program->to_string();
    if (out_path.empty()) {
      std::cout << text;
    } else {
      std::ofstream os(out_path);
      if (!os) {
        throw std::runtime_error("cannot write " + out_path);
      }
      os << text;
      std::cout << "written to " << out_path << "\n";
    }
    return 0;
  }

  // --solve: steady-state throughput over the sink gates, plus (with
  // --items N) the burst latency bounds, through the serve solvers.
  const compose::Strategy strategy =
      flat ? compose::Strategy::kFlat : compose::Strategy::kPlanned;
  const std::map<std::string, double> rates = xmas::rate_table(compiled);
  const lts::Lts steady = xmas::compiled_lts(compiled, strategy);
  std::cout << "fabric " << net.name << ": " << steady.num_states()
            << " states, " << steady.num_transitions() << " transitions ("
            << compose::to_string(strategy) << ")\n";
  std::string glob = compiled.sink_gates.front();
  for (const std::string& g : compiled.sink_gates) {
    std::size_t i = 0;
    while (i < glob.size() && i < g.size() && glob[i] == g[i]) ++i;
    glob.resize(i);
  }
  serve::Request request;
  request.verb = serve::Verb::kThroughput;
  request.arg = "uniform:" + glob + "*";
  request.payload = imc::to_aut(core::decorate_with_rates(steady, rates));
  std::cout << serve::solve_request(request) << "\n";
  if (items > 0) {
    xmas::CompileOptions burst_opts;
    burst_opts.burst = items;
    const xmas::Compiled burst = xmas::compile(net, burst_opts);
    serve::Request bounds;
    bounds.verb = serve::Verb::kBounds;
    bounds.payload = imc::to_aut(core::decorate_with_rates(
        xmas::compiled_lts(burst, strategy), rates));
    std::cout << "burst(items=" << items
              << "): " << serve::solve_request(bounds) << "\n";
  }
  return 0;
}

int usage() {
  std::cerr
      << "usage:\n"
         "  multival_cli info  <file.aut>\n"
         "  multival_cli min   <strong|weak|branching|divbranching> <in.aut> "
         "[out.aut]\n"
         "  multival_cli det   <in.aut> [out.aut]\n"
         "  multival_cli cmp   <strong|weak|branching|divbranching|trace> "
         "<a.aut> <b.aut>\n"
         "  multival_cli check <file.aut> '<formula>'\n"
         "  multival_cli deadlocks <file.aut>\n"
         "  multival_cli gen   <model.proc> <Entry> [args...] [-o out.aut]\n"
         "  multival_cli explore <model.proc> <Entry> [args...] "
         "[--plan|--flat] [-o out.aut|out.mvl]\n"
         "  multival_cli compose (--builtin <name> | <model.proc> <Entry>) "
         "[--flat] [-o out.aut|out.mvl]\n"
         "  multival_cli lint  <model.proc> [Entry [args...]] [--json] "
         "[--strict] [--bounds [--budget N]]\n"
         "  multival_cli lint  --imc <file.imc> | --builtin <name|all> "
         "[--json] [--strict]\n"
         "  multival_cli lint  --fixed-delay D [--error-bound EPS]\n"
         "  multival_cli solve <file.imc> [--stats] [--plan|--flat]\n"
         "  multival_cli check-file <file.aut> <props.mcl>\n"
         "  multival_cli dot   <file.aut> [out.dot]\n"
         "  multival_cli serve --socket <path|host:port> [-j N] [--queue N] "
         "[--deadline MS] [--cache-mb N] [--cache-dir DIR] [--admit N]\n"
         "  multival_cli client --socket <endpoint> [--retry-ms MS] "
         "<ping|shutdown|stats [--json]>\n"
         "  multival_cli client --socket <endpoint> reach <file.imc> "
         "[time-bound]\n"
         "  multival_cli client --socket <endpoint> bounds <file.imc>\n"
         "  multival_cli client --socket <endpoint> check <file.aut> "
         "'<formula>'\n"
         "  multival_cli client --socket <endpoint> throughput <file.imc> "
         "<label-glob>\n"
         "  multival_cli dse   [--spec <file> | --builtin <default|smoke>] "
         "[-j N] [--socket EP[,EP...] [--retry-ms MS]] [--deadline MS] "
         "[--repeat N] [--json PATH] [--csv PATH] [--no-timing] [--flat]\n"
         "  multival_cli xmas  (<file.xmas> | --builtin <name> "
         "[--capacity N]) [--lint | --compile | --solve] [--items N] "
         "[--json] [--strict] [--flat] [-o out.proc]\n"
         "       xmas builtins: ";
  {
    bool first = true;
    for (const std::string& name : xmas::builtin_fabric_names()) {
      std::cerr << (first ? "" : ", ") << name;
      first = false;
    }
  }
  std::cerr << "\n       model builtins (compose/lint): " << builtin_names_text()
            << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "info" && argc == 3) {
      return cmd_info(argv[2]);
    }
    if (cmd == "min" && (argc == 4 || argc == 5)) {
      return cmd_min(argv[2], argv[3], argc == 5 ? argv[4] : "");
    }
    if (cmd == "det" && (argc == 3 || argc == 4)) {
      return cmd_det(argv[2], argc == 4 ? argv[3] : "");
    }
    if (cmd == "cmp" && argc == 5) {
      return cmd_cmp(argv[2], argv[3], argv[4]);
    }
    if (cmd == "check" && argc == 4) {
      return cmd_check(argv[2], argv[3]);
    }
    if (cmd == "deadlocks" && argc == 3) {
      return cmd_deadlocks(argv[2]);
    }
    if (cmd == "gen" && argc >= 4) {
      return cmd_gen(argc, argv);
    }
    if (cmd == "explore" && argc >= 4) {
      return cmd_explore(argc, argv);
    }
    if (cmd == "lint" && argc >= 3) {
      return cmd_lint(argc, argv);
    }
    if (cmd == "solve" && argc >= 3) {
      bool stats = false;
      bool lump = true;
      for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--stats") {
          stats = true;
        } else if (a == "--plan") {
          lump = true;
        } else if (a == "--flat") {
          lump = false;
        } else {
          return usage();
        }
      }
      return cmd_solve(argv[2], stats, lump);
    }
    if (cmd == "check-file" && argc == 4) {
      return cmd_check_file(argv[2], argv[3]);
    }
    if (cmd == "dot" && (argc == 3 || argc == 4)) {
      return cmd_dot(argv[2], argc == 4 ? argv[3] : "");
    }
    if (cmd == "compose" && argc >= 3) {
      return cmd_compose(argc, argv);
    }
    if (cmd == "serve" && argc >= 3) {
      return cmd_serve(argc, argv);
    }
    if (cmd == "client" && argc >= 4) {
      return cmd_client(argc, argv);
    }
    if (cmd == "dse") {
      return cmd_dse(argc, argv);
    }
    if (cmd == "xmas" && argc >= 3) {
      return cmd_xmas(argc, argv);
    }
    return usage();
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
