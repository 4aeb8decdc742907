#include "serve/solvers.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "analyze/analyze.hpp"
#include "core/flow.hpp"
#include "imc/imc_io.hpp"
#include "imc/scheduler.hpp"
#include "lts/lts_io.hpp"
#include "markov/absorption.hpp"
#include "markov/steady.hpp"
#include "mc/evaluator.hpp"
#include "mc/parser.hpp"

namespace multival::serve {

namespace {

constexpr std::string_view kKeySchema = "serve-v1";
/// Names the steady-state method behind throughput bodies.  Throughput keys
/// hash it, so a disk cache written by a build with another method (whose
/// bodies differ in their low digits) is never served; change it whenever
/// markov::steady_state's answers change.
constexpr std::string_view kSteadySolver = "steady-gth";

[[noreturn]] void reject(std::string message, std::string hint = {}) {
  throw InvalidRequest({core::Diagnostic{"MV010", core::Severity::kError,
                                         std::move(message), "request", 0, 0,
                                         std::move(hint)}});
}

std::shared_ptr<const imc::Imc> parse_imc_payload(const Request& r) {
  if (r.payload.empty()) {
    reject("empty model payload");
  }
  std::istringstream is(r.payload);
  try {
    return std::make_shared<const imc::Imc>(imc::read_aut(is));
  } catch (const std::exception& e) {
    reject(std::string("malformed .aut model: ") + e.what());
  }
}

/// Pre-flight for the verbs that need a deterministic closed CTMC
/// (reach/throughput): a residually nondeterministic IMC can never be
/// flattened by core::close_model (NondetPolicy::kReject), so reject it now
/// with the lint diagnostics instead of burning a worker on it.
void require_deterministic(const imc::Imc& m, std::string_view verb) {
  analyze::Analysis a = analyze::lint_imc(m);
  std::vector<core::Diagnostic> blocking;
  for (core::Diagnostic& d : a.diagnostics) {
    if (d.code == "MV011" || d.code == "MV013") {
      d.severity = core::Severity::kError;  // fatal for this verb
      d.hint = std::string("'") + std::string(verb) +
               "' needs a deterministic closed chain; solve with scheduler "
               "interval bounds ('bounds'), or resolve the nondeterminism "
               "(lump/minimise first)";
      blocking.push_back(std::move(d));
    }
  }
  if (!blocking.empty()) {
    throw InvalidRequest(std::move(blocking));
  }
}

double parse_time_bound(const std::string& arg) {
  std::size_t used = 0;
  double t = 0.0;
  try {
    t = std::stod(arg, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != arg.size() || !(t > 0.0)) {
    reject("bad time bound '" + arg + "'", "expected a positive number");
  }
  return t;
}

Prepared prepare_reach(const Request& r) {
  auto m = parse_imc_payload(r);
  require_deterministic(*m, "reach");
  // Canonicalise the time bound through its parsed value, so "0.50" and
  // "0.5" share one cache entry.
  const bool bounded = !r.arg.empty();
  const double t = bounded ? parse_time_bound(r.arg) : 0.0;
  Hasher h;
  h.str(kKeySchema);
  h.str("reach");
  h.str(bounded ? format_double(t) : "");
  hash_append(h, *m);
  Prepared p;
  p.key = h.key();
  p.model_states = m->num_states();
  p.setup = [m]() -> std::shared_ptr<void> {
    return std::make_shared<core::ClosedModel>(core::close_model(*m));
  };
  p.run_shared = [bounded, t](void* shared) {
    const auto& closed = *static_cast<const core::ClosedModel*>(shared);
    if (bounded) {
      const double p = markov::absorption_probability_by(closed.ctmc, t);
      return "P[absorbed by t=" + format_double(t) +
             "] = " + format_double(p);
    }
    const std::vector<bool> target = markov::absorbing_states(closed.ctmc);
    if (std::find(target.begin(), target.end(), true) == target.end()) {
      throw std::runtime_error("serve: model has no absorbing state");
    }
    const std::vector<double> per_state =
        markov::reachability_probability(closed.ctmc, target);
    const std::vector<double> pi0 = closed.ctmc.initial_distribution();
    double prob = 0.0;
    for (std::size_t s = 0; s < per_state.size(); ++s) {
      prob += pi0[s] * per_state[s];
    }
    return "P[reach absorbing] = " + format_double(prob);
  };
  p.run = [setup = p.setup, run_shared = p.run_shared]() {
    return run_shared(setup().get());
  };
  return p;
}

Prepared prepare_bounds(const Request& r) {
  auto m = parse_imc_payload(r);
  Hasher h;
  h.str(kKeySchema);
  h.str("bounds");
  hash_append(h, *m);
  Prepared p;
  p.key = h.key();
  p.model_states = m->num_states();
  p.run = [m]() {
    std::vector<bool> absorbing(m->num_states(), false);
    for (imc::StateId s = 0; s < m->num_states(); ++s) {
      absorbing[s] = m->interactive(s).empty() && m->markovian(s).empty();
    }
    const imc::Bounds rb = imc::reachability_bounds(*m, absorbing);
    const imc::Bounds tb = imc::absorption_time_bounds(*m);
    return "reach in [" + format_double(rb.min) + ", " +
           format_double(rb.max) + "]; time in [" + format_double(tb.min) +
           ", " + format_double(tb.max) + "]";
  };
  return p;
}

Prepared prepare_check(const Request& r) {
  if (r.payload.empty()) {
    reject("empty model payload");
  }
  std::shared_ptr<const lts::Lts> l;
  try {
    l = std::make_shared<const lts::Lts>(lts::from_aut(r.payload));
  } catch (const std::exception& e) {
    reject(std::string("malformed .aut model: ") + e.what());
  }
  mc::FormulaPtr f;
  try {
    f = mc::parse_formula(r.arg);
  } catch (const std::exception& e) {
    reject(std::string("malformed formula: ") + e.what());
  }
  Hasher h;
  h.str(kKeySchema);
  h.str("check");
  h.str(f->to_string());  // canonical rendering, not the raw input text
  hash_append(h, *l);
  Prepared p;
  p.key = h.key();
  p.model_states = l->num_states();
  p.run = [l, f]() {
    const mc::StateSet sat = mc::evaluate(*l, f);
    const bool holds = l->num_states() > 0 && sat.contains(l->initial_state());
    return std::string(holds ? "TRUE" : "FALSE") + " sat=" +
           std::to_string(sat.count()) + "/" +
           std::to_string(l->num_states());
  };
  return p;
}

Prepared prepare_throughput(const Request& r) {
  auto m = parse_imc_payload(r);
  // An explicit "uniform:" prefix on the glob opts into resolving residual
  // interactive nondeterminism by a uniform scheduler instead of rejecting
  // the model (the policy the NoC contention models are analysed under).
  // The prefix is part of the hashed arg, so the two policies never share a
  // cache entry.
  constexpr std::string_view kUniform = "uniform:";
  const bool uniform = r.arg.rfind(kUniform, 0) == 0;
  const std::string glob =
      uniform ? r.arg.substr(kUniform.size()) : r.arg;
  if (!uniform) {
    require_deterministic(*m, "throughput");
  }
  if (glob.empty()) {
    reject("throughput needs a label glob", "pass the label pattern as arg");
  }
  Hasher h;
  h.str(kKeySchema);
  h.str(kSteadySolver);
  h.str("throughput");
  h.str(r.arg);
  hash_append(h, *m);
  const imc::NondetPolicy policy =
      uniform ? imc::NondetPolicy::kUniform : imc::NondetPolicy::kReject;
  Prepared p;
  p.key = h.key();
  p.model_states = m->num_states();
  p.setup = [m, policy]() -> std::shared_ptr<void> {
    return std::make_shared<core::ClosedModel>(core::close_model(*m, policy));
  };
  p.run_shared = [glob](void* shared) {
    const auto& closed = *static_cast<const core::ClosedModel*>(shared);
    const std::vector<double> pi = markov::steady_state(closed.ctmc);
    const double v = markov::throughput(closed.ctmc, pi, glob);
    return "throughput(" + glob + ") = " + format_double(v);
  };
  p.run = [setup = p.setup, run_shared = p.run_shared]() {
    return run_shared(setup().get());
  };
  return p;
}

}  // namespace

bool is_solve_verb(Verb v) {
  switch (v) {
    case Verb::kReach:
    case Verb::kBounds:
    case Verb::kCheck:
    case Verb::kThroughput:
      return true;
    case Verb::kPing:
    case Verb::kStats:
    case Verb::kShutdown:
      return false;
  }
  return false;
}

Prepared prepare_request(const Request& r) {
  switch (r.verb) {
    case Verb::kReach:
      return prepare_reach(r);
    case Verb::kBounds:
      return prepare_bounds(r);
    case Verb::kCheck:
      return prepare_check(r);
    case Verb::kThroughput:
      return prepare_throughput(r);
    case Verb::kPing:
    case Verb::kStats:
    case Verb::kShutdown:
      break;
  }
  throw std::runtime_error(std::string("serve: '") +
                           std::string(to_string(r.verb)) +
                           "' is not a solve verb");
}

std::string solve_request(const Request& r) {
  return prepare_request(r).run();
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace multival::serve
