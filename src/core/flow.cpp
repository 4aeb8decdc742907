#include "core/flow.hpp"

#include <optional>
#include <sstream>

#include "bisim/equivalence.hpp"
#include "lts/product.hpp"

namespace multival::core {

bool VerificationReport::all_hold() const {
  for (const auto& p : properties) {
    if (!p.holds) {
      return false;
    }
  }
  return true;
}

std::string VerificationReport::to_string() const {
  std::ostringstream os;
  os << "states: " << raw.states << " (" << minimized.states
     << " after divbranching minimisation), transitions: " << raw.transitions
     << "\n";
  for (const auto& p : properties) {
    os << "  [" << (p.holds ? "PASS" : "FAIL") << "] " << p.name << " — "
       << p.detail << "\n";
  }
  return os.str();
}

VerificationReport verify(
    const lts::Lts& l,
    const std::vector<std::pair<std::string, mc::FormulaPtr>>& extra) {
  VerificationReport r;
  r.raw = ModelStats{l.num_states(), l.num_transitions()};
  const auto min =
      bisim::minimize(l, bisim::Equivalence::kDivergenceBranching);
  r.minimized =
      ModelStats{min.quotient.num_states(), min.quotient.num_transitions()};
  // Properties are checked on the minimised LTS: divergence-preserving
  // branching bisimulation preserves deadlocks, livelocks and the
  // mu-calculus fragment we use, and the smaller state space is faster.
  r.properties = mc::standard_battery(min.quotient, extra);
  return r;
}

imc::Imc decorate_with_rates(const lts::Lts& l,
                             const std::map<std::string, double>& gate_rates) {
  for (const auto& [gate, rate] : gate_rates) {
    if (!(rate > 0.0)) {
      throw std::invalid_argument("decorate_with_rates: rate of gate " +
                                  gate + " must be > 0");
    }
  }
  return imc::lift(l, [&](std::string_view label) -> std::optional<imc::Delay> {
    const auto it = gate_rates.find(std::string(lts::label_gate(label)));
    if (it == gate_rates.end()) {
      return std::nullopt;
    }
    return imc::Delay{it->second, std::string(label)};
  });
}

imc::Imc insert_delays(const lts::Lts& l,
                       const std::vector<DelaySpec>& delays) {
  imc::Imc m(l);
  std::vector<std::string> delay_gates;
  for (const DelaySpec& spec : delays) {
    const imc::Imc d =
        phase::delay_process(spec.dist, spec.start_gate, spec.end_gate);
    const std::vector<std::string> sync{spec.start_gate, spec.end_gate};
    m = imc::parallel(m, d, sync);
    delay_gates.push_back(spec.start_gate);
    delay_gates.push_back(spec.end_gate);
  }
  return imc::hide(m, delay_gates);
}

imc::Imc decorate_with_phase_type(
    const lts::Lts& l,
    const std::map<std::string, phase::PhaseType>& gate_delays) {
  for (const auto& [gate, dist] : gate_delays) {
    bool point_mass = dist.alpha()[0] == 1.0;
    for (std::size_t i = 1; i < dist.alpha().size(); ++i) {
      point_mass = point_mass && dist.alpha()[i] == 0.0;
    }
    if (!point_mass) {
      throw std::invalid_argument(
          "decorate_with_phase_type: distribution of gate " + gate +
          " must start deterministically in phase 0");
    }
  }
  imc::Imc m;
  m.add_states(l.num_states());
  if (l.num_states() > 0) {
    m.set_initial_state(l.initial_state());
  }
  for (lts::StateId s = 0; s < l.num_states(); ++s) {
    for (const lts::OutEdge& e : l.out(s)) {
      const std::string_view label = l.actions().name(e.action);
      const auto it = gate_delays.find(std::string(lts::label_gate(label)));
      if (it == gate_delays.end() || lts::ActionTable::is_tau(e.action)) {
        m.add_interactive(s, label, e.dst);
        continue;
      }
      // Expand into the Coxian chain: fresh intermediate states; each
      // stage may continue or absorb into the edge target.  Only the
      // stages that can end the delay carry the original label.
      const phase::PhaseType& d = it->second;
      const std::size_t k = d.num_phases();
      imc::StateId cur = s;
      for (std::size_t i = 0; i < k; ++i) {
        const double cont = d.continuation()[i];
        const double absorb_rate = d.rates()[i] * (1.0 - cont);
        const imc::StateId next =
            (i + 1 < k && cont > 0.0) ? m.add_state() : e.dst;
        if (absorb_rate > 0.0) {
          m.add_markovian(cur, absorb_rate, e.dst, label);
        }
        if (i + 1 < k && cont > 0.0) {
          m.add_markovian(cur, d.rates()[i] * cont, next);
        }
        cur = next;
        if (cur == e.dst) {
          break;
        }
      }
    }
  }
  return m;
}

ClosedModel close_model(const imc::Imc& m, imc::NondetPolicy policy,
                        bool lump) {
  ClosedModel out;
  imc::Imc closed = imc::maximal_progress(imc::hide_all(m));
  out.stats.imc_states = closed.num_states();
  if (lump) {
    closed = imc::minimize_imc(closed).quotient;
  }
  out.stats.lumped_states = closed.num_states();
  imc::CtmcExtraction ex = imc::to_ctmc(closed, policy);
  out.stats.ctmc_states = ex.ctmc.num_states();
  out.ctmc = std::move(ex.ctmc);
  out.imc_state_of = std::move(ex.imc_state_of);
  out.lumped = std::move(closed);
  return out;
}

}  // namespace multival::core
