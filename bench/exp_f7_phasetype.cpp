// Experiment F7 — the paper's conclusion: "representations of fixed-time
// delays, for which there is a space-accuracy tradeoff when approximating
// them in the IMC formalism".
//
// Part A quantifies the trade-off on the distribution itself: Erlang-k
// matches the mean exactly; the residual variability (CV^2 = 1/k) and the
// Wasserstein distance to the unit step fall as k grows, while the phase
// count (state-space cost) grows linearly.
//
// Part B shows the trade-off inside a model: an M/Er(k)/1/3 station whose
// service time approximates a fixed delay; the predicted occupancy
// converges as k grows while the closed IMC grows with k.
#include <climits>
#include <deque>
#include <iostream>
#include <vector>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "markov/absorption.hpp"
#include "markov/steady.hpp"
#include "markov/transient.hpp"
#include "noc/mesh.hpp"
#include "phase/fit.hpp"
#include "proc/generator.hpp"

namespace {

using namespace multival;
using namespace multival::proc;

/// Occupancy labelling over an IMC (ARR = +1, SRV_END = -1), following both
/// interactive and Markovian edges.
std::vector<int> imc_occupancy(const imc::Imc& m) {
  std::vector<int> occ(m.num_states(), INT_MIN);
  std::deque<imc::StateId> queue{m.initial_state()};
  occ[m.initial_state()] = 0;
  const auto visit = [&](imc::StateId dst, int value) {
    if (occ[dst] == INT_MIN) {
      occ[dst] = value;
      queue.push_back(dst);
    }
  };
  while (!queue.empty()) {
    const imc::StateId s = queue.front();
    queue.pop_front();
    for (const imc::InterEdge& e : m.interactive(s)) {
      const std::string_view label = m.actions().name(e.action);
      int delta = 0;
      if (label == "ARR") {
        delta = 1;
      } else if (label == "SRVEND") {
        delta = -1;
      }
      visit(e.dst, occ[s] + delta);
    }
    for (const imc::MarkEdge& e : m.markovian(s)) {
      visit(e.dst, occ[s]);
    }
  }
  return occ;
}

}  // namespace

int main() {
  using multival::core::fmt;

  // ---- Part A: the distribution-level trade-off --------------------------
  multival::core::Table a(
      "F7a: Erlang-k approximation of a fixed delay d = 1",
      {"k", "phases", "mean", "CV^2", "Wasserstein", "Kolmogorov"});
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const auto fit = phase::evaluate_fixed_delay_fit(1.0, k, 400);
    const auto dist = phase::erlang_for_fixed_delay(1.0, k);
    a.add_row({std::to_string(k), std::to_string(fit.phases),
               fmt(dist.mean()), fmt(fit.cv2), fmt(fit.wasserstein),
               fmt(fit.kolmogorov)});
  }
  a.print(std::cout);
  std::cout << "(accuracy ~ 1/sqrt(k); cost = k phases — the trade-off)\n\n";

  // ---- Part B: the model-level trade-off ----------------------------------
  // Station with capacity 3, Poisson(0.8) arrivals, fixed service time 1
  // approximated by Erlang-k.
  const int cap = 3;
  Program p;
  {
    std::vector<TermPtr> branches;
    branches.push_back(guard(evar("n") < lit(cap),
                             prefix("ARR", call("Q", {evar("n") + lit(1),
                                                      evar("b")}))));
    branches.push_back(guard(evar("n") > lit(0) && evar("b") == lit(0),
                             prefix("SSTART", call("Q", {evar("n"), lit(1)}))));
    branches.push_back(guard(evar("b") == lit(1),
                             prefix("SEND",
                                    prefix("SRVEND",
                                           call("Q", {evar("n") - lit(1),
                                                      lit(0)})))));
    p.define("Q", {"n", "b"}, choice(std::move(branches)));
    p.define("Gen", {}, prefix("ASTART", prefix("AEND",
                               prefix("ARR", call("Gen")))));
    p.define("Station", {},
             par(call("Q", {lit(0), lit(0)}), {"ARR"}, call("Gen")));
  }
  const lts::Lts functional = generate(p, "Station");

  multival::core::Table b(
      "F7b: M/Er(k)/1/3 station, fixed service time 1, arrivals 0.8",
      {"k", "IMC states", "CTMC states", "mean occupancy", "P[occ=3]"});
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const std::vector<multival::core::DelaySpec> delays{
        {"ASTART", "AEND", phase::PhaseType::exponential(0.8)},
        {"SSTART", "SEND", phase::erlang_for_fixed_delay(1.0, k)},
    };
    imc::Imc m = multival::core::insert_delays(functional, delays);
    m = imc::trim(m);
    const std::vector<int> occ = imc_occupancy(m);
    // The residual tau nondeterminism is confluent (independent
    // instantaneous events commute), so uniform resolution is exact; we
    // skip lumping to keep the occupancy labelling valid per state.
    const auto closed =
        multival::core::close_model(m, imc::NondetPolicy::kUniform,
                                    /*lump=*/false);
    const auto pi = markov::steady_state(closed.ctmc);
    double mean = 0.0;
    double full = 0.0;
    for (std::size_t cs = 0; cs < pi.size(); ++cs) {
      const int level = occ[closed.imc_state_of[cs]];
      mean += pi[cs] * level;
      if (level == cap) {
        full += pi[cs];
      }
    }
    b.add_row({std::to_string(k), std::to_string(m.num_states()),
               std::to_string(closed.ctmc.num_states()), fmt(mean),
               fmt(full)});
  }
  b.print(std::cout);
  std::cout << "(shape: predictions converge as k grows while the state "
               "space grows linearly in k)\n\n";

  // ---- Part C: fixed-time NoC link delays ---------------------------------
  // A 2-hop packet (0 -> 3) whose link hops take a *fixed* 0.5 time units,
  // approximated by Erlang-k.  The mean end-to-end latency is invariant; the
  // delivery-time distribution sharpens around it as k grows.
  const lts::Lts scenario = noc::single_packet_lts(0, 3,
                                                   /*hide_links=*/false);
  multival::core::Table c(
      "F7c: 2-hop NoC packet with fixed link delay 0.5 (Erlang-k links)",
      {"k", "CTMC states", "mean latency", "P[done by 1.2]",
       "P[done by 1.6]"});
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    std::map<std::string, phase::PhaseType> delays;
    for (const std::string& g : noc::mesh_link_gates()) {
      delays.emplace(g, phase::erlang_for_fixed_delay(0.5, k));
    }
    delays.emplace("LI0", phase::PhaseType::exponential(20.0));
    delays.emplace("LO3", phase::PhaseType::exponential(20.0));
    const imc::Imc m =
        multival::core::decorate_with_phase_type(scenario, delays);
    const auto closed = multival::core::close_model(m);
    const std::vector<bool> done = markov::absorbing_states(closed.ctmc);
    c.add_row(
        {std::to_string(k), std::to_string(closed.ctmc.num_states()),
         fmt(markov::expected_absorption_time_from_initial(closed.ctmc)),
         fmt(markov::transient_probability(closed.ctmc, done, 1.2)),
         fmt(markov::transient_probability(closed.ctmc, done, 1.6))});
  }
  c.print(std::cout);
  std::cout << "(shape: the mean is exact for every k; the completion-time "
               "distribution concentrates as k grows, at linear state "
               "cost)\n";
  return 0;
}
