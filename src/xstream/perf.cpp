#include "xstream/perf.hpp"

#include <deque>
#include <map>
#include <stdexcept>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "lts/product.hpp"
#include "markov/steady.hpp"

namespace multival::xstream {

std::vector<int> occupancy_of_states(const lts::Lts& l,
                                     const std::string& push_gate,
                                     const std::string& pop_gate) {
  constexpr int kUnset = INT_MIN;
  std::vector<int> occ(l.num_states(), kUnset);
  if (l.num_states() == 0) {
    return occ;
  }
  std::deque<lts::StateId> queue{l.initial_state()};
  occ[l.initial_state()] = 0;
  while (!queue.empty()) {
    const lts::StateId s = queue.front();
    queue.pop_front();
    for (const lts::OutEdge& e : l.out(s)) {
      const std::string_view gate =
          lts::label_gate(l.actions().name(e.action));
      int delta = 0;
      if (gate == push_gate) {
        delta = 1;
      } else if (gate == pop_gate) {
        delta = -1;
      }
      const int next = occ[s] + delta;
      if (occ[e.dst] == kUnset) {
        occ[e.dst] = next;
        queue.push_back(e.dst);
      } else if (occ[e.dst] != next) {
        throw std::runtime_error(
            "occupancy_of_states: inconsistent PUSH/POP balance at state " +
            std::to_string(e.dst));
      }
    }
  }
  for (int& o : occ) {
    if (o == kUnset) {
      o = 0;  // unreachable state
    }
  }
  return occ;
}

QueuePerfResult analyze_virtual_queue(const QueuePerfParams& params) {
  const core::SolveContext solve_ctx("xstream/virtual-queue");
  QueueConfig cfg = params.queue;
  cfg.max_value = 0;  // payload values do not influence timing
  const lts::Lts open = virtual_queue_lts_open(cfg);
  const std::vector<int> occ = occupancy_of_states(open, "PUSH", "POP");

  const imc::Imc m = core::decorate_with_rates(
      open, {{"PUSH", params.push_rate},
             {"NET", params.net_rate},
             {"CREDIT", params.credit_rate},
             {"POP", params.pop_rate}});
  // All transitions became Markovian, so extraction is the identity on
  // states; skip lumping to keep the occupancy reward well-defined.
  const core::ClosedModel closed =
      core::close_model(m, imc::NondetPolicy::kReject, /*lump=*/false);

  const std::vector<double> pi = markov::steady_state(closed.ctmc);

  QueuePerfResult r;
  r.ctmc_states = closed.ctmc.num_states();
  const int max_occ = cfg.capacity + 1;
  r.occupancy_distribution.assign(static_cast<std::size_t>(max_occ) + 1, 0.0);
  for (std::size_t cs = 0; cs < pi.size(); ++cs) {
    const lts::StateId original = closed.imc_state_of[cs];
    const int k = occ[original];
    if (k < 0 || k > max_occ) {
      throw std::logic_error("analyze_virtual_queue: occupancy out of range");
    }
    r.occupancy_distribution[static_cast<std::size_t>(k)] += pi[cs];
    r.mean_occupancy += pi[cs] * k;
    if (k > 0) {
      r.utilisation += pi[cs];
    }
  }
  r.throughput = markov::throughput(closed.ctmc, pi, "POP*");
  r.mean_latency = r.throughput > 0.0 ? r.mean_occupancy / r.throughput : 0.0;
  return r;
}

PipelineNPerfResult analyze_pipeline_n(const PipelinePerfParams& params,
                                       int stages) {
  const core::SolveContext solve_ctx("xstream/pipeline-n");
  if (stages < 2 || stages > 4) {
    throw std::invalid_argument("analyze_pipeline_n: stages must be in 2..4");
  }
  QueueConfig cfg = params.queue;
  cfg.max_value = 0;
  const lts::Lts stage = virtual_queue_lts_open(cfg);

  const auto boundary = [&](int i) {
    // Gate between stage i-1 and stage i.
    if (i == 0) {
      return std::string("PUSH");
    }
    if (i == stages) {
      return std::string("POP");
    }
    return "MID" + std::to_string(i);
  };

  std::map<std::string, double> rates{{"PUSH", params.push_rate},
                                      {"POP", params.pop_rate}};
  lts::Lts pipe;
  for (int i = 0; i < stages; ++i) {
    const std::string tag = std::to_string(i);
    lts::Lts q = lts::rename(stage, {{"PUSH", boundary(i)},
                                     {"POP", boundary(i + 1)},
                                     {"NET", "NET" + tag},
                                     {"CREDIT", "CR" + tag}});
    rates["NET" + tag] = params.net_rate;
    rates["CR" + tag] = params.credit_rate;
    if (i > 0) {
      rates[boundary(i)] = params.handoff_rate;
      const std::vector<std::string> join{boundary(i)};
      pipe = lts::parallel(pipe, q, join);
    } else {
      pipe = std::move(q);
    }
  }

  std::vector<std::vector<int>> occ;
  for (int i = 0; i < stages; ++i) {
    occ.push_back(occupancy_of_states(pipe, boundary(i), boundary(i + 1)));
  }

  const imc::Imc m = core::decorate_with_rates(pipe, rates);
  const core::ClosedModel closed =
      core::close_model(m, imc::NondetPolicy::kReject, /*lump=*/false);
  const std::vector<double> pi = markov::steady_state(closed.ctmc);

  PipelineNPerfResult r;
  r.ctmc_states = closed.ctmc.num_states();
  r.stage_occupancy.assign(static_cast<std::size_t>(stages), 0.0);
  double total = 0.0;
  for (std::size_t cs = 0; cs < pi.size(); ++cs) {
    const lts::StateId original = closed.imc_state_of[cs];
    for (int i = 0; i < stages; ++i) {
      const double add = pi[cs] * occ[static_cast<std::size_t>(i)][original];
      r.stage_occupancy[static_cast<std::size_t>(i)] += add;
      total += add;
    }
  }
  r.throughput = markov::throughput(closed.ctmc, pi, "POP*");
  r.mean_latency = r.throughput > 0.0 ? total / r.throughput : 0.0;
  return r;
}

}  // namespace multival::xstream
