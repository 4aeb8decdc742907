// Performance models of the xSTream virtual queues: the paper's claim is
// that the IMC flow predicts "latency, throughputs in the communication
// architecture, and occupancy within xSTream queues".
#pragma once

#include <vector>

#include "lts/lts.hpp"
#include "xstream/queue_model.hpp"

namespace multival::xstream {

/// Occupancy (items currently inside the queue) of every LTS state,
/// computed as the PUSH-minus-POP balance along paths from the initial
/// state.  Throws std::runtime_error if two paths disagree (i.e. the LTS is
/// not a queue w.r.t. the given gates).
[[nodiscard]] std::vector<int> occupancy_of_states(const lts::Lts& l,
                                                   const std::string& push_gate,
                                                   const std::string& pop_gate);

struct QueuePerfParams {
  QueueConfig queue;    ///< functional configuration (values irrelevant: use 0)
  double push_rate = 1.0;    ///< producer inter-arrival rate (lambda)
  double net_rate = 10.0;    ///< NoC transfer rate
  double credit_rate = 10.0; ///< credit-return rate
  double pop_rate = 2.0;     ///< consumer service rate (mu)
};

struct QueuePerfResult {
  /// P[occupancy = k] for k = 0 .. capacity+1 (pop FIFO plus push stage).
  std::vector<double> occupancy_distribution;
  double mean_occupancy = 0.0;
  double throughput = 0.0;    ///< long-run POP rate
  double mean_latency = 0.0;  ///< Little's law: mean occupancy / throughput
  double utilisation = 0.0;   ///< P[occupancy > 0]
  std::size_t ctmc_states = 0;
};

/// Full performance analysis of one virtual queue through the IMC flow:
/// generate the open LTS, decorate all four gates with rates, close, solve.
[[nodiscard]] QueuePerfResult analyze_virtual_queue(
    const QueuePerfParams& params);

/// Virtual queues in series (the "communication architecture" shape of an
/// xSTream stream: producer -> queue -> relay -> ... -> queue -> consumer).
struct PipelinePerfParams {
  QueueConfig queue;          ///< configuration of every stage
  double push_rate = 1.0;     ///< producer rate into the first stage
  double handoff_rate = 8.0;  ///< relay between adjacent stages (MID<i>)
  double net_rate = 10.0;     ///< NoC rate inside each stage
  double credit_rate = 10.0;
  double pop_rate = 2.0;      ///< consumer rate out of the last stage
};

struct PipelineNPerfResult {
  double throughput = 0.0;    ///< long-run consumer rate
  double mean_latency = 0.0;  ///< end-to-end (Little on total occupancy)
  std::vector<double> stage_occupancy;  ///< one entry per stage
  std::size_t ctmc_states = 0;
};

/// Steady-state analysis of @p stages virtual queues in series (2..4).
[[nodiscard]] PipelineNPerfResult analyze_pipeline_n(
    const PipelinePerfParams& params, int stages);

}  // namespace multival::xstream
