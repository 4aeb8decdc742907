// MPI software layer over the FAME2 coherent memory, and the ping-pong
// benchmark whose latency the paper predicts "in different topologies,
// different software implementations of the MPI primitives, and different
// cache coherency protocols".
//
// Message transfer is modelled at the coherence level:
//  - eager:      the sender writes payload+flag into the receiver's mailbox
//                line (one write), the receiver reads it (one read);
//  - rendezvous: request write / ack read+write / data write+read — three
//                mailbox round-trips per message.
// After each receive the receiver unpacks into a freshly recycled local
// buffer (flush + cold read + write on its private scratch line) — the
// access pattern on which MESI's Exclusive state saves an upgrade
// transaction over MSI.
#pragma once

#include "compose/plan.hpp"
#include "fame/coherence.hpp"
#include "fame/topology.hpp"
#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::fame {

enum class MpiImpl { kEager, kRendezvous };

[[nodiscard]] const char* to_string(MpiImpl i);

struct PingPongConfig {
  Protocol protocol = Protocol::kMsi;
  Topology topology = Topology::kBus;
  MpiImpl impl = MpiImpl::kEager;
  int rounds = 2;          ///< ping-pong rounds executed before stopping
  double base_rate = 1.0;  ///< interconnect speed scale
};

/// Process program of the ping-pong scenario (entry "PingPong": mailbox
/// line "M", scratch lines "S0"/"S1"); terminates after config.rounds.
[[nodiscard]] proc::Program pingpong_program(const PingPongConfig& config);

/// Functional LTS of the ping-pong scenario (mailbox line "M", scratch
/// lines "S0"/"S1", token gates hidden); terminates after config.rounds.
/// The default strategy plans the composition and returns the canonical
/// minimal LTS; Strategy::kFlat is the monolithic generation.
[[nodiscard]] lts::Lts pingpong_lts(
    const PingPongConfig& config,
    compose::Strategy strategy = compose::Strategy::kPlanned,
    compose::MinimizeCache* cache = nullptr);

struct PingPongResult {
  double total_time = 0.0;     ///< expected time for all rounds
  double round_latency = 0.0;  ///< total_time / rounds
  double p95_total = 0.0;      ///< 95th percentile of the total time
  std::size_t ctmc_states = 0;
};

/// Expected ping-pong latency through the IMC flow: decorate the scenario
/// with topology rates, close, and compute the expected absorption time.
[[nodiscard]] PingPongResult pingpong_latency(const PingPongConfig& config);

/// MPI barrier benchmark: each node writes its own flag line, both
/// synchronise, then each reads the other's flag — two concurrent
/// coherence transactions per round (unlike the serialised ping-pong).
struct BarrierConfig {
  Protocol protocol = Protocol::kMsi;
  Topology topology = Topology::kBus;
  int rounds = 2;
  double base_rate = 1.0;
};

/// Functional LTS of the barrier scenario (flag lines "F0"/"F1").
[[nodiscard]] lts::Lts barrier_lts(const BarrierConfig& config);

struct BarrierResult {
  double total_time = 0.0;
  double round_latency = 0.0;
  std::size_t ctmc_states = 0;
};

[[nodiscard]] BarrierResult barrier_latency(const BarrierConfig& config);

}  // namespace multival::fame
