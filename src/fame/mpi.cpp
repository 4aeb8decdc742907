#include "fame/mpi.hpp"

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "markov/absorption.hpp"
#include "proc/generator.hpp"

namespace multival::fame {

using namespace multival::proc;

const char* to_string(MpiImpl i) {
  return i == MpiImpl::kEager ? "eager" : "rendezvous";
}

namespace {

constexpr const char* kMailbox = "M";
constexpr const char* kTok01 = "TOK01";
constexpr const char* kTok10 = "TOK10";

/// An op-sequence step: prepends one action (or handshake) to a term.
using Step = std::function<TermPtr(TermPtr)>;

Step read_op(int node, const std::string& line) {
  return [=](TermPtr cont) {
    return prefix(line_gate("RD", node, line),
                  prefix(line_gate("RDD", node, line), std::move(cont)));
  };
}

Step write_op(int node, const std::string& line) {
  return [=](TermPtr cont) {
    return prefix(line_gate("WR", node, line),
                  prefix(line_gate("WRD", node, line), std::move(cont)));
  };
}

/// Buffer recycling + unpack: flush, cold read, write on the private
/// scratch line (where MESI's E state pays off).
Step unpack_op(int node) {
  const std::string line = std::string("S").append(std::to_string(node));
  return [=](TermPtr cont) {
    return prefix(
        line_gate("FL", node, line),
        prefix(line_gate("FLD", node, line),
               prefix(line_gate("RD", node, line),
                      prefix(line_gate("RDD", node, line),
                             prefix(line_gate("WR", node, line),
                                    prefix(line_gate("WRD", node, line),
                                           std::move(cont)))))));
  };
}

Step token(const char* gate) {
  return [=](TermPtr cont) { return prefix(gate, std::move(cont)); };
}

TermPtr fold(const std::vector<Step>& steps, TermPtr tail) {
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    tail = (*it)(std::move(tail));
  }
  return tail;
}

/// Per-driver op sequences for one full ping-pong round.  Both drivers
/// name the token gates in the same global order, so their composition is
/// the intended linearisation.
std::vector<Step> round_steps(MpiImpl impl, int node) {
  std::vector<Step> s;
  if (impl == MpiImpl::kEager) {
    if (node == 0) {
      s = {write_op(0, kMailbox), token(kTok01), token(kTok10),
           read_op(0, kMailbox), unpack_op(0)};
    } else {
      s = {token(kTok01), read_op(1, kMailbox), unpack_op(1),
           write_op(1, kMailbox), token(kTok10)};
    }
    return s;
  }
  // Rendezvous: request / ack / data in each direction.
  if (node == 0) {
    s = {write_op(0, kMailbox),  // req ->
         token(kTok01), token(kTok10),
         read_op(0, kMailbox),   // <- ack
         write_op(0, kMailbox),  // data ->
         token(kTok01), token(kTok10),
         read_op(0, kMailbox),   // <- req (reply direction)
         write_op(0, kMailbox),  // ack ->
         token(kTok01), token(kTok10),
         read_op(0, kMailbox),   // <- data
         unpack_op(0)};
  } else {
    s = {token(kTok01),
         read_op(1, kMailbox),   // <- req
         write_op(1, kMailbox),  // ack ->
         token(kTok10), token(kTok01),
         read_op(1, kMailbox),   // <- data
         unpack_op(1),
         write_op(1, kMailbox),  // req -> (reply direction)
         token(kTok10), token(kTok01),
         read_op(1, kMailbox),   // <- ack
         write_op(1, kMailbox),  // data ->
         token(kTok10)};
  }
  return s;
}

/// The program of a two-node scenario, entry process @p entry: the
/// coherent @p lines run interleaved (right-nested) and serve every
/// operation of the node processes <node>0 and <node>1, which synchronise
/// on @p tokens.  Node i runs steps[i] once per round and stops after
/// @p rounds.
Program scenario_program(const std::string& entry,
                         const std::vector<std::string>& lines,
                         Protocol protocol, const std::string& node,
                         const std::array<std::vector<Step>, 2>& steps,
                         std::vector<std::string> tokens, int rounds) {
  Program p;
  std::vector<std::string> ops;
  for (const std::string& line : lines) {
    const std::vector<std::string> line_ops = operation_gates(line);
    ops.insert(ops.end(), line_ops.begin(), line_ops.end());
  }
  TermPtr memory = call(add_coherent_line(p, lines.back(), protocol));
  for (auto line = lines.rbegin() + 1; line != lines.rend(); ++line) {
    memory = interleaving(call(add_coherent_line(p, *line, protocol)),
                          std::move(memory));
  }
  std::array<TermPtr, 2> nodes;
  for (int i = 0; i < 2; ++i) {
    const std::string name = std::string(node).append(std::to_string(i));
    p.define(name, {"n"},
             choice({guard(evar("n") > lit(0),
                           fold(steps[i], call(name, {evar("n") - lit(1)}))),
                     guard(evar("n") == lit(0), stop())}));
    nodes[static_cast<std::size_t>(i)] = call(name, {lit(rounds)});
  }
  p.define(entry, {},
           par(std::move(memory), std::move(ops),
               par(std::move(nodes[0]), std::move(tokens),
                   std::move(nodes[1]))));
  return p;
}

}  // namespace

Program pingpong_program(const PingPongConfig& config) {
  if (config.rounds < 1 || config.rounds > 64) {
    throw std::invalid_argument("pingpong: rounds must be in 1..64");
  }
  return scenario_program(
      "PingPong", {"M", "S0", "S1"}, config.protocol, "Mpi",
      {round_steps(config.impl, 0), round_steps(config.impl, 1)},
      {kTok01, kTok10}, config.rounds);
}

lts::Lts pingpong_lts(const PingPongConfig& config, compose::Strategy strategy,
                      compose::MinimizeCache* cache) {
  return compose::pipeline_lts(
      std::make_shared<const Program>(pingpong_program(config)), "PingPong",
      strategy, {}, cache);
}

lts::Lts barrier_lts(const BarrierConfig& config) {
  if (config.rounds < 1 || config.rounds > 64) {
    throw std::invalid_argument("barrier: rounds must be in 1..64");
  }
  // Per node i: write own flag, synchronise, read the other's flag.
  const auto steps = [](int node, const char* own, const char* other) {
    return std::vector<Step>{write_op(node, own), token("TOKB"),
                             read_op(node, other)};
  };
  return generate(scenario_program("Barrier", {"F0", "F1"}, config.protocol,
                                   "Bar", {steps(0, "F0", "F1"),
                                           steps(1, "F1", "F0")},
                                   {"TOKB"}, config.rounds),
                  "Barrier");
}

BarrierResult barrier_latency(const BarrierConfig& config) {
  const core::SolveContext solve_ctx("fame/barrier");
  const lts::Lts l = barrier_lts(config);
  const auto rates =
      topology_rates(config.topology, {"F0", "F1"}, config.base_rate);
  const imc::Imc m = core::decorate_with_rates(l, rates);
  const core::ClosedModel closed = core::close_model(m);
  BarrierResult r;
  r.ctmc_states = closed.ctmc.num_states();
  r.total_time = markov::expected_absorption_time_from_initial(closed.ctmc);
  r.round_latency = r.total_time / static_cast<double>(config.rounds);
  return r;
}

PingPongResult pingpong_latency(const PingPongConfig& config) {
  const core::SolveContext solve_ctx("fame/pingpong");
  const lts::Lts l = pingpong_lts(config);
  const auto rates =
      topology_rates(config.topology, {"M", "S0", "S1"}, config.base_rate);
  const imc::Imc m = core::decorate_with_rates(l, rates);
  const core::ClosedModel closed = core::close_model(m);
  PingPongResult r;
  r.ctmc_states = closed.ctmc.num_states();
  r.total_time = markov::expected_absorption_time_from_initial(closed.ctmc);
  r.round_latency = r.total_time / static_cast<double>(config.rounds);
  r.p95_total = markov::absorption_time_quantile(closed.ctmc, 0.95);
  return r;
}

}  // namespace multival::fame
