#include "fame/mpi.hpp"

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
  const std::string line = "S" + std::to_string(node);
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
  const int other = 1 - node;
  (void)other;
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

}  // namespace

Program pingpong_program(const PingPongConfig& config) {
  if (config.rounds < 1 || config.rounds > 64) {
    throw std::invalid_argument("pingpong: rounds must be in 1..64");
  }
  Program p;
  const std::vector<std::string> lines{"M", "S0", "S1"};
  for (const std::string& line : lines) {
    (void)add_coherent_line(p, line, config.protocol);
  }

  for (int node = 0; node < 2; ++node) {
    const std::string name = "Mpi" + std::to_string(node);
    p.define(name, {"n"},
             choice({guard(evar("n") > lit(0),
                           fold(round_steps(config.impl, node),
                                call(name, {evar("n") - lit(1)}))),
                     guard(evar("n") == lit(0), stop())}));
  }

  std::vector<std::string> all_ops;
  for (const std::string& line : lines) {
    for (const std::string& g : operation_gates(line)) {
      all_ops.push_back(g);
    }
  }
  p.define(
      "PingPong", {},
      par(interleaving(call("Line_M"),
                       interleaving(call("Line_S0"), call("Line_S1"))),
          all_ops,
          par(call("Mpi0", {lit(config.rounds)}), {kTok01, kTok10},
              call("Mpi1", {lit(config.rounds)}))));
  return p;
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
  Program p;
  const std::vector<std::string> lines{"F0", "F1"};
  for (const std::string& line : lines) {
    (void)add_coherent_line(p, line, config.protocol);
  }
  // Per node i: write own flag, synchronise, read the other's flag.
  for (int node = 0; node < 2; ++node) {
    const std::string own = "F" + std::to_string(node);
    const std::string other = "F" + std::to_string(1 - node);
    const std::string name = "Bar" + std::to_string(node);
    const std::vector<Step> steps{write_op(node, own), token("TOKB"),
                                  read_op(node, other)};
    p.define(name, {"n"},
             choice({guard(evar("n") > lit(0),
                           fold(steps, call(name, {evar("n") - lit(1)}))),
                     guard(evar("n") == lit(0), stop())}));
  }
  std::vector<std::string> all_ops;
  for (const std::string& line : lines) {
    for (const std::string& g : operation_gates(line)) {
      all_ops.push_back(g);
    }
  }
  p.define("Barrier", {},
           par(interleaving(call("Line_F0"), call("Line_F1")), all_ops,
               par(call("Bar0", {lit(config.rounds)}), {"TOKB"},
                   call("Bar1", {lit(config.rounds)}))));
  return generate(p, "Barrier");
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
