// Lowering xMAS netlists into the proc calculus, so fabrics flow through
// the exact pipeline every other model does: plan -> generate -> minimise
// -> decorate with rates -> close -> solve.
//
// The encoding keeps the combinational heart of xMAS exact.  Every channel
// is a gate, and each *combinational* element (function, fork, join)
// unifies its adjacent channels into ONE gate: a fork firing is a single
// multi-way synchronisation between the upstream producer and both
// downstream consumers, a join fires only when both inputs and the output
// are simultaneously ready — precisely the xMAS transfer semantics, with
// data abstracted to tokens.  Unified gates are named after the
// lexicographically smallest member channel, so compilation is
// deterministic.
//
// The stateful elements become processes:
//
//   queue C/I    Q(n) := [n<C] IN;Q(n+1) [] [n>0] OUT;Q(n-1)   entered at I
//   source       S := OUT;S            (or S(k) := [k>0] OUT;S(k-1) bursts)
//   sink         K := IN;K
//   switch       W := IN;(OUT0;W [] OUT1;W)   constant predicates keep one
//   merge        M := IN0;OUT;M [] IN1;OUT;M
//
// switch and merge are one-place latches, not combinational: routing choice
// is inexpressible by pure synchronisation, so they honestly add one stage
// of buffering each (documented wherever capacities are compared).
//
// Dead structure is pruned.  Channels outside the carriability fixed point
// (carriable_channels) can never fire their gate, so keeping them would
// leave provably stuck components in the composition (MV003 noise at
// best, free-firing gates at worst once their last participant is
// dropped).  The compiler therefore emits only the live sub-fabric: dead
// choice branches vanish, elements whose every adjacent gate is dead are
// omitted, and dead gates never reach the gate lists or sync sets.  A
// *join* with a dead input is different — that is the MV031 structural
// deadlock, and compile() refuses it outright rather than silently
// shipping a model missing the deadlocked subgraph.
//
// The entry process is the parallel composition of the element processes
// where every parallel node synchronises on the exact shared alphabet of
// its operands — the safely-reassociable shape compose::plan_term wants, so
// the planned strategy applies to fabrics with no further work.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compose/plan.hpp"
#include "lts/lts.hpp"
#include "proc/process.hpp"
#include "xmas/netlist.hpp"

namespace multival::xmas {

struct CompileOptions {
  /// 0 = free-running sources (steady-state models); > 0 = every source
  /// emits this many tokens and stops (burst models for latency probes).
  int burst = 0;
};

/// A compiled fabric: the program plus the gate bookkeeping consumers need
/// to decorate, hide and probe it.
struct Compiled {
  std::shared_ptr<proc::Program> program;
  std::string entry = "Fabric";

  /// channel name -> compiled gate (several channels map to one gate when a
  /// combinational element unified them).
  std::map<std::string, std::string> gate_of_channel;
  /// gate -> member channel names, sorted (singleton for un-unified ones).
  std::map<std::string, std::vector<std::string>> gate_groups;

  /// Disjoint, each sorted: gates adjacent to a source / to a sink / all
  /// remaining fabric-internal gates.  A gate that touches both a source
  /// and a sink is listed as a source gate.
  std::vector<std::string> source_gates;
  std::vector<std::string> sink_gates;
  std::vector<std::string> internal_gates;

  /// Declared element rates per source/sink gate (smallest wins when
  /// unification put several sources or sinks on one gate).
  std::map<std::string, double> declared_rates;
};

/// Compiles a structurally valid netlist.  Runs Netlist::check() first and
/// throws std::invalid_argument on any MV030 error (lint for the full
/// diagnostics); also throws on an MV031 structural deadlock (a join input
/// outside the carriability fixed point) and on combinational cycles that
/// collapse a stateful element's ports onto one gate.  Dead channels —
/// carriable_channels() == false — are pruned (see the header comment), so
/// the gate lists below cover exactly the gates of the emitted program.
[[nodiscard]] Compiled compile(const Netlist& n, const CompileOptions& = {});

/// Markovian decoration table for core::decorate_with_rates: source gates
/// get @p inject, sink gates @p service, internal gates @p transfer.
/// Passing inject or service <= 0 keeps the per-element declared rates.
[[nodiscard]] std::map<std::string, double> rate_table(const Compiled& c,
                                                       double inject = 0.0,
                                                       double service = 0.0,
                                                       double transfer = 1.0);

/// Label glob over every sink gate of @p c: their longest common prefix
/// followed by '*' (the gate set of a throughput probe).  Throws
/// std::invalid_argument when @p c has no sink gate.
[[nodiscard]] std::string sink_glob(const Compiled& c);

/// The fabric's LTS through the standard pipeline: planned (minimal,
/// canonical) or flat per @p strategy — byte-identical results either way.
[[nodiscard]] lts::Lts compiled_lts(const Compiled& c,
                                    compose::Strategy strategy,
                                    const compose::PlanOptions& opts = {},
                                    compose::MinimizeCache* cache = nullptr);

}  // namespace multival::xmas
