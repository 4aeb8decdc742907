// FAME2 case study (Bull): CC-NUMA cache coherency.
//
// We model one cache line kept coherent across two nodes by a directory
// controller, with atomic (serialised) transactions — the abstraction level
// of the FAME2 protocol-circuit models mentioned in the paper.  Two
// protocols are supported:
//   MSI  — read misses are always granted Shared,
//   MESI — a read miss with no other sharer is granted Exclusive, making
//          the subsequent write silent (no directory transaction).
//
// Per-line gates (suffix "_<line>", node index <i> in {0,1}):
//   RD<i>/RDD<i>    — driver requests / completes a read
//   WR<i>/WRD<i>    — driver requests / completes a write
//   RQS<i>, GRS<i>  — read-miss transaction (grant carries the new state:
//                     1 = Shared, 3 = Exclusive)
//   RQM<i>, GRM<i>  — write-miss / upgrade transaction
//   INV<i>          — directory invalidates node i's copy
//   WB<i>           — directory downgrades the owner to Shared
//   FL<i>/FLD<i>    — driver flushes (recycles) its buffer copy
//   EV<i>           — eviction notice to the directory
//   ERR             — raised by the SWMR observer on a coherence violation
//
// Cache states: 0 = Invalid, 1 = Shared, 2 = Modified, 3 = Exclusive.
#pragma once

#include <string>
#include <vector>

#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::fame {

enum class Protocol { kMsi, kMesi };

[[nodiscard]] const char* to_string(Protocol p);

/// Gate name helpers ("RD0_M", "RQS1_M", ...).
[[nodiscard]] std::string line_gate(const std::string& base, int node,
                                    const std::string& line);

/// All directory-transaction gates of @p line (these carry the interconnect
/// cost and get topology-dependent rates).
[[nodiscard]] std::vector<std::string> transaction_gates(
    const std::string& line);

/// All driver-facing operation gates of @p line.
[[nodiscard]] std::vector<std::string> operation_gates(const std::string& line);

/// Adds the two caches and the directory of one coherent line to
/// @p program; entry process "Line_<line>" (caches ||| caches |[tx]| dir).
/// Returns the entry name.
[[nodiscard]] std::string add_coherent_line(proc::Program& program,
                                            const std::string& line,
                                            Protocol protocol);

/// Adds the SWMR observer of @p line: a transparent process watching grant,
/// invalidate, writeback and operation gates, raising ERR_<line> on any
/// single-writer-multiple-reader violation.  Returns the entry name.
[[nodiscard]] std::string add_swmr_observer(proc::Program& program,
                                            const std::string& line,
                                            Protocol protocol);

/// Closed verification system as a process program: one line, free
/// read/write drivers on both nodes, observer attached; transaction gates
/// visible.  Entry process "System".  This is what the on-the-fly
/// exploration engine (src/explore) consumes.
[[nodiscard]] proc::Program coherence_system_program(Protocol protocol);

/// Generated LTS of coherence_system_program.
[[nodiscard]] lts::Lts coherence_system_lts(Protocol protocol);

}  // namespace multival::fame
