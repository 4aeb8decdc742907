// N-node generalisation of the FAME2 coherence model (2 <= N <= 4): the
// directory tracks one state per node and serialises transactions,
// invalidating every other sharer (one INV message each, through a
// sub-process) before granting ownership.  The 2-node model in
// coherence.hpp is kept as the workhorse for the MPI benchmarks; this
// model scales the *verification* story to the multi-node CC-NUMA
// configurations FAME2 actually shipped with.
//
// Both models are built in coherence.cpp from one cache definition, one
// free-driver definition and one gate vocabulary (RD<i>_<line>,
// RQS<i>_<line>, ...); only the directory and the SWMR observer differ.
// The N-node processes carry an "N" tag (CacheN<i>n_<line>, DirN_<line>,
// DriverN<i>, ObsN_<line>, SystemN), so both models fit in one program.
#pragma once

#include <string>

#include "compose/plan.hpp"
#include "fame/coherence.hpp"
#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::fame {

/// Adds caches 0..n-1 and the n-node directory for one line; entry process
/// "LineN_<line>".  Returns the entry name.
[[nodiscard]] std::string add_coherent_line_n(proc::Program& program,
                                              const std::string& line,
                                              Protocol protocol, int nodes);

/// Closed verification system as a process program: one line, free
/// read/write/flush drivers on all @p nodes, plus an SWMR observer raising
/// ERR_<line>.  Entry process "SystemN".
[[nodiscard]] proc::Program coherence_system_n_program(Protocol protocol,
                                                      int nodes);

/// LTS of coherence_system_n_program through compose::pipeline_lts.  The
/// default strategy plans the composition (generate–minimise–compose) and
/// returns the canonical minimal LTS; Strategy::kFlat is the monolithic
/// generation (unminimised).
[[nodiscard]] lts::Lts coherence_system_n_lts(
    Protocol protocol, int nodes,
    compose::Strategy strategy = compose::Strategy::kPlanned,
    compose::MinimizeCache* cache = nullptr);

}  // namespace multival::fame
