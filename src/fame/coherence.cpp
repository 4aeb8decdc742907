#include "fame/coherence.hpp"

#include <stdexcept>

#include "proc/generator.hpp"

namespace multival::fame {

using namespace multival::proc;

const char* to_string(Protocol p) {
  return p == Protocol::kMsi ? "MSI" : "MESI";
}

std::string line_gate(const std::string& base, int node,
                      const std::string& line) {
  return base + std::to_string(node) + "_" + line;
}

std::vector<std::string> transaction_gates(const std::string& line) {
  std::vector<std::string> gates;
  for (int i = 0; i < 2; ++i) {
    for (const char* base : {"RQS", "GRS", "RQM", "GRM", "INV", "WB", "EV"}) {
      gates.push_back(line_gate(base, i, line));
    }
  }
  return gates;
}

std::vector<std::string> operation_gates(const std::string& line) {
  std::vector<std::string> gates;
  for (int i = 0; i < 2; ++i) {
    for (const char* base : {"RD", "RDD", "WR", "WRD", "FL", "FLD"}) {
      gates.push_back(line_gate(base, i, line));
    }
  }
  return gates;
}

namespace {

/// Cache of node @p i for one line.  State s: 0=I, 1=S, 2=M, 3=E.
///
/// While waiting to issue a request to the (serialised) directory, the
/// cache keeps servicing directory-initiated invalidations — otherwise two
/// caches requesting at once deadlock against the directory's in-flight
/// transaction (the classic request-request race).
void define_cache(Program& p, const std::string& line, int i) {
  const auto g = [&](const char* base) { return line_gate(base, i, line); };
  const std::string id = std::to_string(i) + "_" + line;
  const std::string name = "Cache" + id;
  const std::string want_m = "CacheWantM" + id;
  const std::string flushing = "CacheFlush" + id;

  {
    std::vector<TermPtr> branches;
    // Read hit: any valid copy.
    branches.push_back(guard(
        evar("s") >= lit(1),
        prefix(g("RD"), prefix(g("RDD"), call(name, {evar("s")})))));
    // Read miss: fetch; the grant carries the new state (1=S, 3=E).  The
    // directory never targets an invalid node, so no interleaved INV/WB
    // can arrive here.
    branches.push_back(guard(
        evar("s") == lit(0),
        prefix(g("RD"),
               prefix(g("RQS"),
                      prefix(g("GRS"), {accept("ns", 1, 3)},
                             prefix(g("RDD"), call(name, {evar("ns")})))))));
    // Write hit: M or E (an E write is silent and moves to M).
    branches.push_back(guard(
        evar("s") >= lit(2),
        prefix(g("WR"), prefix(g("WRD"), call(name, {lit(2)})))));
    // Write miss / upgrade from I or S: wait state below.
    branches.push_back(guard(evar("s") <= lit(1),
                             prefix(g("WR"), call(want_m, {evar("s")}))));
    // Directory-initiated invalidation (any valid copy).
    branches.push_back(guard(evar("s") >= lit(1),
                             prefix(g("INV"), call(name, {lit(0)}))));
    // Directory-initiated writeback/downgrade (owner only).
    branches.push_back(guard(evar("s") >= lit(2),
                             prefix(g("WB"), call(name, {lit(1)}))));
    // Driver-initiated flush (buffer recycling): wait state below.
    branches.push_back(prefix(g("FL"), call(flushing, {evar("s")})));
    p.define(name, {"s"}, choice(std::move(branches)));
  }

  // Waiting to issue the write-miss/upgrade request.  A concurrent
  // invalidation (for the other node's transaction) is honoured.
  {
    std::vector<TermPtr> branches;
    branches.push_back(
        prefix(g("RQM"),
               prefix(g("GRM"), prefix(g("WRD"), call(name, {lit(2)})))));
    branches.push_back(guard(evar("s") == lit(1),
                             prefix(g("INV"), call(want_m, {lit(0)}))));
    p.define(want_m, {"s"}, choice(std::move(branches)));
  }

  // Waiting to complete a flush; invalidations and writebacks are honoured
  // (an invalidation even saves the eviction notice).
  {
    std::vector<TermPtr> branches;
    branches.push_back(
        guard(evar("s") >= lit(1),
              prefix(g("EV"), prefix(g("FLD"), call(name, {lit(0)})))));
    branches.push_back(guard(evar("s") == lit(0),
                             prefix(g("FLD"), call(name, {lit(0)}))));
    branches.push_back(guard(evar("s") >= lit(1),
                             prefix(g("INV"), call(flushing, {lit(0)}))));
    branches.push_back(guard(evar("s") >= lit(2),
                             prefix(g("WB"), call(flushing, {lit(1)}))));
    p.define(flushing, {"s"}, choice(std::move(branches)));
  }
}

/// The directory serialises transactions.  p0/p1 mirror the cache states.
void define_directory(Program& p, const std::string& line,
                      Protocol protocol) {
  const std::string name = "Dir_" + line;
  const auto g = [&](const char* base, int node) {
    return line_gate(base, node, line);
  };

  std::vector<TermPtr> branches;
  for (int i = 0; i < 2; ++i) {
    const int j = 1 - i;
    const std::string pi = "p" + std::to_string(i);
    const std::string pj = "p" + std::to_string(j);
    const auto next = [&](ExprPtr vi, ExprPtr vj) {
      std::vector<ExprPtr> args(2);
      args[static_cast<std::size_t>(i)] = std::move(vi);
      args[static_cast<std::size_t>(j)] = std::move(vj);
      return call(name, std::move(args));
    };

    // Read miss from i, other node owns the line: downgrade first.
    branches.push_back(guard(
        evar(pj) >= lit(2),
        prefix(g("RQS", i),
               prefix(g("WB", j),
                      prefix(g("GRS", i), {emit(lit(1))},
                             next(lit(1), lit(1)))))));
    // Read miss from i, other node has no copy: MESI grants Exclusive.
    const Value grant_alone = protocol == Protocol::kMesi ? 3 : 1;
    branches.push_back(guard(
        evar(pj) == lit(0),
        prefix(g("RQS", i),
               prefix(g("GRS", i), {emit(lit(grant_alone))},
                      next(lit(grant_alone), lit(0))))));
    // Read miss from i, other node shares: grant Shared.
    branches.push_back(guard(
        evar(pj) == lit(1),
        prefix(g("RQS", i),
               prefix(g("GRS", i), {emit(lit(1))}, next(lit(1), lit(1))))));
    // Write miss / upgrade from i: invalidate the other copy first.
    branches.push_back(guard(
        evar(pj) >= lit(1),
        prefix(g("RQM", i),
               prefix(g("INV", j),
                      prefix(g("GRM", i), next(lit(2), lit(0)))))));
    branches.push_back(guard(
        evar(pj) == lit(0),
        prefix(g("RQM", i), prefix(g("GRM", i), next(lit(2), lit(0))))));
    // Eviction notice from i.
    branches.push_back(guard(evar(pi) >= lit(1),
                             prefix(g("EV", i), next(lit(0), evar(pj)))));
  }
  p.define(name, {"p0", "p1"}, choice(std::move(branches)));
}

}  // namespace

std::string add_coherent_line(proc::Program& program, const std::string& line,
                              Protocol protocol) {
  define_cache(program, line, 0);
  define_cache(program, line, 1);
  define_directory(program, line, protocol);
  const std::string entry = "Line_" + line;
  program.define(
      entry, {},
      par(interleaving(call("Cache0_" + line, {lit(0)}),
                       call("Cache1_" + line, {lit(0)})),
          transaction_gates(line), call("Dir_" + line, {lit(0), lit(0)})));
  return entry;
}

std::string add_swmr_observer(proc::Program& program, const std::string& line,
                              Protocol protocol) {
  (void)protocol;  // the observer checks the same invariant for both
  const std::string name = "Obs_" + line;
  const std::string err = "ERR_" + line;

  std::vector<TermPtr> branches;
  for (int i = 0; i < 2; ++i) {
    const int j = 1 - i;
    const std::string oi = "o" + std::to_string(i);
    const std::string oj = "o" + std::to_string(j);
    const auto g = [&](const char* base) { return line_gate(base, i, line); };
    const auto next = [&](ExprPtr vi, ExprPtr vj) {
      std::vector<ExprPtr> args(2);
      args[static_cast<std::size_t>(i)] = std::move(vi);
      args[static_cast<std::size_t>(j)] = std::move(vj);
      return call(name, std::move(args));
    };
    const auto keep = [&]() { return next(evar(oi), evar(oj)); };

    // Shared grant: legal unless the other node owns the line.
    branches.push_back(
        prefix(g("GRS"), {accept("ns", 1, 3)},
               choice({guard(evar(oj) >= lit(2) ||
                                 (evar("ns") == lit(3) && evar(oj) != lit(0)),
                             prefix(err, stop())),
                       guard(!(evar(oj) >= lit(2) ||
                               (evar("ns") == lit(3) && evar(oj) != lit(0))),
                             next(evar("ns"), evar(oj)))})));
    // Modified grant: the other node must hold no copy (it was invalidated).
    branches.push_back(prefix(
        g("GRM"), choice({guard(evar(oj) != lit(0), prefix(err, stop())),
                          guard(evar(oj) == lit(0), next(lit(2), evar(oj)))})));
    branches.push_back(prefix(g("INV"), next(lit(0), evar(oj))));
    branches.push_back(prefix(g("WB"), next(lit(1), evar(oj))));
    // Local operations must be backed by a sufficient copy.
    branches.push_back(prefix(
        g("RDD"), choice({guard(evar(oi) == lit(0), prefix(err, stop())),
                          guard(evar(oi) != lit(0), keep())})));
    branches.push_back(prefix(
        g("WRD"), choice({guard(evar(oi) < lit(2), prefix(err, stop())),
                          guard(evar(oi) >= lit(2), next(lit(2), evar(oj)))})));
    branches.push_back(prefix(g("EV"), next(lit(0), evar(oj))));
    // Transparent for the remaining watched gates.
    branches.push_back(prefix(g("RD"), keep()));
    branches.push_back(prefix(g("WR"), keep()));
    branches.push_back(prefix(g("FL"), keep()));
    branches.push_back(prefix(g("FLD"), keep()));
    branches.push_back(prefix(g("RQS"), keep()));
    branches.push_back(prefix(g("RQM"), keep()));
  }
  program.define(name, {"o0", "o1"}, choice(std::move(branches)));
  return name;
}

proc::Program coherence_system_program(Protocol protocol) {
  Program p;
  const std::string line = "M";
  const std::string sys = add_coherent_line(p, line, protocol);
  const std::string obs = add_swmr_observer(p, line, protocol);

  // Free drivers: each node keeps issuing reads and writes.
  for (int i = 0; i < 2; ++i) {
    const std::string name = "Driver" + std::to_string(i);
    p.define(name, {},
             choice({prefix(line_gate("RD", i, line),
                            prefix(line_gate("RDD", i, line), call(name))),
                     prefix(line_gate("WR", i, line),
                            prefix(line_gate("WRD", i, line), call(name))),
                     prefix(line_gate("FL", i, line),
                            prefix(line_gate("FLD", i, line), call(name)))}));
  }

  std::vector<std::string> watched = transaction_gates(line);
  for (const std::string& g : operation_gates(line)) {
    watched.push_back(g);
  }
  p.define("System", {},
           par(par(call(sys), operation_gates(line),
                   interleaving(call("Driver0"), call("Driver1"))),
               watched, call(obs, {lit(0), lit(0)})));
  return p;
}

lts::Lts coherence_system_lts(Protocol protocol) {
  return generate(coherence_system_program(protocol), "System");
}

}  // namespace multival::fame
