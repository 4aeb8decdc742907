#include "fame/coherence.hpp"

#include <memory>
#include <stdexcept>

#include "fame/coherence_n.hpp"
#include "proc/generator.hpp"

namespace multival::fame {

using namespace multival::proc;

const char* to_string(Protocol p) {
  return p == Protocol::kMsi ? "MSI" : "MESI";
}

std::string line_gate(const std::string& base, int node,
                      const std::string& line) {
  std::string gate = base;
  gate += std::to_string(node);
  gate += '_';
  gate += line;
  return gate;
}

namespace {

constexpr const char* kSystemLine = "M";

/// Directory-transaction and driver-facing gate bases, in gate-list order.
constexpr const char* kTransactionBases[] = {"RQS", "GRS", "RQM", "GRM",
                                             "INV", "WB",  "EV"};
constexpr const char* kOperationBases[] = {"RD", "RDD", "WR",
                                           "WRD", "FL", "FLD"};

/// The gates of @p bases for nodes 0..nodes-1 of @p line, node-major.
template <std::size_t N>
std::vector<std::string> node_gates(const char* const (&bases)[N],
                                    const std::string& line, int nodes) {
  std::vector<std::string> gates;
  for (int i = 0; i < nodes; ++i) {
    for (const char* base : bases) {
      gates.push_back(line_gate(base, i, line));
    }
  }
  return gates;
}

/// Process names of one coherence model.  Both models may share a
/// program, so the N-node model tags its names with "N": its node i runs
/// CacheN<i>n_<line> and DriverN<i> where the 2-node model runs
/// Cache<i>_<line> and Driver<i>, and its line, directory, observer and
/// system are LineN_<line>, DirN_<line>, ObsN_<line> and SystemN.
struct Model {
  const char* tag;       ///< "" or "N"
  const char* node_tag;  ///< after a cache's node index: "" or "n"

  [[nodiscard]] std::string name(const char* base) const {
    return std::string(base) + tag;
  }
  [[nodiscard]] std::string name(const char* base,
                                 const std::string& line) const {
    return name(base) + "_" + line;
  }
  /// @p role is "" (the cache proper), "WantM" or "Flush".
  [[nodiscard]] std::string cache(const char* role, int i,
                                  const std::string& line) const {
    return name("Cache")
        .append(role)
        .append(std::to_string(i))
        .append(node_tag)
        .append("_")
        .append(line);
  }
};

constexpr Model kTwoNode{"", ""};
constexpr Model kNNode{"N", "n"};

/// "p3" from ("p", 3): a per-node variable or process name.
std::string indexed(const char* base, int i) {
  return std::string(base).append(std::to_string(i));
}

std::string pvar(int j) { return indexed("p", j); }

std::vector<ExprPtr> zeros(int nodes) {
  std::vector<ExprPtr> args;
  for (int i = 0; i < nodes; ++i) {
    args.push_back(lit(0));
  }
  return args;
}

/// Call of the 2-node process @p name with @p vi for node @p i and @p vj
/// for the other node.
TermPtr call_pair(const std::string& name, int i, ExprPtr vi, ExprPtr vj) {
  std::vector<ExprPtr> args(2);
  args[static_cast<std::size_t>(i)] = std::move(vi);
  args[static_cast<std::size_t>(1 - i)] = std::move(vj);
  return call(name, std::move(args));
}

/// Left-nested interleaving of @p terms (at least one).
TermPtr interleave_all(std::vector<TermPtr> terms) {
  TermPtr all = std::move(terms[0]);
  for (std::size_t i = 1; i < terms.size(); ++i) {
    all = interleaving(std::move(all), std::move(terms[i]));
  }
  return all;
}

/// Cache of node @p i for one line.  State s: 0=I, 1=S, 2=M, 3=E.  The
/// cache only talks to its driver and the directory, so both models run
/// it.
///
/// While waiting to issue a request to the (serialised) directory, the
/// cache keeps servicing directory-initiated invalidations — otherwise two
/// caches requesting at once deadlock against the directory's in-flight
/// transaction (the classic request-request race).
void define_cache(Program& p, const Model& m, const std::string& line,
                  int i) {
  const auto g = [&](const char* base) { return line_gate(base, i, line); };
  const std::string name = m.cache("", i, line);
  const std::string want_m = m.cache("WantM", i, line);
  const std::string flushing = m.cache("Flush", i, line);

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

/// Caches 0..nodes-1 of @p line, interleaved and synchronised with the
/// model's directory (already defined) on every transaction gate; entry
/// process Line<tag>_<line>.  Returns the entry name.
std::string add_line(Program& p, const Model& m, const std::string& line,
                     int nodes) {
  std::vector<TermPtr> caches;
  for (int i = 0; i < nodes; ++i) {
    define_cache(p, m, line, i);
    caches.push_back(call(m.cache("", i, line), {lit(0)}));
  }
  const std::string entry = m.name("Line", line);
  p.define(entry, {},
           par(interleave_all(std::move(caches)),
               node_gates(kTransactionBases, line, nodes),
               call(m.name("Dir", line), zeros(nodes))));
  return entry;
}

/// Closes a coherence model whose line and observer are defined: a free
/// driver per node keeps issuing reads, writes and flushes, and the
/// observer watches every transaction and operation gate.  Entry process
/// System<tag>.
void define_system(Program& p, const Model& m, int nodes) {
  const std::string line = kSystemLine;
  std::vector<TermPtr> drivers;
  for (int i = 0; i < nodes; ++i) {
    const std::string name = m.name("Driver").append(std::to_string(i));
    const auto op = [&](const char* request, const char* done) {
      return prefix(line_gate(request, i, line),
                    prefix(line_gate(done, i, line), call(name)));
    };
    p.define(name, {},
             choice({op("RD", "RDD"), op("WR", "WRD"), op("FL", "FLD")}));
    drivers.push_back(call(name));
  }
  const std::vector<std::string> ops =
      node_gates(kOperationBases, line, nodes);
  std::vector<std::string> watched =
      node_gates(kTransactionBases, line, nodes);
  watched.insert(watched.end(), ops.begin(), ops.end());
  p.define(m.name("System"), {},
           par(par(call(m.name("Line", line)), ops,
                   interleave_all(std::move(drivers))),
               watched, call(m.name("Obs", line), zeros(nodes))));
}

/// The directory serialises transactions.  p0/p1 mirror the cache states.
void define_directory(Program& p, const std::string& line,
                      Protocol protocol) {
  const std::string name = kTwoNode.name("Dir", line);
  const auto g = [&](const char* base, int node) {
    return line_gate(base, node, line);
  };

  std::vector<TermPtr> branches;
  for (int i = 0; i < 2; ++i) {
    const int j = 1 - i;
    const std::string pi = pvar(i);
    const std::string pj = pvar(j);
    const auto next = [&](ExprPtr vi, ExprPtr vj) {
      return call_pair(name, i, std::move(vi), std::move(vj));
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

void check_nodes(int nodes) {
  if (nodes < 2 || nodes > 4) {
    throw std::invalid_argument("coherence_n: nodes must be in 2..4");
  }
}

/// Conjunction of @p terms (empty -> true).
ExprPtr conj(std::vector<ExprPtr> terms) {
  if (terms.empty()) {
    return lit(1);
  }
  ExprPtr e = terms[0];
  for (std::size_t i = 1; i < terms.size(); ++i) {
    e = std::move(e) && terms[i];
  }
  return e;
}

/// The N-node directory: one state per node; a write miss invalidates the
/// other copies one INV at a time through the sub-process DirNInvM<i>.
void define_directory_n(Program& p, const std::string& line,
                        Protocol protocol, int n) {
  const std::string name = kNNode.name("Dir", line);
  const auto g = [&](const char* base, int node) {
    return line_gate(base, node, line);
  };
  std::vector<std::string> params;
  for (int j = 0; j < n; ++j) {
    params.push_back(pvar(j));
  }

  const auto current = [&] {
    std::vector<ExprPtr> args;
    for (const std::string& pj : params) {
      args.push_back(evar(pj));
    }
    return args;
  };
  const auto args_with = [&](int i, ExprPtr vi) {
    std::vector<ExprPtr> args = current();
    args[static_cast<std::size_t>(i)] = std::move(vi);
    return args;
  };
  const auto args_with2 = [&](int i, ExprPtr vi, int j, ExprPtr vj) {
    std::vector<ExprPtr> args = args_with(i, std::move(vi));
    args[static_cast<std::size_t>(j)] = std::move(vj);
    return args;
  };
  const auto others_invalid = [&](int i) {
    std::vector<ExprPtr> terms;
    for (int j = 0; j < n; ++j) {
      if (j != i) {
        terms.push_back(evar(pvar(j)) == lit(0));
      }
    }
    return conj(std::move(terms));
  };
  const auto no_other_owner = [&](int i) {
    std::vector<ExprPtr> terms;
    for (int j = 0; j < n; ++j) {
      if (j != i) {
        terms.push_back(evar(pvar(j)) <= lit(1));
      }
    }
    return conj(std::move(terms));
  };
  const auto invm = [&](int i) {
    return indexed("DirNInvM", i).append("_").append(line);
  };

  std::vector<TermPtr> branches;
  for (int i = 0; i < n; ++i) {
    // Read miss: writeback the owner first (at most one exists).
    for (int j = 0; j < n; ++j) {
      if (j == i) {
        continue;
      }
      branches.push_back(guard(
          evar(pvar(j)) >= lit(2),
          prefix(g("RQS", i),
                 prefix(g("WB", j),
                        prefix(g("GRS", i), {emit(lit(1))},
                               call(name, args_with2(i, lit(1), j,
                                                     lit(1))))))));
    }
    // Read miss, no other copy at all: MESI grants Exclusive.
    const Value grant_alone = protocol == Protocol::kMesi ? 3 : 1;
    branches.push_back(guard(
        others_invalid(i),
        prefix(g("RQS", i),
               prefix(g("GRS", i), {emit(lit(grant_alone))},
                      call(name, args_with(i, lit(grant_alone)))))));
    // Read miss, sharers but no owner.
    branches.push_back(guard(
        !others_invalid(i) && no_other_owner(i),
        prefix(g("RQS", i), prefix(g("GRS", i), {emit(lit(1))},
                                   call(name, args_with(i, lit(1)))))));
    // Write miss / upgrade: sequence of invalidations in a sub-process.
    branches.push_back(prefix(g("RQM", i), call(invm(i), current())));
    // Eviction notice.
    branches.push_back(guard(evar(pvar(i)) >= lit(1),
                             prefix(g("EV", i),
                                    call(name, args_with(i, lit(0))))));
  }
  p.define(name, params, choice(std::move(branches)));

  // Invalidation sub-processes: one INV per remaining copy, then grant.
  for (int i = 0; i < n; ++i) {
    std::vector<TermPtr> branches2;
    for (int j = 0; j < n; ++j) {
      if (j == i) {
        continue;
      }
      branches2.push_back(
          guard(evar(pvar(j)) >= lit(1),
                prefix(g("INV", j), call(invm(i), args_with(j, lit(0))))));
    }
    branches2.push_back(
        guard(others_invalid(i),
              prefix(g("GRM", i), call(name, args_with(i, lit(2))))));
    p.define(invm(i), params, choice(std::move(branches2)));
  }
}

void define_observer_n(Program& p, const std::string& line, int n) {
  const std::string name = kNNode.name("Obs", line);
  const std::string err = "ERR_" + line;
  std::vector<std::string> params;
  for (int j = 0; j < n; ++j) {
    params.push_back(indexed("o", j));
  }
  const auto ovar = [](int j) { return evar(indexed("o", j)); };
  const auto args_with = [&](int i, ExprPtr vi) {
    std::vector<ExprPtr> args;
    for (int j = 0; j < n; ++j) {
      args.push_back(j == i ? vi : ovar(j));
    }
    return args;
  };

  std::vector<TermPtr> branches;
  for (int i = 0; i < n; ++i) {
    const auto g = [&](const char* base) { return line_gate(base, i, line); };
    // Violation predicates over the other nodes.
    std::vector<ExprPtr> other_owner_terms;
    std::vector<ExprPtr> other_any_terms;
    for (int j = 0; j < n; ++j) {
      if (j != i) {
        other_owner_terms.push_back(ovar(j) >= lit(2));
        other_any_terms.push_back(ovar(j) != lit(0));
      }
    }
    const auto disj = [](std::vector<ExprPtr> terms) {
      ExprPtr e = lit(0);
      for (auto& t : terms) {
        e = std::move(e) || std::move(t);
      }
      return e;
    };
    const ExprPtr other_owner = disj(other_owner_terms);
    const ExprPtr other_any = disj(other_any_terms);

    branches.push_back(prefix(
        g("GRS"), {accept("ns", 1, 3)},
        choice({guard(other_owner ||
                          (evar("ns") == lit(3) && other_any),
                      prefix(err, stop())),
                guard(!(other_owner ||
                        (evar("ns") == lit(3) && other_any)),
                      call(name, args_with(i, evar("ns"))))})));
    branches.push_back(prefix(
        g("GRM"),
        choice({guard(other_any, prefix(err, stop())),
                guard(!other_any, call(name, args_with(i, lit(2))))})));
    branches.push_back(prefix(g("INV"), call(name, args_with(i, lit(0)))));
    branches.push_back(prefix(g("WB"), call(name, args_with(i, lit(1)))));
    branches.push_back(prefix(g("EV"), call(name, args_with(i, lit(0)))));
    branches.push_back(prefix(
        g("RDD"),
        choice({guard(ovar(i) == lit(0), prefix(err, stop())),
                guard(ovar(i) != lit(0), call(name, args_with(i, ovar(i))))})));
    branches.push_back(prefix(
        g("WRD"),
        choice({guard(ovar(i) < lit(2), prefix(err, stop())),
                guard(ovar(i) >= lit(2), call(name, args_with(i, lit(2))))})));
    for (const char* transparent : {"RD", "WR", "FL", "FLD", "RQS", "RQM"}) {
      branches.push_back(
          prefix(g(transparent), call(name, args_with(i, ovar(i)))));
    }
  }
  p.define(name, params, choice(std::move(branches)));
}

}  // namespace

std::vector<std::string> transaction_gates(const std::string& line) {
  return node_gates(kTransactionBases, line, 2);
}

std::vector<std::string> operation_gates(const std::string& line) {
  return node_gates(kOperationBases, line, 2);
}

std::string add_coherent_line(proc::Program& program, const std::string& line,
                              Protocol protocol) {
  define_directory(program, line, protocol);
  return add_line(program, kTwoNode, line, 2);
}

std::string add_coherent_line_n(proc::Program& program,
                                const std::string& line, Protocol protocol,
                                int nodes) {
  check_nodes(nodes);
  define_directory_n(program, line, protocol, nodes);
  return add_line(program, kNNode, line, nodes);
}

std::string add_swmr_observer(proc::Program& program, const std::string& line,
                              Protocol protocol) {
  (void)protocol;  // the observer checks the same invariant for both
  const std::string name = kTwoNode.name("Obs", line);
  const std::string err = "ERR_" + line;

  std::vector<TermPtr> branches;
  for (int i = 0; i < 2; ++i) {
    const int j = 1 - i;
    const std::string oi = indexed("o", i);
    const std::string oj = indexed("o", j);
    const auto g = [&](const char* base) { return line_gate(base, i, line); };
    const auto next = [&](ExprPtr vi, ExprPtr vj) {
      return call_pair(name, i, std::move(vi), std::move(vj));
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
  (void)add_coherent_line(p, kSystemLine, protocol);
  (void)add_swmr_observer(p, kSystemLine, protocol);
  define_system(p, kTwoNode, 2);
  return p;
}

lts::Lts coherence_system_lts(Protocol protocol) {
  return generate(coherence_system_program(protocol), "System");
}

proc::Program coherence_system_n_program(Protocol protocol, int nodes) {
  check_nodes(nodes);
  Program p;
  (void)add_coherent_line_n(p, kSystemLine, protocol, nodes);
  define_observer_n(p, kSystemLine, nodes);
  define_system(p, kNNode, nodes);
  return p;
}

lts::Lts coherence_system_n_lts(Protocol protocol, int nodes,
                                compose::Strategy strategy,
                                compose::MinimizeCache* cache) {
  return compose::pipeline_lts(
      std::make_shared<const Program>(
          coherence_system_n_program(protocol, nodes)),
      "SystemN", strategy, {}, cache);
}

}  // namespace multival::fame
