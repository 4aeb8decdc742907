#include "fame/coherence_n.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "proc/generator.hpp"

namespace multival::fame {

using namespace multival::proc;

namespace {

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

std::string pvar(int j) { return "p" + std::to_string(j); }

/// The N-node cache is identical to the 2-node one (it only talks to the
/// directory), regenerated here with per-node gate names.
void define_cache_n(Program& p, const std::string& line, int i) {
  const auto g = [&](const char* base) { return line_gate(base, i, line); };
  const std::string id = std::to_string(i) + "n_" + line;
  const std::string name = "CacheN" + id;
  const std::string want_m = "CacheNWantM" + id;
  const std::string flushing = "CacheNFlush" + id;

  {
    std::vector<TermPtr> branches;
    branches.push_back(guard(
        evar("s") >= lit(1),
        prefix(g("RD"), prefix(g("RDD"), call(name, {evar("s")})))));
    branches.push_back(guard(
        evar("s") == lit(0),
        prefix(g("RD"),
               prefix(g("RQS"),
                      prefix(g("GRS"), {accept("ns", 1, 3)},
                             prefix(g("RDD"), call(name, {evar("ns")})))))));
    branches.push_back(guard(
        evar("s") >= lit(2),
        prefix(g("WR"), prefix(g("WRD"), call(name, {lit(2)})))));
    branches.push_back(guard(evar("s") <= lit(1),
                             prefix(g("WR"), call(want_m, {evar("s")}))));
    branches.push_back(guard(evar("s") >= lit(1),
                             prefix(g("INV"), call(name, {lit(0)}))));
    branches.push_back(guard(evar("s") >= lit(2),
                             prefix(g("WB"), call(name, {lit(1)}))));
    branches.push_back(prefix(g("FL"), call(flushing, {evar("s")})));
    p.define(name, {"s"}, choice(std::move(branches)));
  }
  {
    std::vector<TermPtr> branches;
    branches.push_back(
        prefix(g("RQM"),
               prefix(g("GRM"), prefix(g("WRD"), call(name, {lit(2)})))));
    branches.push_back(guard(evar("s") == lit(1),
                             prefix(g("INV"), call(want_m, {lit(0)}))));
    p.define(want_m, {"s"}, choice(std::move(branches)));
  }
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

void define_directory_n(Program& p, const std::string& line,
                        Protocol protocol, int n) {
  const std::string name = "DirN_" + line;
  const auto g = [&](const char* base, int node) {
    return line_gate(base, node, line);
  };
  std::vector<std::string> params;
  for (int j = 0; j < n; ++j) {
    params.push_back(pvar(j));
  }

  const auto args_with = [&](int i, ExprPtr vi) {
    std::vector<ExprPtr> args;
    for (int j = 0; j < n; ++j) {
      args.push_back(j == i ? vi : evar(pvar(j)));
    }
    return args;
  };
  const auto args_with2 = [&](int i, ExprPtr vi, int j2, ExprPtr vj) {
    std::vector<ExprPtr> args;
    for (int j = 0; j < n; ++j) {
      args.push_back(j == i ? vi : (j == j2 ? vj : evar(pvar(j))));
    }
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
    {
      branches.push_back(guard(
          !others_invalid(i) && no_other_owner(i),
          prefix(g("RQS", i), prefix(g("GRS", i), {emit(lit(1))},
                                     call(name, args_with(i, lit(1)))))));
    }
    // Write miss / upgrade: sequence of invalidations in a sub-process.
    const std::string invm = "DirNInvM" + std::to_string(i) + "_" + line;
    branches.push_back(prefix(g("RQM", i), call(invm, [&] {
      std::vector<ExprPtr> args;
      for (int j = 0; j < n; ++j) {
        args.push_back(evar(pvar(j)));
      }
      return args;
    }())));
    // Eviction notice.
    branches.push_back(guard(evar(pvar(i)) >= lit(1),
                             prefix(g("EV", i),
                                    call(name, args_with(i, lit(0))))));
  }
  p.define(name, params, choice(std::move(branches)));

  // Invalidation sub-processes: one INV per remaining copy, then grant.
  for (int i = 0; i < n; ++i) {
    const std::string invm = "DirNInvM" + std::to_string(i) + "_" + line;
    std::vector<TermPtr> branches2;
    for (int j = 0; j < n; ++j) {
      if (j == i) {
        continue;
      }
      branches2.push_back(guard(evar(pvar(j)) >= lit(1),
                                prefix(g("INV", j), call(invm, [&] {
                                  std::vector<ExprPtr> args;
                                  for (int k = 0; k < n; ++k) {
                                    args.push_back(k == j ? lit(0)
                                                          : evar(pvar(k)));
                                  }
                                  return args;
                                }()))));
    }
    branches2.push_back(
        guard(others_invalid(i),
              prefix(g("GRM", i), call(name, args_with(i, lit(2))))));
    p.define(invm, params, choice(std::move(branches2)));
  }
}

void define_observer_n(Program& p, const std::string& line, int n) {
  const std::string name = "ObsN_" + line;
  const std::string err = "ERR_" + line;
  std::vector<std::string> params;
  for (int j = 0; j < n; ++j) {
    params.push_back("o" + std::to_string(j));
  }
  const auto ovar = [](int j) { return evar("o" + std::to_string(j)); };
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

std::vector<std::string> gates_n(const std::string& line, int n,
                                 bool transactions) {
  std::vector<std::string> gates;
  for (int i = 0; i < n; ++i) {
    if (transactions) {
      for (const char* base : {"RQS", "GRS", "RQM", "GRM", "INV", "WB",
                               "EV"}) {
        gates.push_back(line_gate(base, i, line));
      }
    } else {
      for (const char* base : {"RD", "RDD", "WR", "WRD", "FL", "FLD"}) {
        gates.push_back(line_gate(base, i, line));
      }
    }
  }
  return gates;
}

}  // namespace

std::string add_coherent_line_n(proc::Program& program,
                                const std::string& line, Protocol protocol,
                                int nodes) {
  check_nodes(nodes);
  TermPtr caches;
  for (int i = 0; i < nodes; ++i) {
    define_cache_n(program, line, i);
    TermPtr c = call("CacheN" + std::to_string(i) + "n_" + line, {lit(0)});
    caches = caches == nullptr ? std::move(c)
                               : interleaving(std::move(caches), std::move(c));
  }
  define_directory_n(program, line, protocol, nodes);
  std::vector<ExprPtr> dir_args(static_cast<std::size_t>(nodes));
  for (auto& a : dir_args) {
    a = lit(0);
  }
  const std::string entry = "LineN_" + line;
  program.define(entry, {},
                 par(std::move(caches), gates_n(line, nodes, true),
                     call("DirN_" + line, std::move(dir_args))));
  return entry;
}

proc::Program coherence_system_n_program(Protocol protocol, int nodes) {
  check_nodes(nodes);
  Program p;
  const std::string line = "M";
  const std::string sys = add_coherent_line_n(p, line, protocol, nodes);
  define_observer_n(p, line, nodes);

  TermPtr drivers;
  for (int i = 0; i < nodes; ++i) {
    const std::string name = "DriverN" + std::to_string(i);
    p.define(name, {},
             choice({prefix(line_gate("RD", i, line),
                            prefix(line_gate("RDD", i, line), call(name))),
                     prefix(line_gate("WR", i, line),
                            prefix(line_gate("WRD", i, line), call(name))),
                     prefix(line_gate("FL", i, line),
                            prefix(line_gate("FLD", i, line), call(name)))}));
    drivers = drivers == nullptr
                  ? call(name)
                  : interleaving(std::move(drivers), call(name));
  }

  std::vector<std::string> watched = gates_n(line, nodes, true);
  for (const std::string& g : gates_n(line, nodes, false)) {
    watched.push_back(g);
  }
  std::vector<ExprPtr> obs_args(static_cast<std::size_t>(nodes));
  for (auto& a : obs_args) {
    a = lit(0);
  }
  p.define("SystemN", {},
           par(par(call(sys), gates_n(line, nodes, false), drivers), watched,
               call("ObsN_" + line, std::move(obs_args))));
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
