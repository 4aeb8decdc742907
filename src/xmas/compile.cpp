#include "xmas/compile.hpp"

#include <algorithm>
#include <cctype>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/diag.hpp"

namespace multival::xmas {
namespace {

using proc::call;
using proc::choice;
using proc::evar;
using proc::guard;
using proc::lit;
using proc::par;
using proc::prefix;
using proc::TermPtr;

/// "crd-ret" -> "CRD_RET": gates are uppercase so they read like the rest
/// of the model zoo (PUSH, POP, SEND...).
std::string gate_name(std::string_view channel) {
  std::string out;
  out.reserve(channel.size());
  for (char c : channel) {
    out.push_back(c == '-' ? '_'
                           : static_cast<char>(std::toupper(
                                 static_cast<unsigned char>(c))));
  }
  return out;
}

std::string process_name(const Element& e) {
  std::string stem;
  switch (e.kind) {
    case PrimitiveKind::kQueue:
      stem = "Queue_";
      break;
    case PrimitiveKind::kSource:
      stem = "Source_";
      break;
    case PrimitiveKind::kSink:
      stem = "Sink_";
      break;
    case PrimitiveKind::kSwitch:
      stem = "Switch_";
      break;
    case PrimitiveKind::kMerge:
      stem = "Merge_";
      break;
    default:
      stem = "El_";
      break;
  }
  for (char c : e.name) stem.push_back(c == '-' ? '_' : c);
  return stem;
}

bool is_combinational(PrimitiveKind k) {
  return k == PrimitiveKind::kFunction || k == PrimitiveKind::kFork ||
         k == PrimitiveKind::kJoin;
}

struct UnionFind {
  std::vector<std::size_t> parent;

  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

}  // namespace

Compiled compile(const Netlist& n, const CompileOptions& options) {
  auto diags = n.check();
  for (const core::Diagnostic& d : diags) {
    if (d.severity == core::Severity::kError) {
      throw std::invalid_argument("cannot compile fabric '" + n.name +
                                  "': " + d.to_text());
    }
  }

  const auto& channels = n.channels();
  const auto& elements = n.elements();

  // Combinational elements fuse their adjacent channels into one gate.
  UnionFind uf(channels.size());
  for (const Element& e : elements) {
    if (!is_combinational(e.kind)) continue;
    std::vector<std::size_t> adjacent;
    for (std::size_t i = 0; i < e.num_inputs(); ++i) {
      adjacent.push_back(n.input_channel(e, i));
    }
    for (std::size_t i = 0; i < e.num_outputs(); ++i) {
      adjacent.push_back(n.output_channel(e, i));
    }
    for (std::size_t i = 1; i < adjacent.size(); ++i) {
      uf.unite(adjacent[0], adjacent[i]);
    }
  }

  // Group representative = lexicographically smallest member channel name.
  std::vector<std::string> rep_of(channels.size());
  {
    std::map<std::size_t, std::string> best;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      std::size_t r = uf.find(i);
      auto it = best.find(r);
      if (it == best.end() || channels[i].name < it->second) {
        best[r] = channels[i].name;
      }
    }
    for (std::size_t i = 0; i < channels.size(); ++i) {
      rep_of[i] = best[uf.find(i)];
    }
  }

  Compiled out;
  out.program = std::make_shared<proc::Program>();
  for (std::size_t i = 0; i < channels.size(); ++i) {
    std::string g = gate_name(rep_of[i]);
    auto [it, fresh] = out.gate_of_channel.emplace(channels[i].name, g);
    (void)it;
    (void)fresh;
    out.gate_groups[g].push_back(channels[i].name);
  }
  for (auto& [g, members] : out.gate_groups) {
    (void)g;
    std::sort(members.begin(), members.end());
  }
  // Distinct groups must not alias after case folding ("a-b" vs "a_b").
  {
    std::set<std::string> reps;
    for (std::size_t i = 0; i < channels.size(); ++i) reps.insert(rep_of[i]);
    if (out.gate_groups.size() != reps.size()) {
      throw std::invalid_argument(
          "cannot compile fabric '" + n.name +
          "': two channel groups collapse onto one gate name after case "
          "folding; rename the channels");
    }
  }

  auto in_gate = [&](const Element& e, std::size_t i) {
    return gate_name(rep_of[n.input_channel(e, i)]);
  };
  auto out_gate = [&](const Element& e, std::size_t i) {
    return gate_name(rep_of[n.output_channel(e, i)]);
  };

  // Carriability: a dead channel's gate can never fire, so everything
  // behind it is pruned — except a starved *join*, which is the MV031
  // structural deadlock and gets refused like an MV030 error.
  const std::vector<bool> carry = carriable_channels(n);
  for (const Element& e : elements) {
    if (e.kind != PrimitiveKind::kJoin) continue;
    for (std::size_t i = 0; i < 2; ++i) {
      if (!carry[n.input_channel(e, i)]) {
        throw std::invalid_argument(
            "cannot compile fabric '" + n.name + "': join input '" + e.name +
            "." + e.input_port(i) +
            "' can never carry a token — the fabric is structurally "
            "deadlocked (MV031; lint for the full diagnostics)");
      }
    }
  }
  std::set<std::string> dead_gates;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (!carry[i]) dead_gates.insert(gate_name(rep_of[i]));
  }
  auto dead = [&](const std::string& g) { return dead_gates.count(g) > 0; };

  // One process per stateful element, folded left-to-right with the exact
  // shared alphabet as each node's sync set (multi-way synchronisation on
  // unified gates falls out of the nesting).
  TermPtr acc;
  std::set<std::string> acc_alpha;
  auto fold = [&](TermPtr t, const std::set<std::string>& alpha) {
    if (!acc) {
      acc = std::move(t);
      acc_alpha = alpha;
      return;
    }
    std::vector<std::string> sync;
    std::set_intersection(acc_alpha.begin(), acc_alpha.end(), alpha.begin(),
                          alpha.end(), std::back_inserter(sync));
    acc = par(std::move(acc), std::move(sync), std::move(t));
    acc_alpha.insert(alpha.begin(), alpha.end());
  };

  for (const Element& e : elements) {
    if (is_combinational(e.kind)) continue;
    const std::string pname = process_name(e);
    switch (e.kind) {
      case PrimitiveKind::kQueue: {
        std::string gin = in_gate(e, 0);
        std::string gout = out_gate(e, 0);
        if (dead(gin) && dead(gout)) break;  // never fed, never seeded
        if (gin == gout) {
          throw std::invalid_argument(
              "cannot compile fabric '" + n.name +
              "': combinational cycle through queue '" + e.name +
              "' (its input and output collapse onto gate " + gin + ")");
        }
        if (dead(gin)) {
          // Unreachable input, init > 0: the queue only drains its seed.
          out.program->define(
              pname, {"n"},
              guard(evar("n") > lit(0),
                    prefix(gout, call(pname, {evar("n") - lit(1)}))));
          fold(call(pname, {lit(e.init)}), {gout});
          break;
        }
        // Q(n) := [n<C] IN;Q(n+1) [] [n>0] OUT;Q(n-1)
        out.program->define(
            pname, {"n"},
            choice({guard(evar("n") < lit(e.capacity),
                          prefix(gin, call(pname, {evar("n") + lit(1)}))),
                    guard(evar("n") > lit(0),
                          prefix(gout, call(pname, {evar("n") - lit(1)})))}));
        fold(call(pname, {lit(e.init)}), {gin, gout});
        break;
      }
      case PrimitiveKind::kSource: {
        std::string g = out_gate(e, 0);
        if (options.burst > 0) {
          // S(k) := [k>0] OUT;S(k-1)  — emits the burst, then stops.
          out.program->define(
              pname, {"k"},
              guard(evar("k") > lit(0),
                    prefix(g, call(pname, {evar("k") - lit(1)}))));
          fold(call(pname, {lit(options.burst)}), {g});
        } else {
          out.program->define(pname, {}, prefix(g, call(pname)));
          fold(call(pname), {g});
        }
        break;
      }
      case PrimitiveKind::kSink: {
        std::string g = in_gate(e, 0);
        if (dead(g)) break;  // nothing ever arrives
        out.program->define(pname, {}, prefix(g, call(pname)));
        fold(call(pname), {g});
        break;
      }
      case PrimitiveKind::kSwitch: {
        std::string gin = in_gate(e, 0);
        std::string g0 = out_gate(e, 0);
        std::string g1 = out_gate(e, 1);
        // A constant predicate or a starved input prunes routes: only the
        // branches that can actually carry tokens are emitted.
        bool live0 = e.pred != Predicate::kSecond && !dead(g0);
        bool live1 = e.pred != Predicate::kFirst && !dead(g1);
        if (dead(gin) || (!live0 && !live1)) break;
        if ((live0 && gin == g0) || (live1 && gin == g1)) {
          throw std::invalid_argument(
              "cannot compile fabric '" + n.name +
              "': combinational cycle through switch '" + e.name + "'");
        }
        TermPtr body;
        std::set<std::string> alpha{gin};
        if (live0 && live1) {
          body = prefix(gin, choice({prefix(g0, call(pname)),
                                     prefix(g1, call(pname))}));
          alpha.insert(g0);
          alpha.insert(g1);
        } else {
          const std::string& gout = live0 ? g0 : g1;
          body = prefix(gin, prefix(gout, call(pname)));
          alpha.insert(gout);
        }
        out.program->define(pname, {}, std::move(body));
        fold(call(pname), alpha);
        break;
      }
      case PrimitiveKind::kMerge: {
        std::string g0 = in_gate(e, 0);
        std::string g1 = in_gate(e, 1);
        std::string gout = out_gate(e, 0);
        bool live0 = !dead(g0);
        bool live1 = !dead(g1);
        if (!live0 && !live1) break;  // both feeds starved, output dead too
        if ((live0 && gout == g0) || (live1 && gout == g1)) {
          throw std::invalid_argument(
              "cannot compile fabric '" + n.name +
              "': combinational cycle through merge '" + e.name + "'");
        }
        TermPtr body;
        std::set<std::string> alpha{gout};
        if (live0 && live1) {
          body = choice({prefix(g0, prefix(gout, call(pname))),
                         prefix(g1, prefix(gout, call(pname)))});
          alpha.insert(g0);
          alpha.insert(g1);
        } else {
          // One feed starved (MV033 territory): the arbiter is a wire.
          const std::string& gin = live0 ? g0 : g1;
          body = prefix(gin, prefix(gout, call(pname)));
          alpha.insert(gin);
        }
        out.program->define(pname, {}, std::move(body));
        fold(call(pname), alpha);
        break;
      }
      default:
        break;
    }
  }
  if (!acc) {
    throw std::invalid_argument("cannot compile fabric '" + n.name +
                                "': no stateful elements (nothing to run)");
  }
  out.program->define(out.entry, {}, acc);

  // Classify gates and collect declared rates (source beats sink beats
  // internal when unification overlaps them; smallest declared rate wins).
  std::map<std::string, double> src_rate;
  std::map<std::string, double> snk_rate;
  for (const Element& e : elements) {
    if (e.kind == PrimitiveKind::kSource) {
      std::string g = out_gate(e, 0);
      auto [it, fresh] = src_rate.emplace(g, e.rate);
      if (!fresh) it->second = std::min(it->second, e.rate);
    } else if (e.kind == PrimitiveKind::kSink) {
      std::string g = in_gate(e, 0);
      auto [it, fresh] = snk_rate.emplace(g, e.rate);
      if (!fresh) it->second = std::min(it->second, e.rate);
    }
  }
  for (const auto& [g, members] : out.gate_groups) {
    (void)members;
    if (acc_alpha.count(g) == 0) continue;  // pruned dead gate
    if (auto it = src_rate.find(g); it != src_rate.end()) {
      out.source_gates.push_back(g);
      out.declared_rates[g] = it->second;
    } else if (auto it2 = snk_rate.find(g); it2 != snk_rate.end()) {
      out.sink_gates.push_back(g);
      out.declared_rates[g] = it2->second;
    } else {
      out.internal_gates.push_back(g);
    }
  }
  return out;
}

std::map<std::string, double> rate_table(const Compiled& c, double inject,
                                         double service, double transfer) {
  if (transfer <= 0) {
    throw std::invalid_argument("rate_table: transfer rate must be > 0");
  }
  std::map<std::string, double> rates;
  for (const std::string& g : c.source_gates) {
    rates[g] = inject > 0 ? inject : c.declared_rates.at(g);
  }
  for (const std::string& g : c.sink_gates) {
    rates[g] = service > 0 ? service : c.declared_rates.at(g);
  }
  for (const std::string& g : c.internal_gates) rates[g] = transfer;
  return rates;
}

std::string sink_glob(const Compiled& c) {
  if (c.sink_gates.empty()) {
    throw std::invalid_argument("sink_glob: the fabric has no sink gate");
  }
  std::string prefix = c.sink_gates.front();
  for (const std::string& g : c.sink_gates) {
    prefix.erase(
        std::mismatch(prefix.begin(), prefix.end(), g.begin(), g.end()).first,
        prefix.end());
  }
  return prefix + "*";
}

lts::Lts compiled_lts(const Compiled& c, compose::Strategy strategy,
                      const compose::PlanOptions& opts,
                      compose::MinimizeCache* cache) {
  return compose::pipeline_lts(c.program, c.entry, strategy, opts, cache);
}

}  // namespace multival::xmas
