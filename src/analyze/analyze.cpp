#include "analyze/analyze.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>

#include "analyze/alphabet_table.hpp"
#include "phase/fit.hpp"

namespace multival::analyze {

namespace {

using proc::Term;
using proc::TermPtr;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& g : v) {
    if (!out.empty()) {
      out += ',';
    }
    out += g;
  }
  return out;
}

// ---- initially-stuck analysis (MV003 vs MV004 severity split) ---------------

// What a component can do as its very FIRST action, given a set of gates
// (`never`) proven unable to fire by the enclosing composition:
//   kNoMove  - no initial action at all (stop/exit-like; terminally idle,
//              which is not a defect)
//   kBlocked - it has initial actions, but every one of them needs a gate
//              from `never`: the component is stuck from its initial state
//   kFree    - some initial action does not need a `never` gate
//
// Only first actions are inspected — anything behind another prefix may be
// unreachable for value/reachability reasons the alphabet lattice cannot
// see (e.g. a router output port whose request gate never receives traffic
// for it), so depth-one is exactly how far the verdict stays sound.
// kBlocked is therefore a *proof* of a stuck component, which is what
// upgrades a never-firing sync gate from restriction advice to an error.
enum class InitStatus { kNoMove, kBlocked, kFree };

class InitialBlockScan {
 public:
  explicit InitialBlockScan(const AlphabetTable& table)
      : table_(table), keys_(table.words()) {}

  InitStatus status(const Term* t, BitsView never) {
    switch (t->kind()) {
      case Term::Kind::kStop:
      case Term::Kind::kExit:
        return InitStatus::kNoMove;
      case Term::Kind::kPrefix:
        return never.test(table_.gates(t)[0]) ? InitStatus::kBlocked
                                              : InitStatus::kFree;
      case Term::Kind::kGuard: {
        const proc::ExprPtr& c = t->condition();
        if (c->free_vars().empty()) {
          try {
            if (c->eval(proc::Env{}) == 0) {
              return InitStatus::kNoMove;  // dead branch offers nothing
            }
          } catch (const std::domain_error&) {
            return InitStatus::kNoMove;
          }
        }
        return status(t->children()[0].get(), never);
      }
      case Term::Kind::kChoice: {
        InitStatus acc = InitStatus::kNoMove;
        for (const TermPtr& c : t->children()) {
          const InitStatus s = status(c.get(), never);
          if (s == InitStatus::kFree) {
            return InitStatus::kFree;  // an escape branch exists
          }
          if (s == InitStatus::kBlocked) {
            acc = InitStatus::kBlocked;
          }
        }
        return acc;
      }
      case Term::Kind::kPar: {
        // A nested composition adds its own never-firing sync gates.
        Bits never2(never);
        const BitsView l = table_.of(t->children()[0].get());
        const BitsView r = table_.of(t->children()[1].get());
        for (const GateId g : table_.gates(t)) {
          if (!(l.test(g) && r.test(g))) {
            never2.set(g);
          }
        }
        const InitStatus a = status(t->children()[0].get(), never2);
        const InitStatus b = status(t->children()[1].get(), never2);
        if (a == InitStatus::kBlocked || b == InitStatus::kBlocked) {
          return InitStatus::kBlocked;  // a stuck sub-component is stuck
        }
        if (a == InitStatus::kFree || b == InitStatus::kFree) {
          return InitStatus::kFree;
        }
        return InitStatus::kNoMove;
      }
      case Term::Kind::kSeq: {
        const InitStatus s = status(t->children()[0].get(), never);
        // Only an action-less first operand (exit) starts the continuation
        // immediately.
        return s == InitStatus::kNoMove
                   ? status(t->children()[1].get(), never)
                   : s;
      }
      case Term::Kind::kHide: {
        Bits never2(never);
        for (const GateId g : table_.gates(t)) {
          never2.reset(g);  // hidden occurrences fire freely as i
        }
        return status(t->children()[0].get(), never2);
      }
      case Term::Kind::kRename:
        return status(t->children()[0].get(), table_.inverse_image(t, never));
      case Term::Kind::kCall: {
        const std::size_t d = table_.callee(t);
        if (d == AlphabetTable::kNoDefinition) {
          return InitStatus::kNoMove;
        }
        const std::uint32_t key = keys_.intern(d, never);
        if (key < memo_.size()) {
          return memo_[key];  // memoised result, or cycle -> kNoMove
        }
        memo_.push_back(InitStatus::kNoMove);
        const InitStatus s = status(table_.definition_body(d), never);
        memo_[key] = s;
        return s;
      }
    }
    return InitStatus::kNoMove;
  }

 private:
  const AlphabetTable& table_;
  SetKeys keys_;  ///< (callee, never) -> index into memo_
  std::vector<InitStatus> memo_;
};

// True if some occurrence of a gate in `targets` sits under a hide of that
// gate inside @p t (with the hide's operand actually performing it) — the
// MV008 situation: an enclosing composition synchronises on a name whose
// actions have already been internalised.
class HiddenGateScan {
 public:
  explicit HiddenGateScan(const AlphabetTable& table)
      : table_(table), visited_(table.words()) {}

  bool scan(const Term* t, BitsView targets) {
    if (targets.empty()) {
      return false;
    }
    switch (t->kind()) {
      case Term::Kind::kStop:
      case Term::Kind::kExit:
        return false;
      case Term::Kind::kHide: {
        Bits remaining(targets);
        const BitsView inner = table_.of(t->children()[0].get());
        for (const GateId g : table_.gates(t)) {
          if (targets.test(g) && inner.test(g)) {
            return true;
          }
          remaining.reset(g);
        }
        return scan(t->children()[0].get(), remaining);
      }
      case Term::Kind::kRename:
        return scan(t->children()[0].get(), table_.inverse_image(t, targets));
      case Term::Kind::kCall: {
        const std::size_t d = table_.callee(t);
        if (d == AlphabetTable::kNoDefinition) {
          return false;
        }
        const std::size_t seen = visited_.size();
        if (visited_.intern(d, targets) < seen) {
          return false;
        }
        return scan(table_.definition_body(d), targets);
      }
      default: {
        for (const TermPtr& c : t->children()) {
          if (scan(c.get(), targets)) {
            return true;
          }
        }
        return false;
      }
    }
  }

 private:
  const AlphabetTable& table_;
  SetKeys visited_;  ///< (callee, targets) pairs already scanned
};

// ---- the per-term checks ----------------------------------------------------

class Checker {
 public:
  Checker(const proc::Program& program, const AlphabetTable& table,
          Analysis* out)
      : program_(program), table_(table), out_(out) {}

  void check(const Term* t, const std::string& path,
             const std::set<std::string>& bound) {
    ++out_->stats.terms_visited;
    switch (t->kind()) {
      case Term::Kind::kStop:
      case Term::Kind::kExit:
        return;
      case Term::Kind::kPrefix: {
        std::set<std::string> bound2 = bound;
        for (const proc::Offer& o : t->offers()) {
          if (o.kind == proc::Offer::Kind::kEmit) {
            check_vars(o.expr, bound2, path + " / " + t->gate());
          } else {
            bound2.insert(o.var);
          }
        }
        check(t->children()[0].get(), path, bound2);
        return;
      }
      case Term::Kind::kGuard: {
        check_vars(t->condition(), bound, path + " / guard");
        const proc::ExprPtr& c = t->condition();
        if (c->free_vars().empty()) {
          bool dead = false;
          try {
            dead = c->eval(proc::Env{}) == 0;
          } catch (const std::domain_error&) {
            dead = true;
          }
          if (dead) {
            emit("MV006", core::Severity::kWarning,
                 "guard [" + c->to_string() +
                     "] is constantly false; the branch behind it is dead",
                 path + " / guard",
                 "remove the branch or fix the condition");
          }
        }
        check(t->children()[0].get(), path, bound);
        return;
      }
      case Term::Kind::kChoice: {
        for (std::size_t i = 0; i < t->children().size(); ++i) {
          check(t->children()[i].get(),
                path + " / []#" + std::to_string(i + 1), bound);
        }
        return;
      }
      case Term::Kind::kPar: {
        check_par(t, path);
        check(t->children()[0].get(), path + " / left", bound);
        check(t->children()[1].get(), path + " / right", bound);
        return;
      }
      case Term::Kind::kHide: {
        const BitsView inner = table_.of(t->children()[0].get());
        const std::span<const GateId> ids = table_.gates(t);
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const std::string& g = t->gates()[k];
          if (!inner.test(ids[k])) {
            emit("MV007", core::Severity::kWarning,
                 "hide of gate " + g + " which the operand never performs",
                 path + " / hide",
                 "drop " + g + " from the hide set or fix the gate name");
          }
        }
        check_hide_placement(t, path);
        check(t->children()[0].get(), path, bound);
        return;
      }
      case Term::Kind::kRename: {
        const BitsView inner = table_.of(t->children()[0].get());
        const GateId* ids = table_.gates(t).data();
        for (const auto& [from, to] : t->gate_map()) {
          const GateId from_id = *ids;
          ids += 2;
          if (!inner.test(from_id)) {
            emit("MV007", core::Severity::kWarning,
                 "rename of gate " + from + " (to " + to +
                     ") which the operand never performs",
                 path + " / rename",
                 "drop the mapping or fix the gate name");
          }
        }
        check(t->children()[0].get(), path, bound);
        return;
      }
      case Term::Kind::kSeq: {
        check(t->children()[0].get(), path + " / first", bound);
        check(t->children()[1].get(), path + " / then", bound);
        return;
      }
      case Term::Kind::kCall: {
        if (!program_.has_definition(t->callee())) {
          emit("MV001", core::Severity::kError,
               "reference to undefined process " + t->callee(), path,
               "define process " + t->callee() + " or fix the reference");
        } else {
          const auto& def = program_.definition(t->callee());
          if (def.params.size() != t->args().size()) {
            emit("MV002", core::Severity::kError,
                 "call to " + t->callee() + " with " +
                     std::to_string(t->args().size()) + " argument(s); " +
                     "the definition takes " +
                     std::to_string(def.params.size()),
                 path, "match the parameter list (" + join(def.params) + ")");
          }
        }
        for (const proc::ExprPtr& a : t->args()) {
          check_vars(a, bound, path + " / call " + t->callee());
        }
        return;
      }
    }
  }

 private:
  void check_par(const Term* t, const std::string& path) {
    const Term* left = t->children()[0].get();
    const Term* right = t->children()[1].get();
    const BitsView l = table_.of(left);
    const BitsView r = table_.of(right);
    const std::span<const GateId> ids = table_.gates(t);
    Bits never = table_.no_gates();
    for (const GateId g : ids) {
      if (!(l.test(g) && r.test(g))) {
        never.set(g);
      }
    }
    const std::string par_desc = "par |[" + join(t->gates()) + "]|";
    InitialBlockScan scan(table_);
    InitStatus side_status[2] = {InitStatus::kNoMove, InitStatus::kNoMove};
    bool side_known[2] = {false, false};
    const auto stuck = [&](bool left_side) {
      const int i = left_side ? 0 : 1;
      if (!side_known[i]) {
        side_status[i] = scan.status(left_side ? left : right, never);
        side_known[i] = true;
      }
      return side_status[i] == InitStatus::kBlocked;
    };
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::string& g = t->gates()[k];
      const bool in_l = l.test(ids[k]);
      const bool in_r = r.test(ids[k]);
      if (in_l && in_r) {
        continue;
      }
      HiddenGateScan hidden(table_);
      Bits just_g = table_.no_gates();
      just_g.set(ids[k]);
      if (hidden.scan(in_l ? right : left, just_g) ||
          (!in_l && !in_r && hidden.scan(left, just_g))) {
        emit("MV008", core::Severity::kError,
             "synchronisation on gate " + g +
                 " which is hidden inside the " +
                 (in_l ? "right" : "left") + " operand",
             path + " / " + par_desc,
             "hidden actions become i and never synchronise; lift the hide "
             "above the composition or drop " +
                 g + " from the sync set");
        continue;
      }
      if (!in_l && !in_r) {
        emit("MV005", core::Severity::kWarning,
             "sync gate " + g + " is performed by neither operand",
             path + " / " + par_desc,
             "drop " + g + " from the sync set or fix the gate name");
        continue;
      }
      const char* offer_side = in_l ? "left" : "right";
      const char* missing_side = in_l ? "right" : "left";
      if (stuck(in_l)) {
        emit("MV003", core::Severity::kError,
             "sync gate " + g + " can never fire: the " + missing_side +
                 " operand never performs it, and every initial action of "
                 "the " +
                 offer_side +
                 " operand needs a never-firing sync gate — the component "
                 "is stuck from its initial state (structural deadlock)",
             path + " / " + par_desc,
             "add a matching " + g + " action to the " + missing_side +
                 " operand or drop " + g + " from the sync set");
      } else {
        emit("MV004", core::Severity::kAdvice,
             "sync gate " + g + " can never fire (the " + missing_side +
                 " operand never performs it); the " + offer_side +
                 " operand is not provably stuck, so this may be "
                 "intentional restriction",
             path + " / " + par_desc,
             "if unintentional, add a matching " + g + " action to the " +
                 missing_side + " operand");
      }
    }
  }

  // MV021: `hide g in (L |[G]| R)` where g is used by exactly one operand
  // and is not synchronised.  The hide can then be pushed into that operand
  // without changing the composed behaviour, turning g's actions into i
  // *before* the product is built — which is exactly what lets the
  // compositional planner (compose/plan) tau-compress the intermediate.
  void check_hide_placement(const Term* t, const std::string& path) {
    const Term* child = t->children()[0].get();
    if (child->kind() != Term::Kind::kPar) {
      return;
    }
    const BitsView l = table_.of(child->children()[0].get());
    const BitsView r = table_.of(child->children()[1].get());
    const std::span<const GateId> sync = table_.gates(child);
    const std::span<const GateId> ids = table_.gates(t);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::string& g = t->gates()[k];
      if (std::find(sync.begin(), sync.end(), ids[k]) != sync.end()) {
        continue;  // synchronised: hiding must stay above the par
      }
      const bool in_l = l.test(ids[k]);
      const bool in_r = r.test(ids[k]);
      if (in_l == in_r) {
        continue;  // unused (MV007's case) or used by both sides
      }
      const char* side = in_l ? "left" : "right";
      emit("MV021", core::Severity::kAdvice,
           "gate " + g + " is local to the " + side +
               " operand of the composition; hiding it below the |[" +
               join(child->gates()) +
               "]| would shrink the intermediate product",
           path + " / hide / " + side,
           "move " + g + " into a hide inside the " + side +
               " operand (the compositional planner applies this placement "
               "automatically)");
    }
  }

  void check_vars(const proc::ExprPtr& e, const std::set<std::string>& bound,
                  const std::string& path) {
    for (const std::string& v : e->free_vars()) {
      if (bound.count(v) == 0) {
        emit("MV009", core::Severity::kError,
             "unbound value variable " + v + " in " + e->to_string(), path,
             "bind " + v + " with a ?" + v +
                 ":lo..hi offer or a process parameter");
      }
    }
  }

  void emit(std::string code, core::Severity sev, std::string message,
            std::string path, std::string hint) {
    out_->diagnostics.push_back(core::Diagnostic{
        std::move(code), sev, std::move(message), std::move(path), 0, 0,
        std::move(hint)});
  }

  const proc::Program& program_;
  const AlphabetTable& table_;
  Analysis* out_;
};

std::string format_states(const std::vector<lts::StateId>& states) {
  std::string out;
  const std::size_t shown = std::min<std::size_t>(states.size(), 4);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += std::to_string(states[i]);
  }
  if (states.size() > shown) {
    out += ", ... (+" + std::to_string(states.size() - shown) + " more)";
  }
  return out;
}

}  // namespace

// ---- public API -------------------------------------------------------------

std::size_t Analysis::count(core::Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [s](const core::Diagnostic& d) { return d.severity == s; }));
}

std::string Analysis::summary() const {
  std::string out = std::to_string(count(core::Severity::kError)) +
                    " error(s), " +
                    std::to_string(count(core::Severity::kWarning)) +
                    " warning(s), " +
                    std::to_string(count(core::Severity::kAdvice)) +
                    " advisory(ies) (" + std::to_string(stats.definitions) +
                    " defs, " + std::to_string(stats.terms_visited) +
                    " terms, " + std::to_string(stats.fixpoint_passes) +
                    " fixpoint passes, " +
                    std::to_string(stats.states_generated) +
                    " states generated)";
  return out;
}

std::map<std::string, GateSet> alphabets(const proc::Program& program) {
  const AlphabetTable table(program);
  std::map<std::string, GateSet> out;
  for (std::size_t d = 0; d < table.definition_count(); ++d) {
    const std::vector<std::string> gates = table.names(table.definition(d));
    out.emplace_hint(out.end(), table.definition_name(d),
                     GateSet(gates.begin(), gates.end()));
  }
  return out;
}

Analysis lint_program(const proc::Program& program, const TermPtr& root) {
  const auto t0 = std::chrono::steady_clock::now();
  Analysis out;
  out.stats.definitions = program.size();
  const AlphabetTable table(program, root);
  out.stats.fixpoint_passes = table.passes();
  Checker checker(program, table, &out);
  for (const auto& [name, def] : program.definitions()) {
    std::set<std::string> bound(def.params.begin(), def.params.end());
    checker.check(def.body.get(), name, bound);
  }
  if (root) {
    checker.check(root.get(), "<root>", {});
  }
  out.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

Analysis lint_imc(const imc::Imc& m) {
  const auto t0 = std::chrono::steady_clock::now();
  Analysis out;
  std::vector<lts::StateId> races;      // MV011
  std::vector<lts::StateId> dead_rate;  // MV012
  std::vector<lts::StateId> nondet;     // MV013
  const auto n = static_cast<lts::StateId>(m.num_states());
  for (lts::StateId s = 0; s < n; ++s) {
    const auto inter = m.interactive(s);
    const auto mark = m.markovian(s);
    const bool stable = m.is_stable(s);
    if (!mark.empty() && !stable) {
      dead_rate.push_back(s);
    }
    if (inter.size() > 1) {
      if (stable && !mark.empty()) {
        races.push_back(s);
      } else {
        nondet.push_back(s);
      }
    }
    ++out.stats.terms_visited;
  }
  if (!races.empty()) {
    out.diagnostics.push_back(core::Diagnostic{
        "MV011", core::Severity::kWarning,
        std::to_string(races.size()) +
            " state(s) where a Markovian delay races with interactive "
            "nondeterminism (states " +
            format_states(races) + ")",
        "imc", 0, 0,
        "the imc solvers resolve the race over memoryless schedulers and "
        "report [min,max] interval bounds, not a point value; hide the "
        "competing actions (maximal progress) or refine the model to make "
        "the choice deterministic"});
  }
  if (!dead_rate.empty()) {
    out.diagnostics.push_back(core::Diagnostic{
        "MV012", core::Severity::kWarning,
        std::to_string(dead_rate.size()) +
            " state(s) carry Markovian rates that maximal progress will "
            "cut (outgoing tau at the same state; states " +
            format_states(dead_rate) + ")",
        "imc", 0, 0,
        "these delays are dead after closing the model; remove them or "
        "un-hide the competing interactive action"});
  }
  if (!nondet.empty()) {
    out.diagnostics.push_back(core::Diagnostic{
        "MV013", core::Severity::kAdvice,
        std::to_string(nondet.size()) +
            " state(s) with interactive nondeterminism and no competing "
            "delay (states " +
            format_states(nondet) + ")",
        "imc", 0, 0,
        "harmless for functional analysis; reachability/throughput need a "
        "deterministic closed chain — solve with scheduler interval bounds "
        "('bounds') instead"});
  }
  out.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

core::Diagnostic fixed_delay_advisory(double delay, double rel_error) {
  if (!(delay > 0.0) || !std::isfinite(delay)) {
    throw std::invalid_argument("fixed_delay_advisory: delay must be > 0");
  }
  if (!(rel_error > 0.0) || !(rel_error < 1.0)) {
    throw std::invalid_argument(
        "fixed_delay_advisory: error bound must be in (0, 1)");
  }
  // Wasserstein-1 of Erlang-k against the unit step decays like
  // d * sqrt(2 / (pi k)); invert for the asymptotic order estimate.
  const double pi = 3.14159265358979323846;
  std::size_t k = static_cast<std::size_t>(
      std::ceil(2.0 / (pi * rel_error * rel_error)));
  k = std::max<std::size_t>(k, 1);
  double achieved = std::sqrt(2.0 / (pi * static_cast<double>(k)));
  bool refined = false;
  // For modest orders the grid evaluation in src/phase is cheap: refine the
  // asymptotic estimate to the smallest k actually meeting the bound.
  if (k <= 2048) {
    refined = true;
    std::size_t hi = k;
    double err_hi =
        phase::evaluate_fixed_delay_fit(delay, hi).wasserstein / delay;
    while (err_hi > rel_error && hi < 16384) {
      hi *= 2;
      err_hi = phase::evaluate_fixed_delay_fit(delay, hi).wasserstein / delay;
    }
    std::size_t lo = 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const double err =
          phase::evaluate_fixed_delay_fit(delay, mid).wasserstein / delay;
      if (err <= rel_error) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    k = hi;
    achieved = phase::evaluate_fixed_delay_fit(delay, k).wasserstein / delay;
  }
  std::string msg =
      "approximating a fixed delay of " + std::to_string(delay) +
      " within relative Wasserstein error " + std::to_string(rel_error) +
      " requires an Erlang-" + std::to_string(k) + " (" + std::to_string(k) +
      " phases, " + (refined ? "achieved" : "asymptotic") + " error ~" +
      std::to_string(achieved) +
      "); every occurrence of the delay multiplies the state space by up "
      "to " +
      std::to_string(k);
  return core::Diagnostic{
      "MV020", core::Severity::kAdvice, std::move(msg), "phase", 0, 0,
      "halving the error bound quadruples the phase count; relax the bound "
      "or lump after composition to contain the growth"};
}

ModelError::ModelError(std::vector<core::Diagnostic> diagnostics)
    : std::runtime_error(core::render_text(diagnostics)),
      diagnostics_(std::move(diagnostics)) {}

void require_well_formed(const proc::Program& program, const TermPtr& root) {
  Analysis a = lint_program(program, root);
  if (!a.clean()) {
    std::vector<core::Diagnostic> errors;
    for (core::Diagnostic& d : a.diagnostics) {
      if (d.severity == core::Severity::kError) {
        errors.push_back(std::move(d));
      }
    }
    throw ModelError(std::move(errors));
  }
}

}  // namespace multival::analyze
