// Interactive Markov Chains (Hermanns, LNCS 2428): states with both
// interactive (labelled, instantaneous) and Markovian (exponential-rate)
// transitions.  This is the pivot formalism of the Multival performance
// flow: functional LTSs are lifted to IMCs, composed with phase-type delay
// processes, closed by hiding + maximal progress, lumped, and finally
// flattened into a CTMC.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lts/action_table.hpp"
#include "lts/lts.hpp"

namespace multival::imc {

using StateId = lts::StateId;
using ActionId = lts::ActionId;

/// An interactive transition (same shape as an LTS edge).
using InterEdge = lts::OutEdge;

/// A Markovian transition: exponential rate, optional label used for
/// throughput measurement after CTMC extraction.
struct MarkEdge {
  double rate = 0.0;
  StateId dst = 0;
  std::string label;  // empty = unlabelled
};

/// An IMC is an LTS (its interactive part, action table included) plus one
/// list of Markovian edges per state, so the LTS operators and analyses
/// run on the interactive part as they are.
class Imc {
 public:
  Imc() = default;

  /// Lifts an LTS to an IMC (all transitions interactive).
  explicit Imc(lts::Lts interactive);

  StateId add_state();
  StateId add_states(std::size_t n);

  void add_interactive(StateId src, ActionId a, StateId dst) {
    lts_.add_transition(src, a, dst);
  }
  void add_interactive(StateId src, std::string_view label, StateId dst) {
    lts_.add_transition(src, label, dst);
  }
  void add_markovian(StateId src, double rate, StateId dst,
                     std::string_view label = {});

  void set_initial_state(StateId s) { lts_.set_initial_state(s); }
  [[nodiscard]] StateId initial_state() const { return lts_.initial_state(); }

  [[nodiscard]] std::size_t num_states() const { return lts_.num_states(); }
  [[nodiscard]] std::size_t num_interactive() const {
    return lts_.num_transitions();
  }
  [[nodiscard]] std::size_t num_markovian() const { return n_mark_; }

  [[nodiscard]] std::span<const InterEdge> interactive(StateId s) const {
    return lts_.out(s);
  }
  [[nodiscard]] std::span<const MarkEdge> markovian(StateId s) const;

  [[nodiscard]] lts::ActionTable& actions() { return lts_.actions(); }
  [[nodiscard]] const lts::ActionTable& actions() const {
    return lts_.actions();
  }

  /// True if @p s has no outgoing tau transition (Markovian delays at
  /// unstable states are cut by maximal progress).
  [[nodiscard]] bool is_stable(StateId s) const;

  /// True if @p s has no outgoing interactive transition at all.
  [[nodiscard]] bool is_markovian_only(StateId s) const;

  /// The interactive part (Markovian transitions dropped).
  [[nodiscard]] const lts::Lts& interactive_lts() const { return lts_; }

 private:
  lts::Lts lts_;
  std::vector<std::vector<MarkEdge>> mark_;
  std::size_t n_mark_ = 0;
};

/// The Markovian reading of a label: a rate and a throughput-probe label.
struct Delay {
  double rate = 0.0;
  std::string label;
};

/// Classifies a label: a Delay makes its edges Markovian, nullopt keeps
/// them interactive.
using DelayOf = std::function<std::optional<Delay>(std::string_view label)>;

/// Lifts @p l to an IMC, splitting its edges into interactive and
/// Markovian ones.  @p delay_of runs once per distinct label, and never on
/// tau, which stays interactive.  Interactive labels are interned in order
/// of first use, as lts::relabel interns them.
[[nodiscard]] Imc lift(const lts::Lts& l, const DelayOf& delay_of);

}  // namespace multival::imc
