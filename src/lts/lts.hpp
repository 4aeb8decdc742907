// Labelled Transition System: the central semantic object of the Multival
// flow.  LOTOS-like process models are compiled into LTSs (proc/generator),
// which are then minimised (bisim/), model-checked (mc/), composed (compose/)
// or decorated with stochastic timing (imc/, core/flow).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "lts/action_table.hpp"

namespace multival::core {
class Hasher;
}  // namespace multival::core

namespace multival::lts {

using StateId = std::uint32_t;

/// Sentinel for "no state".
inline constexpr StateId kNoState = static_cast<StateId>(-1);

/// Thrown when a state space would exceed its cap: by proc::generate,
/// explore::explore and lts::parallel alike.
struct StateSpaceLimit : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One outgoing transition: an action label and a destination state.
struct OutEdge {
  ActionId action = 0;
  StateId dst = 0;

  friend bool operator==(const OutEdge&, const OutEdge&) = default;
};

/// One fully-qualified transition (source included).
struct Transition {
  StateId src = 0;
  ActionId action = 0;
  StateId dst = 0;

  friend bool operator==(const Transition&, const Transition&) = default;
};

/// An explicit-state LTS with interned action labels.
///
/// States are dense ids `0..num_states()-1`; transitions are stored per
/// source state.  The structure is mutable (states and transitions can be
/// added at any time) which the generators rely on; analyses treat it as
/// immutable.
class Lts {
 public:
  Lts() = default;

  /// Adds a fresh state and returns its id.
  StateId add_state();

  /// Adds @p n fresh states, returning the id of the first.
  StateId add_states(std::size_t n);

  /// Adds a transition; both states must already exist.
  void add_transition(StateId src, ActionId action, StateId dst);

  /// Convenience overload interning @p label.
  void add_transition(StateId src, std::string_view label, StateId dst);

  void set_initial_state(StateId s);
  [[nodiscard]] StateId initial_state() const { return initial_; }

  [[nodiscard]] std::size_t num_states() const { return out_.size(); }
  [[nodiscard]] std::size_t num_transitions() const { return num_transitions_; }

  /// Outgoing transitions of @p s, in insertion order.
  [[nodiscard]] std::span<const OutEdge> out(StateId s) const;

  [[nodiscard]] ActionTable& actions() { return actions_; }
  [[nodiscard]] const ActionTable& actions() const { return actions_; }

  /// True if @p s has no outgoing transition.
  [[nodiscard]] bool is_deadlock(StateId s) const { return out(s).empty(); }

  /// All transitions, flattened (src-major, insertion order).
  [[nodiscard]] std::vector<Transition> all_transitions() const;

 private:
  void check_state(StateId s, const char* what) const;

  ActionTable actions_;
  std::vector<std::vector<OutEdge>> out_;
  StateId initial_ = 0;
  std::size_t num_transitions_ = 0;
};

/// Appends the canonical content digest of @p l (core/hash.hpp): state
/// count, initial state and every transition in insertion order with its
/// label text.
void hash_append(core::Hasher& h, const Lts& l);

}  // namespace multival::lts
