#include "lts/lts.hpp"

#include <stdexcept>
#include <string>

#include "core/hash.hpp"

namespace multival::lts {

StateId Lts::add_state() {
  out_.emplace_back();
  return static_cast<StateId>(out_.size() - 1);
}

StateId Lts::add_states(std::size_t n) {
  const auto first = static_cast<StateId>(out_.size());
  out_.resize(out_.size() + n);
  return first;
}

void Lts::check_state(StateId s, const char* what) const {
  if (s >= out_.size()) {
    throw std::out_of_range(std::string("Lts: unknown state in ") + what);
  }
}

void Lts::add_transition(StateId src, ActionId action, StateId dst) {
  check_state(src, "add_transition(src)");
  check_state(dst, "add_transition(dst)");
  if (action >= actions_.size()) {
    throw std::out_of_range("Lts::add_transition: unknown action id");
  }
  out_[src].push_back(OutEdge{action, dst});
  ++num_transitions_;
}

void Lts::add_transition(StateId src, std::string_view label, StateId dst) {
  add_transition(src, actions_.intern(label), dst);
}

void Lts::set_initial_state(StateId s) {
  check_state(s, "set_initial_state");
  initial_ = s;
}

std::span<const OutEdge> Lts::out(StateId s) const {
  check_state(s, "out");
  return out_[s];
}

std::vector<Transition> Lts::all_transitions() const {
  std::vector<Transition> ts;
  ts.reserve(num_transitions_);
  for (StateId s = 0; s < out_.size(); ++s) {
    for (const OutEdge& e : out_[s]) {
      ts.push_back(Transition{s, e.action, e.dst});
    }
  }
  return ts;
}

void hash_append(core::Hasher& h, const Lts& l) {
  h.str("lts");
  h.u64(l.num_states());
  h.u64(l.num_states() == 0 ? 0 : l.initial_state());
  h.u64(l.num_transitions());
  for (StateId s = 0; s < l.num_states(); ++s) {
    for (const OutEdge& e : l.out(s)) {
      h.u64(s);
      h.str(l.actions().name(e.action));
      h.u64(e.dst);
    }
  }
}

}  // namespace multival::lts
