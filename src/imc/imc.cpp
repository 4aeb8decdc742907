#include "imc/imc.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace multival::imc {

Imc::Imc(lts::Lts interactive)
    : lts_(std::move(interactive)), mark_(lts_.num_states()) {}

StateId Imc::add_state() {
  mark_.emplace_back();
  return lts_.add_state();
}

StateId Imc::add_states(std::size_t n) {
  mark_.resize(mark_.size() + n);
  return lts_.add_states(n);
}

void Imc::add_markovian(StateId src, double rate, StateId dst,
                        std::string_view label) {
  if (src >= mark_.size() || dst >= mark_.size()) {
    throw std::out_of_range("Imc::add_markovian: unknown state");
  }
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument("Imc::add_markovian: rate must be > 0");
  }
  mark_[src].push_back(MarkEdge{rate, dst, std::string(label)});
  ++n_mark_;
}

std::span<const MarkEdge> Imc::markovian(StateId s) const {
  if (s >= mark_.size()) {
    throw std::out_of_range("Imc: unknown state in markovian");
  }
  return mark_[s];
}

bool Imc::is_stable(StateId s) const {
  for (const InterEdge& e : interactive(s)) {
    if (lts::ActionTable::is_tau(e.action)) {
      return false;
    }
  }
  return true;
}

bool Imc::is_markovian_only(StateId s) const {
  return interactive(s).empty();
}

Imc lift(const lts::Lts& l, const DelayOf& delay_of) {
  Imc m;
  m.add_states(l.num_states());
  if (l.num_states() > 0) {
    m.set_initial_state(l.initial_state());
  }
  // Per action of @p l: its Markovian reading, or its id in m's table.
  std::vector<std::optional<Delay>> delay(l.actions().size());
  std::vector<ActionId> inter(l.actions().size(), lts::kNoState);
  for (StateId s = 0; s < l.num_states(); ++s) {
    for (const lts::OutEdge& e : l.out(s)) {
      if (inter[e.action] == lts::kNoState && !delay[e.action]) {
        const std::string_view label = l.actions().name(e.action);
        if (!lts::ActionTable::is_tau(e.action)) {
          delay[e.action] = delay_of(label);
        }
        if (!delay[e.action]) {
          inter[e.action] = m.actions().intern(label);
        }
      }
      if (const std::optional<Delay>& d = delay[e.action]) {
        m.add_markovian(s, d->rate, e.dst, d->label);
      } else {
        m.add_interactive(s, inter[e.action], e.dst);
      }
    }
  }
  return m;
}

}  // namespace multival::imc
