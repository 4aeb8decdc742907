#include "serve/hash.hpp"

namespace multival::serve {

void hash_append(Hasher& h, const imc::Imc& m) {
  h.str("imc");
  h.u64(m.num_states());
  h.u64(m.num_states() == 0 ? 0 : m.initial_state());
  for (imc::StateId s = 0; s < m.num_states(); ++s) {
    const auto inter = m.interactive(s);
    h.u64(inter.size());
    for (const imc::InterEdge& e : inter) {
      h.str(m.actions().name(e.action));
      h.u64(e.dst);
    }
    const auto mark = m.markovian(s);
    h.u64(mark.size());
    for (const imc::MarkEdge& e : mark) {
      h.f64(e.rate);
      h.u64(e.dst);
      h.str(e.label);
    }
  }
}

void hash_append(Hasher& h, const markov::Ctmc& c) {
  h.str("ctmc");
  h.u64(c.num_states());
  for (double p : c.initial_distribution()) {
    h.f64(p);
  }
  h.u64(c.num_transitions());
  for (const markov::RateTransition& t : c.transitions()) {
    h.u64(t.src);
    h.u64(t.dst);
    h.f64(t.rate);
    h.str(t.label);
  }
}

}  // namespace multival::serve
