// The alphabet lattice of one program over interned gate ids: the table
// that lint (analyze.hpp), the bound analysis (bounds.hpp) and the
// composition planner (compose/plan.hpp) all read.
//
// One walk over every definition body and the optional root interns each
// gate name the syntax mentions (prefix gates, sync and hide lists, both
// sides of every rename map) through core::IdTable, then renumbers the ids
// in std::string order.  An alphabet is then a bitset of ceil(gates / 64)
// words, and iterating its set bits visits the gates in exactly the order
// a std::set<std::string> would: every printed gate list, every "first
// offending gate" and every order-dependent choice of the consumers stays
// what the string sets gave.
//
// Per-definition alphabets are the least fixed point of the syntactic
// transfer functions (see analyze.hpp), computed by Kleene passes over
// Program::definitions() in name order that update each definition in
// place.  After the fixed point, the alphabet of every subterm of the
// walked syntax is memoised in one flat word vector (no allocation per
// term), so of() is a lookup.
//
// A table holds no global state and points into the program's and the
// root's terms: it must not outlive them.  Each caller builds its own.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/id_table.hpp"
#include "proc/process.hpp"

namespace multival::analyze {

using GateId = std::uint32_t;

/// Read-only view of a set of dense ids (gate ids, or component indices in
/// the planner): bit i of word i / 64 is id i.
class BitsView {
 public:
  BitsView() = default;
  explicit BitsView(std::span<const std::uint64_t> words) : words_(words) {}

  [[nodiscard]] bool test(std::uint32_t i) const {
    return ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  [[nodiscard]] bool empty() const;
  /// The smallest member; only valid when !empty().
  [[nodiscard]] std::uint32_t first() const;
  /// Calls @p f(i) for every member in ascending order (for gate ids: in
  /// std::string order of the names).
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return words_;
  }

 private:
  std::span<const std::uint64_t> words_;
};

/// |a ∩ b| and |a ∪ b| of two sets of the same width.
[[nodiscard]] std::size_t count_common(BitsView a, BitsView b);
[[nodiscard]] std::size_t count_union(BitsView a, BitsView b);
/// True when every member of @p a is in @p b or in @p c.
[[nodiscard]] bool subset_of_union(BitsView a, BitsView b, BitsView c);

/// An owned set of dense ids, fixed width.
class Bits {
 public:
  Bits() = default;
  /// The empty set over @p words 64-bit words.
  explicit Bits(std::size_t words) : words_(words, 0) {}
  explicit Bits(BitsView v) : words_(v.words().begin(), v.words().end()) {}
  /// The empty set wide enough for ids below @p n.
  [[nodiscard]] static Bits for_ids(std::size_t n) {
    return Bits((n + 63) / 64);
  }

  operator BitsView() const { return BitsView(words_); }

  [[nodiscard]] bool test(std::uint32_t i) const {
    return ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  void set(std::uint32_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::uint32_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  Bits& operator|=(BitsView o);
  Bits& operator&=(BitsView o);
  [[nodiscard]] bool empty() const { return BitsView(*this).empty(); }
  [[nodiscard]] std::uint32_t first() const { return BitsView(*this).first(); }
  template <class F>
  void for_each(F&& f) const {
    BitsView(*this).for_each(std::forward<F>(f));
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Dense ids of (tag, id set) pairs of one fixed width, interned through
/// core::IdTable: the memo keys of lint's scans and of the bound counter
/// (tag = a definition index, set = the gates blocked on the way in).
class SetKeys {
 public:
  explicit SetKeys(std::size_t words) : stride_(words + 1) {}
  /// The id of (@p tag, @p set); new pairs get the next id, from 0.
  std::uint32_t intern(std::uint64_t tag, BitsView set);
  [[nodiscard]] std::size_t size() const { return records_.size() / stride_; }

 private:
  std::size_t stride_;
  std::vector<std::uint64_t> records_;
  core::IdTable ids_;
};

class AlphabetTable {
 public:
  /// callee() and definition_index() of an undefined process.
  static constexpr std::size_t kNoDefinition = ~std::size_t{0};

  /// Interns the gates of @p program and @p root (when non-null) and runs
  /// the alphabet fixed point.
  explicit AlphabetTable(const proc::Program& program,
                         const proc::TermPtr& root = nullptr);

  AlphabetTable(const AlphabetTable&) = delete;
  AlphabetTable& operator=(const AlphabetTable&) = delete;

  /// Words per alphabet: ceil(gate_count() / 64).
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t gate_count() const { return names_.size(); }
  /// Gate ids are dense and ordered like their names.
  [[nodiscard]] const std::string& name(GateId g) const { return names_[g]; }
  /// The empty gate set of this table's width.
  [[nodiscard]] Bits no_gates() const { return Bits(words_); }

  /// Definitions are indexed in Program::definitions() (name) order.
  [[nodiscard]] std::size_t definition_count() const {
    return def_names_.size();
  }
  [[nodiscard]] std::size_t definition_index(std::string_view name) const;
  [[nodiscard]] const std::string& definition_name(std::size_t d) const {
    return *def_names_[d];
  }
  [[nodiscard]] const proc::Term* definition_body(std::size_t d) const {
    return nodes_[def_body_[d]].term;
  }
  /// The least-fixed-point alphabet of definition @p d.
  [[nodiscard]] BitsView definition(std::size_t d) const {
    return BitsView(std::span(def_bits_).subspan(d * words_, words_));
  }
  /// Kleene passes the fixed point took (the last one changes nothing).
  [[nodiscard]] std::size_t passes() const { return passes_; }

  /// Over-approximate alphabet of @p t, which must be a subterm of a
  /// definition body or of the root; throws std::out_of_range otherwise.
  [[nodiscard]] BitsView of(const proc::Term* t) const;
  /// The gate ids of @p t: its prefix gate; its sync or hide list, aligned
  /// with Term::gates(); or its rename map as (from, to) id pairs in
  /// Term::gate_map() order.  Empty for every other kind.
  [[nodiscard]] std::span<const GateId> gates(const proc::Term* t) const;
  /// Definition index of the callee of call @p t, or kNoDefinition.
  [[nodiscard]] std::size_t callee(const proc::Term* t) const;

  /// The gates inside rename @p t that surface as a member of @p outer
  /// outside it (the gates the rename maps onto @p outer, plus the members
  /// of @p outer it leaves alone).
  [[nodiscard]] Bits inverse_image(const proc::Term* t, BitsView outer) const;

  /// The names of the members of @p s, for the API edge.
  [[nodiscard]] std::vector<std::string> names(BitsView s) const;

 private:
  struct Node {
    const proc::Term* term = nullptr;
    std::uint32_t first_child = 0;
    std::uint32_t children = 0;
    std::uint32_t first_gate = 0;
    std::uint32_t gates = 0;
    std::size_t callee = kNoDefinition;
  };

  std::uint32_t intern_term(const proc::Term* t, core::IdTable& gate_table);
  GateId intern_gate(const std::string& name, core::IdTable& gate_table);
  void renumber_gates();
  void append_order(std::uint32_t n, std::uint32_t list,
                    std::vector<std::uint32_t>& mark);
  void evaluate(std::uint32_t n);
  [[nodiscard]] std::uint32_t node_of(const proc::Term* t) const;
  [[nodiscard]] std::uint64_t* slot(std::uint32_t n) {
    return bits_.data() + std::size_t{n} * words_;
  }

  std::size_t words_ = 0;
  std::vector<std::string> names_;
  std::vector<const std::string*> def_names_;
  std::vector<std::uint32_t> def_body_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> children_;
  std::vector<GateId> gate_ids_;
  /// Post-order node lists: definition d is order_[list_begin_[d],
  /// list_begin_[d + 1]); the root's list, if any, comes last.
  std::vector<std::uint32_t> order_;
  std::vector<std::size_t> list_begin_;
  std::vector<std::uint64_t> bits_;      ///< one alphabet per node
  std::vector<std::uint64_t> def_bits_;  ///< one alphabet per definition
  std::size_t passes_ = 0;
  core::IdTable term_ids_;  ///< Term* -> node
};

}  // namespace multival::analyze
