#include "analyze/alphabet_table.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace multival::analyze {

namespace {

using proc::Term;

std::uint64_t pointer_hash(const void* p) {
  const auto v = reinterpret_cast<std::uintptr_t>(p);
  return core::hash_mix(
      core::hash_mix(0x9e3779b97f4a7c15ull, static_cast<std::uint32_t>(v)),
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) >> 32));
}

bool test_bit(const std::uint64_t* words, GateId g) {
  return ((words[g >> 6] >> (g & 63)) & 1) != 0;
}

void set_bit(std::uint64_t* words, GateId g) {
  words[g >> 6] |= std::uint64_t{1} << (g & 63);
}

void reset_bit(std::uint64_t* words, GateId g) {
  words[g >> 6] &= ~(std::uint64_t{1} << (g & 63));
}

}  // namespace

// ---- id sets -----------------------------------------------------------------

bool BitsView::empty() const {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

std::uint32_t BitsView::first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return static_cast<std::uint32_t>(w * 64 +
                                        std::countr_zero(words_[w]));
    }
  }
  throw std::logic_error("analyze::BitsView::first: empty set");
}

std::size_t count_common(BitsView a, BitsView b) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < a.words().size(); ++w) {
    n += static_cast<std::size_t>(std::popcount(a.words()[w] & b.words()[w]));
  }
  return n;
}

std::size_t count_union(BitsView a, BitsView b) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < a.words().size(); ++w) {
    n += static_cast<std::size_t>(std::popcount(a.words()[w] | b.words()[w]));
  }
  return n;
}

bool subset_of_union(BitsView a, BitsView b, BitsView c) {
  for (std::size_t w = 0; w < a.words().size(); ++w) {
    if ((a.words()[w] & ~(b.words()[w] | c.words()[w])) != 0) {
      return false;
    }
  }
  return true;
}

Bits& Bits::operator|=(BitsView o) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] |= o.words()[w];
  }
  return *this;
}

Bits& Bits::operator&=(BitsView o) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= o.words()[w];
  }
  return *this;
}

std::uint32_t SetKeys::intern(std::uint64_t tag, BitsView set) {
  const std::span<const std::uint64_t> words = set.words();
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  h = core::hash_mix(h, static_cast<std::uint32_t>(tag));
  h = core::hash_mix(h, static_cast<std::uint32_t>(tag >> 32));
  for (const std::uint64_t w : words) {
    h = core::hash_mix(h, static_cast<std::uint32_t>(w));
    h = core::hash_mix(h, static_cast<std::uint32_t>(w >> 32));
  }
  const auto fresh = static_cast<std::uint32_t>(size());
  const std::uint32_t id = ids_.find_or_add(h, fresh, [&](std::uint32_t known) {
    const std::uint64_t* r = records_.data() + std::size_t{known} * stride_;
    return r[0] == tag && std::equal(words.begin(), words.end(), r + 1);
  });
  if (id == fresh) {
    records_.push_back(tag);
    records_.insert(records_.end(), words.begin(), words.end());
  }
  return id;
}

// ---- the table ---------------------------------------------------------------

AlphabetTable::AlphabetTable(const proc::Program& program,
                             const proc::TermPtr& root) {
  for (const auto& [name, def] : program.definitions()) {
    def_names_.push_back(&name);
  }
  core::IdTable gate_table;
  for (const auto& [name, def] : program.definitions()) {
    def_body_.push_back(intern_term(def.body.get(), gate_table));
  }
  const std::uint32_t root_node =
      root == nullptr ? 0 : intern_term(root.get(), gate_table);
  renumber_gates();
  words_ = (names_.size() + 63) / 64;

  // One post-order list per definition (and the root): each list holds
  // every node of its body once, so evaluating a list recomputes the whole
  // body under the current definition alphabets, as one recursive
  // application of the transfer function would.
  std::vector<std::uint32_t> mark(nodes_.size(), 0);
  const std::size_t defs = def_body_.size();
  for (std::size_t d = 0; d < defs; ++d) {
    list_begin_.push_back(order_.size());
    append_order(def_body_[d], static_cast<std::uint32_t>(d + 1), mark);
  }
  list_begin_.push_back(order_.size());
  if (root != nullptr) {
    append_order(root_node, static_cast<std::uint32_t>(defs + 1), mark);
    list_begin_.push_back(order_.size());
  }

  bits_.assign(nodes_.size() * words_, 0);
  def_bits_.assign(defs * words_, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    ++passes_;
    for (std::size_t d = 0; d < defs; ++d) {
      for (std::size_t k = list_begin_[d]; k < list_begin_[d + 1]; ++k) {
        evaluate(order_[k]);
      }
      const std::uint64_t* body = slot(def_body_[d]);
      std::uint64_t* current = def_bits_.data() + d * words_;
      if (!std::equal(body, body + words_, current)) {
        std::copy_n(body, words_, current);
        changed = true;
      }
    }
  }
  if (root != nullptr) {
    for (std::size_t k = list_begin_[defs]; k < list_begin_[defs + 1]; ++k) {
      evaluate(order_[k]);
    }
  }
}

std::uint32_t AlphabetTable::intern_term(const Term* t,
                                         core::IdTable& gate_table) {
  const auto fresh = static_cast<std::uint32_t>(nodes_.size());
  const std::uint32_t id =
      term_ids_.find_or_add(pointer_hash(t), fresh, [&](std::uint32_t known) {
        return nodes_[known].term == t;
      });
  if (id != fresh) {
    return id;
  }
  nodes_.push_back(Node{t});
  const auto first_child = static_cast<std::uint32_t>(children_.size());
  const std::size_t n = t->children().size();
  children_.resize(children_.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t c = intern_term(t->children()[i].get(), gate_table);
    children_[first_child + i] = c;
  }
  Node& node = nodes_[id];
  node.first_child = first_child;
  node.children = static_cast<std::uint32_t>(n);
  node.first_gate = static_cast<std::uint32_t>(gate_ids_.size());
  switch (t->kind()) {
    case Term::Kind::kPrefix:
      gate_ids_.push_back(intern_gate(t->gate(), gate_table));
      break;
    case Term::Kind::kPar:
    case Term::Kind::kHide:
      for (const std::string& g : t->gates()) {
        gate_ids_.push_back(intern_gate(g, gate_table));
      }
      break;
    case Term::Kind::kRename:
      for (const auto& [from, to] : t->gate_map()) {
        gate_ids_.push_back(intern_gate(from, gate_table));
        gate_ids_.push_back(intern_gate(to, gate_table));
      }
      break;
    case Term::Kind::kCall:
      node.callee = definition_index(t->callee());
      break;
    default:
      break;
  }
  node.gates = static_cast<std::uint32_t>(gate_ids_.size() - node.first_gate);
  return id;
}

GateId AlphabetTable::intern_gate(const std::string& name,
                                  core::IdTable& gate_table) {
  const auto fresh = static_cast<GateId>(names_.size());
  const GateId id = gate_table.find_or_add(
      std::hash<std::string_view>{}(name), fresh,
      [&](GateId known) { return names_[known] == name; });
  if (id == fresh) {
    names_.push_back(name);
  }
  return id;
}

// Ids come out of interning in first-use order; renumber them so that id
// order is name order.
void AlphabetTable::renumber_gates() {
  std::vector<GateId> by_name(names_.size());
  std::iota(by_name.begin(), by_name.end(), GateId{0});
  std::sort(by_name.begin(), by_name.end(),
            [&](GateId a, GateId b) { return names_[a] < names_[b]; });
  std::vector<GateId> rank(names_.size());
  std::vector<std::string> sorted;
  sorted.reserve(names_.size());
  for (std::size_t i = 0; i < by_name.size(); ++i) {
    rank[by_name[i]] = static_cast<GateId>(i);
    sorted.push_back(std::move(names_[by_name[i]]));
  }
  names_ = std::move(sorted);
  for (GateId& g : gate_ids_) {
    g = rank[g];
  }
}

void AlphabetTable::append_order(std::uint32_t n, std::uint32_t list,
                                 std::vector<std::uint32_t>& mark) {
  if (mark[n] == list) {
    return;
  }
  mark[n] = list;
  const Node& node = nodes_[n];
  for (std::uint32_t i = 0; i < node.children; ++i) {
    append_order(children_[node.first_child + i], list, mark);
  }
  order_.push_back(n);
}

// One application of the syntactic transfer function at node @p n, from
// its children's slots and the current definition alphabets.  Every
// transfer function is monotone in the definition alphabets (kPar drops a
// sync gate only while it is missing from one side, and growing operand
// alphabets can only stop the drop), so Kleene iteration from bottom
// reaches the least fixed point in at most |gates| * |defs| passes.
void AlphabetTable::evaluate(std::uint32_t n) {
  const Node& node = nodes_[n];
  std::uint64_t* out = slot(n);
  const std::uint32_t* kids = children_.data() + node.first_child;
  const GateId* ids = gate_ids_.data() + node.first_gate;
  switch (node.term->kind()) {
    case Term::Kind::kStop:
    case Term::Kind::kExit:
      std::fill_n(out, words_, 0);
      return;
    case Term::Kind::kPrefix:
      std::copy_n(slot(kids[0]), words_, out);
      set_bit(out, ids[0]);
      return;
    case Term::Kind::kGuard:
      std::copy_n(slot(kids[0]), words_, out);
      return;
    case Term::Kind::kChoice:
    case Term::Kind::kSeq:
      std::fill_n(out, words_, 0);
      for (std::uint32_t k = 0; k < node.children; ++k) {
        const std::uint64_t* c = slot(kids[k]);
        for (std::size_t w = 0; w < words_; ++w) {
          out[w] |= c[w];
        }
      }
      return;
    case Term::Kind::kPar: {
      const std::uint64_t* l = slot(kids[0]);
      const std::uint64_t* r = slot(kids[1]);
      for (std::size_t w = 0; w < words_; ++w) {
        out[w] = l[w] | r[w];
      }
      for (std::uint32_t k = 0; k < node.gates; ++k) {
        if (!(test_bit(l, ids[k]) && test_bit(r, ids[k]))) {
          reset_bit(out, ids[k]);  // a one-sided sync gate can never fire
        }
      }
      return;
    }
    case Term::Kind::kHide:
      std::copy_n(slot(kids[0]), words_, out);
      for (std::uint32_t k = 0; k < node.gates; ++k) {
        reset_bit(out, ids[k]);
      }
      return;
    case Term::Kind::kRename: {
      const std::uint64_t* inner = slot(kids[0]);
      std::copy_n(inner, words_, out);
      for (std::uint32_t k = 0; k < node.gates; k += 2) {
        reset_bit(out, ids[k]);
      }
      for (std::uint32_t k = 0; k < node.gates; k += 2) {
        if (test_bit(inner, ids[k])) {
          set_bit(out, ids[k + 1]);
        }
      }
      return;
    }
    case Term::Kind::kCall:
      if (node.callee == kNoDefinition) {
        std::fill_n(out, words_, 0);
      } else {
        std::copy_n(def_bits_.data() + node.callee * words_, words_, out);
      }
      return;
  }
}

std::size_t AlphabetTable::definition_index(std::string_view name) const {
  const auto it = std::lower_bound(
      def_names_.begin(), def_names_.end(), name,
      [](const std::string* a, std::string_view b) { return *a < b; });
  if (it == def_names_.end() || **it != name) {
    return kNoDefinition;
  }
  return static_cast<std::size_t>(it - def_names_.begin());
}

std::uint32_t AlphabetTable::node_of(const Term* t) const {
  const std::optional<std::uint32_t> n = term_ids_.find(
      pointer_hash(t),
      [&](std::uint32_t known) { return nodes_[known].term == t; });
  if (!n) {
    throw std::out_of_range(
        "analyze::AlphabetTable: term is not part of the table's program "
        "or root");
  }
  return *n;
}

BitsView AlphabetTable::of(const Term* t) const {
  return BitsView(
      std::span(bits_).subspan(std::size_t{node_of(t)} * words_, words_));
}

std::span<const GateId> AlphabetTable::gates(const Term* t) const {
  const Node& node = nodes_[node_of(t)];
  return std::span(gate_ids_).subspan(node.first_gate, node.gates);
}

std::size_t AlphabetTable::callee(const Term* t) const {
  return nodes_[node_of(t)].callee;
}

Bits AlphabetTable::inverse_image(const Term* t, BitsView outer) const {
  Bits inner(outer);
  const std::span<const GateId> ids = gates(t);
  for (std::size_t k = 0; k < ids.size(); k += 2) {
    inner.reset(ids[k]);
  }
  for (std::size_t k = 0; k < ids.size(); k += 2) {
    if (outer.test(ids[k + 1])) {
      inner.set(ids[k]);
    }
  }
  return inner;
}

std::vector<std::string> AlphabetTable::names(BitsView s) const {
  std::vector<std::string> out;
  s.for_each([&](GateId g) { out.push_back(names_[g]); });
  return out;
}

}  // namespace multival::analyze
