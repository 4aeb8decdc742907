#include "explore/lts_stream.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace multival::explore {

namespace {

constexpr char kMagic[4] = {'M', 'V', 'L', 'S'};
constexpr std::uint8_t kVersion = 1;

enum Record : std::uint8_t {
  kEnd = 0x00,
  kLabelDef = 0x01,
  kTransition = 0x02,
  kInitial = 0x03,
  kStateCount = 0x04,
};

void put_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    os.put(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  os.put(static_cast<char>(v));
}

// Reader cursor: counts consumed bytes so every error names the offset at
// which the stream stopped making sense.
class Cursor {
 public:
  explicit Cursor(std::istream& is) : is_(is) {}

  [[nodiscard]] std::uint64_t offset() const { return offset_; }

  /// Next byte, or EOF sentinel (without advancing the offset).
  int get() {
    const int c = is_.get();
    if (c != std::istream::traits_type::eof()) {
      ++offset_;
    }
    return c;
  }

  void read(char* data, std::size_t n, const char* what) {
    is_.read(data, static_cast<std::streamsize>(n));
    const auto got = static_cast<std::uint64_t>(is_.gcount());
    offset_ += got;
    if (got != n) {
      fail(std::string("truncated ") + what);
    }
  }

  /// @p n bytes as a string.  They are read in bounded chunks, so a
  /// declared length beyond the end of the input fails as truncated
  /// without first allocating that length.
  std::string string(std::uint64_t n, const char* what) {
    constexpr std::uint64_t kChunk = 1u << 16;
    std::string s;
    while (s.size() < n) {
      const std::size_t at = s.size();
      const auto k = static_cast<std::size_t>(std::min(kChunk, n - at));
      s.resize(at + k);
      read(s.data() + at, k, what);
    }
    return s;
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      const int c = get();
      if (c == std::istream::traits_type::eof()) {
        fail(std::string("truncated varint in ") + what);
      }
      if (shift > 63) {
        fail(std::string("overlong varint in ") + what);
      }
      v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) {
        return v;
      }
      shift += 7;
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("lts_stream: " + what + " at byte " +
                             std::to_string(offset_));
  }

 private:
  std::istream& is_;
  std::uint64_t offset_ = 0;
};

}  // namespace

LtsStreamWriter::LtsStreamWriter(std::ostream& os) : os_(os) {
  os_.write(kMagic, sizeof kMagic);
  os_.put(static_cast<char>(kVersion));
}

std::uint32_t LtsStreamWriter::label_id(std::string_view label) {
  const auto it = labels_.find(std::string(label));
  if (it != labels_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(labels_.size());
  labels_.emplace(std::string(label), id);
  os_.put(static_cast<char>(kLabelDef));
  put_varint(os_, label.size());
  os_.write(label.data(), static_cast<std::streamsize>(label.size()));
  return id;
}

void LtsStreamWriter::add_transition(lts::StateId src, std::string_view label,
                                     lts::StateId dst) {
  if (finished_) {
    throw std::logic_error("LtsStreamWriter: add_transition after finish");
  }
  const std::uint32_t id = label_id(label);
  os_.put(static_cast<char>(kTransition));
  put_varint(os_, src);
  put_varint(os_, id);
  put_varint(os_, dst);
}

void LtsStreamWriter::set_initial(lts::StateId s) {
  if (finished_ || wrote_initial_) {
    throw std::logic_error("LtsStreamWriter: duplicate or late set_initial");
  }
  wrote_initial_ = true;
  os_.put(static_cast<char>(kInitial));
  put_varint(os_, s);
}

void LtsStreamWriter::finish(std::size_t num_states) {
  if (finished_) {
    throw std::logic_error("LtsStreamWriter: finish called twice");
  }
  if (!wrote_initial_) {
    throw std::logic_error("LtsStreamWriter: finish without set_initial");
  }
  finished_ = true;
  os_.put(static_cast<char>(kStateCount));
  put_varint(os_, num_states);
  os_.put(static_cast<char>(kEnd));
  os_.flush();
  if (!os_) {
    throw std::runtime_error("lts_stream: write failed");
  }
}

void write_lts_stream(std::ostream& os, const lts::Lts& l) {
  LtsStreamWriter w(os);
  w.set_initial(l.initial_state());
  for (const lts::Transition& t : l.all_transitions()) {
    w.add_transition(t.src, l.actions().name(t.action), t.dst);
  }
  w.finish(l.num_states());
}

lts::Lts read_lts_stream(std::istream& is) {
  Cursor in(is);
  char magic[4] = {};
  in.read(magic, sizeof magic, "magic");
  if (std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    in.fail("bad magic");
  }
  const int version = in.get();
  if (version == std::istream::traits_type::eof()) {
    in.fail("truncated version");
  }
  if (version != kVersion) {
    in.fail("unsupported version " + std::to_string(version));
  }

  struct Pending {
    std::uint64_t src, label, dst;
  };
  std::vector<std::string> labels;
  std::vector<Pending> transitions;
  std::uint64_t initial = 0;
  std::uint64_t num_states = 0;
  bool saw_initial = false;
  bool saw_count = false;
  bool saw_end = false;

  while (!saw_end) {
    const int rec = in.get();
    if (rec == std::istream::traits_type::eof()) {
      in.fail("missing end record");
    }
    switch (rec) {
      case kEnd:
        saw_end = true;
        break;
      case kLabelDef: {
        const std::uint64_t len = in.varint("label definition");
        labels.push_back(in.string(len, "label"));
        break;
      }
      case kTransition: {
        Pending p{};
        p.src = in.varint("transition");
        p.label = in.varint("transition");
        p.dst = in.varint("transition");
        if (p.label >= labels.size()) {
          in.fail("undefined label id " + std::to_string(p.label));
        }
        transitions.push_back(p);
        break;
      }
      case kInitial:
        if (saw_initial) {
          in.fail("duplicate initial record");
        }
        saw_initial = true;
        initial = in.varint("initial record");
        break;
      case kStateCount:
        if (saw_count) {
          in.fail("duplicate state count");
        }
        saw_count = true;
        num_states = in.varint("state count");
        if (num_states > lts::kNoState) {
          in.fail("state count out of range");
        }
        break;
      default:
        in.fail("unknown record type " + std::to_string(rec));
    }
  }
  if (is.peek() != std::istream::traits_type::eof()) {
    in.fail("trailing garbage after end record");
  }
  if (!saw_initial || !saw_count) {
    in.fail("missing initial or state count");
  }
  for (const Pending& p : transitions) {
    if (p.src >= num_states || p.dst >= num_states) {
      in.fail("transition state out of range");
    }
  }
  if (num_states > 0 && initial >= num_states) {
    in.fail("initial state out of range");
  }

  lts::Lts out;
  out.add_states(num_states);
  if (num_states > 0) {
    out.set_initial_state(static_cast<lts::StateId>(initial));
  }
  for (const Pending& p : transitions) {
    out.add_transition(static_cast<lts::StateId>(p.src),
                       std::string_view(labels[p.label]),
                       static_cast<lts::StateId>(p.dst));
  }
  return out;
}

void save_lts_stream(const std::string& path, const lts::Lts& l) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("lts_stream: cannot write " + path);
  }
  write_lts_stream(os, l);
}

}  // namespace multival::explore
