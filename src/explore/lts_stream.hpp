// Compact binary on-disk LTS format (in the spirit of CADP's BCG files),
// designed for streaming emission: the writer is record-oriented, so an
// explorer can append transitions as it discovers them without holding the
// whole LTS in memory, and labels are interned on first use.
//
// Layout (all integers LEB128 varints unless noted):
//
//   magic "MVLS", version byte (1)
//   records:
//     0x01  label definition: <len> <bytes>    (assigns the next label id)
//     0x02  transition:       <src> <label-id> <dst>
//     0x03  initial state:    <state>
//     0x04  state count:      <count>
//     0x00  end of stream
//
// A valid stream contains exactly one 0x03 and one 0x04 record (a count
// of at most lts::kNoState) and ends with 0x00.  Transitions appear in
// LTS insertion order, so a write -> read round trip reproduces the
// source LTS exactly (identical .aut rendering).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lts/lts.hpp"

namespace multival::explore {

/// Incremental writer.  Call add_transition / set_initial in any order,
/// then finish(num_states) exactly once.
class LtsStreamWriter {
 public:
  explicit LtsStreamWriter(std::ostream& os);

  void add_transition(lts::StateId src, std::string_view label,
                      lts::StateId dst);
  void set_initial(lts::StateId s);
  void finish(std::size_t num_states);

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  std::uint32_t label_id(std::string_view label);

  std::ostream& os_;
  std::unordered_map<std::string, std::uint32_t> labels_;
  bool wrote_initial_ = false;
  bool finished_ = false;
};

/// Writes @p l in one go (transitions in insertion order).
void write_lts_stream(std::ostream& os, const lts::Lts& l);

/// Reads a stream back into an Lts.  Throws std::runtime_error on
/// malformed input; every message names the byte offset at which the
/// stream became invalid.  The end record must be followed by EOF —
/// trailing bytes are rejected.
[[nodiscard]] lts::Lts read_lts_stream(std::istream& is);

/// Writes @p l to the file @p path.
void save_lts_stream(const std::string& path, const lts::Lts& l);

}  // namespace multival::explore
