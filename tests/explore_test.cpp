// Tests for the src/explore subsystem: explore() over the generator's one
// breadth-first loop (its LTS is proc::generate's, byte for byte, and its
// statistics are those of the parallel engine it replaced), find_deadlock
// over the same loop, and the binary LTS stream format.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bisim/equivalence.hpp"
#include "builtin_models.hpp"
#include "compose/pipeline.hpp"
#include "core/report.hpp"
#include "explore/engine.hpp"
#include "explore/lts_stream.hpp"
#include "fame/coherence.hpp"
#include "lts/lts_io.hpp"
#include "noc/mesh.hpp"
#include "proc/generator.hpp"
#include "proc/parser.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;

bool strongly_equivalent(const lts::Lts& a, const lts::Lts& b) {
  return bisim::equivalent(a, b, bisim::Equivalence::kStrong);
}

TEST(Engine, MaxStatesLimitThrows) {
  const proc::Program p = fame::coherence_system_program(fame::Protocol::kMsi);
  const auto model = explore::proc_oracle(p, "System");
  explore::ExploreOptions opts;
  opts.max_states = 16;
  EXPECT_THROW((void)explore::explore(*model, opts),
               explore::LimitExceeded);
}

// --- determinism across worker counts ------------------------------------

TEST(Engine, DeterministicAcrossWorkerCounts) {
  const proc::Program p = fame::coherence_system_program(fame::Protocol::kMesi);
  const auto model = explore::proc_oracle(p, "System");
  std::string reference;
  for (unsigned workers : {1u, 2u, 8u}) {
    explore::ExploreOptions opts;
    opts.workers = workers;
    const explore::ExploreResult r = explore::explore(*model, opts);
    const std::string aut = lts::to_aut(r.lts);
    if (reference.empty()) {
      reference = aut;
    } else {
      EXPECT_EQ(aut, reference) << "workers=" << workers;
    }
  }
}

// --- explore vs proc::generate on the case studies -----------------------

TEST(Engine, MatchesGeneratorOnFameCoherence) {
  const proc::Program p = fame::coherence_system_program(fame::Protocol::kMsi);
  const lts::Lts generated = proc::generate(p, "System");
  explore::ExploreOptions opts;
  opts.workers = 2;
  const auto r = explore::explore(*explore::proc_oracle(p, "System"), opts);
  EXPECT_EQ(r.lts.num_states(), generated.num_states());
  EXPECT_EQ(r.lts.num_transitions(), generated.num_transitions());
  EXPECT_TRUE(strongly_equivalent(r.lts, generated));
}

TEST(Engine, MatchesGeneratorOnNocSinglePacket) {
  const proc::Program p = noc::single_packet_program(0, 3);
  const lts::Lts generated = proc::generate(p, "Scenario");
  const auto r = explore::explore(*explore::proc_oracle(p, "Scenario"));
  EXPECT_EQ(r.lts.num_states(), generated.num_states());
  EXPECT_EQ(r.lts.num_transitions(), generated.num_transitions());
  EXPECT_TRUE(strongly_equivalent(r.lts, generated));
}

TEST(Engine, MatchesGeneratorOnXstreamQueue) {
  const xstream::QueueConfig cfg;
  const proc::Program p = xstream::virtual_queue_program(cfg);
  const lts::Lts generated = proc::generate(p, "VirtualQueue");
  explore::ExploreOptions opts;
  opts.workers = 4;
  const auto r =
      explore::explore(*explore::proc_oracle(p, "VirtualQueue"), opts);
  EXPECT_EQ(r.lts.num_states(), generated.num_states());
  EXPECT_EQ(r.lts.num_transitions(), generated.num_transitions());
  EXPECT_TRUE(strongly_equivalent(r.lts, generated));
}

// Generation and exploration run one loop: explore's LTS is the
// generator's, byte for byte, whatever the (unread) worker count says.
TEST(Engine, GenerateAndExploreAgreeByteForByteOnBuiltins) {
  for (const fixtures::BuiltinModel& m : fixtures::builtin_models()) {
    const std::string generated =
        lts::to_aut(proc::generate(*m.program, m.entry));
    for (const unsigned workers : {1u, 4u}) {
      explore::ExploreOptions opts;
      opts.workers = workers;
      const auto r =
          explore::explore(*explore::proc_oracle(m.program, m.entry), opts);
      EXPECT_EQ(lts::to_aut(r.lts), generated)
          << m.name << " at " << workers << " workers";
    }
  }
}

// --- golden tables -------------------------------------------------------

struct GoldenStats {
  const char* name;
  std::size_t states;
  std::size_t transitions;
  std::size_t levels;
  std::size_t peak_frontier;
  std::uint64_t dedup_hits;
};

// Recorded with the level-synchronous parallel engine (byte-string states,
// a shared state store) at one worker, before explore ran the generator's
// loop.
constexpr GoldenStats kGoldenStats[] = {
    {"fame-msi", 332, 896, 13, 64, 565},
    {"fame-mesi", 484, 1372, 16, 62, 889},
    {"fame-msi-3", 3836, 15174, 19, 477, 11339},
    {"fame-mesi-3", 5402, 21750, 21, 573, 16349},
    {"noc-mesh-3x3", 12, 11, 12, 1, 0},
    {"noc-single-packet", 8, 7, 8, 1, 0},
    {"noc-stream", 7, 7, 7, 1, 1},
    {"xstream-correct", 33, 66, 8, 10, 34},
    {"xstream-lost-credit", 42, 75, 8, 12, 34},
    {"xstream-eager-credit", 111, 246, 10, 24, 136},
    {"xmas-credit-loop", 6, 9, 6, 1, 4},
    {"xmas-vc-pair", 72, 224, 15, 9, 153},
    {"xmas-mesh2", 216, 636, 20, 23, 421},
};

TEST(Engine, StatsMatchTheReplacedEngineOnBuiltins) {
  const std::vector<fixtures::BuiltinModel> models = fixtures::builtin_models();
  ASSERT_EQ(models.size(), std::size(kGoldenStats));
  for (std::size_t i = 0; i < models.size(); ++i) {
    const fixtures::BuiltinModel& m = models[i];
    const GoldenStats& g = kGoldenStats[i];
    ASSERT_EQ(m.name, g.name);
    const explore::ExploreStats s =
        explore::explore(*explore::proc_oracle(m.program, m.entry)).stats;
    EXPECT_EQ(s.num_states, g.states) << m.name;
    EXPECT_EQ(s.num_transitions, g.transitions) << m.name;
    EXPECT_EQ(s.levels, g.levels) << m.name;
    EXPECT_EQ(s.peak_frontier, g.peak_frontier) << m.name;
    EXPECT_EQ(s.dedup_hits, g.dedup_hits) << m.name;
  }
}

struct GoldenDeadlock {
  const char* name;
  bool found;
  std::vector<std::string> trace;
  std::size_t states_explored;
};

// Recorded with the deadlock search's own breadth-first loop, before it ran
// the generator's.
const std::vector<GoldenDeadlock>& golden_deadlocks() {
  static const std::vector<GoldenDeadlock> golden{
      {"fame-msi", false, {}, 332},
      {"fame-mesi", false, {}, 484},
      {"fame-msi-3", false, {}, 3836},
      {"fame-mesi-3", false, {}, 5402},
      {"noc-mesh-3x3",
       true,
       {"LI0 !8", "i", "i", "i", "i", "i", "i", "i", "i", "i", "LO8 !8"},
       12},
      {"noc-single-packet",
       true,
       {"LI0 !3", "i", "i", "i", "i", "i", "LO3 !3"},
       8},
      {"noc-stream", false, {}, 7},
      {"xstream-correct", false, {}, 33},
      {"xstream-lost-credit",
       true,
       {"PUSH !0", "NET !0", "PUSH !0", "POP !0", "NET !0", "PUSH !0",
        "POP !0"},
       39},
      {"xstream-eager-credit", false, {}, 111},
      {"xmas-credit-loop", false, {}, 6},
      {"xmas-vc-pair", false, {}, 72},
      {"xmas-mesh2", false, {}, 216},
      {"endtoend-seeded-deadlock", true, {"REQ"}, 2},
  };
  return golden;
}

TEST(FindDeadlock, MatchesTheReplacedSearchOnBuiltins) {
  std::vector<fixtures::BuiltinModel> models = fixtures::builtin_models();
  // The seeded defect of EndToEnd.DefectiveModelDiagnosedWithTrace.
  models.push_back({"endtoend-seeded-deadlock",
                    std::make_shared<const proc::Program>(proc::parse_program(R"(
    process Left  := REQ ; ACK ; Left endproc
    process Right := REQ ; REQ ; ACK ; Right endproc
    process Sys   := Left |[REQ, ACK]| Right endproc
  )")),
                    "Sys"});
  const std::vector<GoldenDeadlock>& golden = golden_deadlocks();
  ASSERT_EQ(models.size(), golden.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    const fixtures::BuiltinModel& m = models[i];
    const GoldenDeadlock& g = golden[i];
    ASSERT_EQ(m.name, g.name);
    const proc::DeadlockSearchResult r =
        proc::find_deadlock(*m.program, m.entry);
    EXPECT_EQ(r.found, g.found) << m.name;
    EXPECT_EQ(r.trace, g.trace) << m.name;
    EXPECT_EQ(r.states_explored, g.states_explored) << m.name;
  }
}

// --- binary LTS stream ---------------------------------------------------

TEST(LtsStream, RoundTripsCaseStudyModels) {
  const std::vector<lts::Lts> models{
      fame::coherence_system_lts(fame::Protocol::kMsi),
      noc::single_packet_lts(0, 3),
      xstream::virtual_queue_lts(xstream::QueueConfig{}),
  };
  for (const lts::Lts& l : models) {
    std::stringstream buf;
    explore::write_lts_stream(buf, l);
    const lts::Lts back = explore::read_lts_stream(buf);
    EXPECT_EQ(lts::to_aut(back), lts::to_aut(l));
  }
}

TEST(LtsStream, RoundTripsEmptyAndTrivialLts) {
  {
    lts::Lts l;
    std::stringstream buf;
    explore::write_lts_stream(buf, l);
    const lts::Lts back = explore::read_lts_stream(buf);
    EXPECT_EQ(back.num_states(), 0u);
    EXPECT_EQ(back.num_transitions(), 0u);
  }
  {
    lts::Lts l;
    l.add_states(1);
    l.add_transition(0, "LOOP", 0);
    l.set_initial_state(0);
    std::stringstream buf;
    explore::write_lts_stream(buf, l);
    EXPECT_EQ(lts::to_aut(explore::read_lts_stream(buf)), lts::to_aut(l));
  }
}

TEST(LtsStream, RejectsMalformedInput) {
  {
    std::stringstream buf("not a stream");
    EXPECT_THROW((void)explore::read_lts_stream(buf), std::runtime_error);
  }
  {
    // Valid magic+version but truncated before the end record.
    std::stringstream buf;
    buf.write("MVLS\x01", 5);
    EXPECT_THROW((void)explore::read_lts_stream(buf), std::runtime_error);
  }
}

// Corrupt-input regression suite: every reader error must name the exact
// byte offset at which the stream became invalid.
namespace {
std::string stream_error(const std::string& bytes) {
  std::istringstream is(bytes);
  try {
    (void)explore::read_lts_stream(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(no error)";
}
}  // namespace

TEST(LtsStream, BadMagicReportsByteOffset) {
  EXPECT_EQ(stream_error(std::string("XXLS\x01", 5)),
            "lts_stream: bad magic at byte 4");
}

TEST(LtsStream, TruncatedAndUnsupportedVersionReportByteOffset) {
  EXPECT_EQ(stream_error(std::string("MVLS", 4)),
            "lts_stream: truncated version at byte 4");
  EXPECT_EQ(stream_error(std::string("MVLS\x07", 5)),
            "lts_stream: unsupported version 7 at byte 5");
}

TEST(LtsStream, TruncatedVarintReportsByteOffset) {
  // Label-definition record whose length varint has its continuation bit
  // set on the last byte of the stream.
  EXPECT_EQ(stream_error(std::string("MVLS\x01\x01\x80", 7)),
            "lts_stream: truncated varint in label definition at byte 7");
}

TEST(LtsStream, MissingEndRecordReportsByteOffset) {
  // Initial record (state 0) + state count (2) but no 0x00 end record.
  EXPECT_EQ(stream_error(std::string("MVLS\x01\x03\x00\x04\x02", 9)),
            "lts_stream: missing end record at byte 9");
}

TEST(LtsStream, TrailingGarbageAfterEndRecordReportsByteOffset) {
  lts::Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.set_initial_state(0);
  std::stringstream buf;
  explore::write_lts_stream(buf, l);
  const std::size_t valid_size = buf.str().size();
  buf << "x";
  EXPECT_EQ(stream_error(buf.str()),
            "lts_stream: trailing garbage after end record at byte " +
                std::to_string(valid_size));
}

TEST(LtsStream, StructuralErrorsReportByteOffsets) {
  // Unknown record type 0x7f right after the header.
  EXPECT_EQ(stream_error(std::string("MVLS\x01\x7f", 6)),
            "lts_stream: unknown record type 127 at byte 6");
  // Transition referencing a label id that was never defined.
  EXPECT_EQ(stream_error(std::string("MVLS\x01\x02\x00\x05\x01", 9)),
            "lts_stream: undefined label id 5 at byte 9");
  // Two initial records.
  EXPECT_EQ(stream_error(std::string("MVLS\x01\x03\x00\x03\x00", 9)),
            "lts_stream: duplicate initial record at byte 8");
}

TEST(LtsStream, WriterEnforcesSingleFinish) {
  std::stringstream buf;
  explore::LtsStreamWriter w(buf);
  w.add_transition(0, "A", 1);
  w.set_initial(0);
  w.finish(2);
  EXPECT_TRUE(w.finished());
  EXPECT_THROW(w.finish(2), std::logic_error);
  EXPECT_THROW(w.add_transition(0, "A", 1), std::logic_error);
}

// --- generation log ------------------------------------------------------

lts::Lts diamond() {
  lts::Lts l;
  l.add_states(4);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "B", 2);
  l.add_transition(1, "C", 3);
  l.add_transition(2, "C", 3);
  l.set_initial_state(0);
  return l;
}

TEST(GenerationLog, CaseStudyGeneratorsRecordTheirRuns) {
  core::clear_generation_log();
  const lts::Lts q =
      xstream::virtual_queue_lts_open(xstream::QueueConfig{});
  const auto log = core::generation_log();
  ASSERT_FALSE(log.empty());
  const core::GenerationStat& stat = log.back();
  EXPECT_NE(stat.model.find("virtual queue"), std::string::npos);
  EXPECT_EQ(stat.states, q.num_states());
  EXPECT_EQ(stat.transitions, q.num_transitions());
  EXPECT_GE(stat.seconds, 0.0);
  EXPECT_GE(core::generation_table().num_rows(), 1u);
  core::clear_generation_log();
  EXPECT_TRUE(core::generation_log().empty());
}

TEST(GenerationLog, PipelineStepsReportWallTime) {
  core::clear_generation_log();
  const lts::Lts l = diamond();
  auto tree = compose::minimize_here(
      compose::hide_gates({"C"}, compose::leaf(l, "diamond")));
  compose::EvalStats stats;
  (void)compose::evaluate(tree, true, &stats);
  ASSERT_FALSE(stats.steps.empty());
  double total = 0.0;
  for (const compose::StepStat& s : stats.steps) {
    EXPECT_GE(s.seconds, 0.0);
    total += s.seconds;
  }
  EXPECT_DOUBLE_EQ(stats.total_seconds(), total);
  // Each step also lands in the process-wide generation log.
  EXPECT_EQ(core::generation_log().size(), stats.steps.size());
  const core::Table t = stats.to_table("pipeline");
  EXPECT_EQ(t.num_rows(), stats.steps.size() + 1);  // steps + total row
  core::clear_generation_log();
}

}  // namespace
