// Tests for the src/explore subsystem: successor oracles, the concurrent
// state store, the parallel BFS engine (determinism across worker counts),
// and the binary LTS stream format.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bisim/equivalence.hpp"
#include "builtin_models.hpp"
#include "compose/pipeline.hpp"
#include "core/report.hpp"
#include "explore/engine.hpp"
#include "explore/lts_stream.hpp"
#include "explore/oracle.hpp"
#include "explore/state_store.hpp"
#include "fame/coherence.hpp"
#include "imc/imc_io.hpp"
#include "lts/lts_io.hpp"
#include "noc/mesh.hpp"
#include "proc/generator.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;

bool strongly_equivalent(const lts::Lts& a, const lts::Lts& b) {
  return bisim::equivalent(a, b, bisim::Equivalence::kStrong);
}

// --- StateStore ----------------------------------------------------------

TEST(StateStore, AssignsDenseIdsAndCountsDedup) {
  explore::StateStore store;
  const auto a = store.insert("alpha");
  EXPECT_TRUE(a.fresh);
  EXPECT_EQ(a.id, 0u);
  const auto b = store.insert("beta");
  EXPECT_TRUE(b.fresh);
  EXPECT_EQ(b.id, 1u);
  const auto a2 = store.insert("alpha");
  EXPECT_FALSE(a2.fresh);
  EXPECT_EQ(a2.id, a.id);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dedup_hits(), 1u);
  EXPECT_EQ(store.collisions(), 0u);
}

TEST(StateStore, ConcurrentInsertsAgreeOnIds) {
  explore::StateStore store;
  constexpr int kKeys = 200;
  constexpr int kThreads = 4;
  std::vector<std::vector<lts::StateId>> ids(
      kThreads, std::vector<lts::StateId>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &ids, t] {
      for (int k = 0; k < kKeys; ++k) {
        ids[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)] =
            store.insert("key" + std::to_string(k)).id;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kKeys));
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], ids[0]);
  }
}

TEST(StateStore, NarrowFingerprintDetectsCollisions) {
  explore::StateStore::Options opts;
  opts.mode = explore::StoreMode::kFingerprint;
  opts.fingerprint_bits = 4;  // at most 16 distinct fingerprints
  explore::StateStore store(opts);
  for (int k = 0; k < 256; ++k) {
    (void)store.insert("state" + std::to_string(k));
  }
  EXPECT_LE(store.size(), 16u);
  EXPECT_GT(store.collisions(), 0u);
}

// --- LtsOracle and the engine on a hand-built LTS ------------------------

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

TEST(Engine, LtsOracleReproducesBfsOrderedLts) {
  const lts::Lts l = diamond();
  const auto oracle = explore::lts_oracle(l);
  const explore::ExploreResult r = explore::explore(*oracle);
  // diamond() is already numbered breadth-first, so the renumbered result
  // is identical, not merely bisimilar.
  EXPECT_EQ(lts::to_aut(r.lts), lts::to_aut(l));
  EXPECT_EQ(r.stats.num_states, 4u);
  EXPECT_EQ(r.stats.num_transitions, 4u);
  EXPECT_EQ(r.stats.levels, 3u);
}

TEST(Engine, DfsYieldsTheSameRenumberedLts) {
  const lts::Lts l = diamond();
  const auto oracle = explore::lts_oracle(l);
  explore::ExploreOptions dfs;
  dfs.order = explore::Order::kDfs;
  const auto r_bfs = explore::explore(*oracle);
  const auto r_dfs = explore::explore(*oracle, dfs);
  EXPECT_EQ(lts::to_aut(r_dfs.lts), lts::to_aut(r_bfs.lts));
}

TEST(Engine, MaxStatesLimitThrows) {
  const proc::Program p = fame::coherence_system_program(fame::Protocol::kMsi);
  const auto oracle = explore::proc_oracle(p, "System");
  explore::ExploreOptions opts;
  opts.max_states = 16;
  EXPECT_THROW((void)explore::explore(*oracle, opts),
               explore::LimitExceeded);
}

// --- determinism across worker counts ------------------------------------

TEST(Engine, DeterministicAcrossWorkerCounts) {
  const proc::Program p = fame::coherence_system_program(fame::Protocol::kMesi);
  const auto oracle = explore::proc_oracle(p, "System");
  std::string reference;
  for (unsigned workers : {1u, 2u, 8u}) {
    explore::ExploreOptions opts;
    opts.workers = workers;
    const explore::ExploreResult r = explore::explore(*oracle, opts);
    EXPECT_EQ(r.stats.workers.size(), workers);
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

// Generation and exploration are two loops over one successor function:
// the engine's breadth-first renumbering must reproduce the generator's LTS
// byte for byte, at any worker count.
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

// --- hash compaction -----------------------------------------------------

TEST(Engine, FingerprintModeAccountsCollisions) {
  const proc::Program p = fame::coherence_system_program(fame::Protocol::kMsi);
  const auto oracle = explore::proc_oracle(p, "System");

  const auto exact = explore::explore(*oracle);
  EXPECT_EQ(exact.stats.collisions, 0u);

  // Full-width fingerprints: no collision expected on a model this small,
  // and the state count must agree with exact mode.
  explore::ExploreOptions full;
  full.store = explore::StoreMode::kFingerprint;
  const auto compact = explore::explore(*oracle, full);
  EXPECT_EQ(compact.stats.collisions, 0u);
  EXPECT_EQ(compact.stats.num_states, exact.stats.num_states);

  // Deliberately narrow fingerprints: distinct states merge and the store
  // reports it.
  explore::ExploreOptions narrow;
  narrow.store = explore::StoreMode::kFingerprint;
  narrow.fingerprint_bits = 8;
  const auto lossy = explore::explore(*oracle, narrow);
  EXPECT_GT(lossy.stats.collisions, 0u);
  EXPECT_LT(lossy.stats.num_states, exact.stats.num_states);
}

// --- imc oracle ----------------------------------------------------------

TEST(Oracles, ImcOracleUsesRateLabelConvention) {
  imc::Imc m;
  m.add_states(3);
  m.add_interactive(0, "GO", 1);
  m.add_markovian(1, 2.5, 2);
  m.add_markovian(1, 0.5, 0, "probe");
  m.set_initial_state(0);

  const auto r = explore::explore(*explore::imc_oracle(m));
  EXPECT_EQ(r.lts.num_states(), 3u);
  EXPECT_EQ(r.lts.num_transitions(), 3u);
  // The rendered aut text round-trips through the imc reader.
  const imc::Imc back = imc::from_aut(lts::to_aut(r.lts));
  EXPECT_EQ(back.num_states(), m.num_states());
  EXPECT_EQ(back.num_interactive(), m.num_interactive());
  EXPECT_EQ(back.num_markovian(), m.num_markovian());
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
