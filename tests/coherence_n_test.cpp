// Tests for the N-node FAME2 coherence generalisation.
#include <gtest/gtest.h>

#include "bisim/equivalence.hpp"
#include "fame/coherence.hpp"
#include "fame/coherence_n.hpp"
#include "lts/analysis.hpp"
#include "mc/evaluator.hpp"
#include "mc/properties.hpp"

namespace {

using namespace multival;
using namespace multival::fame;

TEST(CoherenceN, NodesValidated) {
  EXPECT_THROW((void)coherence_system_n_lts(Protocol::kMsi, 1),
               std::invalid_argument);
  EXPECT_THROW((void)coherence_system_n_lts(Protocol::kMsi, 5),
               std::invalid_argument);
}

TEST(CoherenceN, TwoNodeSystemMatchesDedicatedModel) {
  // The N=2 instantiation must be weak-trace equivalent to the dedicated
  // 2-node model after hiding the internals — they implement the same
  // protocol.
  const lts::Lts general = coherence_system_n_lts(Protocol::kMsi, 2);
  const lts::Lts dedicated = coherence_system_lts(Protocol::kMsi);
  EXPECT_TRUE(
      bisim::equivalent(general, dedicated, bisim::Equivalence::kStrong));
}

struct SweepCase {
  Protocol protocol;
  int nodes;
};

/// Prints a case as mesi_3.  ctest names each case after this text; the
/// default printer would dump the enum's bytes.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << (c.protocol == Protocol::kMsi ? "msi" : "mesi") << '_' << c.nodes;
}

class CoherenceNSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CoherenceNSweep, CoherentAndLive) {
  const auto [protocol, nodes] = GetParam();
  const lts::Lts l = coherence_system_n_lts(protocol, nodes);
  EXPECT_TRUE(mc::check(l, mc::never(mc::act("ERR*"))))
      << to_string(protocol) << " " << nodes;
  EXPECT_TRUE(mc::check(l, mc::deadlock_freedom()))
      << to_string(protocol) << " " << nodes;
  EXPECT_FALSE(lts::has_tau_cycle(l));
}

INSTANTIATE_TEST_SUITE_P(Protocols, CoherenceNSweep,
                         ::testing::Values(SweepCase{Protocol::kMsi, 2},
                                           SweepCase{Protocol::kMsi, 3},
                                           SweepCase{Protocol::kMesi, 2},
                                           SweepCase{Protocol::kMesi, 3}));

TEST(CoherenceN, ThreeNodeSharersAllInvalidatedOnWrite) {
  // With three nodes the write-upgrade path issues INV to *both* other
  // sharers; all three INV gates are exercised.
  const lts::Lts l = coherence_system_n_lts(Protocol::kMsi, 3);
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(mc::check(
        l, mc::can_do(mc::act("INV" + std::to_string(j) + "_M"))))
        << "node " << j;
  }
}

TEST(CoherenceN, MesiExclusiveOnlyWhenAlone) {
  const lts::Lts l = coherence_system_n_lts(Protocol::kMesi, 3);
  EXPECT_TRUE(mc::check(l, mc::can_do(mc::act("GRS* !3"))));
  // The SWMR observer (never ERR) already guarantees E is granted only
  // when no other node holds a copy.
  EXPECT_TRUE(mc::check(l, mc::never(mc::act("ERR*"))));
}

TEST(CoherenceN, StateSpaceGrowsWithNodes) {
  const std::size_t n2 =
      coherence_system_n_lts(Protocol::kMsi, 2).num_states();
  const std::size_t n3 =
      coherence_system_n_lts(Protocol::kMsi, 3).num_states();
  EXPECT_GT(n3, 2 * n2);
}

}  // namespace
