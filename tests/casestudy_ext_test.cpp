// Tests for the case-study extensions: the two-stage xSTream pipeline and
// the FAME2 MPI barrier benchmark.
#include <gtest/gtest.h>

#include <cmath>

#include "fame/mpi.hpp"
#include "lts/analysis.hpp"
#include "xstream/perf.hpp"

namespace {

using namespace multival;

// --- xSTream pipeline ---------------------------------------------------------

TEST(XStreamPipeline, LittleLawHolds) {
  xstream::PipelinePerfParams p;
  p.push_rate = 1.0;
  p.pop_rate = 2.0;
  const auto r = xstream::analyze_pipeline_n(p, 2);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_NEAR(r.mean_latency * r.throughput,
              r.stage_occupancy[0] + r.stage_occupancy[1], 1e-9);
  EXPECT_GT(r.ctmc_states, 10u);
}

TEST(XStreamPipeline, TwoStagesSlowerThanOne) {
  // End-to-end latency through two queues exceeds one queue's latency at
  // the same rates.
  xstream::QueuePerfParams single;
  single.push_rate = 1.0;
  single.pop_rate = 2.0;
  xstream::PipelinePerfParams pipe;
  pipe.push_rate = 1.0;
  pipe.pop_rate = 2.0;
  const auto rs = xstream::analyze_virtual_queue(single);
  const auto rp = xstream::analyze_pipeline_n(pipe, 2);
  EXPECT_GT(rp.mean_latency, rs.mean_latency);
  // Throughput is still bounded by the arrival rate.
  EXPECT_LE(rp.throughput, 1.0 + 1e-9);
}

TEST(XStreamPipeline, BottleneckShiftsOccupancy) {
  // A slow consumer piles occupancy into stage 2.
  xstream::PipelinePerfParams p;
  p.push_rate = 2.0;
  p.pop_rate = 0.5;  // consumer is the bottleneck
  const auto r = xstream::analyze_pipeline_n(p, 2);
  EXPECT_GT(r.stage_occupancy[1], r.stage_occupancy[0] * 0.9);
  EXPECT_LE(r.throughput, 0.5 + 1e-9);
}

TEST(XStreamPipeline, FastRelayApproachesSingleQueueThroughput) {
  xstream::PipelinePerfParams slow;
  slow.handoff_rate = 0.5;
  xstream::PipelinePerfParams fast = slow;
  fast.handoff_rate = 50.0;
  EXPECT_GT(xstream::analyze_pipeline_n(fast, 2).throughput,
            xstream::analyze_pipeline_n(slow, 2).throughput);
}

TEST(XStreamPipelineN, LatencyGrowsWithDepth) {
  xstream::PipelinePerfParams p;
  p.push_rate = 1.0;
  p.pop_rate = 2.0;
  const double l2 = xstream::analyze_pipeline_n(p, 2).mean_latency;
  const double l3 = xstream::analyze_pipeline_n(p, 3).mean_latency;
  EXPECT_GT(l3, l2);
}

TEST(XStreamPipelineN, StagesValidated) {
  xstream::PipelinePerfParams p;
  EXPECT_THROW((void)xstream::analyze_pipeline_n(p, 1),
               std::invalid_argument);
  EXPECT_THROW((void)xstream::analyze_pipeline_n(p, 5),
               std::invalid_argument);
}

// --- FAME2 barrier -----------------------------------------------------------------

TEST(Barrier, ScenarioTerminates) {
  fame::BarrierConfig cfg;
  cfg.rounds = 1;
  const lts::Lts l = fame::barrier_lts(cfg);
  EXPECT_EQ(lts::deadlock_states(l).size(), 1u);
  EXPECT_FALSE(lts::has_tau_cycle(l));
}

TEST(Barrier, RoundsValidated) {
  fame::BarrierConfig cfg;
  cfg.rounds = 0;
  EXPECT_THROW((void)fame::barrier_lts(cfg), std::invalid_argument);
}

TEST(Barrier, LatencyFinitePositive) {
  fame::BarrierConfig cfg;
  const auto r = fame::barrier_latency(cfg);
  EXPECT_GT(r.round_latency, 0.0);
  EXPECT_TRUE(std::isfinite(r.round_latency));
}

TEST(Barrier, TopologyOrdering) {
  fame::BarrierConfig cfg;
  cfg.topology = fame::Topology::kBus;
  const double bus = fame::barrier_latency(cfg).round_latency;
  cfg.topology = fame::Topology::kRing;
  const double ring = fame::barrier_latency(cfg).round_latency;
  cfg.topology = fame::Topology::kCrossbar;
  const double xbar = fame::barrier_latency(cfg).round_latency;
  EXPECT_GT(bus, ring);
  EXPECT_GT(ring, xbar);
}

TEST(Barrier, CheaperThanPingPongRound) {
  // A barrier round (two concurrent transactions) beats a ping-pong round
  // (serialised request/reply plus unpacking) on the same fabric.
  fame::BarrierConfig b;
  fame::PingPongConfig pp;
  EXPECT_LT(fame::barrier_latency(b).round_latency,
            fame::pingpong_latency(pp).round_latency);
}

TEST(Barrier, BaseRateScaling) {
  fame::BarrierConfig slow;
  fame::BarrierConfig fast = slow;
  fast.base_rate = 2.0;
  EXPECT_NEAR(fame::barrier_latency(slow).round_latency /
                  fame::barrier_latency(fast).round_latency,
              2.0, 1e-6);
}

}  // namespace
