// Golden digests of every certified iterative solve.  The solvers' contract
// is bitwise: served bodies, dse metrics and `--no-timing` dse JSON print
// the returned values, and the dse `solver` block sums the solve log's
// iteration counts and residuals.  Each digest covers the exact bits of
// every returned value and, for every core::solve_log() entry the call
// recorded, its solver name, iteration count and residual bits, so a
// reordered sweep, a changed backup or a changed stop rule fails here.
//
// On a mismatch the failure message prints the table line to paste, but
// only paste it when the change of numbers is intended.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/hash.hpp"
#include "core/report.hpp"
#include "dse/grid.hpp"
#include "dse/scenario.hpp"
#include "imc/imc_io.hpp"
#include "imc/scheduler.hpp"
#include "markov/absorption.hpp"
#include "markov/rewards.hpp"
#include "markov/steady.hpp"

namespace {

using namespace multival;

/// Folds in the solver name, iteration count and residual bits of every
/// solve recorded since the last clear_solve_log().
void append_solve_log(core::Hasher& h) {
  for (const core::SolveStat& s : core::solve_log()) {
    h.str(s.solver);
    h.u64(s.iterations);
    h.f64(s.residual);
  }
}

void append_values(core::Hasher& h, const std::vector<double>& values) {
  h.u64(values.size());
  for (const double v : values) {
    h.f64(v);
  }
}

/// Digest of reachability of @p target and expected time to absorption,
/// at the default tolerance and at a coarse one (whose first lower
/// iteration stops early, so the optimistic upper start must be inflated).
std::string ctmc_digest(const markov::Ctmc& c,
                        const std::vector<bool>& target) {
  core::Hasher h;
  core::clear_solve_log();
  for (const double tolerance : {1e-12, 1e-3}) {
    const markov::SolverOptions opts{tolerance};
    append_values(h, markov::reachability_probability(c, target, opts));
    append_values(h, markov::expected_time_to_absorption(c, opts));
  }
  append_solve_log(h);
  return h.key().hex();
}

/// Digest of the min/max reachability and expected-time bounds, solved
/// the way the serve `bounds` verb solves them.
std::string bounds_digest(const imc::Imc& m) {
  std::vector<bool> absorbing(m.num_states(), false);
  for (imc::StateId s = 0; s < m.num_states(); ++s) {
    absorbing[s] = m.interactive(s).empty() && m.markovian(s).empty();
  }
  core::Hasher h;
  core::clear_solve_log();
  const imc::Bounds reach = imc::reachability_bounds(m, absorbing);
  const imc::Bounds time = imc::absorption_time_bounds(m);
  for (const double v : {reach.min, reach.max, time.min, time.max}) {
    h.f64(v);
  }
  append_solve_log(h);
  return h.key().hex();
}

/// bounds_digest plus the time-optimal and worst-case schedulers, which
/// depend on the expected time of every state, not only the initial one.
std::string imc_digest(const imc::Imc& m) {
  core::Hasher h;
  h.str(bounds_digest(m));
  core::clear_solve_log();
  for (const bool maximise : {false, true}) {
    for (const std::size_t choice : imc::extract_time_scheduler(m, maximise)) {
      h.u64(choice);
    }
  }
  append_solve_log(h);
  return h.key().hex();
}

void expect_golden(const std::map<std::string, std::string>& golden,
                   const std::string& name, const std::string& actual) {
  const auto it = golden.find(name);
  if (it == golden.end() || it->second != actual) {
    ADD_FAILURE() << "digest changed: {\"" << name << "\", \"" << actual
                  << "\"},";
  }
}

/// A random CTMC of 6..15 states.  The last state is absorbing; in half
/// the chains two more states form a closed cycle, a non-absorbing bottom
/// SCC.  Every other state but the first is absorbing with probability
/// 1/10 and otherwise has one to three transitions anywhere, self-loops
/// included, plus, with probability 1/4, one into the last state.
markov::Ctmc random_ctmc(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](std::uint32_t k) {
    return static_cast<std::uint32_t>(rng() % k);
  };
  const double rates[] = {0.5, 1.0, 2.0, 3.5};
  const std::uint32_t n = 6 + pick(10);
  const bool closed_cycle = pick(2) == 0;
  const std::uint32_t free_states = closed_cycle ? n - 3 : n - 1;
  markov::Ctmc c;
  c.add_states(n);
  for (markov::MState s = 0; s < free_states; ++s) {
    if (s != 0 && pick(10) == 0) {
      continue;
    }
    const std::uint32_t edges = 1 + pick(3);
    for (std::uint32_t e = 0; e < edges; ++e) {
      const double rate = rates[pick(4)];
      c.add_transition(s, pick(n), rate);
    }
    if (pick(4) == 0) {
      c.add_transition(s, n - 1, rates[0]);
    }
  }
  if (closed_cycle) {
    c.add_transition(n - 3, n - 2, rates[1]);
    c.add_transition(n - 2, n - 3, rates[2]);
  }
  return c;
}

/// A random IMC of 6..13 states from initial state 0, built like
/// random_ctmc: the last state is dead, and in half the IMCs two more
/// states form a closed Markovian cycle.  Every other state is interactive
/// with probability 1/3, with one to three interactive edges anywhere and
/// sometimes a Markovian edge that maximal progress must ignore; so the
/// family has decision states, zero-delay interactive cycles and end
/// components.  The Markovian states are built like random_ctmc's, with
/// the extra edge into the dead state at probability 1/3.
imc::Imc random_imc(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](std::uint32_t k) {
    return static_cast<std::uint32_t>(rng() % k);
  };
  const double rates[] = {0.5, 1.0, 2.0, 3.5};
  const char* actions[] = {"i", "a"};
  const std::uint32_t n = 6 + pick(8);
  const bool closed_cycle = pick(2) == 0;
  const std::uint32_t free_states = closed_cycle ? n - 3 : n - 1;
  imc::Imc m;
  m.add_states(n);
  m.set_initial_state(0);
  for (imc::StateId s = 0; s < free_states; ++s) {
    if (pick(3) == 0) {
      const std::uint32_t choices = 1 + pick(3);
      for (std::uint32_t k = 0; k < choices; ++k) {
        const char* action = actions[pick(2)];
        m.add_interactive(s, action, pick(n));
      }
      if (pick(3) == 0) {
        const double rate = rates[pick(4)];
        m.add_markovian(s, rate, pick(n));
      }
    } else {
      const std::uint32_t edges = 1 + pick(3);
      for (std::uint32_t e = 0; e < edges; ++e) {
        const double rate = rates[pick(4)];
        m.add_markovian(s, rate, pick(n));
      }
      if (pick(3) == 0) {
        m.add_markovian(s, rates[0], n - 1);
      }
    }
  }
  if (closed_cycle) {
    m.add_markovian(n - 3, rates[1], n - 2);
    m.add_markovian(n - 2, rates[2], n - 3);
  }
  return m;
}

/// True when some bottom SCC of @p g is not a single state without edges.
bool has_live_bottom_scc(const core::Digraph& g) {
  const core::Components scc = core::scc(g);
  const std::vector<bool> bottom = core::bottom_components(g, scc);
  for (std::uint32_t s = 0; s < g.num_nodes(); ++s) {
    if (bottom[scc.component_of[s]] && !g.out(s).empty()) {
      return true;
    }
  }
  return false;
}

constexpr std::uint32_t kFamilySize = 24;

TEST(SolverGolden, CtmcFamily) {
  const std::map<std::string, std::string> golden = {
      {"ctmc1", "48aca5e357a6b52ea844f50107198bc7"},
      {"ctmc2", "500695734bbf00860544f1e211eb6890"},
      {"ctmc3", "5628de3d903a9d0c78eb87edf2700093"},
      {"ctmc4", "35456c75ecdc2f7a4736c3aa6cd12be4"},
      {"ctmc5", "ac337f118ccf271703dd00513abf57de"},
      {"ctmc6", "83a346e96b960b71c445926757d7b2e2"},
      {"ctmc7", "0190c22f719d36c47e367feb2798ae4d"},
      {"ctmc8", "501ecc799d496701b573ace3ecb89376"},
      {"ctmc9", "febda93c676fe2398cb814811a622760"},
      {"ctmc10", "4357ab3386d9f99341faaad99e7e72e8"},
      {"ctmc11", "d24b85d3cda6a9116e3dfb2566567c1a"},
      {"ctmc12", "cae2f2784026060340a426387c493f7e"},
      {"ctmc13", "5be9d2f918c0fdd703218a8e389ad055"},
      {"ctmc14", "c7115ffd975ea69f53e88b65047ce364"},
      {"ctmc15", "c661470c2588ea1f4f7253b54b5a748f"},
      {"ctmc16", "b374c5d709160f6cbb0e26767a8bb2da"},
      {"ctmc17", "2e8e48c5dab8bf468119db70c0c87c3e"},
      {"ctmc18", "3a5c85d585baf658c71765fc24631aad"},
      {"ctmc19", "944741380c4027833717f3d586ffcff4"},
      {"ctmc20", "8fc6f2ab78d6429de80c280ad2ba8be6"},
      {"ctmc21", "86087116a933f5d7b22b185358d5f453"},
      {"ctmc22", "54f14224b772e6d63453e7c270f1d532"},
      {"ctmc23", "ea50288c204d7107a41b5d6f29374e17"},
      {"ctmc24", "617971848f7def62befbef0e1613d702"},
  };
  bool absorbing_chain = false;
  bool live_bottom = false;
  for (std::uint32_t seed = 1; seed <= kFamilySize; ++seed) {
    const markov::Ctmc c = random_ctmc(seed);
    const std::vector<double> time = markov::expected_time_to_absorption(c);
    absorbing_chain = absorbing_chain || std::isfinite(time[0]);
    live_bottom =
        live_bottom || has_live_bottom_scc(markov::transition_graph(c));
    expect_golden(golden, "ctmc" + std::to_string(seed),
                  ctmc_digest(c, markov::absorbing_states(c)));
  }
  EXPECT_TRUE(absorbing_chain);
  EXPECT_TRUE(live_bottom);
}

TEST(SolverGolden, UnitRewardIsExpectedTime) {
  // Rewards and expected time are one solve with different gains, so a
  // unit reward gives the expected time bit for bit.
  for (std::uint32_t seed = 1; seed <= kFamilySize; ++seed) {
    const markov::Ctmc c = random_ctmc(seed);
    const std::vector<double> unit(c.num_states(), 1.0);
    const std::vector<double> reward =
        markov::expected_accumulated_reward(c, unit);
    const std::vector<double> time = markov::expected_time_to_absorption(c);
    for (std::size_t s = 0; s < c.num_states(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reward[s]),
                std::bit_cast<std::uint64_t>(time[s]))
          << "seed " << seed << " state " << s;
    }
  }
}

TEST(SolverGolden, ImcFamily) {
  const std::map<std::string, std::string> golden = {
      {"imc1", "1888a69dc93c8263bb41c35d7f133eb9"},
      {"imc2", "c171677779f6484ee6d0b9a0f58fee02"},
      {"imc3", "cf3f098be6a5e33cfe8432c7d9d82175"},
      {"imc4", "4bfc9ec90a6022f87e35d1655d42643d"},
      {"imc5", "be6cd0c53931d74c187c27bf0479e28c"},
      {"imc6", "ac0dcbd249275e8d0bd8c87f08781cb4"},
      {"imc7", "33a1081f2f401e4305f3f00bc9fa85b3"},
      {"imc8", "0d2065130efa35166b1b48737e65c63b"},
      {"imc9", "3728e221dd71c6722975fcecc02e0f79"},
      {"imc10", "504832ca268d63f1843aee96652cf4bc"},
      {"imc11", "cd285815a7c882d5eaf31133af1cbd03"},
      {"imc12", "88359c6db12c5386a0be6d3586afafc9"},
      {"imc13", "ba59e191f14a913c029b3022217fba3a"},
      {"imc14", "33fb98a606c5ad562582bddb4f9221f7"},
      {"imc15", "ba29e45acc43e625c13872703bc844ed"},
      {"imc16", "61f4bcb5d06913d0920f6b5afe396b9d"},
      {"imc17", "614e24c61083c8b598535f9719a79d3b"},
      {"imc18", "539cd64402c60e2b247e7b997a912f8c"},
      {"imc19", "ba7066cbeeb1de9127b3b89d4c3b56c5"},
      {"imc20", "eb51d4e4d4bd14c69587e3530fd1f42a"},
      {"imc21", "5b0ce7f0c272d0a669413d222236fe02"},
      {"imc22", "80f452ac6dc1b15a033dd0d787351fba"},
      {"imc23", "d71c1bd409578b3035a128aeb348fad2"},
      {"imc24", "ba59e191f14a913c029b3022217fba3a"},
  };
  bool decision = false;
  bool interactive_cycle = false;
  bool live_bottom = false;
  for (std::uint32_t seed = 1; seed <= kFamilySize; ++seed) {
    const imc::Imc m = random_imc(seed);
    // Interactive edges alone: a cycle there is a zero-delay cycle, and a
    // scheduler may stay in it forever, so it is an end component.
    const core::Digraph inter =
        core::Digraph::build(m.num_states(), [&](auto&& add) {
          for (imc::StateId s = 0; s < m.num_states(); ++s) {
            for (const imc::InterEdge& e : m.interactive(s)) {
              add(s, e.dst);
            }
          }
        });
    const core::Components scc = core::scc(inter);
    // The maximal-progress graph: Markovian edges count only at states
    // without interactive ones.
    const core::Digraph progress =
        core::Digraph::build(m.num_states(), [&](auto&& add) {
          for (imc::StateId s = 0; s < m.num_states(); ++s) {
            if (!m.interactive(s).empty()) {
              for (const imc::InterEdge& e : m.interactive(s)) {
                add(s, e.dst);
              }
            } else {
              for (const imc::MarkEdge& e : m.markovian(s)) {
                add(s, e.dst);
              }
            }
          }
        });
    for (imc::StateId s = 0; s < m.num_states(); ++s) {
      decision = decision || m.interactive(s).size() >= 2;
      for (const imc::InterEdge& e : m.interactive(s)) {
        interactive_cycle = interactive_cycle ||
                            scc.component_of[e.dst] == scc.component_of[s];
      }
    }
    live_bottom = live_bottom || has_live_bottom_scc(progress);
    expect_golden(golden, "imc" + std::to_string(seed), imc_digest(m));
  }
  EXPECT_TRUE(decision);
  EXPECT_TRUE(interactive_cycle);
  EXPECT_TRUE(live_bottom);
}

TEST(SolverGolden, SmokeSweepBoundsProbes) {
  const std::map<std::string, std::string> golden = {
      {"noc/width=2,height=2,link_rate=1/latency",
       "99991410d990e7adfea4f6e978e5601f"},
      {"noc/width=2,height=2,link_rate=2/latency",
       "aec8b98fa58e63bf5c3599a4b1b33623"},
      {"fame/protocol=msi,topology=bus/latency",
       "c31e99366a386d3fe742cf06285b4f30"},
      {"fame/protocol=mesi,topology=bus/latency",
       "e5943cc7d530e376101c9ce6582740fa"},
      {"xstream/capacity=1/latency", "8f9cec3b4012005e6bff74fa901a0e8c"},
      {"xstream/capacity=2/latency", "34c87e10b5ee22b9972daa64a0a11ef2"},
      {"xmas/fabric=credit-loop,capacity=1/latency",
       "dfd56b2a50df92bec0ab7f7e3b1a6481"},
      {"xmas/fabric=credit-loop,capacity=2/latency",
       "4b00a3269837787f9fe4db8347f9e142"},
  };
  const dse::SweepSpec spec =
      dse::parse_sweep_spec(dse::builtin_sweep_spec("smoke"));
  std::size_t probes = 0;
  for (const dse::Point& point : dse::expand(spec, &dse::derived_quantities)) {
    for (const dse::Probe& probe : dse::instantiate(point).probes) {
      if (probe.verb != serve::Verb::kBounds) {
        continue;
      }
      std::istringstream is(probe.payload);
      expect_golden(golden, point.id + "/" + probe.name,
                    bounds_digest(imc::read_aut(is)));
      ++probes;
    }
  }
  EXPECT_EQ(probes, golden.size());
}

}  // namespace
