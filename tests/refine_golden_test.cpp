// Golden digests of every partition-refinement result.  The contract of the
// refinement kernel is the *numbering* of blocks, not just the grouping:
// quotients, canonical forms, cache keys, served bodies and `--no-timing`
// dse JSON all depend on it.  Each digest covers the partition's block of
// every state and the quotient (states, initial state, transitions in
// insertion order with label text), so any renumbering fails here.
//
// On a mismatch the failure message prints the table line to paste, but
// only paste it when the renumbering is intended.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bisim/branching.hpp"
#include "bisim/reduction.hpp"
#include "bisim/strong.hpp"
#include "builtin_models.hpp"
#include "core/flow.hpp"
#include "core/hash.hpp"
#include "fame/mpi.hpp"
#include "fame/topology.hpp"
#include "imc/compose.hpp"
#include "imc/lump.hpp"
#include "noc/mesh.hpp"
#include "noc/perf.hpp"
#include "proc/generator.hpp"
#include "serve/hash.hpp"
#include "xmas/compile.hpp"
#include "xmas/netlist.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;
using serve::hash_append;

void append_partition(core::Hasher& h, const bisim::Partition& p) {
  h.u64(p.num_blocks());
  for (lts::StateId s = 0; s < p.num_states(); ++s) {
    h.u64(p.block_of(s));
  }
}

void append_minimized(core::Hasher& h, const bisim::MinimizeResult& r) {
  append_partition(h, r.partition);
  hash_append(h, r.quotient);
}

/// One digest over the strong, branching, divbranching and weak quotients
/// of @p l and over its canonical divbranching-minimal form.
std::string refine_digest(const lts::Lts& l) {
  core::Hasher h;
  append_minimized(h, bisim::minimize_strong(l));
  append_minimized(h, bisim::minimize_branching(l, {false}));
  append_minimized(h, bisim::minimize_branching(l, {true}));
  append_minimized(h, bisim::minimize_weak(l));
  hash_append(h, bisim::canonical_minimized(l));
  return h.key().hex();
}

/// Digest of the lumped quotient of @p m, the way close_model lumps it.
std::string lump_digest(const imc::Imc& m) {
  core::Hasher h;
  const imc::LumpResult closed =
      imc::minimize_imc(imc::maximal_progress(imc::hide_all(m)));
  append_partition(h, closed.partition);
  hash_append(h, closed.quotient);
  const imc::LumpResult open = imc::minimize_imc(m);
  append_partition(h, open.partition);
  hash_append(h, open.quotient);
  append_partition(h, imc::lump_strong(m));
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

/// The RandomSeed family of property_test.cpp (with its draws sequenced):
/// random LTSs with a share of tau edges, parallel edges and self-loops.
lts::Lts random_lts(std::uint32_t seed, std::size_t states,
                    std::size_t labels, double tau_fraction) {
  std::mt19937 rng(seed);
  lts::Lts l;
  l.add_states(states);
  std::vector<lts::ActionId> ids;
  for (std::size_t i = 0; i < labels; ++i) {
    ids.push_back(
        l.actions().intern(std::string("G").append(std::to_string(i))));
  }
  std::uniform_int_distribution<lts::StateId> state(
      0, static_cast<lts::StateId>(states - 1));
  std::uniform_int_distribution<std::size_t> label(0, labels - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t i = 0; i < states * 2; ++i) {
    // One draw per statement: argument evaluation order is unspecified.
    const auto a = coin(rng) < tau_fraction ? lts::ActionTable::kTau
                                            : ids[label(rng)];
    const lts::StateId src = state(rng);
    l.add_transition(src, a, state(rng));
  }
  return l;
}

/// A random IMC: interactive edges (half of them tau, so lumping has inert
/// tau and tau cycles to contract) and Markovian edges with repeated rates
/// and labels, so aggregation and label matching both matter.
imc::Imc random_imc(std::uint32_t seed, std::size_t states) {
  std::mt19937 rng(seed);
  imc::Imc m;
  m.add_states(states);
  std::uniform_int_distribution<imc::StateId> state(
      0, static_cast<imc::StateId>(states - 1));
  std::uniform_int_distribution<int> pick(0, 3);
  const char* actions[] = {"i", "i", "a", "b"};
  const double rates[] = {0.5, 1.0, 1.0, 2.0};
  const char* labels[] = {"", "", "x", "y"};
  for (std::size_t k = 0; k < states; ++k) {
    const imc::StateId src = state(rng);
    const char* action = actions[pick(rng)];
    m.add_interactive(src, action, state(rng));
    const imc::StateId from = state(rng);
    const double rate = rates[pick(rng)];
    const imc::StateId to = state(rng);
    m.add_markovian(from, rate, to, labels[pick(rng)]);
  }
  return m;
}

TEST(RefineGolden, BuiltinCaseStudies) {
  const std::map<std::string, std::string> golden = {
      {"fame-msi", "83059ef46d07a56e49a411f69349ef49"},
      {"fame-mesi", "a523dd1577e2b559e9268a777a866e78"},
      {"fame-msi-3", "e314e4d675c0b8bc105ac4803da39480"},
      {"fame-mesi-3", "991cec9e1a90fa7cbe3fb9dfbf54dbb9"},
      {"noc-mesh-3x3", "07aec013e01da1ff699ab60e64959ce3"},
      {"noc-single-packet", "0623abc717e3223512ace491a868fbca"},
      {"noc-stream", "616c5a293ef2176c99bc0b886e499cf8"},
      {"xstream-correct", "28246ce9e65b244e627f24ea0536f869"},
      {"xstream-lost-credit", "62ba1cc74e8196afa199af006087e768"},
      {"xstream-eager-credit", "1d101347f6a88d4625c42d0c9e2786f9"},
      {"xmas-credit-loop", "ebc230510c17088fa33146685ce9ab38"},
      {"xmas-vc-pair", "519661658944246af4b288d22d543fe9"},
      {"xmas-mesh2", "7628606f23ed24cd2f8c78c9480c4058"},
  };
  for (const fixtures::BuiltinModel& m : fixtures::builtin_models()) {
    expect_golden(golden, m.name,
                  refine_digest(proc::generate(*m.program, m.entry)));
  }
}

TEST(RefineGolden, RandomSeedFamily) {
  const std::map<std::string, std::string> golden = {
      {"seed1/n25/tau0", "460d8b24b4d3c44f6c2a0c95e5cdf1ef"},
      {"seed1/n25/tau30", "68a57a918d81fda0e9e753af3722b37a"},
      {"seed1/n25/tau60", "de1e81e5abf8ce2cc5bd986d2d489e5b"},
      {"seed1/n200/tau0", "14b8aafd899c547f96b1200ce7de5561"},
      {"seed1/n200/tau30", "daa7b17bea84a3f51ef8aea551105f30"},
      {"seed1/n200/tau60", "b625916814e85699f34a8dba4296995c"},
      {"seed2/n25/tau0", "aad38433f9cf64d57bfa8afeba002e18"},
      {"seed2/n25/tau30", "ec336cf42de10d0aedd2bbd749a03445"},
      {"seed2/n25/tau60", "3207f0baf0fcc124e51248e373785a82"},
      {"seed2/n200/tau0", "49051258f6a66e9182a75f94d1f1ecdb"},
      {"seed2/n200/tau30", "3561b306cef7cd97bf78578343720959"},
      {"seed2/n200/tau60", "a399a7a3012c9b34190ac52f8d170e6e"},
      {"seed3/n25/tau0", "38dc6c6796571dbff6a114a07104fcec"},
      {"seed3/n25/tau30", "7ae0c376e41a45968cd26f56b51c54fd"},
      {"seed3/n25/tau60", "54f5a8f3f9e56baf924f1fa20280b883"},
      {"seed3/n200/tau0", "08bf31c4e99b26f0e9b97bd76b0a95da"},
      {"seed3/n200/tau30", "0e7304c00616599b9a29c8bbbce9691c"},
      {"seed3/n200/tau60", "eba5c17b722587a6323283b8f67c211f"},
      {"seed4/n25/tau0", "ef29b140d3131abca84546ca0b308879"},
      {"seed4/n25/tau30", "69b4bbaa951e3168861e9ef8e7212821"},
      {"seed4/n25/tau60", "f148604a88e2d0ecb02c86acd12954af"},
      {"seed4/n200/tau0", "228955975a4c2866e4b4761c460bda31"},
      {"seed4/n200/tau30", "c7479cab6bf8c01eb2b02a97bf75019e"},
      {"seed4/n200/tau60", "b3267c7e87ee1ed96e62d9dff8145987"},
      {"seed5/n25/tau0", "a8f73c31a748ef1deff9d4dc61f3916e"},
      {"seed5/n25/tau30", "f7104ae4a6301db0378d152c4bdf3404"},
      {"seed5/n25/tau60", "63887e374917f7584746ceff5ddf1d35"},
      {"seed5/n200/tau0", "b274d00d8aa82b9206e877a987abfefa"},
      {"seed5/n200/tau30", "5048ce138f4d5a77d7aeb838f1e3c874"},
      {"seed5/n200/tau60", "e9d766fbb6b6c84db21d5db28bb15900"},
      {"seed6/n25/tau0", "22e3d93ff4ad8ffe2d0275e5a896fdab"},
      {"seed6/n25/tau30", "5c349efbc856ca386de1802ed8aadfbc"},
      {"seed6/n25/tau60", "3c8dfc3e38940605131ec5835226b4f6"},
      {"seed6/n200/tau0", "cca8f165ff60676ba6ef61ec4d18c72a"},
      {"seed6/n200/tau30", "c0ea85b83da4f18ab8080657dba98ef9"},
      {"seed6/n200/tau60", "3ba4e747dece6476b65c5029e7b584e4"},
      {"seed7/n25/tau0", "86be00e31f263e6e64f8b98d64e86661"},
      {"seed7/n25/tau30", "7d22596dc09bc63ab5a212b9d7fb219c"},
      {"seed7/n25/tau60", "33ad0669d640fa0621192a7a9c5e7273"},
      {"seed7/n200/tau0", "5be6b03b6b4ab0496bf4d0220f852659"},
      {"seed7/n200/tau30", "fb02ff3e5f32f9808aa38725a2dd0c5d"},
      {"seed7/n200/tau60", "09648ebb43bf3c4d29d02d649af3d23d"},
      {"seed8/n25/tau0", "a43519735b3a9d173a040fe672e896b9"},
      {"seed8/n25/tau30", "0bdc69768f83bca7a67766974c868a62"},
      {"seed8/n25/tau60", "a46491c22c4983f49db5846fd42eaef1"},
      {"seed8/n200/tau0", "a0adff8399d14a213f02f775b6c909ec"},
      {"seed8/n200/tau30", "a413afafa266bea3881bf488704b015b"},
      {"seed8/n200/tau60", "e983844b40728b986104c0b95883269f"},
      {"seed9/n25/tau0", "88b88d5686afe8d1690dc6a58228d4d3"},
      {"seed9/n25/tau30", "b5c1f5cbef889433166ef955c5b3c0cc"},
      {"seed9/n25/tau60", "18fd1d64ba9dd8dac5970e1379c5e678"},
      {"seed9/n200/tau0", "bde6059c53b2eba7cb47ec7d55efd09a"},
      {"seed9/n200/tau30", "853fc9edbaac87f013271e943c566487"},
      {"seed9/n200/tau60", "62349db6b4c6d511af172cce1e1c9122"},
      {"seed10/n25/tau0", "5eab8bc6c623fc7358c978158527792c"},
      {"seed10/n25/tau30", "dbdc7fed639386c1b13ebd638e0fe51c"},
      {"seed10/n25/tau60", "4768377899cae55402a8e000b6e5fea7"},
      {"seed10/n200/tau0", "bc147754b37e8a402e011bab9c4f2ab7"},
      {"seed10/n200/tau30", "86f0616dce23b60379cbdff258e49e66"},
      {"seed10/n200/tau60", "27f879806f6844b552ce3e05feadf70c"},
  };
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    for (const std::size_t states : {25, 200}) {
      for (const int tau_percent : {0, 30, 60}) {
        const std::string name = "seed" + std::to_string(seed) + "/n" +
                                 std::to_string(states) + "/tau" +
                                 std::to_string(tau_percent);
        expect_golden(golden, name,
                      refine_digest(random_lts(seed, states, 3,
                                               tau_percent / 100.0)));
      }
    }
  }
}

/// The block of every state, in state order.
std::vector<bisim::BlockId> blocks(const bisim::Partition& p) {
  std::vector<bisim::BlockId> out;
  for (lts::StateId s = 0; s < p.num_states(); ++s) {
    out.push_back(p.block_of(s));
  }
  return out;
}

// minimize_branching contracts the tau cycles once, for its refinement and
// its divergent blocks, instead of calling branching_partition; the two
// entry points must still give the same partition, numbering included.
TEST(BranchingEntryPoints, MinimizeAgreesWithPartition) {
  std::vector<std::pair<std::string, lts::Lts>> inputs;
  inputs.emplace_back("empty", lts::Lts());
  for (const fixtures::BuiltinModel& m : fixtures::builtin_models()) {
    inputs.emplace_back(m.name, proc::generate(*m.program, m.entry));
  }
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    for (const std::size_t states : {25, 200}) {
      for (const int tau_percent : {0, 30, 60}) {
        inputs.emplace_back(
            "seed" + std::to_string(seed) + "/n" + std::to_string(states) +
                "/tau" + std::to_string(tau_percent),
            random_lts(seed, states, 3, tau_percent / 100.0));
      }
    }
  }
  for (const auto& [name, l] : inputs) {
    for (const bool divergence : {false, true}) {
      const bisim::BranchingOptions opts{divergence};
      const bisim::Partition expected = bisim::branching_partition(l, opts);
      const bisim::MinimizeResult r = bisim::minimize_branching(l, opts);
      EXPECT_EQ(r.partition.num_blocks(), expected.num_blocks()) << name;
      EXPECT_EQ(blocks(r.partition), blocks(expected)) << name;
      EXPECT_EQ(r.quotient.num_states(), expected.num_blocks()) << name;
    }
  }
}

TEST(RefineGolden, FlowModelLumping) {
  const std::map<std::string, std::string> golden = {
      {"noc-packet", "edabf177ad1fa9f69d0f56de6012a0a3"},
      {"noc-stream", "624b7697cd1ba3e37fe897ba22a532ff"},
      {"fame-pingpong", "fdf2e343875ed7ca90dae9c1a8e2c0f9"},
      {"fame-barrier", "ed7d0576d9604055c6856324f3bca80b"},
      {"xstream-queue", "5b9acd25983545d756ccee116411c370"},
      {"random-imc1", "4803a8c99cc050a7e7ec625474dfb988"},
      {"random-imc2", "47efa62bfc3b48c28078176ec9b08d02"},
      {"random-imc3", "a5c9f8dbdcb7f2a65b38cfcaf68bb6e9"},
      {"random-imc4", "f5e90f2b7b15aeb0f2582a0d0bdf96f8"},
      {"random-imc5", "68d4d13e4fbb6c0590c2350fd513bb6b"},
      {"random-imc6", "1231f733ce8bf708db5d9fd878823453"},
      {"random-imc7", "ccd455d4528b95fe98dc049914324d5a"},
      {"random-imc8", "b44370054b3b9d58e3d6bd00317e5db4"},
      {"random-imc9", "890772a553bd7745735db0d6573f1072"},
      {"random-imc10", "d5c4a24a6f947b1a831a611309156742"},
      {"xmas-credit-loop", "82160b51d1b8cde865b4db8e15f0cca4"},
  };
  const noc::MeshDims dims;
  const auto noc_rates = noc::rate_table(noc::NocRates{}, dims);
  expect_golden(golden, "noc-packet",
                lump_digest(core::decorate_with_rates(
                    noc::single_packet_lts(0, 3, false, dims), noc_rates)));
  expect_golden(golden, "noc-stream",
                lump_digest(core::decorate_with_rates(
                    noc::stream_lts({noc::Flow{0, 3}}, false, dims),
                    noc_rates)));
  const fame::PingPongConfig pp;
  expect_golden(golden, "fame-pingpong",
                lump_digest(core::decorate_with_rates(
                    fame::pingpong_lts(pp),
                    fame::topology_rates(pp.topology, {"M", "S0", "S1"},
                                         pp.base_rate))));
  const fame::BarrierConfig bar;
  expect_golden(golden, "fame-barrier",
                lump_digest(core::decorate_with_rates(
                    fame::barrier_lts(bar),
                    fame::topology_rates(bar.topology, {"F0", "F1"},
                                         bar.base_rate))));
  xstream::QueueConfig q;
  q.max_value = 0;
  expect_golden(golden, "xstream-queue",
                lump_digest(core::decorate_with_rates(
                    xstream::virtual_queue_lts_open(q),
                    {{"PUSH", 2.0}, {"NET", 5.0}, {"CREDIT", 5.0},
                     {"POP", 3.0}})));
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    expect_golden(golden, "random-imc" + std::to_string(seed),
                  lump_digest(random_imc(seed, 30)));
  }
  const xmas::Compiled c = xmas::compile(xmas::builtin_fabric("credit-loop"));
  expect_golden(golden, "xmas-credit-loop",
                lump_digest(core::decorate_with_rates(
                    xmas::compiled_lts(c, compose::Strategy::kFlat),
                    xmas::rate_table(c))));
}

}  // namespace
