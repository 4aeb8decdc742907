// Tests for the src/serve subsystem: canonical content hashing, the
// two-tier result cache, the wire protocol, the coalescing job scheduler
// (bitwise-identical served results, backpressure, deadlines), the
// Unix-domain and TCP socket front ends, the client receive deadline and
// the consistent-hash replica router.
//
// Every suite here is named Serve* so the CI thread-sanitizer job can run
// the whole subsystem with --gtest_filter='Serve*'.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iterator>
#include <memory>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "lts/lts_io.hpp"
#include "serve/cache.hpp"
#include "serve/hash.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/solvers.hpp"

namespace {

using namespace multival;

// A deterministic IMC (one closed CTMC): 0 -> 1 -> {0 or absorbing 2}.
constexpr const char* kCtmcModel =
    "des (0, 4, 4)\n"
    "(0, \"rate 1.0\", 1)\n"
    "(1, \"rate 2.0\", 0)\n"
    "(1, \"STEP; rate 1.0\", 2)\n"
    "(2, \"rate 4.0\", 3)\n";

// A nondeterministic IMC: an interactive choice between a slow and a fast
// path to the absorbing state 3.
constexpr const char* kNondetModel =
    "des (0, 4, 4)\n"
    "(0, \"a\", 1)\n"
    "(0, \"b\", 2)\n"
    "(1, \"rate 1.0\", 3)\n"
    "(2, \"rate 2.0\", 3)\n";

// A small LTS with a reachable deadlock (state 2).
constexpr const char* kLtsModel =
    "des (0, 3, 3)\n"
    "(0, \"PUSH\", 1)\n"
    "(1, \"POP\", 0)\n"
    "(1, \"DROP\", 2)\n";

serve::Request make_request(serve::Verb verb, std::string payload,
                            std::string arg = "", std::uint64_t id = 1) {
  serve::Request r;
  r.id = id;
  r.verb = verb;
  r.arg = std::move(arg);
  r.payload = std::move(payload);
  return r;
}

// --- hashing -------------------------------------------------------------

TEST(ServeHash, IndependentOfLabelInterningOrder) {
  lts::Lts a;
  a.add_states(2);
  a.set_initial_state(0);
  a.add_transition(0, "X", 1);

  lts::Lts b;
  b.add_states(2);
  b.set_initial_state(0);
  b.actions().intern("UNUSED");  // shifts every later ActionId
  b.add_transition(0, "X", 1);

  serve::Hasher ha;
  serve::Hasher hb;
  serve::hash_append(ha, a);
  serve::hash_append(hb, b);
  EXPECT_EQ(ha.key(), hb.key());
}

TEST(ServeHash, DistinguishesModelsAndFieldBoundaries) {
  lts::Lts a;
  a.add_states(2);
  a.set_initial_state(0);
  a.add_transition(0, "X", 1);

  lts::Lts b = a;
  b.add_transition(0, "X", 0);

  serve::Hasher ha;
  serve::Hasher hb;
  serve::hash_append(ha, a);
  serve::hash_append(hb, b);
  EXPECT_NE(ha.key(), hb.key());

  serve::Hasher h1;
  h1.str("ab");
  h1.str("c");
  serve::Hasher h2;
  h2.str("a");
  h2.str("bc");
  EXPECT_NE(h1.key(), h2.key());
}

TEST(ServeHash, ImcRequestKeyIsPinned) {
  // Keys name the MVCR disk entries, so a digest change would orphan every
  // cache an earlier build wrote.
  const serve::Request r = make_request(serve::Verb::kReach, kCtmcModel);
  EXPECT_EQ(serve::prepare_request(r).key.hex(),
            "347535c3e15653cbb766e46fd839cdc4");
}

TEST(ServeHash, ThroughputRequestKeyIsPinned) {
  // Throughput keys also name the steady-state method, so a cache written
  // by a build with another method is never served; this pins that token.
  const serve::Request r =
      make_request(serve::Verb::kThroughput, kCtmcModel, "STEP*");
  EXPECT_EQ(serve::prepare_request(r).key.hex(),
            "45de58ac5a4f3476fc125a315178d29d");
}

TEST(ServeHash, HexIsStable) {
  serve::Hasher h;
  h.str("hello");
  const serve::CacheKey k = h.key();
  EXPECT_EQ(k.hex().size(), 32u);
  EXPECT_EQ(k.hex(), h.key().hex());
}

// --- result cache --------------------------------------------------------

serve::CacheKey cache_key(int i) {
  serve::Hasher h;
  h.u64(static_cast<std::uint64_t>(i));
  return h.key();
}

TEST(ServeCache, LruEvictsLeastRecentlyUsed) {
  serve::ResultCache::Options opts;
  // Four entries of 8 payload bytes, of which the main segment gets room
  // for three.
  opts.capacity_bytes = 4 * (serve::ResultCache::kEntryOverhead + 8);
  serve::ResultCache cache(opts);
  const auto key = cache_key;
  // Each key's first lookup promotes it from probation to the main
  // segment, where the evictions below happen.
  for (int i = 1; i <= 3; ++i) {
    cache.insert(key(i), std::string(8, static_cast<char>('0' + i)));
    ASSERT_TRUE(cache.lookup(key(i)).has_value());
  }
  ASSERT_TRUE(cache.lookup(key(1)).has_value());  // 1 is now most recent
  cache.insert(key(4), "44444444");               // evicts 2
  ASSERT_TRUE(cache.lookup(key(4)).has_value());
  EXPECT_FALSE(cache.lookup(key(2)).has_value());
  EXPECT_TRUE(cache.lookup(key(1)).has_value());
  EXPECT_TRUE(cache.lookup(key(4)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServeCache, OneHitResultsStayInProbation) {
  // Every served result is inserted once; only the ones asked for again
  // may take more than the probation slice of the memory tier.
  const std::string payload = "throughput(DEP) = 5.2166218250155909\n";
  const std::size_t entry = payload.size() + serve::ResultCache::kEntryOverhead;
  serve::ResultCache cache;
  const std::size_t probation_cap =
      serve::ResultCache::Options{}.capacity_bytes /
      serve::ResultCache::kProbationShare;
  cache.insert(cache_key(-1), payload);
  ASSERT_TRUE(cache.lookup(cache_key(-1)).has_value());  // promoted
  for (int i = 0; i < 100000; ++i) {
    cache.insert(cache_key(i), payload);
    if (i % 1000 == 0) {
      ASSERT_LE(cache.bytes(), probation_cap + entry) << "after " << i;
    }
  }
  EXPECT_LE(cache.bytes(), probation_cap + entry);
  EXPECT_TRUE(cache.lookup(cache_key(-1)).has_value());
  EXPECT_FALSE(cache.lookup(cache_key(0)).has_value());  // long evicted
  EXPECT_TRUE(cache.lookup(cache_key(99999)).has_value());

  // A disk-tier hit lands in the main segment: it outlives a probation
  // slice's worth of new results and is served from memory.
  const std::string dir = testing::TempDir() + "serve_cache_promote";
  ::mkdir(dir.c_str(), 0755);
  // Start without a previous run's entries: renaming a file over an
  // existing one took about 60 ms per insert on ext4, which flushes it.
  for (int i = -1; i < 40; ++i) {
    ::unlink((dir + "/" + cache_key(i).hex() + ".mvcr").c_str());
  }
  serve::ResultCache::Options opts;
  opts.disk_dir = dir;
  opts.capacity_bytes = 4 * serve::ResultCache::kProbationShare * entry;
  serve::ResultCache(opts).insert(cache_key(-1), payload);
  serve::ResultCache disk(opts);
  ASSERT_TRUE(disk.lookup(cache_key(-1)).has_value());
  for (int i = 0; i < 40; ++i) {
    disk.insert(cache_key(i), payload);
  }
  EXPECT_TRUE(disk.lookup(cache_key(-1)).has_value());
  EXPECT_EQ(disk.stats().disk_hits, 1u);
  EXPECT_GT(disk.stats().evictions, 0u);
}

TEST(ServeCache, DiskTierSurvivesANewCacheInstance) {
  const std::string dir = testing::TempDir() + "serve_cache_disk";
  ::mkdir(dir.c_str(), 0755);
  serve::ResultCache::Options opts;
  opts.disk_dir = dir;
  serve::Hasher h;
  h.str("disk-key");
  const serve::CacheKey key = h.key();
  {
    serve::ResultCache cache(opts);
    cache.insert(key, "persisted payload\nwith newline");
    EXPECT_EQ(cache.stats().disk_writes, 1u);
  }
  serve::ResultCache fresh(opts);
  const auto hit = fresh.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "persisted payload\nwith newline");
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  // Promoted into memory: a second lookup does not touch the disk tier.
  ASSERT_TRUE(fresh.lookup(key).has_value());
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
}

TEST(ServeCache, CorruptDiskEntryIsAMissNotAnError) {
  const std::string dir = testing::TempDir() + "serve_cache_corrupt";
  ::mkdir(dir.c_str(), 0755);
  serve::ResultCache::Options opts;
  opts.disk_dir = dir;
  serve::Hasher h;
  h.str("corrupt-key");
  const serve::CacheKey key = h.key();
  {
    std::ofstream os(dir + "/" + key.hex() + ".mvcr", std::ios::binary);
    os << "MVCR\x01 this is not a valid record stream";
  }
  serve::ResultCache cache(opts);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ServeCache, ConcurrentWritersOfSameKeyPublishExactlyOnce) {
  // Many writers racing on the same key must never leave a torn entry on
  // disk: each writes a private tmp file and publishes it with an atomic
  // rename, so whichever rename lands last, readers see one complete file.
  const std::string dir = testing::TempDir() + "serve_cache_race";
  ::mkdir(dir.c_str(), 0755);
  serve::ResultCache::Options opts;
  opts.disk_dir = dir;
  serve::Hasher h;
  h.str("contended-key");
  const serve::CacheKey key = h.key();
  const std::string payload(64 * 1024, 'x');  // big enough to tear if unsynced

  constexpr int kWriters = 8;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      // Separate instances so every insert goes through the disk path (a
      // shared instance would dedup in the memory tier before writing).
      serve::ResultCache cache(opts);
      cache.insert(key, payload);
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }

  // Exactly one published file for the key, no leftover tmp files.
  std::size_t published = 0;
  std::size_t leftovers = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") {
        continue;
      }
      if (name.find(".tmp") != std::string::npos) {
        ++leftovers;
      } else {
        ++published;
      }
    }
    ::closedir(d);
  }
  EXPECT_EQ(published, 1u);
  EXPECT_EQ(leftovers, 0u);

  serve::ResultCache reader(opts);
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
  EXPECT_EQ(reader.stats().disk_errors, 0u);
}

TEST(ServeCache, TruncatedDiskEntryIsAMissAndCountsAsCorrupt) {
  const std::string dir = testing::TempDir() + "serve_cache_trunc";
  ::mkdir(dir.c_str(), 0755);
  serve::ResultCache::Options opts;
  opts.disk_dir = dir;
  serve::Hasher h;
  h.str("truncated-key");
  const serve::CacheKey key = h.key();
  {
    serve::ResultCache cache(opts);
    cache.insert(key, std::string(4096, 'y'));
  }
  const std::string path = dir + "/" + key.hex() + ".mvcr";
  ::truncate(path.c_str(), 100);  // cut mid-payload, after a valid header

  serve::ResultCache cache(opts);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The entry stays a miss rather than resurrecting as garbage.
  EXPECT_FALSE(cache.lookup(key).has_value());
}

/// Plants at @p dir the 45-byte entry of @p key whose payload record
/// declares 2^44 bytes and holds 15.
void plant_oversized_entry(const std::string& dir, const serve::CacheKey& key) {
  std::ofstream os(dir + "/" + key.hex() + ".mvcr", std::ios::binary);
  os << "MVCR\x01\x01";
  for (const std::uint64_t half : {key.hi, key.lo}) {
    for (int i = 7; i >= 0; --i) {
      os.put(static_cast<char>((half >> (i * 8)) & 0xff));
    }
  }
  os << std::string("\x02\x80\x80\x80\x80\x80\x80\x04", 8)
     << "fifteen bytes.\n";
}

TEST(ServeCache, PayloadLengthBeyondTheFileIsAMissNotAnAllocation) {
  const std::string dir = testing::TempDir() + "serve_cache_oversized";
  ::mkdir(dir.c_str(), 0755);
  serve::ResultCache::Options opts;
  opts.disk_dir = dir;
  serve::Hasher h;
  h.str("oversized-key");
  const serve::CacheKey key = h.key();
  plant_oversized_entry(dir, key);
  struct stat st = {};
  ASSERT_EQ(::stat((dir + "/" + key.hex() + ".mvcr").c_str(), &st), 0);
  ASSERT_EQ(st.st_size, 45);

  serve::ResultCache cache(opts);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ServeService, OversizedDiskEntryIsSolvedAfresh) {
  const std::string dir = testing::TempDir() + "serve_service_oversized";
  ::mkdir(dir.c_str(), 0755);
  const serve::Request r = make_request(serve::Verb::kReach, kCtmcModel);
  plant_oversized_entry(dir, serve::prepare_request(r).key);

  serve::ServiceOptions opts;
  opts.workers = 1;
  opts.cache.disk_dir = dir;
  serve::Service service(opts);
  const serve::Response resp = service.evaluate(r);
  ASSERT_EQ(resp.status, serve::Status::kOk) << resp.body;
  EXPECT_EQ(resp.body, serve::solve_request(r));
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.solves, 1u);
  EXPECT_EQ(m.cache.disk_errors, 1u);
  // The solve replaced the corrupt entry: a fresh cache reads it back.
  serve::ResultCache fresh(opts.cache);
  EXPECT_EQ(fresh.lookup(serve::prepare_request(r).key), resp.body);
  EXPECT_EQ(fresh.stats().disk_errors, 0u);
}

// --- protocol ------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsWithEmbeddedSeparators) {
  serve::Request r = make_request(serve::Verb::kCheck,
                                  "line1\nline2\twith tab\\backslash",
                                  "nu X. (<any> tt && [any] X)", 42);
  r.deadline = std::chrono::milliseconds(1500);
  const std::string line = serve::encode_request(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const serve::Request back = serve::decode_request(line);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.verb, serve::Verb::kCheck);
  EXPECT_EQ(back.deadline.count(), 1500);
  EXPECT_EQ(back.arg, r.arg);
  EXPECT_EQ(back.payload, r.payload);
}

TEST(ServeProtocol, ResponseRoundTrips) {
  const serve::Response r{7, serve::Status::kOverloaded, "queue full"};
  const serve::Response back = serve::decode_response(serve::encode_response(r));
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.status, serve::Status::kOverloaded);
  EXPECT_EQ(back.body, "queue full");
}

TEST(ServeProtocol, RejectsMalformedLines) {
  EXPECT_THROW((void)serve::decode_request("not a protocol line"),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::decode_request("mv1\tx\tping\t0\t\t"),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::decode_request("mv1\t1\tfrobnicate\t0\t\t"),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::decode_response("mv1\t1\tok"),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::unescape_field("dangling\\"),
               serve::ProtocolError);
}

// --- service: served == direct, bitwise ----------------------------------

void expect_served_matches_direct(const serve::Request& request) {
  const std::string direct = serve::solve_request(request);
  for (unsigned workers : {1u, 4u}) {
    serve::ServiceOptions opts;
    opts.workers = workers;
    serve::Service service(opts);
    const serve::Response response = service.evaluate(request);
    EXPECT_EQ(response.status, serve::Status::kOk) << response.body;
    EXPECT_EQ(response.body, direct) << "workers=" << workers;
  }
}

TEST(ServeService, CtmcReachabilityMatchesDirectSolveBitwise) {
  expect_served_matches_direct(make_request(serve::Verb::kReach, kCtmcModel));
  expect_served_matches_direct(
      make_request(serve::Verb::kReach, kCtmcModel, "0.5"));
}

TEST(ServeService, ImcIntervalBoundsMatchDirectSolveBitwise) {
  expect_served_matches_direct(
      make_request(serve::Verb::kBounds, kNondetModel));
}

TEST(ServeService, McFormulaMatchesDirectSolveBitwise) {
  expect_served_matches_direct(make_request(
      serve::Verb::kCheck, kLtsModel, "nu X. (<any> tt && [any] X)"));
  expect_served_matches_direct(
      make_request(serve::Verb::kCheck, kLtsModel, "<'PUSH'> tt"));
}

TEST(ServeService, ThroughputMatchesDirectSolveBitwise) {
  // Ergodic variant (no absorbing state) so the steady state is nontrivial.
  const std::string model =
      "des (0, 3, 3)\n"
      "(0, \"rate 1.0\", 1)\n"
      "(1, \"STEP; rate 2.0\", 2)\n"
      "(2, \"rate 3.0\", 0)\n";
  expect_served_matches_direct(
      make_request(serve::Verb::kThroughput, model, "STEP*"));
}

// --- latency histograms ---------------------------------------------------

/// Width of one histogram bucket relative to its lower edge.
constexpr double kBucketWidth = 0.04427;  // 2^(1/16) - 1, rounded up

/// The sample percentile the service reports: rank ceil(q·(n − 1)).
double exact_percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size() - 1)))];
}

TEST(ServeHistogram, PercentilesLieWithinOneBucketOfTheSamples) {
  serve::LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  std::vector<double> samples;
  for (int i = 1; i <= 2000; ++i) {
    // 0.01 ms .. ~5 s, unevenly spread.
    samples.push_back(0.01 * std::pow(1.0032, i * 1.23) + 0.003 * (i % 7));
  }
  for (const double ms : samples) {
    h.add(ms);
  }
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double want = exact_percentile(samples, q);
    EXPECT_NEAR(h.percentile(q), want, want * kBucketWidth) << "q " << q;
  }
  // Sub-microsecond samples (cache hits) read as 0.
  serve::LatencyHistogram fast;
  fast.add(0.0);
  fast.add(-1.0);
  EXPECT_EQ(fast.percentile(0.99), 0.0);
}

TEST(ServeHistogram, PercentilesFollowNewSamplesWithoutACap) {
  // Past 2^16 samples the percentiles still follow what comes in.
  serve::LatencyHistogram h;
  for (int i = 0; i < 70000; ++i) {
    h.add(1.0);
  }
  EXPECT_NEAR(h.percentile(0.5), 1.0, kBucketWidth);
  for (int i = 0; i < 70001; ++i) {
    h.add(40.0);
  }
  EXPECT_NEAR(h.percentile(0.5), 40.0, 40.0 * kBucketWidth);
}

// --- service: cache, coalescing, backpressure, deadlines -----------------

TEST(ServeService, SecondIdenticalRequestHitsTheCache) {
  serve::ServiceOptions opts;
  opts.workers = 2;
  serve::Service service(opts);
  const serve::Request r = make_request(serve::Verb::kReach, kCtmcModel);
  const serve::Response first = service.evaluate(r);
  const serve::Response second = service.evaluate(r);
  ASSERT_EQ(first.status, serve::Status::kOk) << first.body;
  EXPECT_EQ(first.body, second.body);
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.solves, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.completed_ok, 2u);
}

TEST(ServeService, EquivalentAutRenderingsShareOneCacheEntry) {
  serve::ServiceOptions opts;
  opts.workers = 1;
  serve::Service service(opts);
  // Same model, different textual spacing: the key hashes the parsed IMC.
  const std::string variant =
      "des (0, 4, 4)\n"
      "(0,\"rate 1.0\",1)\n"
      "(1,\"rate 2.0\",0)\n"
      "(1,\"STEP; rate 1.0\",2)\n"
      "(2,\"rate 4.0\",3)\n";
  (void)service.evaluate(make_request(serve::Verb::kReach, kCtmcModel));
  (void)service.evaluate(make_request(serve::Verb::kReach, variant));
  EXPECT_EQ(service.metrics().solves, 1u);
  EXPECT_EQ(service.metrics().cache_hits, 1u);
}

TEST(ServeService, ConcurrentIdenticalRequestsCoalesceIntoOneSolve) {
  constexpr int kDuplicates = 8;
  std::counting_semaphore<kDuplicates + 1> gate(0);
  serve::ServiceOptions opts;
  opts.workers = 1;
  opts.pre_solve_hook = [&gate](const serve::CacheKey&) { gate.acquire(); };
  serve::Service service(opts);

  const serve::Request r = make_request(serve::Verb::kReach, kCtmcModel);
  std::vector<std::shared_future<serve::Response>> futures;
  futures.reserve(kDuplicates);
  for (int i = 0; i < kDuplicates; ++i) {
    futures.push_back(service.submit(r));
  }
  gate.release();  // let the single worker run the one coalesced flight
  std::vector<std::string> bodies;
  for (auto& f : futures) {
    const serve::Response resp = f.get();
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.body;
    bodies.push_back(resp.body);
  }
  for (const std::string& body : bodies) {
    EXPECT_EQ(body, bodies.front());
  }
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.solves, 1u);
  EXPECT_EQ(m.coalesced, static_cast<std::uint64_t>(kDuplicates - 1));
  EXPECT_EQ(m.cache_hits, 0u);
}

// Solves run by the workers fold into the service's solver totals and
// leave the process-wide solve log alone.  This test runs under TSan in CI.
TEST(ServeService, ConcurrentSolvesFoldIntoTheServiceSolverTotals) {
  constexpr int kModels = 16;
  core::clear_solve_log();
  serve::ServiceOptions opts;
  opts.workers = 2;
  serve::Service service(opts);
  std::vector<std::shared_future<serve::Response>> futures;
  for (int i = 0; i < kModels; ++i) {
    // Distinct ergodic models: one steady-state solve each.
    const std::string model = "des (0, 3, 3)\n(0, \"rate " +
                              std::to_string(i + 1) +
                              ".0\", 1)\n(1, \"STEP; rate 2.0\", 2)\n"
                              "(2, \"rate 3.0\", 0)\n";
    futures.push_back(service.submit(make_request(
        serve::Verb::kThroughput, model, "STEP*",
        static_cast<std::uint64_t>(i + 1))));
  }
  for (auto& f : futures) {
    const serve::Response resp = f.get();
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.body;
  }
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.solves, static_cast<std::uint64_t>(kModels));
  EXPECT_EQ(m.solver.solves, static_cast<std::size_t>(kModels));
  EXPECT_EQ(m.solver.iterations, 0u);  // every chain is eliminated
  EXPECT_LT(m.solver.max_residual, 1e-12);
  EXPECT_NE(m.to_json().find("\"solver\":{\"solves\":16,"),
            std::string::npos)
      << m.to_json();
  EXPECT_TRUE(core::solve_log().empty());
}

// Saturation stress: a single blocked worker, a two-slot queue and a flood
// of distinct requests.  Excess requests must be shed immediately with an
// explicit kOverloaded status (never queued unboundedly, never deadlocked).
// This test runs under TSan in CI.
TEST(ServeService, QueueSaturationShedsWithExplicitOverloadedStatus) {
  constexpr int kFlood = 12;
  std::counting_semaphore<kFlood + 1> gate(0);
  serve::ServiceOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.pre_solve_hook = [&gate](const serve::CacheKey&) { gate.acquire(); };
  serve::Service service(opts);

  std::vector<std::shared_future<serve::Response>> futures;
  for (int i = 0; i < kFlood; ++i) {
    // Distinct models (different rates) -> distinct keys -> no coalescing.
    const std::string model = "des (0, 1, 2)\n(0, \"rate " +
                              std::to_string(i + 1) + ".0\", 1)\n";
    futures.push_back(
        service.submit(make_request(serve::Verb::kReach, model)));
  }
  gate.release(kFlood);
  int ok = 0;
  int overloaded = 0;
  for (auto& f : futures) {
    const serve::Response resp = f.get();  // must not deadlock
    if (resp.status == serve::Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, serve::Status::kOverloaded) << resp.body;
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kFlood);
  EXPECT_GE(overloaded, 1);
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.shed, static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(m.solves, static_cast<std::uint64_t>(ok));
}

TEST(ServeService, QueuedRequestPastItsDeadlineTimesOut) {
  std::counting_semaphore<4> gate(0);
  serve::ServiceOptions opts;
  opts.workers = 1;
  opts.pre_solve_hook = [&gate](const serve::CacheKey&) { gate.acquire(); };
  serve::Service service(opts);

  auto blocker = service.submit(make_request(serve::Verb::kReach, kCtmcModel));
  serve::Request urgent = make_request(serve::Verb::kBounds, kNondetModel);
  urgent.deadline = std::chrono::milliseconds(1);
  auto doomed = service.submit(urgent);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.release(2);
  EXPECT_EQ(blocker.get().status, serve::Status::kOk);
  const serve::Response resp = doomed.get();
  EXPECT_EQ(resp.status, serve::Status::kTimeout) << resp.body;
  EXPECT_EQ(service.metrics().timed_out, 1u);
}

TEST(ServeService, MalformedPayloadIsInvalidWithoutTouchingTheQueue) {
  serve::Service service;
  // The second payload wraps to "des (0, 1, 2)" if numbers overflow.
  for (const char* payload : {"des (not aut",
                              "des (0, 1, 18446744073709551618)\n"
                              "(0, \"rate 1\", 18446744073709551617)\n"}) {
    const serve::Response resp =
        service.evaluate(make_request(serve::Verb::kReach, payload));
    EXPECT_EQ(resp.status, serve::Status::kInvalid) << resp.body;
    EXPECT_NE(resp.body.find("MV010"), std::string::npos);
  }
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.invalid, 2u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.solves, 0u);
}

TEST(ServeService, AdmissionBudgetRejectsOversizedModelsPreQueue) {
  serve::ServiceOptions opts;
  opts.workers = 1;
  opts.admission_budget = 2;  // kCtmcModel has 4 states
  serve::Service service(opts);
  const serve::Response resp =
      service.evaluate(make_request(serve::Verb::kReach, kCtmcModel));
  EXPECT_EQ(resp.status, serve::Status::kInvalid);
  EXPECT_NE(resp.body.find("MV042"), std::string::npos);
  EXPECT_NE(resp.body.find("admission budget"), std::string::npos);

  // The gate reads the header alone: a model that declares 3 states is
  // refused before its (here malformed) transitions are parsed, so a
  // header cannot make the reader allocate past the budget.
  const serve::Response header = service.evaluate(
      make_request(serve::Verb::kReach, "des (0, 1, 3)\n(0, \"rate 1.0\"\n"));
  EXPECT_EQ(header.status, serve::Status::kInvalid);
  EXPECT_NE(header.body.find("MV042"), std::string::npos) << header.body;
  EXPECT_NE(header.body.find("model has 3 states"), std::string::npos);
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.invalid, 2u);
  EXPECT_EQ(m.solves, 0u);  // never reached a worker

  // Raising the budget admits the same request unchanged.
  serve::ServiceOptions open_opts;
  open_opts.workers = 1;
  open_opts.admission_budget = 64;
  serve::Service open_service(open_opts);
  EXPECT_EQ(
      open_service.evaluate(make_request(serve::Verb::kReach, kCtmcModel))
          .status,
      serve::Status::kOk);
}

TEST(ServeService, NondetImcOnReachIsInvalidWithAnActionableHint) {
  // reach/throughput need a deterministic closed chain; a nondeterministic
  // IMC can never satisfy them, so the pre-flight lint rejects it with the
  // MV013 diagnostic pointing at 'bounds' instead of failing in a worker.
  serve::Service service;
  const serve::Response resp =
      service.evaluate(make_request(serve::Verb::kReach, kNondetModel));
  EXPECT_EQ(resp.status, serve::Status::kInvalid);
  EXPECT_NE(resp.body.find("MV013"), std::string::npos);
  EXPECT_NE(resp.body.find("bounds"), std::string::npos);
  // The same model is perfectly valid for the bounds verb.
  EXPECT_EQ(service.evaluate(make_request(serve::Verb::kBounds, kNondetModel))
                .status,
            serve::Status::kOk);
  const serve::ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.invalid, 1u);
  EXPECT_EQ(m.solves, 1u);
}

TEST(ServeService, ControlVerbsAreHandledInline) {
  serve::Service service;
  EXPECT_EQ(service.evaluate(make_request(serve::Verb::kPing, "")).body,
            "pong");
  const serve::Response stats =
      service.evaluate(make_request(serve::Verb::kStats, ""));
  EXPECT_EQ(stats.status, serve::Status::kOk);
  EXPECT_NE(stats.body.find("serve metrics"), std::string::npos);
  EXPECT_EQ(service.evaluate(make_request(serve::Verb::kShutdown, "")).status,
            serve::Status::kError);
}

// --- socket front end ----------------------------------------------------

TEST(ServeSocket, EndToEndSolveDuplicateStatsShutdown) {
  const std::string socket_path =
      "/tmp/mvserve_test_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts;
  opts.endpoint = socket_path;
  opts.service.workers = 2;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });

  {
    serve::Client client(socket_path);
    EXPECT_EQ(client.call(make_request(serve::Verb::kPing, "")).body, "pong");

    const serve::Request solve =
        make_request(serve::Verb::kReach, kCtmcModel, "", 11);
    const serve::Response first = client.call(solve);
    ASSERT_EQ(first.status, serve::Status::kOk) << first.body;
    EXPECT_EQ(first.id, 11u);
    EXPECT_EQ(first.body, serve::solve_request(solve));

    const serve::Response dup = client.call(solve);
    EXPECT_EQ(dup.body, first.body);

    const serve::Response stats =
        client.call(make_request(serve::Verb::kStats, ""));
    EXPECT_NE(stats.body.find("cache hits"), std::string::npos);

    const serve::Response bye =
        client.call(make_request(serve::Verb::kShutdown, ""));
    EXPECT_EQ(bye.status, serve::Status::kOk);
  }
  server_thread.join();
  const serve::ServiceMetrics m = server.service().metrics();
  EXPECT_EQ(m.solves, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
}

TEST(ServeSocket, MalformedModelGetsDiagnosticsNotTimeout) {
  // A client submitting garbage must get the lint diagnostics back as an
  // immediate 'invalid' response — not kError, and certainly not a
  // kTimeout after its deadline silently expired in the queue.
  const std::string socket_path =
      "/tmp/mvserve_invalid_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts;
  opts.endpoint = socket_path;
  opts.service.workers = 1;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });

  {
    serve::Client client(socket_path);
    serve::Request bad =
        make_request(serve::Verb::kReach, "des (garbage", "", 7);
    bad.deadline = std::chrono::milliseconds(60000);
    const serve::Response resp = client.call(bad);
    EXPECT_EQ(resp.status, serve::Status::kInvalid);
    EXPECT_EQ(resp.id, 7u);
    EXPECT_NE(resp.body.find("MV010"), std::string::npos)
        << "body should carry the structured diagnostic, got: " << resp.body;
    EXPECT_NE(resp.body.find("malformed .aut model"), std::string::npos);

    const serve::Response bye =
        client.call(make_request(serve::Verb::kShutdown, ""));
    EXPECT_EQ(bye.status, serve::Status::kOk);
  }
  server_thread.join();
  const serve::ServiceMetrics m = server.service().metrics();
  EXPECT_EQ(m.invalid, 1u);
  EXPECT_EQ(m.timed_out, 0u);
  EXPECT_EQ(m.solves, 0u);
}

TEST(ServeSocket, DeepNestingFormulaIsInvalidAndServerStaysUp) {
  // 30,000 nested parentheses in one check request overflowed the stack
  // and took the server down for every client.
  const std::string socket_path =
      "/tmp/mvserve_deep_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts;
  opts.endpoint = socket_path;
  opts.service.workers = 1;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });

  {
    serve::Client client(socket_path);
    const std::string deep =
        std::string(30000, '(') + "tt" + std::string(30000, ')');
    const serve::Response resp =
        client.call(make_request(serve::Verb::kCheck, kLtsModel, deep, 5));
    EXPECT_EQ(resp.status, serve::Status::kInvalid);
    EXPECT_EQ(resp.id, 5u);
    EXPECT_NE(resp.body.find("nesting deeper than"), std::string::npos);

    EXPECT_EQ(client.call(make_request(serve::Verb::kPing, "")).body, "pong");
    const serve::Response bye =
        client.call(make_request(serve::Verb::kShutdown, ""));
    EXPECT_EQ(bye.status, serve::Status::kOk);
  }
  server_thread.join();
  EXPECT_EQ(server.service().metrics().invalid, 1u);
}

TEST(ServeSocket, OverlongLineGetsOneErrorThenEof) {
  // One byte past the line cap, with no newline: the server answers one
  // error line and closes the connection instead of buffering on.
  const std::string socket_path =
      "/tmp/mvserve_long_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts;
  opts.endpoint = socket_path;
  opts.service.workers = 1;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });

  // The server listens from its constructor on, so connect() succeeds.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  socket_path.copy(addr.sun_path, sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const timeval patience{10, 0};  // fail, rather than hang, on no reply
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof patience),
            0);
  const std::string line(serve::kMaxRequestLine + 1, 'x');
  for (std::size_t sent = 0; sent < line.size();) {
    const ssize_t k = ::send(fd, line.data() + sent, line.size() - sent, 0);
    ASSERT_GT(k, 0);
    sent += static_cast<std::size_t>(k);
  }
  std::string reply;
  char buf[256];
  for (ssize_t k = 0; (k = ::read(fd, buf, sizeof buf)) > 0;) {
    reply.append(buf, static_cast<std::size_t>(k));
  }
  ::close(fd);  // read() returned 0: the server closed the connection
  ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  ASSERT_EQ(reply.back(), '\n');
  const serve::Response error =
      serve::decode_response(reply.substr(0, reply.size() - 1));
  EXPECT_EQ(error.status, serve::Status::kError);
  EXPECT_NE(error.body.find("request line longer than"), std::string::npos);

  {
    // A new connection is served as before.
    serve::Client client(socket_path);
    EXPECT_EQ(client.call(make_request(serve::Verb::kPing, "")).body, "pong");
    const serve::Response bye =
        client.call(make_request(serve::Verb::kShutdown, ""));
    EXPECT_EQ(bye.status, serve::Status::kOk);
  }
  server_thread.join();
}

/// Lines of this process's memory map: each thread that was never joined
/// keeps its stack and guard page mapped.
std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(maps),
                 std::istreambuf_iterator<char>(), '\n'));
}

TEST(ServeSocket, SequentialConnectionsAreReaped) {
  // The accept loop joins the reader of every closed connection, so 2,000
  // connections one after another leave the mappings flat.
  const std::string socket_path =
      "/tmp/mvserve_reap_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts;
  opts.endpoint = socket_path;
  opts.service.workers = 1;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });
  const auto ping = [&socket_path] {
    serve::Client client(socket_path);
    EXPECT_EQ(client.call(make_request(serve::Verb::kPing, "")).body, "pong");
  };
  for (int i = 0; i < 10; ++i) {
    ping();
  }
  const std::size_t after_ten = mapped_regions();
  for (int i = 10; i < 2000; ++i) {
    ping();
  }
  EXPECT_LE(mapped_regions(), after_ten + 100);
  server.stop();
  server_thread.join();
}

TEST(ServeSocket, ConnectionsPastTheCapAreRefused) {
  const std::string socket_path =
      "/tmp/mvserve_cap_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts;
  opts.endpoint = socket_path;
  opts.service.workers = 1;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });
  std::vector<std::unique_ptr<serve::Client>> held;
  for (std::size_t i = 0; i < serve::kMaxConnections; ++i) {
    held.push_back(std::make_unique<serve::Client>(socket_path));
    ASSERT_EQ(held.back()->call(make_request(serve::Verb::kPing, "")).body,
              "pong");
  }

  // One past the cap: one `overloaded` line, then EOF.  Nothing is sent,
  // since a refused connection closes with the request unread.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  socket_path.copy(addr.sun_path, sizeof addr.sun_path - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const timeval patience{10, 0};  // fail, rather than hang, on no reply
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof patience),
            0);
  std::string reply;
  char buf[256];
  for (ssize_t k = 0; (k = ::read(fd, buf, sizeof buf)) > 0;) {
    reply.append(buf, static_cast<std::size_t>(k));
  }
  ::close(fd);
  ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  ASSERT_EQ(reply.back(), '\n');
  EXPECT_EQ(serve::decode_response(reply.substr(0, reply.size() - 1)).status,
            serve::Status::kOverloaded);

  // Once a held connection closes, its reader is reaped at a later accept,
  // and a new connection is served.
  held.pop_back();
  bool served = false;
  for (int attempt = 0; attempt < 1000 && !served; ++attempt) {
    try {
      serve::Client client(socket_path);
      served = client.call(make_request(serve::Verb::kPing, "")).body == "pong";
    } catch (const std::runtime_error&) {
      // Refused before the reader finished: the send raced the close.
    }
    if (!served) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(served);
  server.stop();
  server_thread.join();
}

// --- endpoint grammar ----------------------------------------------------

TEST(ServeEndpoint, GrammarSplitsTcpFromUnixPaths) {
  const serve::Endpoint tcp = serve::parse_endpoint("127.0.0.1:7500");
  EXPECT_EQ(tcp.kind, serve::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7500);
  EXPECT_EQ(tcp.to_string(), "127.0.0.1:7500");

  // Empty host means loopback; port 0 asks for an ephemeral port.
  const serve::Endpoint loop = serve::parse_endpoint(":0");
  EXPECT_EQ(loop.kind, serve::Endpoint::Kind::kTcp);
  EXPECT_EQ(loop.host, "127.0.0.1");
  EXPECT_EQ(loop.port, 0);

  const serve::Endpoint host = serve::parse_endpoint("localhost:65535");
  EXPECT_EQ(host.kind, serve::Endpoint::Kind::kTcp);
  EXPECT_EQ(host.port, 65535);

  // Anything whose last ':'-field is not a decimal port is a Unix path —
  // including paths that merely contain colons.
  for (const char* path : {"/tmp/serve.sock", "relative.sock",
                           "/tmp/with:colon/serve.sock", "host:",
                           "host:80x"}) {
    const serve::Endpoint ep = serve::parse_endpoint(path);
    EXPECT_EQ(ep.kind, serve::Endpoint::Kind::kUnix) << path;
    EXPECT_EQ(ep.to_string(), path);
  }

  EXPECT_THROW((void)serve::parse_endpoint(""), std::runtime_error);
  EXPECT_THROW((void)serve::parse_endpoint("host:65536"), std::runtime_error);
}

// --- TCP transport: framing torture --------------------------------------

namespace raw {

int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') {
      return line;
    }
    line.push_back(c);
  }
  ADD_FAILURE() << "connection closed before a full line arrived";
  return line;
}

}  // namespace raw

TEST(ServeTcp, ReassemblesByteAtATimeDelivery) {
  serve::ServerOptions opts;
  opts.endpoint = "127.0.0.1:0";
  opts.service.workers = 1;
  serve::Server server(opts);
  ASSERT_EQ(server.bound_endpoint().kind, serve::Endpoint::Kind::kTcp);
  ASSERT_NE(server.bound_endpoint().port, 0);  // ephemeral port was read back
  std::thread server_thread([&server] { server.run(); });

  const serve::Request solve =
      make_request(serve::Verb::kReach, kCtmcModel, "", 5);
  const std::string wire = serve::encode_request(solve) + "\n";
  const int fd = raw::connect_tcp(server.bound_endpoint().port);
  for (const char c : wire) {  // worst-case packetisation
    ASSERT_EQ(::send(fd, &c, 1, 0), 1);
  }
  const serve::Response resp = serve::decode_response(raw::read_line(fd));
  EXPECT_EQ(resp.id, 5u);
  EXPECT_EQ(resp.status, serve::Status::kOk) << resp.body;
  EXPECT_EQ(resp.body, serve::solve_request(solve));
  ::close(fd);

  server.stop();
  server_thread.join();
}

TEST(ServeTcp, SplitsTwoRequestsCoalescedIntoOneSegment) {
  serve::ServerOptions opts;
  opts.endpoint = "localhost:0";
  opts.service.workers = 1;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });

  const serve::Request a = make_request(serve::Verb::kReach, kCtmcModel,
                                        "0.5", 21);
  const serve::Request b =
      make_request(serve::Verb::kBounds, kNondetModel, "", 22);
  const std::string wire =
      serve::encode_request(a) + "\n" + serve::encode_request(b) + "\n";
  const int fd = raw::connect_tcp(server.bound_endpoint().port);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  // Both responses arrive (possibly out of request order); match by id.
  std::string body_a;
  std::string body_b;
  for (int i = 0; i < 2; ++i) {
    const serve::Response r = serve::decode_response(raw::read_line(fd));
    EXPECT_EQ(r.status, serve::Status::kOk) << r.body;
    (r.id == 21 ? body_a : body_b) = r.body;
  }
  EXPECT_EQ(body_a, serve::solve_request(a));
  EXPECT_EQ(body_b, serve::solve_request(b));
  ::close(fd);

  server.stop();
  server_thread.join();
}

TEST(ServeTcp, SurvivesClientDisconnectMidResponse) {
  serve::ServerOptions opts;
  opts.endpoint = "127.0.0.1:0";
  opts.service.workers = 1;
  serve::Server server(opts);
  std::thread server_thread([&server] { server.run(); });
  const std::string endpoint = server.bound_endpoint().to_string();

  {
    // Submit a solve and vanish before the response can be written; the
    // server must absorb the broken pipe, not die or wedge.
    const int fd = raw::connect_tcp(server.bound_endpoint().port);
    const std::string wire =
        serve::encode_request(make_request(serve::Verb::kReach, kCtmcModel)) +
        "\n";
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    ::close(fd);
  }

  // The server keeps serving new connections afterwards.
  serve::Client client(endpoint, std::chrono::milliseconds(2000));
  EXPECT_EQ(client.call(make_request(serve::Verb::kPing, "")).body, "pong");
  const serve::Response bye =
      client.call(make_request(serve::Verb::kShutdown, ""));
  EXPECT_EQ(bye.status, serve::Status::kOk);
  server_thread.join();
}

// --- client receive deadline (hung-server regression) ---------------------

TEST(ServeClientDeadline, HungServerRaisesClientTimeoutNotForeverBlock) {
  // A listener that accepts (via the kernel backlog) but never replies:
  // before the receive deadline existed, Client::call blocked in recv()
  // forever here.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  serve::Client client(endpoint, std::chrono::milliseconds{0},
                       std::chrono::milliseconds{200});
  serve::Request r = make_request(serve::Verb::kPing, "");
  r.deadline = std::chrono::milliseconds(100);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.call(r), serve::ClientTimeout);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));  // deadline, not forever
  ::close(lfd);
}

// --- consistent-hash router ----------------------------------------------

TEST(ServeRouter, OwnerIsDeterministicAndPreferenceCoversAllReplicas) {
  const std::vector<std::string> eps = {"/tmp/a.sock", "127.0.0.1:7501",
                                        "/tmp/c.sock"};
  serve::Router r1(eps);
  serve::Router r2(eps);  // independent instance, same ring
  for (int i = 0; i < 64; ++i) {
    serve::Hasher h;
    h.u64(static_cast<std::uint64_t>(i));
    const serve::CacheKey key = h.key();
    EXPECT_EQ(r1.owner(key), r2.owner(key));
    const std::vector<std::size_t> pref = r1.preference(key);
    ASSERT_EQ(pref.size(), eps.size());
    EXPECT_EQ(pref.front(), r1.owner(key));
    std::vector<bool> seen(eps.size(), false);
    for (const std::size_t rep : pref) {
      ASSERT_LT(rep, eps.size());
      EXPECT_FALSE(seen[rep]);  // each replica exactly once
      seen[rep] = true;
    }
  }
  // With 3 replicas and 64 spread-out keys, every replica owns something.
  std::vector<std::size_t> owned(eps.size(), 0);
  for (int i = 0; i < 64; ++i) {
    serve::Hasher h;
    h.u64(static_cast<std::uint64_t>(i));
    ++owned[r1.owner(h.key())];
  }
  for (const std::size_t count : owned) {
    EXPECT_GT(count, 0u);
  }
}

TEST(ServeRouter, RoutesFallOverToNextRingNodeAndRecover) {
  serve::RouterOptions opts;
  opts.down_cooldown = std::chrono::hours(1);  // no auto-recovery mid-test
  serve::Router router({"/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"}, opts);
  serve::Hasher h;
  h.str("some model digest");
  const serve::CacheKey key = h.key();
  const std::vector<std::size_t> pref = router.preference(key);

  EXPECT_EQ(router.route(key), pref[0]);
  router.mark_down(pref[0]);
  EXPECT_TRUE(router.is_down(pref[0]));
  EXPECT_EQ(router.route(key), pref[1]);  // next distinct ring node
  router.mark_down(pref[1]);
  EXPECT_EQ(router.route(key), pref[2]);
  router.mark_down(pref[2]);
  EXPECT_THROW((void)router.route(key), std::runtime_error);
  router.mark_up(pref[0]);
  EXPECT_EQ(router.route(key), pref[0]);
}

TEST(ServeRouter, RejectsEmptyAndDuplicateEndpoints) {
  EXPECT_THROW(serve::Router({}), std::runtime_error);
  EXPECT_THROW(serve::Router({"/tmp/a.sock", "/tmp/a.sock"}),
               std::runtime_error);
}

TEST(ServeRouter, RoutedClientSendsIdenticalModelsToTheOwningReplica) {
  // Two live replicas: every call for one content key lands on its ring
  // owner (locality 1.0, one replica solves, the other never sees it);
  // after the owner dies the same key fails over and still succeeds.
  const std::string base = "/tmp/mvserve_route_" + std::to_string(::getpid());
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::thread> threads;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    serve::ServerOptions opts;
    opts.endpoint = base + "_" + std::to_string(i) + ".sock";
    opts.service.workers = 1;
    servers.push_back(std::make_unique<serve::Server>(opts));
    endpoints.push_back(opts.endpoint);
  }
  for (auto& s : servers) {
    threads.emplace_back([&s] { s->run(); });
  }

  auto router = std::make_shared<serve::Router>(endpoints);
  serve::RoutedClient client(router, std::chrono::milliseconds(2000));
  const serve::Request solve = make_request(serve::Verb::kReach, kCtmcModel);
  const std::size_t owner =
      router->owner(serve::prepare_request(solve).key);

  const serve::Response first = client.call(solve);
  ASSERT_EQ(first.status, serve::Status::kOk) << first.body;
  const serve::Response dup = client.call(solve);
  EXPECT_EQ(dup.body, first.body);
  EXPECT_EQ(client.stats().primary, 2u);
  EXPECT_EQ(client.stats().failover, 0u);
  EXPECT_DOUBLE_EQ(client.stats().locality(), 1.0);
  EXPECT_EQ(servers[owner]->service().metrics().solves, 1u);
  EXPECT_EQ(servers[owner]->service().metrics().cache_hits, 1u);
  EXPECT_EQ(servers[1 - owner]->service().metrics().solves, 0u);

  // Kill the owner: the same request must fail over to the survivor.
  servers[owner]->stop();
  threads[owner].join();
  const serve::Response after = client.call(solve);
  EXPECT_EQ(after.status, serve::Status::kOk) << after.body;
  EXPECT_EQ(after.body, first.body);  // byte-identical from the other replica
  EXPECT_GE(client.stats().failover, 1u);
  EXPECT_TRUE(router->is_down(owner));
  EXPECT_EQ(servers[1 - owner]->service().metrics().solves, 1u);

  servers[1 - owner]->stop();
  threads[1 - owner].join();
}

// --- one flight per solve ------------------------------------------------

TEST(ServeService, SameModelFlightsAreSolvedOneByOne) {
  // Hold the single worker on a blocker while four same-model reach
  // requests (different time bounds) queue up behind it; on release the
  // worker must solve each one on its own, byte-identical to the direct
  // solves.
  constexpr int kSweep = 4;
  std::counting_semaphore<kSweep + 2> gate(0);
  serve::ServiceOptions opts;
  opts.workers = 1;
  opts.pre_solve_hook = [&gate](const serve::CacheKey&) { gate.acquire(); };
  serve::Service service(opts);

  auto blocker =
      service.submit(make_request(serve::Verb::kBounds, kNondetModel));
  const char* bounds[kSweep] = {"0.25", "0.5", "", "2.0"};
  std::vector<serve::Request> requests;
  std::vector<std::shared_future<serve::Response>> futures;
  for (int i = 0; i < kSweep; ++i) {
    requests.push_back(make_request(serve::Verb::kReach, kCtmcModel,
                                    bounds[i],
                                    static_cast<std::uint64_t>(i + 2)));
    futures.push_back(service.submit(requests.back()));
  }
  gate.release(kSweep + 1);  // one for the blocker, one per queued flight

  EXPECT_EQ(blocker.get().status, serve::Status::kOk);
  for (int i = 0; i < kSweep; ++i) {
    const serve::Response resp = futures[i].get();
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.body;
    EXPECT_EQ(resp.body, serve::solve_request(requests[i]))
        << "served result must be byte-identical to the direct solve";
  }
  EXPECT_EQ(service.metrics().solves, static_cast<std::uint64_t>(kSweep) + 1);
}

// --- disk-tier tmp sweep -------------------------------------------------

TEST(ServeCache, StaleTmpFilesAreSweptOnOpenFreshOnesKept) {
  const std::string dir = testing::TempDir() + "serve_cache_tmp_sweep";
  ::mkdir(dir.c_str(), 0755);
  serve::ResultCache::Options opts;
  opts.disk_dir = dir;

  // A published entry, written the normal way.
  serve::Hasher h;
  h.str("published-key");
  const serve::CacheKey key = h.key();
  {
    serve::ResultCache cache(opts);
    cache.insert(key, "kept payload");
  }

  // An orphaned temporary from a crashed writer: old enough to sweep.
  const std::string stale = dir + "/" + key.hex() + ".mvcr.tmp.99999.0";
  { std::ofstream(stale) << "half-written"; }
  timespec old_times[2];
  old_times[0].tv_sec = std::time(nullptr) - 3600;
  old_times[0].tv_nsec = 0;
  old_times[1] = old_times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, stale.c_str(), old_times, 0), 0);

  // A *fresh* temporary: could be a live writer mid-publish, must survive.
  const std::string fresh = dir + "/" + key.hex() + ".mvcr.tmp.99999.1";
  { std::ofstream(fresh) << "in flight"; }

  serve::ResultCache cache(opts);
  EXPECT_EQ(cache.stats().tmp_swept, 1u);
  EXPECT_NE(::access(stale.c_str(), F_OK), 0);  // swept
  EXPECT_EQ(::access(fresh.c_str(), F_OK), 0);  // kept
  const auto hit = cache.lookup(key);           // published entry untouched
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "kept payload");
  ::unlink(fresh.c_str());
}

}  // namespace
