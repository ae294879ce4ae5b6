// The execution-engine determinism suite.
//
// The ShardedEngine's contract is bit-identical output to the
// SerialEngine for the same config and seed: the same samples, the same
// estimates, and the same logical message counters (total, direction,
// per type, per node, bytes). This file holds that contract across every
// protocol the sharded engine deploys, at several seeds, plus the
// ShardRouter partition/coverage properties and the sharded-coordinator
// query merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "baseline/baseline_system.h"
#include "core/checkpoint.h"
#include "core/shard_router.h"
#include "core/system.h"
#include "net/sim_network.h"
#include "query/estimators.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

using sim::ListSource;

/// Infinite-window shaped stream: slot == arrival index (the
/// partitioner's convention), uniform sites, duplicate-heavy domain.
std::vector<sim::Arrival> infinite_stream(std::uint32_t sites, std::uint64_t n,
                                          std::uint64_t domain,
                                          std::uint64_t seed) {
  util::SplitMix64 gen(seed);
  std::vector<sim::Arrival> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(sim::Arrival{static_cast<sim::Slot>(i),
                               static_cast<sim::NodeId>(gen.next() % sites),
                               1 + gen.next() % domain});
  }
  return out;
}

/// Sliding-window shaped stream: `per_slot` arrivals in every slot.
std::vector<sim::Arrival> slotted_stream(std::uint32_t sites, sim::Slot slots,
                                         std::uint32_t per_slot,
                                         std::uint64_t domain,
                                         std::uint64_t seed) {
  util::SplitMix64 gen(seed);
  std::vector<sim::Arrival> out;
  out.reserve(static_cast<std::size_t>(slots) * per_slot);
  for (sim::Slot t = 0; t < slots; ++t) {
    for (std::uint32_t a = 0; a < per_slot; ++a) {
      out.push_back(sim::Arrival{t,
                                 static_cast<sim::NodeId>(gen.next() % sites),
                                 1 + gen.next() % domain});
    }
  }
  return out;
}

/// Everything the determinism contract covers, byte for byte.
struct Fingerprint {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sample;  // (elem, hash)
  double estimate = 0.0;
  std::uint64_t processed = 0;
  std::uint64_t total = 0;
  std::uint64_t site_to_coordinator = 0;
  std::uint64_t coordinator_to_site = 0;
  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> by_type;
  std::vector<std::uint64_t> sent_by;

  bool operator==(const Fingerprint&) const = default;
};

template <typename System, typename SampleFn>
Fingerprint fingerprint_run(System& system,
                            const std::vector<sim::Arrival>& arrivals,
                            SampleFn sample_fn) {
  ListSource source(arrivals);
  Fingerprint fp;
  fp.processed = system.run(source);
  fp.sample = sample_fn(system);
  const net::BusCounters& c = system.bus().counters();
  fp.total = c.total;
  fp.site_to_coordinator = c.site_to_coordinator;
  fp.coordinator_to_site = c.coordinator_to_site;
  fp.bytes = c.bytes;
  fp.by_type.assign(c.by_type.begin(), c.by_type.end());
  for (sim::NodeId id = 0;
       id < system.bus().num_sites() + system.bus().num_coordinators(); ++id) {
    fp.sent_by.push_back(system.bus().sent_by(id));
  }
  return fp;
}

/// Builds the system twice — serial and 4-thread sharded-engine — and
/// expects identical fingerprints. Returns the serial fingerprint.
template <typename MakeSystem, typename SampleFn>
void expect_engine_identical(MakeSystem make_system, SampleFn sample_fn,
                             const std::vector<sim::Arrival>& arrivals) {
  auto serial = make_system(/*num_threads=*/1);
  ASSERT_STREQ(serial->runner().name(), "serial");
  const Fingerprint want = fingerprint_run(*serial, arrivals, sample_fn);

  auto sharded = make_system(/*num_threads=*/4);
  ASSERT_STREQ(sharded->runner().name(), "sharded");
  ASSERT_GT(sharded->runner().num_threads(), 1u);
  const Fingerprint got = fingerprint_run(*sharded, arrivals, sample_fn);

  EXPECT_EQ(want, got);
}

constexpr std::uint32_t kSites = 13;  // not a multiple of the thread count
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(ShardedEngineDeterminism, InfiniteFaithful) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 20000, 3000, seed * 77 + 5);
    expect_engine_identical(
        [&](std::uint32_t threads) {
          core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2,
                                    seed};
          config.num_threads = threads;
          return std::make_unique<core::InfiniteSystem>(config);
        },
        [](core::InfiniteSystem& s) {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
          for (const auto& e : s.coordinator().sample().entries()) {
            out.emplace_back(e.element, e.hash);
          }
          return out;
        },
        arrivals);
  }
}

TEST(ShardedEngineDeterminism, InfiniteSuppressDuplicatesAndEstimate) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 20000, 800, seed * 31 + 1);
    // Also pins the estimator output byte-for-byte.
    expect_engine_identical(
        [&](std::uint32_t threads) {
          core::SystemConfig config{kSites, 12, hash::HashKind::kMurmur3,
                                    seed};
          config.num_threads = threads;
          return std::make_unique<core::InfiniteSystem>(
              config, /*eager_threshold=*/true, /*suppress_duplicates=*/true);
        },
        [](core::InfiniteSystem& s) {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
          out.emplace_back(
              0, static_cast<std::uint64_t>(
                     query::estimate_distinct(s.coordinator().sample()) * 1e6));
          for (const auto& e : s.coordinator().sample().entries()) {
            out.emplace_back(e.element, e.hash);
          }
          return out;
        },
        arrivals);
  }
}

TEST(ShardedEngineDeterminism, WithReplacement) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 1500, seed * 13 + 7);
    expect_engine_identical(
        [&](std::uint32_t threads) {
          core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, seed};
          config.num_threads = threads;
          return std::make_unique<core::WithReplacementSystem>(config);
        },
        [](core::WithReplacementSystem& s) {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
          for (const auto e : s.coordinator().sample()) out.emplace_back(e, 0);
          return out;
        },
        arrivals);
  }
}

TEST(ShardedEngineDeterminism, SlidingSingleAndMultiCopy) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::size_t s : {std::size_t{1}, std::size_t{3}}) {
      const auto arrivals =
          slotted_stream(kSites, /*slots=*/300, /*per_slot=*/6, 500,
                         seed * 101 + s);
      expect_engine_identical(
          [&](std::uint32_t threads) {
            core::SlidingSystemConfig config;
            config.num_sites = kSites;
            config.window = 40;
            config.sample_size = s;
            config.seed = seed;
            config.num_threads = threads;
            return std::make_unique<core::SlidingSystem>(config);
          },
          [](core::SlidingSystem& sys) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
            const auto sample =
                sys.coordinator().sample(sys.runner().current_slot());
            for (const auto e : sample) out.emplace_back(e, 0);
            out.emplace_back(sys.total_site_state(), sys.max_site_state());
            return out;
          },
          arrivals);
    }
  }
}

TEST(ShardedEngineDeterminism, CentralizedAndDrsBaselines) {
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 4000, 900, seed * 3 + 11);
    expect_engine_identical(
        [&](std::uint32_t threads) {
          core::SystemConfig config{kSites, 10, hash::HashKind::kMurmur2,
                                    seed};
          config.num_threads = threads;
          return std::make_unique<baseline::CentralizedSystem>(config);
        },
        [](baseline::CentralizedSystem& s) {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
          for (const auto& e : s.coordinator().sample().entries()) {
            out.emplace_back(e.element, e.hash);
          }
          return out;
        },
        arrivals);
    expect_engine_identical(
        [&](std::uint32_t threads) {
          core::SystemConfig config{kSites, 10, hash::HashKind::kMurmur2,
                                    seed};
          config.num_threads = threads;
          return std::make_unique<baseline::DrsSystem>(config);
        },
        [](baseline::DrsSystem& s) {
          std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
          for (const auto e : s.coordinator().sample()) out.emplace_back(e, 0);
          return out;
        },
        arrivals);
  }
}

TEST(ShardedEngineDeterminism, ObserverSeesIdenticalCheckpoints) {
  const auto arrivals = infinite_stream(kSites, 5000, 700, 99);
  auto checkpoints = [&](std::uint32_t threads) {
    core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, 4};
    config.num_threads = threads;
    core::InfiniteSystem system(config);
    std::vector<std::uint64_t> seen;
    system.runner().set_observer(777, [&](const sim::Progress& p) {
      seen.push_back(p.elements_processed);
      seen.push_back(system.bus().counters().total);
      seen.push_back(p.final_snapshot ? 1 : 0);
    });
    ListSource source(arrivals);
    system.run(source);
    return seen;
  };
  EXPECT_EQ(checkpoints(1), checkpoints(4));
}

TEST(ShardedEngine, BroadcastFallsBackToSerial) {
  core::SystemConfig config{8, 8, hash::HashKind::kMurmur2, 3};
  config.num_threads = 4;
  baseline::BroadcastSystem system(config);
  EXPECT_STREQ(system.runner().name(), "serial");
}

TEST(ShardedEngine, PositiveHorizonWireDeploysLockstep) {
  // A latency wire certifies a positive delivery horizon, so the
  // sharded engine's lockstep mode takes it — no serial fallback.
  core::SystemConfig config{8, 8, hash::HashKind::kMurmur2, 3};
  config.num_threads = 4;
  config.network.link.latency = 1.5;
  core::InfiniteSystem system(config);
  EXPECT_STREQ(system.runner().name(), "sharded");
  EXPECT_GT(system.bus().delivery_horizon(), 0.0);
}

TEST(ShardedEngine, ZeroHorizonWireFallsBackToSerial) {
  // Normal jitter clamps at zero delay — no positive bound exists, so
  // lockstep is ineligible and the deployment stays serial.
  core::SystemConfig config{8, 8, hash::HashKind::kMurmur2, 3};
  config.num_threads = 4;
  config.network.link.jitter_stddev = 0.5;
  core::InfiniteSystem system(config);
  EXPECT_STREQ(system.runner().name(), "serial");
  EXPECT_EQ(system.bus().delivery_horizon(), 0.0);
}

TEST(ShardedEngine, ThreadsClampToSiteCount) {
  core::SystemConfig config{3, 8, hash::HashKind::kMurmur2, 3};
  config.num_threads = 16;
  core::InfiniteSystem system(config);
  EXPECT_STREQ(system.runner().name(), "sharded");
  EXPECT_EQ(system.runner().num_threads(), 3u);
}

TEST(ShardedEngine, EmptyStreamAndAdvance) {
  core::SlidingSystemConfig config;
  config.num_sites = 4;
  config.num_threads = 4;
  core::SlidingSystem system(config);
  ListSource empty({});
  EXPECT_EQ(system.run(empty), 0u);
  system.runner().advance_to_slot(7);
  EXPECT_EQ(system.runner().current_slot(), 7);
}

// ------------------------------------------------------------ router --

TEST(ShardRouter, CoversAllShardsRoughlyEvenly) {
  const std::uint32_t shards = 8;
  core::ShardRouter router(shards, /*seed=*/5);
  std::vector<std::uint64_t> owned(shards, 0);
  util::SplitMix64 gen(123);
  const std::uint64_t probes = 200000;
  for (std::uint64_t i = 0; i < probes; ++i) ++owned[router.shard_of(gen.next())];
  for (std::uint32_t j = 0; j < shards; ++j) {
    // Every shard owns a nontrivial slice: within 3x either way of fair.
    EXPECT_GT(owned[j], probes / shards / 3) << "shard " << j;
    EXPECT_LT(owned[j], probes * 3 / shards) << "shard " << j;
  }
}

TEST(ShardRouter, DeterministicAndStableAcrossInstances) {
  core::ShardRouter a(6, 42), b(6, 42);
  util::SplitMix64 gen(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t e = gen.next();
    EXPECT_EQ(a.shard_of(e), b.shard_of(e));
  }
}

TEST(ShardRouter, ResizeRemapsOnlyAFraction) {
  core::ShardRouter small(4, 9), big(5, 9);
  // Consistent hashing: going 4 -> 5 shards should move roughly 1/5 of
  // the space, and certainly far less than a modulo repartition (~4/5).
  const double moved = small.disagreement(big, 100000);
  EXPECT_GT(moved, 0.05);
  EXPECT_LT(moved, 0.45);
}

TEST(ShardRouter, RejectsZeroShards) {
  EXPECT_THROW(core::ShardRouter(0), std::invalid_argument);
}

// ------------------------------------------- sharded coordinator -----

TEST(ShardedCoordinator, InfiniteMergedSampleIsExact) {
  const auto arrivals = infinite_stream(10, 30000, 5000, 17);
  core::SystemConfig config{10, 24, hash::HashKind::kMurmur2, 6};
  core::InfiniteSystem reference(config);
  {
    ListSource source(arrivals);
    reference.run(source);
  }
  const auto want = reference.coordinator().sample().entries();
  ASSERT_FALSE(want.empty());

  for (const std::uint32_t shards : {2u, 4u}) {
    core::SystemConfig sharded_config = config;
    sharded_config.num_shards = shards;
    core::InfiniteSystem sharded(sharded_config);
    EXPECT_EQ(sharded.bus().num_coordinators(), shards);
    ListSource source(arrivals);
    sharded.run(source);
    // The query-time merge across shards is the exact global bottom-s.
    const auto got = sharded.sample().entries();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].element, want[i].element);
      EXPECT_EQ(got[i].hash, want[i].hash);
    }
    // The estimator sees the identical merged sketch.
    EXPECT_DOUBLE_EQ(query::estimate_distinct(sharded.sample()),
                     query::estimate_distinct(reference.coordinator().sample()));
  }
}

TEST(ShardedCoordinator, PerShardCountersPartitionTheTotal) {
  const auto arrivals = infinite_stream(8, 12000, 2500, 23);
  core::SystemConfig config{8, 16, hash::HashKind::kMurmur2, 9};
  config.num_shards = 4;
  core::InfiniteSystem system(config);
  ListSource source(arrivals);
  system.run(source);

  std::uint64_t total = 0, bytes = 0;
  for (std::uint32_t j = 0; j < 4; ++j) {
    const auto& c = system.bus().coordinator_counters(j);
    EXPECT_GT(c.total, 0u) << "shard " << j << " saw no traffic";
    total += c.total;
    bytes += c.bytes;
  }
  EXPECT_EQ(total, system.bus().counters().total);
  EXPECT_EQ(bytes, system.bus().counters().bytes);
  EXPECT_THROW(system.bus().coordinator_counters(4), std::out_of_range);
}

/// Everything a deployment's wire and answers expose, for differential
/// comparison of two drives of the same arrivals.
struct InfiniteFingerprint {
  std::vector<std::array<std::uint64_t, 6>> trace;  // every logical send
  std::vector<std::uint64_t> counters;
  std::vector<std::vector<std::uint64_t>> samples;  // merged, then per shard

  bool operator==(const InfiniteFingerprint&) const = default;
};

void fold_state(core::InfiniteSystem& system, InfiniteFingerprint& fp) {
  const auto& c = system.bus().counters();
  fp.counters.insert(fp.counters.end(), {c.total, c.site_to_coordinator,
                                         c.coordinator_to_site, c.bytes});
  fp.counters.insert(fp.counters.end(), c.by_type.begin(), c.by_type.end());
  fp.samples.push_back(system.sample().elements());
  for (std::uint32_t j = 0; j < system.num_shards(); ++j) {
    fp.samples.push_back(system.coordinator(j).sample().elements());
  }
}

TEST(ShardedCoordinator, ThresholdFilterMatchesDirectOwnerDrive) {
  // RoutedSite drops an infinite-window arrival when its hash is at or
  // above every copy's u_i. That must be invisible: the routed run has
  // to send exactly what driving the owner copy directly sends, through
  // a shard outage, a checkpoint restore with its u = 1 reset broadcast,
  // a site reset, and an elastic grow and shrink that rebuild every copy.
  const std::uint32_t kSites = 6;
  const auto arrivals = infinite_stream(kSites, 16000, 1200, 41);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const bool suppress : {false, true}) {
      for (const bool eager : {false, true}) {
        auto drive = [&](bool routed) {
          core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, 17};
          config.num_shards = shards;
          config.elastic = true;
          core::InfiniteSystem system(config, eager, suppress);
          InfiniteFingerprint fp;
          system.bus().set_tap([&](const sim::Message& m) {
            fp.trace.push_back({m.from, m.to, static_cast<std::uint64_t>(m.type),
                                m.instance, m.a, m.b});
          });
          std::size_t next = 0;
          auto feed = [&](std::size_t count) {
            const std::size_t end = std::min(arrivals.size(), next + count);
            if (routed) {
              std::vector<sim::Arrival> phase(arrivals.begin() + next,
                                              arrivals.begin() + end);
              ListSource source(phase);
              system.run(source);
            } else {
              for (std::size_t i = next; i < end; ++i) {
                const sim::Arrival& a = arrivals[i];
                system.site(a.site, system.router().owner(a.element))
                    .on_element(a.element, a.slot, system.bus());
                system.bus().drain();
              }
              system.bus().finish();
            }
            next = end;
            fold_state(system, fp);
          };
          const std::uint32_t victim = shards - 1;
          feed(3000);
          const auto image = core::checkpoint(system.coordinator(victim));
          system.kill_shard(victim);
          feed(1500);  // reports to the dead shard go unanswered
          system.respawn_shard(victim);
          EXPECT_TRUE(core::restore_into(system.coordinator_mut(victim), image));
          core::resync_sites(system.bus().coordinator_id(victim), system.bus());
          system.bus().finish();
          feed(3000);
          system.resync_shard(0);
          feed(2500);
          system.add_shard();
          feed(3000);
          system.remove_shard();
          feed(3000);
          return fp;
        };
        const InfiniteFingerprint direct = drive(false);
        const InfiniteFingerprint routed = drive(true);
        EXPECT_GT(direct.trace.size(), 0u);
        EXPECT_TRUE(routed == direct)
            << "shards " << shards << " suppress " << suppress << " eager "
            << eager << ": routed sent " << routed.trace.size()
            << " messages, direct " << direct.trace.size();
      }
    }
  }
}

TEST(ShardedCoordinator, InfiniteElasticResizeKeepsTheMergeExact) {
  // The infinite protocol's live resize migrates the shard samples
  // (sites hold only u_i): the merged answer must stay the global
  // bottom-s through a grow and a shrink.
  const auto arrivals = infinite_stream(5, 9000, 3000, 43);
  core::SystemConfig config{5, 12, hash::HashKind::kMurmur2, 29};
  core::InfiniteSystem reference(config);
  config.num_shards = 2;
  core::InfiniteSystem elastic(config);
  for (std::size_t phase = 0; phase < 3; ++phase) {
    std::vector<sim::Arrival> part(arrivals.begin() + phase * 3000,
                                   arrivals.begin() + (phase + 1) * 3000);
    ListSource a(part);
    reference.run(a);
    ListSource b(part);
    elastic.run(b);
    ASSERT_EQ(reference.sample().entries().size(),
              elastic.sample().entries().size());
    EXPECT_EQ(reference.sample().elements(), elastic.sample().elements())
        << "phase " << phase;
    if (phase == 0) elastic.add_shard();
    if (phase == 1) elastic.remove_shard();
  }
  EXPECT_EQ(elastic.num_shards(), 2u);
  core::SystemConfig unshardable{5, 4, hash::HashKind::kMurmur2, 29};
  unshardable.num_shards = 2;
  core::WithReplacementSystem with_replacement(unshardable);
  EXPECT_THROW(with_replacement.add_shard(), std::logic_error);
}

TEST(ShardedCoordinator, WithReplacementMergedSampleMatchesUnsharded) {
  const auto arrivals = infinite_stream(6, 8000, 2000, 29);
  core::SystemConfig config{6, 6, hash::HashKind::kMurmur2, 12};
  core::WithReplacementSystem reference(config);
  {
    ListSource source(arrivals);
    reference.run(source);
  }
  core::SystemConfig sharded_config = config;
  sharded_config.num_shards = 3;
  core::WithReplacementSystem sharded(sharded_config);
  {
    ListSource source(arrivals);
    sharded.run(source);
  }
  // Copy j's min-hash element is partition-independent, so the merged
  // with-replacement sample equals the single-coordinator one.
  EXPECT_EQ(sharded.sample(), reference.coordinator().sample());
}

TEST(ShardedCoordinator, ShardedPlusThreadedStaysDeterministic) {
  const auto arrivals = infinite_stream(kSites, 15000, 2600, 31);
  auto run_once = [&](std::uint32_t threads) {
    core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2, 21};
    config.num_shards = 3;
    config.num_threads = threads;
    core::InfiniteSystem system(config);
    ListSource source(arrivals);
    system.run(source);
    Fingerprint fp;
    fp.total = system.bus().counters().total;
    fp.bytes = system.bus().counters().bytes;
    for (const auto& e : system.sample().entries()) {
      fp.sample.emplace_back(e.element, e.hash);
    }
    return fp;
  };
  const Fingerprint serial = run_once(1);
  const Fingerprint sharded = run_once(4);
  EXPECT_EQ(serial, sharded);
}

TEST(ShardedCoordinator, UnshardableProtocolsRejectShards) {
  // Broadcast replies fan out to every site and DRS draws a fresh tag
  // per occurrence — neither has an element partition to shard over.
  // (The sliding protocols DO shard now; see sliding_shard_test.cpp.)
  core::SystemConfig config{8, 8, hash::HashKind::kMurmur2, 3};
  config.num_shards = 2;
  EXPECT_THROW(baseline::BroadcastSystem system(config),
               std::invalid_argument);
  EXPECT_THROW(baseline::DrsSystem system(config), std::invalid_argument);
}

// ---------------------------------------------- lockstep (real wires) --

/// Fingerprint of a run on a realistic wire: the full logical message
/// trace (every send, in order, via the tap), wire + logical counters,
/// and the network pathology statistics. Lockstep's contract is that
/// every entry matches the serial engine bit for bit.
struct WireFingerprint {
  std::vector<std::uint64_t> trace;
  std::uint64_t wire_total = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t logical_total = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t batches_flushed = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sample;

  bool operator==(const WireFingerprint&) const = default;
};

template <typename System, typename SampleFn>
WireFingerprint wire_fingerprint_run(System& system,
                                     const std::vector<sim::Arrival>& arrivals,
                                     SampleFn sample_fn) {
  WireFingerprint fp;
  system.bus().set_tap([&fp](const sim::Message& m) {
    fp.trace.push_back((static_cast<std::uint64_t>(m.from) << 40) |
                       (static_cast<std::uint64_t>(m.to) << 8) |
                       static_cast<std::uint64_t>(m.type));
    fp.trace.push_back(m.a ^ (m.b * 3) ^ (m.c * 7) ^ m.instance);
  });
  ListSource source(arrivals);
  system.run(source);
  fp.wire_total = system.bus().counters().total;
  fp.wire_bytes = system.bus().counters().bytes;
  auto* net = dynamic_cast<net::SimNetwork*>(&system.bus());
  fp.logical_total = net->logical_counters().total;
  fp.drops = net->stats().drops;
  fp.retransmissions = net->stats().retransmissions;
  fp.batches_flushed = net->stats().batches_flushed;
  fp.sample = sample_fn(system);
  return fp;
}

TEST(ShardedEngineLockstep, SlidingOverLossyWireMatchesSerial) {
  // The acceptance wire: latency + jitter + Bernoulli loss with
  // retransmission. Traces, counters, and samples must equal the
  // serial engine's, and the engine must actually be the sharded one.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals =
        slotted_stream(kSites, /*slots=*/250, /*per_slot=*/5, 300, seed * 7);
    auto run_once = [&](std::uint32_t threads) {
      core::SlidingSystemConfig config;
      config.num_sites = kSites;
      config.window = 30;
      config.sample_size = 2;
      config.seed = seed;
      config.num_threads = threads;
      config.network.link.latency = 1.5;
      config.network.link.jitter = 0.75;
      config.network.link.drop_rate = 0.05;
      config.network.link.retransmit = true;
      core::SlidingSystem system(config);
      EXPECT_STREQ(system.runner().name(), threads > 1 ? "sharded" : "serial");
      return wire_fingerprint_run(
          system, arrivals, [](core::SlidingSystem& s) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
            for (const auto e :
                 s.coordinator().sample(s.runner().current_slot())) {
              out.emplace_back(e, 0);
            }
            return out;
          });
    };
    const WireFingerprint want = run_once(1);
    const WireFingerprint got = run_once(4);
    EXPECT_GT(want.drops, 0u) << "wire not lossy enough to prove anything";
    EXPECT_EQ(want, got);
  }
}

TEST(ShardedEngineLockstep, InfiniteOverLatencyJitterWireMatchesSerial) {
  // The slot-per-arrival shape: lockstep waves span slots up to the
  // delivery horizon instead of one slot each.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 900, seed * 13 + 2);
    auto run_once = [&](std::uint32_t threads) {
      core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, seed};
      config.num_threads = threads;
      config.network.link.latency = 2.0;
      config.network.link.jitter = 1.0;
      config.network.link.drop_rate = 0.03;
      core::InfiniteSystem system(config);
      EXPECT_STREQ(system.runner().name(), threads > 1 ? "sharded" : "serial");
      return wire_fingerprint_run(
          system, arrivals, [](core::InfiniteSystem& s) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
            for (const auto& e : s.coordinator().sample().entries()) {
              out.emplace_back(e.element, e.hash);
            }
            return out;
          });
    };
    EXPECT_EQ(run_once(1), run_once(4));
  }
}

TEST(ShardedEngineLockstep, BatchedShardedSlidingOverWireMatchesSerial) {
  // Everything at once: report batching + coordinator sharding + the
  // lossy wire + worker threads — the end-to-end "sharded sliding over
  // a realistic wire" configuration abl12 measures.
  const auto arrivals = slotted_stream(kSites, 220, 5, 260, 77);
  auto run_once = [&](std::uint32_t threads) {
    core::SlidingSystemConfig config;
    config.num_sites = kSites;
    config.window = 25;
    config.sample_size = 2;
    config.seed = 5;
    config.num_threads = threads;
    config.num_shards = 2;
    config.network.link.latency = 1.25;
    config.network.link.drop_rate = 0.04;
    config.network.batch_interval = 3;
    config.network.batch_max_msgs = 8;
    core::SlidingSystem system(config);
    EXPECT_STREQ(system.runner().name(), threads > 1 ? "sharded" : "serial");
    return wire_fingerprint_run(system, arrivals, [](core::SlidingSystem& s) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      for (const auto e : s.sample(s.runner().current_slot())) {
        out.emplace_back(e, 0);
      }
      return out;
    });
  };
  const WireFingerprint want = run_once(1);
  const WireFingerprint got = run_once(4);
  EXPECT_GT(want.batches_flushed, 0u);
  EXPECT_EQ(want, got);
}

TEST(ShardedEngineLockstep, PerMessageWakeupsStayDeterministic) {
  // The wakeup-coalescing knob is a handoff optimization only; both
  // settings must produce the serial fingerprint (run-ahead mode).
  const auto arrivals = infinite_stream(kSites, 8000, 1200, 21);
  auto run_once = [&](std::uint32_t threads, bool coalesce) {
    core::SystemConfig config{kSites, 10, hash::HashKind::kMurmur2, 9};
    config.num_threads = threads;
    config.coalesce_wakeups = coalesce;
    core::InfiniteSystem system(config);
    return fingerprint_run(system, arrivals, [](core::InfiniteSystem& s) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      for (const auto& e : s.coordinator().sample().entries()) {
        out.emplace_back(e.element, e.hash);
      }
      return out;
    });
  };
  const Fingerprint want = run_once(1, true);
  EXPECT_EQ(want, run_once(4, true));
  EXPECT_EQ(want, run_once(4, false));
}

}  // namespace
}  // namespace dds
