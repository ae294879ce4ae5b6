// The speculative-lockstep determinism suite.
//
// Speculative lockstep (sim/sharded_engine.h) runs waves past the
// transport's delivery-horizon certificate, defers mid-wave deliveries
// into a playout queue, and rolls individual sites back from wave-start
// snapshots when a delivery lands inside a slot range they already
// executed. Its contract is the lockstep contract: bit-identical
// samples, estimates, counters, and full wire traces versus the
// SerialEngine on the same network — which this file pins across wire
// pathologies (sub-slot latency, jitter, loss + retransmission,
// batching), protocols (infinite, with-replacement, DRS, sharded
// routed sites), and seeds, plus a forced-rollback fuzz that proves the
// rollback path actually runs while the outputs stay identical, and the
// make_engine mode_reason() decision table.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/baseline_system.h"
#include "core/system.h"
#include "net/sim_network.h"
#include "query/estimators.h"
#include "sim/sharded_engine.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

using sim::ListSource;

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

/// Full logical trace + wire counters + pathology statistics + sample:
/// everything the lockstep contract covers, byte for byte.
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

/// The speculation statistics of a system's engine (nullptr when the
/// deployment landed on the serial engine).
const sim::ShardedEngine* sharded(const sim::Engine& engine) {
  return dynamic_cast<const sim::ShardedEngine*>(&engine);
}

auto infinite_sample = [](core::InfiniteSystem& s) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.emplace_back(0, static_cast<std::uint64_t>(
                          query::estimate_distinct(s.sample()) * 1e6));
  for (const auto& e : s.sample().entries()) {
    out.emplace_back(e.element, e.hash);
  }
  return out;
};

constexpr std::uint32_t kSites = 13;  // not a multiple of the thread count
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(SpeculativeLockstep, InfiniteSubSlotLatencyMatchesSerial) {
  // The headline wire: latency far below one slot, so plain lockstep
  // waves collapse to single slots while speculation runs 32-slot
  // waves. Every reply lands inside an already-running wave.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 900, seed * 13 + 2);
    auto run_once = [&](std::uint32_t threads, std::uint32_t window) {
      core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, seed};
      config.num_threads = threads;
      config.speculation_window = window;
      config.network.link.latency = 0.25;
      core::InfiniteSystem system(config);
      if (threads > 1 && window > 0) {
        EXPECT_STREQ(system.runner().mode_reason(),
                     "sharded: speculative lockstep");
        EXPECT_TRUE(sharded(system.engine())->speculative());
      }
      return wire_fingerprint_run(system, arrivals, infinite_sample);
    };
    const WireFingerprint want = run_once(1, 0);
    EXPECT_EQ(want, run_once(4, 32));
  }
}

TEST(SpeculativeLockstep, InfiniteJitterLossRetransmitMatchesSerial) {
  // Adversarial delivery times: jitter spreads arrivals across the
  // wave, drops + retransmission re-inject messages at later times.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 700, seed * 7 + 3);
    auto run_once = [&](std::uint32_t threads, std::uint32_t window) {
      core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur3, seed};
      config.num_threads = threads;
      config.speculation_window = window;
      config.network.link.latency = 1.5;
      config.network.link.jitter = 0.75;
      config.network.link.drop_rate = 0.05;
      config.network.link.retransmit = true;
      core::InfiniteSystem system(config);
      return wire_fingerprint_run(system, arrivals, infinite_sample);
    };
    const WireFingerprint want = run_once(1, 0);
    EXPECT_GT(want.drops, 0u) << "wire not lossy enough to prove anything";
    EXPECT_EQ(want, run_once(4, 16));
  }
}

TEST(SpeculativeLockstep, InfiniteSuppressDuplicatesMatchesSerial) {
  // The suppression extension adds per-site dedup state (an unordered
  // set) to the snapshot images; rollbacks must round-trip it.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 6000, 400, seed * 31 + 1);
    auto run_once = [&](std::uint32_t threads, std::uint32_t window) {
      core::SystemConfig config{kSites, 12, hash::HashKind::kMurmur2, seed};
      config.num_threads = threads;
      config.speculation_window = window;
      config.network.link.latency = 0.5;
      config.network.link.jitter = 0.25;
      core::InfiniteSystem system(config, /*eager_threshold=*/true,
                                  /*suppress_duplicates=*/true);
      return wire_fingerprint_run(system, arrivals, infinite_sample);
    };
    const WireFingerprint want = run_once(1, 0);
    EXPECT_EQ(want, run_once(4, 24));
  }
}

TEST(SpeculativeLockstep, WithReplacementBatchedWireMatchesSerial) {
  // s independent copies per site (length-prefixed nested snapshots)
  // over a batching wire: flushes land whole message batches mid-wave.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 4000, 1200, seed * 13 + 7);
    auto run_once = [&](std::uint32_t threads, std::uint32_t window) {
      core::SystemConfig config{kSites, 6, hash::HashKind::kMurmur2, seed};
      config.num_threads = threads;
      config.speculation_window = window;
      config.network.link.latency = 1.0;
      config.network.batch_interval = 3;
      config.network.batch_max_msgs = 8;
      core::WithReplacementSystem system(config);
      return wire_fingerprint_run(
          system, arrivals, [](core::WithReplacementSystem& s) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
            for (const auto e : s.coordinator().sample()) {
              out.emplace_back(e, 0);
            }
            return out;
          });
    };
    const WireFingerprint want = run_once(1, 0);
    EXPECT_GT(want.batches_flushed, 0u);
    EXPECT_EQ(want, run_once(4, 16));
  }
}

TEST(SpeculativeLockstep, DrsRngStateRollsBackWithTheSite) {
  // DRS draws a fresh random tag per arrival, so a rolled-back replay
  // must rewind the site's RNG too — the snapshot captures the xoshiro
  // state words. Any divergence shows up in the trace immediately.
  for (const std::uint64_t seed : kSeeds) {
    const auto arrivals = infinite_stream(kSites, 5000, 800, seed * 3 + 11);
    auto run_once = [&](std::uint32_t threads, std::uint32_t window) {
      core::SystemConfig config{kSites, 10, hash::HashKind::kMurmur2, seed};
      config.num_threads = threads;
      config.speculation_window = window;
      config.network.link.latency = 0.25;
      baseline::DrsSystem system(config);
      return wire_fingerprint_run(system, arrivals, [](baseline::DrsSystem& s) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        for (const auto e : s.coordinator().sample()) out.emplace_back(e, 0);
        return out;
      });
    };
    const WireFingerprint want = run_once(1, 0);
    EXPECT_EQ(want, run_once(4, 32));
  }
}

TEST(SpeculativeLockstep, ShardedRoutedSitesMatchSerial) {
  // Routed sites wrap per-shard copies whose thresholds the routed
  // filter reads on every arrival — the snapshot must round-trip every
  // copy or a rolled-back site filters against a stale view.
  const auto arrivals = infinite_stream(kSites, 8000, 1500, 31);
  auto run_once = [&](std::uint32_t threads, std::uint32_t window) {
    core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2, 21};
    config.num_shards = 3;
    config.num_threads = threads;
    config.speculation_window = window;
    config.network.link.latency = 0.5;
    config.observability.metrics = true;
    core::InfiniteSystem system(config);
    return wire_fingerprint_run(system, arrivals, infinite_sample);
  };
  const WireFingerprint want = run_once(1, 0);
  EXPECT_EQ(want, run_once(4, 24));
}

TEST(SpeculativeLockstep, BatchedIngestMatchesSerial) {
  // Engine-level gathered on_element_batch dispatch composes with
  // speculation: the rollback journal indexes plan positions, which the
  // batched hot path shares with element-at-a-time dispatch.
  const auto arrivals = infinite_stream(kSites, 6000, 900, 15);
  auto run_once = [&](std::uint32_t threads, std::uint32_t window,
                      std::uint32_t batch) {
    core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, 5};
    config.num_threads = threads;
    config.speculation_window = window;
    config.ingest_batch = batch;
    config.network.link.latency = 0.25;
    core::InfiniteSystem system(config);
    return wire_fingerprint_run(system, arrivals, infinite_sample);
  };
  const WireFingerprint want = run_once(1, 0, 1);
  EXPECT_EQ(want, run_once(4, 32, 16));
}

TEST(SpeculativeLockstep, ForcedRollbackFuzz) {
  // The adversarial shape: sub-slot latency guarantees every report's
  // reply lands one slot after it was sent — inside the running wave,
  // usually at a position the fast-running worker has already passed.
  // The rollback path must therefore actually execute (pinned below),
  // and the outputs must still be bit-identical to serial.
  std::uint64_t total_rollbacks = 0;
  std::uint64_t total_deferred = 0;
  for (const std::uint64_t seed : {7u, 19u, 23u, 41u}) {
    const auto arrivals =
        infinite_stream(kSites, 6000, 300, seed * 101 + 13);
    core::SystemConfig config{kSites, 16, hash::HashKind::kMurmur2, seed};
    config.network.link.latency = 0.25;

    core::SystemConfig serial_config = config;
    core::InfiniteSystem serial(serial_config);
    const WireFingerprint want =
        wire_fingerprint_run(serial, arrivals, infinite_sample);

    config.num_threads = 4;
    config.speculation_window = 64;
    core::InfiniteSystem spec(config);
    ASSERT_STREQ(spec.runner().mode_reason(), "sharded: speculative lockstep");
    const WireFingerprint got =
        wire_fingerprint_run(spec, arrivals, infinite_sample);
    EXPECT_EQ(want, got);

    const sim::ShardedEngine* engine = sharded(spec.engine());
    ASSERT_NE(engine, nullptr);
    EXPECT_TRUE(engine->speculative());
    EXPECT_GT(engine->deferred_deliveries(), 0u)
        << "no delivery ever landed mid-wave; the wire is not speculative";
    EXPECT_GT(engine->snapshot_bytes(), 0u);
    total_rollbacks += engine->rollbacks();
    total_deferred += engine->deferred_deliveries();
  }
  // Individual seeds may get lucky (deliveries landing at positions the
  // site has not reached), but across the sweep rollbacks must happen.
  EXPECT_GT(total_rollbacks, 0u) << "rollback path never exercised";
  EXPECT_GT(total_deferred, total_rollbacks);
}

TEST(SpeculativeLockstep, LongWavesActuallyForm) {
  // The perf claim behind abl17, hardware-independent: with a sub-slot
  // wire, mean wave length under speculation is a large multiple of the
  // horizon-bounded baseline (whose waves are ~1 slot).
  const auto arrivals = infinite_stream(kSites, 6000, 900, 77);
  auto mean_wave = [&](std::uint32_t window) {
    core::SystemConfig config{kSites, 8, hash::HashKind::kMurmur2, 9};
    config.num_threads = 4;
    config.speculation_window = window;
    config.network.link.latency = 0.25;
    core::InfiniteSystem system(config);
    ListSource source(arrivals);
    system.run(source);
    const sim::ShardedEngine* engine = sharded(system.engine());
    return static_cast<double>(engine->wave_slots_total()) /
           static_cast<double>(engine->waves());
  };
  const double baseline = mean_wave(0);
  const double speculative = mean_wave(32);
  EXPECT_LE(baseline, 2.0);
  EXPECT_GE(speculative, 8.0 * baseline);
}

// ------------------------------------------------- mode decision table --

TEST(SpeculativeLockstep, ModeReasonDecisionTable) {
  const auto make = [](std::uint32_t threads, std::uint32_t window,
                       double latency) {
    core::SystemConfig config{8, 8, hash::HashKind::kMurmur2, 3};
    config.num_threads = threads;
    config.speculation_window = window;
    config.network.link.latency = latency;
    return std::make_unique<core::InfiniteSystem>(config);
  };
  // Serial fallbacks, now with a queryable reason.
  EXPECT_STREQ(make(1, 0, 0.0)->runner().mode_reason(),
               "serial: num_threads == 1");
  {
    core::SystemConfig config{8, 8, hash::HashKind::kMurmur2, 3};
    config.num_threads = 4;
    config.network.link.jitter_stddev = 0.5;  // zero clamp: no horizon
    core::InfiniteSystem system(config);
    EXPECT_STREQ(system.runner().name(), "serial");
    EXPECT_STREQ(system.runner().mode_reason(),
                 "serial: zero-horizon wire (no positive delivery bound)");
  }
  // Sharded selections.
  EXPECT_STREQ(make(4, 0, 0.0)->runner().mode_reason(),
               "sharded: run-ahead (synchronous wire)");
  EXPECT_STREQ(make(4, 16, 0.0)->runner().mode_reason(),
               "sharded: run-ahead (synchronous wire)");
  EXPECT_STREQ(make(4, 0, 1.5)->runner().mode_reason(),
               "sharded: lockstep (delivery-horizon waves)");
  EXPECT_STREQ(make(4, 16, 1.5)->runner().mode_reason(),
               "sharded: speculative lockstep");
  // Slot-begin protocols (sliding windows) never speculate.
  {
    core::SlidingSystemConfig config;
    config.num_sites = 8;
    config.num_threads = 4;
    config.speculation_window = 16;
    config.network.link.latency = 1.5;
    core::SlidingSystem system(config);
    EXPECT_STREQ(system.runner().mode_reason(),
                 "sharded: lockstep (slot-begin protocol; speculation off)");
    EXPECT_FALSE(sharded(system.engine())->speculative());
  }
}

TEST(SpeculativeLockstep, SlidingWithWindowRequestedStaysIdentical) {
  // Requesting speculation on a slot-begin protocol silently (but
  // queryably) downgrades to plain lockstep — outputs must be untouched.
  util::SplitMix64 gen(55);
  std::vector<sim::Arrival> arrivals;
  for (sim::Slot t = 0; t < 200; ++t) {
    for (int a = 0; a < 5; ++a) {
      arrivals.push_back(sim::Arrival{
          t, static_cast<sim::NodeId>(gen.next() % kSites),
          1 + gen.next() % 400});
    }
  }
  auto run_once = [&](std::uint32_t threads, std::uint32_t window) {
    core::SlidingSystemConfig config;
    config.num_sites = kSites;
    config.window = 30;
    config.sample_size = 2;
    config.seed = 5;
    config.num_threads = threads;
    config.speculation_window = window;
    config.network.link.latency = 1.5;
    config.network.link.drop_rate = 0.05;
    config.network.link.retransmit = true;
    core::SlidingSystem system(config);
    return wire_fingerprint_run(system, arrivals, [](core::SlidingSystem& s) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      for (const auto e : s.coordinator().sample(s.runner().current_slot())) {
        out.emplace_back(e, 0);
      }
      return out;
    });
  };
  const WireFingerprint want = run_once(1, 0);
  EXPECT_EQ(want, run_once(4, 16));
}

}  // namespace
}  // namespace dds
