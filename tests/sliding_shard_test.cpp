// Sharded sliding-window deployments and the validity-aware query
// merge layer.
//
// The load-bearing test is the exactness proof for the bottom-s window
// protocol: a sharded deployment's merged query answer is bit-identical
// (elements, hashes, expiries, estimates) to the unsharded coordinator
// at EVERY query slot, across sample sizes, shard counts, and seeds.
// The argument: shard j's coordinator holds the exact window bottom-s
// of element partition j (each site's shard-j copy sees exactly the
// partition-j substream), and every member of the global window
// bottom-s is inside its own partition's bottom-s, so the
// validity-aware bottom-s of the union is the global answer. The lazy
// s-copy protocol shards too; its per-shard answers inherit the lazy
// scheme's documented post-expiry transient, so its merged answer is
// exact in the single-site regime and agreement-tested otherwise.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "baseline/baseline_system.h"
#include "core/checkpoint.h"
#include "core/shard_router.h"
#include "core/system.h"
#include "net/batcher.h"
#include "net/sim_network.h"
#include "query/merge.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

using sim::SlotSource;
using treap::Candidate;

/// Drives `reference` and `sharded` through an identical random slotted
/// stream, invoking `check(t)` after every slot.
template <typename SystemA, typename SystemB, typename Check>
void drive_slots(SystemA& reference, SystemB& sharded, std::uint32_t sites,
                 std::uint64_t domain, sim::Slot slots, std::uint64_t seed,
                 std::unordered_map<stream::Element, sim::Slot>* last_arrival,
                 Check check) {
  util::Xoshiro256StarStar rng(seed);
  for (sim::Slot t = 0; t < slots; ++t) {
    std::vector<std::pair<sim::NodeId, stream::Element>> xs;
    for (int i = 0; i < 4; ++i) {
      const stream::Element e = 1 + rng.next_below(domain);
      xs.emplace_back(static_cast<sim::NodeId>(rng.next_below(sites)), e);
      if (last_arrival != nullptr) (*last_arrival)[e] = t;
    }
    {
      SlotSource src(t, xs);
      reference.run(src);
    }
    {
      SlotSource src(t, xs);
      sharded.run(src);
    }
    check(t);
  }
}

// ------------------------------------------- exactness proof test -----

struct ExactParams {
  std::size_t s;
  std::uint32_t shards;
  std::uint64_t seed;
};

class ShardedBottomSSliding : public ::testing::TestWithParam<ExactParams> {};

TEST_P(ShardedBottomSSliding, MergedSampleBitIdenticalAtEverySlot) {
  const auto p = GetParam();
  core::SlidingSystemConfig config;
  config.num_sites = 6;
  config.window = 25;
  config.sample_size = p.s;
  config.seed = p.seed;
  baseline::BottomSSlidingSystem reference(config);
  auto sharded_config = config;
  sharded_config.num_shards = p.shards;
  baseline::BottomSSlidingSystem sharded(sharded_config);
  ASSERT_EQ(sharded.num_shards(), p.shards);

  drive_slots(reference, sharded, 6, 120, 300, p.seed * 99 + 7, nullptr,
              [&](sim::Slot t) {
                const auto want = reference.coordinator().sample(t);
                const auto got = sharded.sample(t);
                ASSERT_EQ(want, got) << "slot " << t;  // elem, hash, expiry
                EXPECT_DOUBLE_EQ(
                    query::estimate_window_distinct(want, p.s),
                    query::estimate_window_distinct(got, p.s))
                    << "slot " << t;
              });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedBottomSSliding,
    ::testing::Values(ExactParams{1, 2, 1}, ExactParams{1, 2, 2},
                      ExactParams{1, 2, 3}, ExactParams{1, 3, 1},
                      ExactParams{1, 3, 2}, ExactParams{1, 3, 3},
                      ExactParams{3, 2, 1}, ExactParams{3, 2, 2},
                      ExactParams{3, 2, 3}, ExactParams{3, 3, 1},
                      ExactParams{3, 3, 2}, ExactParams{3, 3, 3}));

TEST(ShardedFullSyncSliding, MergedMinimumBitIdenticalAtEverySlot) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    core::SlidingSystemConfig config;
    config.num_sites = 5;
    config.window = 20;
    config.seed = seed;
    baseline::FullSyncSlidingSystem reference(config);
    auto sharded_config = config;
    sharded_config.num_shards = 2;
    baseline::FullSyncSlidingSystem sharded(sharded_config);
    drive_slots(reference, sharded, 5, 90, 250, seed * 31 + 11, nullptr,
                [&](sim::Slot t) {
                  ASSERT_EQ(reference.coordinator().sample(t),
                            sharded.sample(t))
                      << "slot " << t;
                });
  }
}

// --------------------------------------------- lazy s-copy protocol --

TEST(ShardedLazySliding, SingleSiteMergedEqualsUnshardedAtEverySlot) {
  // With one site the lazy protocol is exact (the existing k=1 lemma
  // test), per partition as well as globally — so the sharded merge
  // must reproduce the unsharded answer bit for bit.
  for (const std::size_t s : {std::size_t{1}, std::size_t{3}}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      core::SlidingSystemConfig config;
      config.num_sites = 1;
      config.window = 25;
      config.sample_size = s;
      config.seed = seed;
      core::SlidingSystem reference(config);
      auto sharded_config = config;
      sharded_config.num_shards = 3;
      core::SlidingSystem sharded(sharded_config);
      drive_slots(reference, sharded, 1, 120, 400, seed * 99 + 7, nullptr,
                  [&](sim::Slot t) {
                    ASSERT_EQ(reference.coordinator().sample(t),
                              sharded.sample(t))
                        << "slot " << t;
                  });
    }
  }
}

TEST(ShardedLazySliding, MultiSiteMergedStaysValidAndAgrees) {
  // k >= 2: each shard's lazy answer can transiently lag its partition
  // minimum (sliding_coordinator.h), so per-slot bit-identity is not a
  // theorem. What IS guaranteed: every merged sample element is a valid
  // member of the current window (the validity merger enforces per-copy
  // expiry). Agreement with the unsharded run stays high; the bound
  // here is well under the observed ~91-100%.
  for (const std::size_t s : {std::size_t{1}, std::size_t{3}}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      core::SlidingSystemConfig config;
      config.num_sites = 6;
      config.window = 25;
      config.sample_size = s;
      config.seed = seed;
      core::SlidingSystem reference(config);
      auto sharded_config = config;
      sharded_config.num_shards = 3;
      core::SlidingSystem sharded(sharded_config);
      std::unordered_map<stream::Element, sim::Slot> last_arrival;
      std::uint64_t slots = 0;
      std::uint64_t agree = 0;
      drive_slots(reference, sharded, 6, 120, 400, seed * 99 + 7,
                  &last_arrival, [&](sim::Slot t) {
                    const auto got = sharded.sample(t);
                    for (const stream::Element e : got) {
                      const auto it = last_arrival.find(e);
                      ASSERT_TRUE(it != last_arrival.end());
                      ASSERT_GT(it->second + config.window,
                                t)  // still in the window
                          << "slot " << t << " element " << e;
                    }
                    ++slots;
                    if (got == reference.coordinator().sample(t)) ++agree;
                  });
      EXPECT_GE(static_cast<double>(agree),
                0.85 * static_cast<double>(slots))
          << "s=" << s << " seed=" << seed;
    }
  }
}

TEST(ShardedLazySliding, PerShardCountersPartitionTheTotal) {
  core::SlidingSystemConfig config;
  config.num_sites = 6;
  config.window = 30;
  config.sample_size = 2;
  config.num_shards = 3;
  core::SlidingSystem system(config);
  util::Xoshiro256StarStar rng(17);
  for (sim::Slot t = 0; t < 200; ++t) {
    std::vector<std::pair<sim::NodeId, stream::Element>> xs;
    for (int i = 0; i < 5; ++i) {
      xs.emplace_back(static_cast<sim::NodeId>(rng.next_below(6)),
                      1 + rng.next_below(200));
    }
    SlotSource src(t, xs);
    system.run(src);
  }
  std::uint64_t total = 0;
  for (std::uint32_t j = 0; j < 3; ++j) {
    const auto& c = system.bus().coordinator_counters(j);
    EXPECT_GT(c.total, 0u) << "shard " << j << " saw no traffic";
    total += c.total;
  }
  EXPECT_EQ(total, system.bus().counters().total);
}

// --------------------------------------- merger edge cases (unit) ----

TEST(SlidingValidityMerger, ExpiryExactlyAtQuerySlotIsInvalid) {
  query::SlidingValidityMerger merger(/*sample_size=*/2, /*now=*/10);
  merger.offer(Candidate{1, 100, 10});  // expires exactly at the query slot
  merger.offer(Candidate{2, 200, 11});  // one slot of validity left
  ASSERT_EQ(merger.bottom_s().size(), 1u);
  EXPECT_EQ(merger.bottom_s().front().element, 2u);
}

TEST(SlidingValidityMerger, EmptyShardsMergeToEmpty) {
  query::SlidingValidityMerger merger(3, 5);
  merger.add({});                      // a shard holding an empty window
  merger.offer(std::optional<Candidate>{});  // a shard with no sample
  EXPECT_TRUE(merger.bottom_s().empty());
  EXPECT_FALSE(merger.min_hash().has_value());
}

TEST(SlidingValidityMerger, SampleSizeLargerThanAnyShardsAnswer) {
  // s = 5 but each "shard" holds fewer: the merged sample is the union,
  // short of s — never padded, never truncated below the union size.
  query::SlidingValidityMerger merger(5, 0);
  merger.add({Candidate{1, 10, 9}, Candidate{2, 20, 8}});
  merger.add({Candidate{3, 15, 7}});
  const auto got = merger.bottom_s();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].element, 1u);
  EXPECT_EQ(got[1].element, 3u);
  EXPECT_EQ(got[2].element, 2u);
}

TEST(SlidingValidityMerger, KeepsBottomSAndDropsTheRest) {
  query::SlidingValidityMerger merger(2, 0);
  merger.add({Candidate{1, 40, 9}, Candidate{2, 10, 8}});
  merger.add({Candidate{3, 30, 7}, Candidate{4, 20, 6}});
  const auto got = merger.bottom_s();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].element, 2u);
  EXPECT_EQ(got[1].element, 4u);
}

TEST(SlidingValidityMerger, DuplicateElementKeepsFreshestExpiry) {
  // Possible when merging a restored ensemble with a live one; the
  // element's hash is fixed, so only the expiry can differ.
  query::SlidingValidityMerger merger(2, 0);
  merger.offer(Candidate{7, 50, 3});
  merger.offer(Candidate{7, 50, 9});
  merger.offer(Candidate{7, 50, 5});
  const auto got = merger.bottom_s();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.front().expiry, 9);
}

TEST(SlidingValidityMerger, WindowEstimateMatchesKmvShape) {
  // Below s the estimate is the exact count; at s it switches to KMV.
  std::vector<Candidate> sample{Candidate{1, 1ULL << 62, 9}};
  EXPECT_DOUBLE_EQ(query::estimate_window_distinct(sample, 2), 1.0);
  sample.push_back(Candidate{2, 1ULL << 63, 9});
  EXPECT_NEAR(query::estimate_window_distinct(sample, 2), 2.0, 0.1);
}

// ------------------------------------- checkpoint/restore ensemble ---

TEST(SlidingCheckpoint, ShardedEnsembleRoundTripsMidWindow) {
  core::SlidingSystemConfig config;
  config.num_sites = 6;
  config.window = 30;
  config.sample_size = 3;
  config.num_shards = 3;
  core::SlidingSystem original(config);
  util::Xoshiro256StarStar rng(23);
  const sim::Slot kCheckpointSlot = 150;  // mid-window: 150 % 30 != 0
  for (sim::Slot t = 0; t <= kCheckpointSlot; ++t) {
    std::vector<std::pair<sim::NodeId, stream::Element>> xs;
    for (int i = 0; i < 5; ++i) {
      xs.emplace_back(static_cast<sim::NodeId>(rng.next_below(6)),
                      1 + rng.next_below(150));
    }
    SlotSource src(t, xs);
    original.run(src);
  }
  const auto images = core::checkpoint_ensemble(original);
  ASSERT_EQ(images.size(), 3u);

  // Restore into a fresh deployment of the same shape: merged queries
  // at the checkpoint slot answer exactly as the original.
  core::SlidingSystem restored(config);
  ASSERT_TRUE(core::restore_ensemble(restored, images));
  EXPECT_EQ(original.sample(kCheckpointSlot), restored.sample(kCheckpointSlot));
  for (std::uint32_t j = 0; j < 3; ++j) {
    for (std::size_t c = 0; c < config.sample_size; ++c) {
      EXPECT_EQ(original.coordinator(j).copy(c).raw_sample(),
                restored.coordinator(j).copy(c).raw_sample());
    }
  }
  // And the images round-trip bit for bit.
  EXPECT_EQ(core::checkpoint_ensemble(restored), images);

  // Standalone restore path.
  const auto standalone = core::restore_sliding_coordinator(99, images[1]);
  ASSERT_NE(standalone, nullptr);
  EXPECT_EQ(standalone->copy(0).raw_sample(),
            original.coordinator(1).copy(0).raw_sample());

  // Malformed images and shape mismatches are rejected.
  auto corrupt = images[0];
  corrupt.pop_back();
  EXPECT_FALSE(core::restore_into(restored.coordinator_mut(0), corrupt));
  EXPECT_EQ(core::parse_sliding_checkpoint(corrupt), std::nullopt);
  // A bit-flipped copy count must parse to nullopt, not explode in an
  // allocation sized by the corrupted value.
  auto huge_count = images[0];
  huge_count[23] = 0x20;  // top byte of the count u64
  EXPECT_EQ(core::parse_sliding_checkpoint(huge_count), std::nullopt);
  EXPECT_FALSE(core::restore_into(restored.coordinator_mut(0), huge_count));
  auto wrong_shape = config;
  wrong_shape.sample_size = 2;
  core::SlidingSystem smaller(wrong_shape);
  EXPECT_FALSE(core::restore_into(smaller.coordinator_mut(0), images[0]));
  EXPECT_FALSE(core::restore_ensemble(smaller, images));
}

TEST(SlidingCheckpoint, RestoredDeploymentSelfHealsWithinAWindow) {
  // Failover semantics: fresh sites + restored coordinators converge
  // back to the live answer after at most one window of re-exposure
  // (every site view expires and re-offers). Exercised in the k = 1
  // exact regime so "converged" is checkable as bit-equality.
  core::SlidingSystemConfig config;
  config.num_sites = 1;
  config.window = 20;
  config.sample_size = 2;
  config.num_shards = 2;
  core::SlidingSystem original(config);
  util::Xoshiro256StarStar rng(31);
  auto feed_slot = [&](core::SlidingSystem& system, sim::Slot t,
                       const std::vector<std::pair<sim::NodeId,
                                                   stream::Element>>& xs) {
    SlotSource src(t, xs);
    system.run(src);
  };
  auto make_slot = [&]() {
    std::vector<std::pair<sim::NodeId, stream::Element>> xs;
    for (int i = 0; i < 4; ++i) {
      xs.emplace_back(0, 1 + rng.next_below(60));
    }
    return xs;
  };
  const sim::Slot kCheckpointSlot = 100;
  for (sim::Slot t = 0; t <= kCheckpointSlot; ++t) {
    feed_slot(original, t, make_slot());
  }
  core::SlidingSystem restored(config);
  ASSERT_TRUE(
      core::restore_ensemble(restored, core::checkpoint_ensemble(original)));
  // Same suffix stream into both; after 2w slots the restored system's
  // answer must have fully caught up.
  for (sim::Slot t = kCheckpointSlot + 1;
       t <= kCheckpointSlot + 2 * config.window; ++t) {
    const auto xs = make_slot();
    feed_slot(original, t, xs);
    feed_slot(restored, t, xs);
  }
  const sim::Slot end = kCheckpointSlot + 2 * config.window;
  EXPECT_EQ(original.sample(end), restored.sample(end));
  EXPECT_FALSE(original.sample(end).empty());
}

// ------------------------------------- per-shard batcher flushing ----

TEST(Batcher, TakeForShardFlushesOnlyThatShard)
{
  net::Batcher batcher(/*num_sites=*/3, /*num_coordinators=*/2,
                       /*interval=*/10, /*max_msgs=*/64);
  auto report = [](sim::NodeId site, sim::NodeId coordinator) {
    sim::Message msg;
    msg.from = site;
    msg.to = coordinator;
    msg.type = sim::MsgType::kSlidingReport;
    return msg;
  };
  batcher.add(report(0, 3), 0);  // shard 0
  batcher.add(report(1, 3), 0);  // shard 0
  batcher.add(report(1, 4), 0);  // shard 1
  batcher.add(report(2, 4), 0);  // shard 1
  EXPECT_EQ(batcher.buffered_for_shard(0), 2u);
  EXPECT_EQ(batcher.buffered_for_shard(1), 2u);
  const auto flushed = batcher.take_for_shard(0);
  ASSERT_EQ(flushed.size(), 2u);  // one batch per reporting site
  for (const auto& batch : flushed) {
    for (const auto& msg : batch.msgs) EXPECT_EQ(msg.to, 3u);
  }
  EXPECT_EQ(batcher.buffered_for_shard(0), 0u);
  EXPECT_EQ(batcher.buffered_for_shard(1), 2u);
  EXPECT_THROW(batcher.take_for_shard(2), std::out_of_range);
}

TEST(SimNetwork, FlushShardPutsPendingBatchesOnTheWire) {
  net::NetworkConfig config;
  config.link.latency = 1.0;
  config.batch_interval = 50;  // far deadline: nothing flushes on its own
  net::SimNetwork net(/*num_sites=*/2, config, /*num_coordinators=*/2);
  class NullNode final : public sim::Node {
   public:
    void on_message(const sim::Message&, net::Transport&) override {}
    std::size_t state_size() const noexcept override { return 0; }
  };
  NullNode nodes[4];
  for (sim::NodeId id = 0; id < 4; ++id) net.attach(id, &nodes[id]);
  auto report = [](sim::NodeId site, sim::NodeId coordinator) {
    sim::Message msg;
    msg.from = site;
    msg.to = coordinator;
    msg.type = sim::MsgType::kSlidingReport;
    return msg;
  };
  net.send(report(0, 2));
  net.send(report(1, 2));
  net.send(report(0, 3));
  EXPECT_EQ(net.stats().batches_flushed, 0u);
  EXPECT_EQ(net.in_flight(), 0u);
  net.flush_shard(0);
  EXPECT_EQ(net.stats().batches_flushed, 2u);  // site 0 + site 1 -> shard 0
  EXPECT_EQ(net.in_flight(), 2u);              // on the latency link now
  net.flush_shard(1);
  EXPECT_EQ(net.stats().batches_flushed, 3u);
  net.finish();
  EXPECT_EQ(net.counters().total, 3u);  // three wire units, coalesced
  EXPECT_EQ(net.logical_counters().total, 3u);
}

}  // namespace
}  // namespace dds
