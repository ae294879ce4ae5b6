// Tests for the adaptive sampling substrate: the hybrid DominanceSet
// (flat ring <-> pooled treap migrations), the SlotIndex open-addressed
// side-index, the order-statistic SDominanceSet, and the zero
// steady-state allocation guarantees of all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "hash/hash_function.h"
#include "treap/dominance_set.h"
#include "treap/naive_dominance_set.h"
#include "treap/s_dominance_set.h"
#include "treap/slot_index.h"
#include "treap/treap.h"
#include "util/rng.h"

namespace dds::treap {
namespace {

// ----------------------------------------------------------- SlotIndex --

TEST(SlotIndex, InsertFindEraseChurnAgainstReference) {
  // Slots point into a plain vector standing in for the treap pool.
  std::vector<std::uint64_t> pool;
  const auto at = [&pool](std::uint32_t s) { return pool[s]; };
  SlotIndex index;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  util::Xoshiro256StarStar rng(31);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t element = 1 + rng.next_below(400);
    const bool indexed = ref.contains(element);
    ASSERT_EQ(index.find(element, at) != SlotIndex::kNoSlot, indexed);
    if (indexed) {
      ASSERT_EQ(index.find(element, at), ref[element]);
      if (rng.next_below(2) == 0) {
        ASSERT_TRUE(index.erase(element, at));
        ref.erase(element);
      }
    } else {
      ASSERT_FALSE(index.erase(element, at));
      const auto slot = static_cast<std::uint32_t>(pool.size());
      pool.push_back(element);
      index.insert(element, slot, at);
      ref.emplace(element, slot);
    }
    ASSERT_EQ(index.size(), ref.size());
  }
  // Every surviving entry still resolves (backward-shift deletion must
  // never break a probe chain).
  for (const auto& [element, slot] : ref) {
    ASSERT_EQ(index.find(element, at), slot);
  }
}

TEST(SlotIndex, CapacityStopsGrowingUnderChurn) {
  std::vector<std::uint64_t> pool(512);
  const auto at = [&pool](std::uint32_t s) { return pool[s]; };
  SlotIndex index;
  for (std::uint32_t i = 0; i < 256; ++i) {
    pool[i] = 10000 + i;
    index.insert(pool[i], i, at);
  }
  // One churn cycle first: the transient +1 entry may cross the load
  // boundary once; after that the table must never move again.
  pool[256] = 999;
  index.insert(pool[256], 256, at);
  index.erase(pool[256], at);
  const std::size_t cap = index.capacity();
  util::Xoshiro256StarStar rng(7);
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t slot = 256 + static_cast<std::uint32_t>(step % 256);
    pool[slot] = 900000 + rng.next_below(1 << 20);
    if (index.find(pool[slot], at) == SlotIndex::kNoSlot) {
      index.insert(pool[slot], slot, at);
      index.erase(pool[slot], at);
    }
  }
  EXPECT_EQ(index.capacity(), cap);
  EXPECT_EQ(index.size(), 256u);
}

// ------------------------------------------- treap order statistics --

TEST(Treap, KthAndRankAgainstSortedReference) {
  Treap<std::uint32_t, std::uint32_t> t(17);
  std::map<std::uint32_t, std::uint32_t> ref;
  util::Xoshiro256StarStar rng(23);
  for (int step = 0; step < 4000; ++step) {
    const auto key = static_cast<std::uint32_t>(rng.next_below(700));
    if (rng.next_below(3) != 0) {
      t.insert(key, key * 7);
      ref.emplace(key, key * 7);
    } else {
      t.erase(key);
      ref.erase(key);
    }
    if (step % 97 != 0) continue;
    ASSERT_EQ(t.size(), ref.size());
    // rank_of agrees with std::map distance for arbitrary probes.
    const auto probe = static_cast<std::uint32_t>(rng.next_below(700));
    ASSERT_EQ(t.rank_of(probe),
              static_cast<std::size_t>(
                  std::distance(ref.begin(), ref.lower_bound(probe))));
    // kth agrees with in-order position.
    if (!ref.empty()) {
      const std::size_t k = rng.next_below(ref.size());
      auto it = ref.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(k));
      const auto kth = t.kth(k);
      ASSERT_TRUE(kth.has_value());
      ASSERT_EQ(kth->first, it->first);
      ASSERT_EQ(kth->second, it->second);
    }
    ASSERT_EQ(t.kth(ref.size()), std::nullopt);
  }
  ASSERT_TRUE(t.check_invariants());
}

TEST(Treap, BoundedTraversalsStopEarly) {
  Treap<int, int> t;
  for (int k = 1; k <= 50; ++k) t.insert(k, k);
  std::vector<int> asc;
  EXPECT_FALSE(t.for_each_while([&asc](int k, int) {
    asc.push_back(k);
    return k < 5;
  }));
  EXPECT_EQ(asc, (std::vector<int>{1, 2, 3, 4, 5}));
  std::vector<int> desc;
  EXPECT_FALSE(t.for_each_reverse_while([&desc](int k, int) {
    desc.push_back(k);
    return k > 48;
  }));
  EXPECT_EQ(desc, (std::vector<int>{50, 49, 48}));
  // Full traversals report completion.
  int count = 0;
  EXPECT_TRUE(t.for_each_while([&count](int, int) {
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 50);
}

TEST(Treap, InsertSlotNamesTheNodeUntilErase) {
  using IntTreap = Treap<int, int>;
  IntTreap t(3);
  const std::uint32_t slot = t.insert_slot(42, 420);
  ASSERT_NE(slot, IntTreap::kNoSlot);
  EXPECT_EQ(t.insert_slot(42, 421), IntTreap::kNoSlot);
  for (int k = 0; k < 200; ++k) {
    if (k != 42) t.insert(k, k);
  }
  // Rotations and pool growth must not move the logical node.
  EXPECT_EQ(t.key_at(slot), 42);
  EXPECT_EQ(t.value_at(slot), 420);
  EXPECT_EQ(t.find_slot(42), slot);
  EXPECT_EQ(t.find_slot(4242), IntTreap::kNoSlot);
}

// --------------------------------------- hybrid DominanceSet: fuzzing --

struct HybridFuzzParams {
  std::uint64_t seed;
  HybridConfig hybrid;
  int domain;
  int window;
  int coord_every;
  int burst_every;  ///< monotone-hash growth bursts force promotions
};

class HybridDominanceFuzz
    : public ::testing::TestWithParam<HybridFuzzParams> {};

// Differential fuzz vs the naive reference across the migration
// boundary: monotone-increasing-hash bursts are undominated, so they
// grow |T| past migrate_up; expiry crunches drop it below migrate_down.
TEST_P(HybridDominanceFuzz, MatchesNaiveAcrossMigrations) {
  const auto p = GetParam();
  DominanceSet fast(p.seed, p.hybrid);
  NaiveDominanceSet ref;
  util::Xoshiro256StarStar rng(p.seed);
  hash::HashFunction h(hash::HashKind::kMurmur2, p.seed);
  std::uint64_t next_unique = 1u << 20;
  std::uint64_t rising_hash = 1;

  for (sim::Slot t = 0; t < 800; ++t) {
    fast.expire(t);
    ref.expire(t);
    if (p.burst_every > 0 && t % p.burst_every == 0 && t > 0) {
      // Burst: fresh elements with rising hashes — nothing dominates
      // anything, so the set grows by the full burst.
      for (int b = 0; b < 24; ++b) {
        const std::uint64_t e = next_unique++;
        rising_hash += 1 + rng.next_below(1000);
        fast.observe(e, rising_hash, t + p.window);
        ref.observe(e, rising_hash, t + p.window);
      }
    }
    const int arrivals = static_cast<int>(rng.next_below(4));
    for (int a = 0; a < arrivals; ++a) {
      const std::uint64_t e = 1 + rng.next_below(p.domain);
      fast.observe(e, h(e), t + p.window);
      ref.observe(e, h(e), t + p.window);
    }
    if (p.coord_every > 0 && t % p.coord_every == 0 && t > 0) {
      const std::uint64_t e = 1 + rng.next_below(p.domain);
      const sim::Slot expiry =
          t + 1 + static_cast<sim::Slot>(rng.next_below(p.window));
      fast.insert(e, h(e), expiry);
      ref.insert(e, h(e), expiry);
    }
    ASSERT_EQ(fast.size(), ref.size()) << "slot " << t;
    ASSERT_EQ(fast.snapshot(), ref.snapshot()) << "slot " << t;
    ASSERT_TRUE(fast.check_invariants()) << "slot " << t;
    const auto fm = fast.min_hash();
    const auto rm = ref.min_hash();
    ASSERT_EQ(fm.has_value(), rm.has_value());
    if (fm) {
      ASSERT_EQ(fm->element, rm->element);
    }
  }
  if (p.burst_every > 0 && p.hybrid.migrate_up > 0 &&
      p.hybrid.migrate_up <= 24) {
    EXPECT_GT(fast.migrations(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HybridDominanceFuzz,
    ::testing::Values(
        // Aggressive thresholds: every burst promotes, every window
        // turnover demotes.
        HybridFuzzParams{1, HybridConfig{8, 4}, 50, 20, 0, 13},
        HybridFuzzParams{2, HybridConfig{16, 8}, 100, 30, 7, 19},
        // Default thresholds with bursts big enough to cross 64.
        HybridFuzzParams{3, HybridConfig{}, 200, 60, 11, 5},
        // Degenerate configs: pure treap and pure flat must agree too.
        HybridFuzzParams{4, HybridConfig{0, 0}, 100, 30, 7, 17},
        HybridFuzzParams{5, HybridConfig{0xFFFFFFFFu, 0}, 100, 30, 7, 17},
        // Hysteresis band narrow vs wide.
        HybridFuzzParams{6, HybridConfig{12, 11}, 80, 25, 5, 11},
        HybridFuzzParams{7, HybridConfig{48, 2}, 80, 25, 5, 7}));

// ------------------------------------ hybrid DominanceSet: hash ties --

struct TieFuzzParams {
  std::uint64_t seed;
  HybridConfig hybrid;
  int window;
  int coord_every;
};

class HashTieDominanceFuzz : public ::testing::TestWithParam<TieFuzzParams> {};

// Six hash values over 40 elements: distinct elements often share a
// hash, so the staircase holds long equal-hash runs, and a re-arriving
// element's stale copy can sit anywhere inside one (observe() must find
// it there without scanning the rest of the set).
TEST_P(HashTieDominanceFuzz, MatchesNaiveWithFewHashValues) {
  const auto p = GetParam();
  DominanceSet fast(p.seed, p.hybrid);
  NaiveDominanceSet ref;
  util::Xoshiro256StarStar rng(p.seed);
  const auto tied_hash = [](std::uint64_t e) {
    return 1 + util::mix64(e) % 6;
  };
  for (sim::Slot t = 0; t < 2000; ++t) {
    fast.expire(t);
    ref.expire(t);
    const int arrivals = static_cast<int>(rng.next_below(5));
    for (int a = 0; a < arrivals; ++a) {
      const std::uint64_t e = 1 + rng.next_below(40);
      fast.observe(e, tied_hash(e), t + p.window);
      ref.observe(e, tied_hash(e), t + p.window);
    }
    if (p.coord_every > 0 && t % p.coord_every == 0 && t > 0) {
      const std::uint64_t e = 1 + rng.next_below(40);
      const sim::Slot expiry =
          t + 1 + static_cast<sim::Slot>(rng.next_below(p.window));
      fast.insert(e, tied_hash(e), expiry);
      ref.insert(e, tied_hash(e), expiry);
    }
    ASSERT_EQ(fast.size(), ref.size()) << "slot " << t;
    ASSERT_EQ(fast.snapshot(), ref.snapshot()) << "slot " << t;
    ASSERT_TRUE(fast.check_invariants()) << "slot " << t;
    // Several tuples may share the minimum hash; the reference breaks
    // that tie by insertion order, the staircase by key order, so only
    // the hash is compared (and the front of the key order must hold it).
    const auto fm = fast.min_hash();
    const auto rm = ref.min_hash();
    ASSERT_EQ(fm.has_value(), rm.has_value());
    if (fm) {
      ASSERT_EQ(fm->hash, rm->hash) << "slot " << t;
      ASSERT_EQ(*fm, fast.snapshot().front()) << "slot " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashTieDominanceFuzz,
    ::testing::Values(TieFuzzParams{1, HybridConfig{}, 5, 0},
                      TieFuzzParams{2, HybridConfig{}, 20, 0},
                      TieFuzzParams{3, HybridConfig{}, 60, 7},
                      // Low thresholds: tie runs cross migrations.
                      TieFuzzParams{4, HybridConfig{8, 4}, 30, 5},
                      TieFuzzParams{5, HybridConfig{0, 0}, 30, 5}));

// ------------------------------- hybrid DominanceSet: migration edges --

/// Grows the set to exactly `n` tuples with rising hashes (nothing
/// dominated, nothing expired before `horizon`).
void grow_to(DominanceSet& d, std::uint32_t n, sim::Slot horizon) {
  for (std::uint32_t i = 0; i < n; ++i) {
    d.observe(1000 + i, (i + 1) * 1000ULL, horizon + i);
  }
}

TEST(HybridMigration, PromotesExactlyWhenInsertExceedsThreshold) {
  DominanceSet d(9, HybridConfig{8, 4});
  grow_to(d, 8, 100);
  EXPECT_EQ(d.size(), 8u);
  EXPECT_TRUE(d.is_flat());  // threshold hit exactly: still flat
  EXPECT_EQ(d.migrations(), 0u);
  d.observe(2000, 9 * 1000ULL, 200);  // ninth tuple crosses migrate_up
  EXPECT_EQ(d.size(), 9u);
  EXPECT_FALSE(d.is_flat());
  EXPECT_EQ(d.migrations(), 1u);
  EXPECT_TRUE(d.check_invariants());
}

TEST(HybridMigration, CoordinatorInsertCanTriggerPromotion) {
  DominanceSet d(9, HybridConfig{8, 4});
  grow_to(d, 8, 100);
  ASSERT_TRUE(d.is_flat());
  // Coordinator feedback (arbitrary expiry) crossing the threshold:
  // smaller hash than everything with an early expiry — dominates
  // nothing, dominated by nothing.
  d.insert(3000, 1, 50);
  EXPECT_EQ(d.size(), 9u);
  EXPECT_FALSE(d.is_flat());
  EXPECT_TRUE(d.check_invariants());
}

TEST(HybridMigration, ExpiryDemotesWhenDroppingUnderThreshold) {
  DominanceSet d(9, HybridConfig{8, 4});
  grow_to(d, 12, 100);  // expiries 100..111
  ASSERT_FALSE(d.is_flat());
  ASSERT_EQ(d.migrations(), 1u);
  // Expire down to 4 live tuples: still >= migrate_down, stays treap.
  d.expire(107);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_FALSE(d.is_flat());
  // One more expiry drops it to 3 < migrate_down: demotes mid-slot.
  d.expire(108);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_TRUE(d.is_flat());
  EXPECT_EQ(d.migrations(), 2u);
  EXPECT_TRUE(d.check_invariants());
  // The set keeps operating correctly after the round trip.
  d.observe(7000, 500, 300);
  EXPECT_EQ(d.min_hash()->element, 7000u);
}

TEST(HybridMigration, PruneCanDemoteMidUpdate) {
  DominanceSet d(11, HybridConfig{8, 4});
  grow_to(d, 12, 100);
  ASSERT_FALSE(d.is_flat());
  // A tiny-hash newcomer with the newest expiry dominates everything:
  // the set collapses to 1 tuple and demotes inside observe().
  d.observe(9000, 1, 500);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.is_flat());
  EXPECT_EQ(d.min_hash()->element, 9000u);
  EXPECT_TRUE(d.check_invariants());
}

TEST(HybridMigration, CheckpointRestoreAcrossMigratedSet) {
  // Checkpoint a promoted (treap-mode) set, restore into a fresh
  // instance, and verify both the image and continued behaviour.
  DominanceSet original(13, HybridConfig{8, 4});
  grow_to(original, 20, 100);
  ASSERT_FALSE(original.is_flat());
  const auto image = original.snapshot();

  DominanceSet restored(14, HybridConfig{8, 4});
  restored.load_snapshot(image);
  EXPECT_EQ(restored.snapshot(), image);
  EXPECT_FALSE(restored.is_flat());  // 20 tuples > migrate_up: treap mode
  EXPECT_TRUE(restored.check_invariants());

  // A restore into a differently-tuned instance picks its own mode.
  DominanceSet wide(15, HybridConfig{64, 24});
  wide.load_snapshot(image);
  EXPECT_EQ(wide.snapshot(), image);
  EXPECT_TRUE(wide.is_flat());  // 20 tuples <= 64: ring mode
  EXPECT_TRUE(wide.check_invariants());

  // Both restored copies evolve identically to the original.
  for (sim::Slot t = 100; t < 140; ++t) {
    original.expire(t);
    restored.expire(t);
    wide.expire(t);
    original.observe(t, t * 31, t + 25);
    restored.observe(t, t * 31, t + 25);
    wide.observe(t, t * 31, t + 25);
    ASSERT_EQ(restored.snapshot(), original.snapshot()) << "slot " << t;
    ASSERT_EQ(wide.snapshot(), original.snapshot()) << "slot " << t;
  }
}

TEST(HybridMigration, RestoreEmptySnapshot) {
  DominanceSet d(16, HybridConfig{8, 4});
  grow_to(d, 20, 100);
  d.load_snapshot({});
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.min_hash(), std::nullopt);
  d.observe(1, 10, 50);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_TRUE(d.check_invariants());
}

// ------------------------------------ zero steady-state allocations --

TEST(HybridAllocation, FlatModeChurnNeverTouchesStorage) {
  DominanceSet d(21);
  hash::HashFunction h(hash::HashKind::kMurmur2, 3);
  util::Xoshiro256StarStar rng(4);
  sim::Slot t = 0;
  const sim::Slot window = 40;
  for (; t < 200; ++t) {  // warm-up
    d.expire(t);
    const std::uint64_t e = 1 + rng.next_below(500);
    d.observe(e, h(e), t + window);
  }
  ASSERT_TRUE(d.is_flat());
  const std::size_t ring = d.ring_capacity();
  const std::size_t pool = d.tree_pool_slots();
  const std::size_t index = d.index_capacity();
  for (; t < 5000; ++t) {
    d.expire(t);
    const std::uint64_t e = 1 + rng.next_below(500);
    d.observe(e, h(e), t + window);
    (void)d.min_hash();
  }
  EXPECT_EQ(d.ring_capacity(), ring);
  EXPECT_EQ(d.tree_pool_slots(), pool);
  EXPECT_EQ(d.index_capacity(), index);
  EXPECT_EQ(d.migrations(), 0u);
}

TEST(HybridAllocation, TreapModeChurnReusesPoolAndIndex) {
  // The treap pool grows only when the live set reaches a new
  // high-water mark; with a bounded workload, churn after the first
  // full cycle must recycle freelist slots and probe-table entries
  // without a single allocation. Rising hashes keep every burst tuple
  // alive (nothing dominated), so |T| is deterministic.
  DominanceSet d(22, HybridConfig{0, 0});  // pure treap
  sim::Slot base = 0;
  const auto cycle = [&d, &base]() {
    for (std::uint32_t i = 0; i < 40; ++i) {
      d.observe(700000 + i, (i + 1) * 1000ULL, base + 100 + i);
    }
    d.expire(base + 100 + 34);  // keep the last 5 tuples
    base += 1000;
  };
  cycle();  // warm-up establishes the high-water mark (40 live tuples)
  ASSERT_FALSE(d.is_flat());
  ASSERT_EQ(d.size(), 5u);
  const std::size_t pool = d.tree_pool_slots();
  const std::size_t index = d.index_capacity();
  for (int c = 0; c < 20; ++c) {
    cycle();
    (void)d.min_hash();
    ASSERT_EQ(d.size(), 5u);
  }
  EXPECT_EQ(d.tree_pool_slots(), pool);
  EXPECT_EQ(d.index_capacity(), index);
  EXPECT_EQ(d.migrations(), 0u);
  EXPECT_TRUE(d.check_invariants());
}

TEST(HybridAllocation, MigrationCyclesReuseBothRepresentations) {
  DominanceSet d(23, HybridConfig{8, 4});
  // One full promote/demote cycle to warm both representations.
  grow_to(d, 12, 1000);
  d.expire(1008);  // 4 left... expiries 1000..1011; <=1008 drops 9, leaves 3
  ASSERT_TRUE(d.is_flat());
  ASSERT_EQ(d.migrations(), 2u);
  const std::size_t ring = d.ring_capacity();
  const std::size_t pool = d.tree_pool_slots();
  const std::size_t index = d.index_capacity();
  // Ten more cycles: storage must not move.
  sim::Slot base = 2000;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (std::uint32_t i = 0; i < 12; ++i) {
      d.observe(500000 + i, (i + 1) * 1000ULL, base + i);
    }
    ASSERT_FALSE(d.is_flat());
    d.expire(base + 8);
    ASSERT_TRUE(d.is_flat());
    base += 1000;
  }
  EXPECT_EQ(d.migrations(), 22u);
  EXPECT_EQ(d.ring_capacity(), ring);
  EXPECT_EQ(d.tree_pool_slots(), pool);
  EXPECT_EQ(d.index_capacity(), index);
}

// -------------------------------------- SDominanceSet order statistics --

TEST(SDominanceOrderStats, BottomSIsHashPrefixOfOrderStatisticTree) {
  SDominanceSet set(3);
  // Regression pin of the historical bottom_s() output (snapshot-copy +
  // full sort by hash, truncated to s): element/hash/expiry triples
  // chosen so the bottom-3 crosses expiry groups.
  set.observe(11, 900, 10);
  set.observe(12, 400, 11);
  set.observe(13, 700, 12);
  set.observe(14, 100, 13);
  set.observe(15, 800, 14);
  const std::vector<Candidate> expected{
      {14, 100, 13}, {12, 400, 11}, {13, 700, 12}};
  EXPECT_EQ(set.bottom_s(), expected);
  // The allocation-free variant agrees.
  std::vector<Candidate> out;
  set.bottom_s_into(out);
  EXPECT_EQ(out, expected);
  // And the rank queries see the same ordering.
  EXPECT_EQ(set.kth_smallest(0)->element, 14u);
  EXPECT_EQ(set.kth_smallest(2)->element, 13u);
  EXPECT_EQ(set.hash_rank(700), 2u);
  EXPECT_EQ(set.hash_rank(701), 3u);
  EXPECT_EQ(set.min_hash()->element, 14u);
}

TEST(SDominanceOrderStats, RankQueriesMatchSnapshotUnderFuzz) {
  SDominanceSet set(4);
  hash::HashFunction h(hash::HashKind::kMurmur2, 9);
  util::Xoshiro256StarStar rng(10);
  for (sim::Slot t = 0; t < 400; ++t) {
    set.expire(t);
    for (int a = 0; a < 3; ++a) {
      const std::uint64_t e = 1 + rng.next_below(300);
      set.observe(e, h(e), t + 40);
    }
    if (t % 37 != 0 || set.empty()) continue;
    auto by_hash = set.snapshot();
    std::sort(by_hash.begin(), by_hash.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.hash < b.hash;
              });
    for (std::size_t k = 0; k < by_hash.size(); k += 3) {
      ASSERT_EQ(set.kth_smallest(k)->element, by_hash[k].element);
      ASSERT_EQ(set.hash_rank(by_hash[k].hash), k);
    }
    ASSERT_EQ(set.kth_smallest(by_hash.size()), std::nullopt);
  }
}

// ------------------------------------- SDominanceSet batched observe --

// observe_group (one combined dominance sweep per same-expiry batch)
// must leave the set in the EXACT state n sequential observe() calls
// would — including stale-copy refreshes, in-batch duplicates, and
// victim pruning. Fuzzed across small/large domains (duplicate-heavy
// and duplicate-free) and batch widths, comparing full snapshots.
TEST(SDominanceBatchedObserve, GroupObserveMatchesSequentialUnderFuzz) {
  for (const std::uint64_t domain : {25ULL, 400ULL, 1000000ULL}) {
    for (const std::size_t width : {2, 5, 8, 64}) {
      SDominanceSet batched(4, /*seed=*/77);
      SDominanceSet sequential(4, /*seed=*/77);
      hash::HashFunction h(hash::HashKind::kMurmur2, 21);
      util::Xoshiro256StarStar rng(domain + width);
      const sim::Slot window = 60;
      std::vector<std::uint64_t> elems, hashes;
      for (sim::Slot t = 0; t < 300; ++t) {
        elems.clear();
        hashes.clear();
        const std::uint64_t count = 1 + rng.next_below(2 * width);
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t e = 1 + rng.next_below(domain);
          elems.push_back(e);
          hashes.push_back(h(e));
        }
        batched.expire(t);
        sequential.expire(t);
        for (std::size_t off = 0; off < elems.size(); off += width) {
          const std::size_t n = std::min(width, elems.size() - off);
          batched.observe_group(elems.data() + off, hashes.data() + off, n,
                                t + window);
        }
        for (std::size_t i = 0; i < elems.size(); ++i) {
          sequential.observe(elems[i], hashes[i], t + window);
        }
        ASSERT_EQ(batched.snapshot(), sequential.snapshot())
            << "domain=" << domain << " width=" << width << " t=" << t;
        ASSERT_TRUE(batched.check_invariants());
      }
    }
  }
}

TEST(SDominanceBatchedObserve, HandlesEmptySetAndRepeatedSlots) {
  SDominanceSet set(3, 5);
  const std::uint64_t elems[] = {10, 11, 10, 12};  // in-batch duplicate
  const std::uint64_t hashes[] = {700, 300, 700, 500};
  set.observe_group(elems, hashes, 4, 50);  // into an empty set
  EXPECT_EQ(set.size(), 3u);
  // Second batch at the same expiry: refreshes are all no-ops.
  set.observe_group(elems, hashes, 4, 50);
  EXPECT_EQ(set.size(), 3u);
  const auto snap = set.snapshot();
  // A later batch refreshes one element and prunes nothing.
  const std::uint64_t more[] = {10};
  const std::uint64_t more_h[] = {700};
  set.observe_group(more, more_h, 1, 60);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.check_invariants());
  EXPECT_NE(set.snapshot(), snap);  // 10's expiry moved to 60
}

TEST(SDominanceAllocation, SteadyStateChurnReusesAllStorage) {
  SDominanceSet set(8);
  hash::HashFunction h(hash::HashKind::kMurmur2, 11);
  util::Xoshiro256StarStar rng(12);
  sim::Slot t = 0;
  const sim::Slot window = 300;
  for (; t < 3000; ++t) {  // warm-up
    set.expire(t);
    const std::uint64_t e = 1 + rng.next_below(1000000);
    set.observe(e, h(e), t + window);
  }
  const std::uint64_t before = set.swept_tuples();
  const std::uint64_t updates_before = set.updates();
  // Sweeps must stay far below |T| on average (the early exit).
  for (; t < 9000; ++t) {
    set.expire(t);
    const std::uint64_t e = 1 + rng.next_below(1000000);
    set.observe(e, h(e), t + window);
    (void)set.min_hash();
  }
  const double mean_sweep =
      static_cast<double>(set.swept_tuples() - before) /
      static_cast<double>(set.updates() - updates_before);
  EXPECT_LT(mean_sweep, static_cast<double>(set.size()))
      << "dominance sweep should not scan the whole set";
  EXPECT_GT(set.size(), 8u);
}

}  // namespace
}  // namespace dds::treap
