// Micro-benchmarks (google-benchmark) for the substrates on the
// per-element hot path: hash evaluation, bottom-s sample offers, site
// element processing, and treap updates. The treap benches compare the
// pooled index-based implementation (treap/treap.h) against the seed's
// unique_ptr implementation (reference_treap.h) and std::map.
#include <benchmark/benchmark.h>

#include <map>

#include "core/bottom_s_sample.h"
#include "core/system.h"
#include "hash/hash_function.h"
#include "reference_dominance.h"
#include "reference_treap.h"
#include "stream/generators.h"
#include "stream/partitioner.h"
#include "treap/dominance_set.h"
#include "treap/treap.h"
#include "util/rng.h"

namespace {

using namespace dds;

void BM_Hash(benchmark::State& state) {
  const auto kind = static_cast<hash::HashKind>(state.range(0));
  hash::HashFunction h(kind, 42);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(++key));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(hash::to_string(kind));
}

void BM_BottomSOffer(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  hash::HashFunction h(hash::HashKind::kMurmur2, 1);
  std::uint64_t e = 0;
  core::BottomSSample sample(s);
  for (auto _ : state) {
    ++e;
    benchmark::DoNotOptimize(sample.offer(e, h(e)));
  }
  state.SetItemsProcessed(state.iterations());
}

/// End-to-end per-element cost of the infinite-window deployment.
void BM_InfiniteSystemElement(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  core::SystemConfig config{k, 10, hash::HashKind::kMurmur2, 5};
  core::InfiniteSystem system(config);
  util::Xoshiro256StarStar rng(9);

  // Pre-warm with 100k distinct elements so u is realistic.
  {
    stream::AllDistinctStream warm(100000, 3);
    stream::RandomPartitioner source(warm, k, 4);
    system.run(source);
  }
  class OneShot final : public sim::ArrivalSource {
   public:
    OneShot(sim::Slot slot, sim::NodeId site, std::uint64_t e)
        : a_{slot, site, e} {}
    std::optional<sim::Arrival> next() override {
      if (done_) return std::nullopt;
      done_ = true;
      return a_;
    }

   private:
    sim::Arrival a_;
    bool done_ = false;
  };
  sim::Slot t = 1 << 20;
  for (auto _ : state) {
    OneShot src(++t, static_cast<sim::NodeId>(rng.next_below(k)), rng.next());
    system.run(src);
  }
  state.SetItemsProcessed(state.iterations());
}

/// Steady-state insert/erase churn around a resident set of n keys.
/// Shared driver so pooled treap / seed treap / std::map run the exact
/// same key sequence.
template <typename SetLike>
void treap_churn(benchmark::State& state, SetLike& t) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) t.insert(i * 2, i);
  util::Xoshiro256StarStar rng(12);
  for (auto _ : state) {
    const std::uint64_t key = rng.next_below(2 * n) | 1;  // odd: new key
    t.insert(key, key);
    t.erase(key);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

void BM_TreapInsertErase(benchmark::State& state) {
  treap::Treap<std::uint64_t, std::uint64_t> t(11);
  treap_churn(state, t);
}

void BM_TreapInsertEraseSeed(benchmark::State& state) {
  bench::seed::ReferenceTreap<std::uint64_t, std::uint64_t> t(11);
  treap_churn(state, t);
}

void BM_StdMapInsertErase(benchmark::State& state) {
  // std::map with the treap driver's interface.
  struct MapAdapter {
    std::map<std::uint64_t, std::uint64_t> m;
    bool insert(std::uint64_t k, std::uint64_t v) {
      return m.emplace(k, v).second;
    }
    bool erase(std::uint64_t k) { return m.erase(k) > 0; }
  } t;
  treap_churn(state, t);
}

/// The dominance-set hot path end to end: expire + observe + min_hash
/// per slot, i.e. what every sliding-window site pays per arrival.
void BM_DominanceSetSlot(benchmark::State& state) {
  const auto domain = static_cast<std::uint64_t>(state.range(0));
  const std::int64_t window = state.range(1);
  treap::DominanceSet set(42);
  hash::HashFunction h(hash::HashKind::kMurmur2, 7);
  util::Xoshiro256StarStar rng(13);
  std::int64_t t = 0;
  // Warm up to steady state so the pool's freelist is the common path.
  for (; t < window; ++t) {
    set.expire(t);
    const std::uint64_t e = 1 + rng.next_below(domain);
    set.observe(e, h(e), t + window);
  }
  for (auto _ : state) {
    ++t;
    set.expire(t);
    const std::uint64_t e = 1 + rng.next_below(domain);
    set.observe(e, h(e), t + window);
    benchmark::DoNotOptimize(set.min_hash());
  }
  state.SetItemsProcessed(state.iterations());
}

/// Steady-state dominance-set churn at a CONTROLLED size n — the
/// substrate-crossover bench. A resident "staircase" of n tuples
/// (rising hashes, consecutive expiries) is held in equilibrium: every
/// iteration retires the front, appends at the tail, re-observes the
/// appended element in the same slot (a same-slot duplicate: the
/// per-arrival duplicate check), and every 4th iteration lands a
/// coordinator-style insert in the middle of the staircase (hash and
/// expiry between its neighbours, so nothing is dominated either way).
/// The same op sequence drives every substrate: the flat ring pays
/// O(n) on the insert's lookup and middle shift but only touches its
/// tail on observe(), the treap pays O(log n) everywhere plus
/// pointer-chasing constants — the crossover between them is what
/// HybridConfig's thresholds encode.
template <typename Set>
void staircase_churn(benchmark::State& state, Set& set) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kStep = 1000;
  std::uint64_t t = 0;
  for (; t < n; ++t) set.observe(t, (t + 1) * kStep, t + n);
  util::Xoshiro256StarStar rng(42);
  std::uint64_t fresh = 1ULL << 40;
  for (auto _ : state) {
    ++t;
    set.expire(t);
    set.observe(t, (t + 1) * kStep, t + n);
    // No-op refresh: same element, same expiry — pure lookup cost. (An
    // older resident cannot be re-observed at its old expiry: observe()
    // takes only the newest expiry.)
    set.observe(t, (t + 1) * kStep, t + n);
    if ((t & 3) == 0) {
      // Mid-staircase insert: strictly between resident p's and p+1's
      // hashes, sharing p's expiry — no prunes in either direction.
      const std::uint64_t p = t - 1 - rng.next_below(n / 2 + 1);
      set.insert(fresh++, (p + 1) * kStep + 1 + rng.next_below(kStep / 2),
                 p + n);
    }
    benchmark::DoNotOptimize(set.min_hash());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DominanceChurnHybrid(benchmark::State& state) {
  treap::DominanceSet set(7);  // default thresholds
  staircase_churn(state, set);
}

void BM_DominanceChurnFlat(benchmark::State& state) {
  treap::DominanceSet set(7, treap::HybridConfig{0xFFFFFFFFu, 0});
  staircase_churn(state, set);
}

void BM_DominanceChurnTreap(benchmark::State& state) {
  treap::DominanceSet set(7, treap::HybridConfig{0, 0});
  staircase_churn(state, set);
}

void BM_DominanceChurnPR2(benchmark::State& state) {
  bench::pr2::MapIndexDominanceSet set(7);
  staircase_churn(state, set);
}

/// Hybrid threshold sweep: the same staircase churn at size n with
/// migrate_up swept across it. Below n the set promotes (treap mode),
/// above n it stays flat — the sweep exposes the crossover the default
/// HybridConfig hard-codes.
void BM_HybridThresholdSweep(benchmark::State& state) {
  const auto up = static_cast<std::uint32_t>(state.range(1));
  treap::DominanceSet set(7, treap::HybridConfig{up, up / 4});
  staircase_churn(state, set);
  state.SetLabel(set.is_flat() ? "flat-mode" : "treap-mode");
}

/// Observability cost on the end-to-end sliding-window hot path: the
/// same per-element workload with the instruments off (0), the metrics
/// registry bound (1), and registry + tracer (2). Mode 0 vs an
/// uninstrumented build is the <2%-overhead budget the layer is held
/// to; mode 1 vs 0 isolates the pull-based registry (bind-time-only
/// work, so the delta should be noise); mode 2 adds the per-delivery
/// trace emission, the one genuinely per-message cost.
void BM_ObsOverhead(benchmark::State& state) {
  const auto mode = static_cast<int>(state.range(0));
  core::SlidingSystemConfig config;
  config.num_sites = 8;
  config.sample_size = 4;
  config.window = 256;
  config.seed = 5;
  config.observability.metrics = mode >= 1;
  config.observability.tracing = mode >= 2;
  core::SlidingSystem system(config);
  util::Xoshiro256StarStar rng(9);

  class OneShot final : public sim::ArrivalSource {
   public:
    OneShot(sim::Slot slot, sim::NodeId site, std::uint64_t e)
        : a_{slot, site, e} {}
    std::optional<sim::Arrival> next() override {
      if (done_) return std::nullopt;
      done_ = true;
      return a_;
    }

   private:
    sim::Arrival a_;
    bool done_ = false;
  };
  // Warm a full window so expiry is on the steady-state path.
  sim::Slot t = 0;
  for (; t < 256; ++t) {
    OneShot src(t, static_cast<sim::NodeId>(rng.next_below(8)),
                1 + rng.next_below(100000));
    system.run(src);
  }
  for (auto _ : state) {
    OneShot src(++t, static_cast<sim::NodeId>(rng.next_below(8)),
                1 + rng.next_below(100000));
    system.run(src);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(mode == 0 ? "obs-off"
                           : (mode == 1 ? "metrics" : "metrics+tracing"));
}

void BM_ZipfDraw(benchmark::State& state) {
  stream::ZipfStream s(~0ULL, 1'000'000, 1.0, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.next_rank());
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_Hash)->DenseRange(0, 3);
BENCHMARK(BM_BottomSOffer)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_InfiniteSystemElement)->Arg(5)->Arg(100);
BENCHMARK(BM_TreapInsertErase)->Arg(64)->Arg(4096)->Arg(262144);
BENCHMARK(BM_TreapInsertEraseSeed)->Arg(64)->Arg(4096)->Arg(262144);
BENCHMARK(BM_StdMapInsertErase)->Arg(64)->Arg(4096)->Arg(262144);
BENCHMARK(BM_DominanceSetSlot)->Args({1000, 100})->Args({1000000, 10000});
BENCHMARK(BM_DominanceChurnHybrid)
    ->Arg(10)->Arg(64)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_DominanceChurnFlat)
    ->Arg(10)->Arg(64)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_DominanceChurnTreap)
    ->Arg(10)->Arg(64)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_DominanceChurnPR2)
    ->Arg(10)->Arg(64)->Arg(1024)->Arg(4096)->Arg(16384);
BENCHMARK(BM_HybridThresholdSweep)
    ->Args({48, 16})->Args({48, 32})->Args({48, 64})->Args({48, 128})
    ->Args({192, 64})->Args({192, 128})->Args({192, 256});
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_ZipfDraw);

BENCHMARK_MAIN();
