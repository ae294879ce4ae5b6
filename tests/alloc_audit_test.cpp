// Steady-state zero-allocation audit for the batched ingest and
// multi-tenant serving hot paths.
//
// Mechanism: this TU overrides global operator new/delete to bump
// thread-local counters (gtest and the measured code share them, so
// the measured regions must not run any gtest machinery — counts are
// captured into plain locals and asserted AFTER the region). Warm-up
// drives each structure past its high-water mark (pools, scratch
// buffers, answer buffers all reach capacity); the measured steady
// state then re-runs the same loop shape and must allocate NOTHING —
// the property that makes the batched path safe for latency-sensitive
// serving loops.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/windowed_bottom_s.h"
#include "query/service.h"
#include "util/rng.h"

namespace {

thread_local std::uint64_t g_news = 0;
thread_local std::uint64_t g_deletes = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// otherwise they come from the runtime's allocator, and the free() below
// releases them, which AddressSanitizer reports as a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept {
  ++g_deletes;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace dds {
namespace {

/// One bursty slot of elements drawn from a FIXED element universe
/// (steady state must revisit warm-up's elements so hash-set buckets
/// and pool slots are already provisioned).
void fill_burst(util::Xoshiro256StarStar& rng, std::uint64_t domain,
                std::vector<std::uint64_t>& burst) {
  burst.clear();
  const std::uint64_t count = 4 + rng.next_below(8);
  for (std::uint64_t i = 0; i < count; ++i) {
    burst.push_back(util::mix64(1 + rng.next_below(domain)));
  }
}

TEST(AllocAudit, BatchedSamplerSteadyStateAllocatesNothing) {
  core::WindowedBottomSSampler sampler(
      /*sample_size=*/8, /*window=*/64,
      hash::HashFunction(hash::HashKind::kMurmur2, 42), /*seed=*/7);
  util::Xoshiro256StarStar rng(11);
  std::vector<std::uint64_t> burst;
  burst.reserve(16);
  std::vector<treap::Candidate> answer;
  answer.reserve(8);

  // Warm-up: several full windows' worth of churn so the candidate
  // pools, slot index, and scratch all reach their high-water marks.
  for (sim::Slot t = 0; t < 400; ++t) {
    fill_burst(rng, /*domain=*/300, burst);
    sampler.observe_batch(burst, t);
    sampler.sample_into(t, answer);
  }

  const std::uint64_t news_before = g_news;
  for (sim::Slot t = 400; t < 800; ++t) {
    fill_burst(rng, /*domain=*/300, burst);
    sampler.observe_batch(burst, t);
    sampler.sample_into(t, answer);
  }
  const std::uint64_t news_after = g_news;
  EXPECT_EQ(news_after - news_before, 0u)
      << "batched sampler ingest+query allocated in steady state";
}

TEST(AllocAudit, TenantRegistryServeLoopAllocatesNothing) {
  query::TenantRegistry registry(/*sample_size=*/8, /*max_width=*/128,
                                 /*num_streams=*/2,
                                 hash::HashKind::kMurmur2, /*seed=*/5);
  for (const sim::Slot w : {8, 16, 32, 48, 64, 96, 112, 128}) {
    registry.register_tenant(w);
  }
  util::Xoshiro256StarStar rng(13);
  std::vector<std::uint64_t> burst;
  burst.reserve(16);

  for (sim::Slot t = 0; t < 500; ++t) {
    fill_burst(rng, /*domain=*/400, burst);
    registry.update_batch(static_cast<std::uint32_t>(t % 2), burst, t);
    registry.serve_all(t);
  }

  const std::uint64_t news_before = g_news;
  for (sim::Slot t = 500; t < 1000; ++t) {
    fill_burst(rng, /*domain=*/400, burst);
    registry.update_batch(static_cast<std::uint32_t>(t % 2), burst, t);
    registry.serve_all(t);
  }
  const std::uint64_t news_after = g_news;
  EXPECT_EQ(news_after - news_before, 0u)
      << "TenantRegistry ingest+serve_all allocated in steady state";
}

TEST(AllocAudit, CountersActuallyCount) {
  // Sanity: the overrides are live in this TU (otherwise the audits
  // above would pass vacuously).
  const std::uint64_t before = g_news;
  auto* p = new std::vector<int>(64);
  EXPECT_GT(g_news, before);
  delete p;
}

}  // namespace
}  // namespace dds
