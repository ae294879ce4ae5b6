// The multi-tenant serving workload: query::TenantRegistry ingesting four
// streams once and answering sixteen window widths from the shared
// candidate structure. No transport, engine, coordinator or router.
#include <cmath>
#include <exception>
#include <memory>

#include "harness.h"
#include "inputs.h"
#include "oracle.h"
#include "query/service.h"
#include "treap/s_dominance_set.h"

namespace dds::bench {
namespace {

constexpr std::uint32_t kStreams = 4;
constexpr std::size_t kSampleSize = 16;
constexpr sim::Slot kMaxWidth = 8192;
/// Section 5.3's input construction on the whole Enron trace (1.56M
/// elements), at 64 arrivals per slot so that each stream's batch holds
/// ~16 of them: ~24k slots, ~524k arrivals in the widest window.
constexpr std::uint32_t kPerSlot = 64;
constexpr sim::Slot kServeEvery = 4;
/// Every 64th serve_all is checked against the brute-force oracle.
constexpr std::uint64_t kCheckEvery = 64;

using Served = std::vector<std::vector<treap::Candidate>>;

/// Sixteen widths from 33 to 8192, geometric: two per octave.
std::vector<sim::Slot> tenant_widths() {
  std::vector<sim::Slot> widths;
  constexpr int kTenants = 16;
  const double ratio = std::pow(static_cast<double>(kMaxWidth) / 33.0,
                                1.0 / (kTenants - 1));
  for (int i = 0; i < kTenants; ++i) {
    widths.push_back(static_cast<sim::Slot>(std::llround(33.0 * std::pow(ratio, i))));
  }
  return widths;
}

class TenantsWorkload final : public Workload {
 public:
  TenantsWorkload(std::uint64_t seed, double scale)
      : arrivals_(make_slotted_arrivals(stream::Dataset::kEnron, scale,
                                        kPerSlot, kStreams, seed)),
        widths_(tenant_widths()),
        hash_fn_(make()->sampler(0).hash_fn()) {
    // Arrivals of (slot t, stream j): [groups_[k], groups_[k+1]) with
    // k = (t - 1) * kStreams + j; a slot's arrivals are grouped by stream.
    groups_.push_back(0);
    for (sim::Slot t = 1; t <= arrivals_.num_slots(); ++t) {
      std::uint32_t i = arrivals_.slot_start[t - 1];
      for (std::uint32_t j = 0; j < kStreams; ++j) {
        while (i < arrivals_.slot_start[t] && arrivals_.sites[i] == j) ++i;
        groups_.push_back(i);
      }
    }
    hashes_.resize(arrivals_.size());
    hash_fn_.hash_batch(arrivals_.elements.data(), hashes_.size(),
                        hashes_.data());
    const auto slots = arrivals_.slot_of_each();
    for (std::uint64_t q = 0;; ++q) {
      const sim::Slot t = kServeEvery * static_cast<sim::Slot>(q + 1);
      if (t > arrivals_.num_slots()) break;
      if (q % kCheckEvery != kCheckEvery - 1) continue;
      refs_.push_back(tenant_references(arrivals_.elements, hashes_, slots,
                                        arrivals_.slot_start[t], t, widths_,
                                        kSampleSize));
    }
  }

  std::uint64_t arrivals() const override { return arrivals_.size(); }

  Rep run_rep(const RepOptions& options, SpanLog* spans) override {
    Rep rep;
    rep.arrivals = arrivals_.size();
    const sim::Slot slots = arrivals_.num_slots();
    rep.query_us.reserve(static_cast<std::size_t>(slots / kServeEvery));
    // Room for every checked answer, so that recording one (a copy
    // assignment within capacity) allocates nothing.
    std::vector<Served> served(refs_.size(), Served(widths_.size()));
    for (Served& answer : served) {
      for (auto& tenant : answer) tenant.reserve(kSampleSize);
    }
    std::size_t recorded = 0;
    std::unique_ptr<query::TenantRegistry> registry;
    const HeapWatch heap;
    {
      ScopedSpan span(spans, "setup");
      const auto t0 = Clock::now();
      registry = make();
      rep.setup_s = seconds_between(t0, Clock::now());
    }
    bool threw = false;
    const auto t0 = Clock::now();
    try {
      IngestSpans ingest(spans);
      for (sim::Slot t = 1; t <= slots; ++t) {
        for_each_batch(t, [&](std::uint32_t j, std::uint32_t begin,
                              std::uint32_t count) {
          registry->update_batch(
              j, std::span<const std::uint64_t>(arrivals_.elements.data() + begin,
                                                count),
              t);
        });
        if (t % kServeEvery != 0) continue;
        ingest.pause();
        const Served& answers = timed_query(
            rep, spans, [&]() -> const Served& { return registry->serve_all(t); });
        rep.state_tuples_max =
            std::max<std::uint64_t>(rep.state_tuples_max, registry->state_size());
        if (rep.query_us.size() % kCheckEvery == 0 && recorded < served.size()) {
          served[recorded++] = answers;
        }
        ingest.resume();
      }
      ingest.pause();
    } catch (const std::exception&) {
      threw = true;
    }
    rep.wall_s = seconds_between(t0, Clock::now());
    rep.heap_peak_kib = heap.kib();

    ScopedSpan verify(spans, "verify");
    if (options.corrupt_one && recorded > 0) {
      served[recorded / 2].front().front().element ^= 0x9E3779B97F4A7C15ULL;
    }
    rep.queries = static_cast<std::uint64_t>(slots / kServeEvery);
    for (std::size_t c = 0; c < recorded; ++c) {
      ++rep.checked;
      // Tenant answers are exact by construction (query/service.h).
      if (served[c] == refs_[c]) {
        ++rep.exact;
      } else {
        ++rep.failed;
      }
    }
    if (threw || recorded != refs_.size()) {
      rep.failed += std::max<std::uint64_t>(1, refs_.size() - recorded);
    }
    return rep;
  }

  void ladder(std::map<std::string, double>& layers, SpanLog* spans) override {
    const double n = static_cast<double>(arrivals_.size());
    layers["hash.ns_per_arrival"] =
        hash_rung_ns(spans, arrivals_.elements, {hash_fn_});
    // Each stream replayed into a standalone SDominanceSet exactly as
    // WindowedBottomSSampler::observe_batch drives it, hashes precomputed.
    const double treap_s = rung_seconds(
        spans, "rung.treap",
        [] {
          auto sets = std::make_unique<std::vector<treap::SDominanceSet>>();
          for (std::uint32_t j = 0; j < kStreams; ++j) {
            sets->emplace_back(kSampleSize, util::derive_seed(0x7453764FULL, j));
          }
          return sets;
        },
        [&](std::vector<treap::SDominanceSet>& sets) {
          for (sim::Slot t = 1; t <= arrivals_.num_slots(); ++t) {
            for_each_batch(t, [&](std::uint32_t j, std::uint32_t begin,
                                  std::uint32_t count) {
              sets[j].expire(t);
              sets[j].observe_group(arrivals_.elements.data() + begin,
                                    hashes_.data() + begin, count,
                                    t + kMaxWidth);
            });
          }
        });
    layers["treap.ns_per_arrival"] = treap_s * 1e9 / n;
  }

 private:
  /// Calls fn(stream, begin, count) for each stream's non-empty batch of
  /// slot t.
  template <typename Fn>
  void for_each_batch(sim::Slot t, Fn&& fn) const {
    for (std::uint32_t j = 0; j < kStreams; ++j) {
      const std::size_t k = static_cast<std::size_t>(t - 1) * kStreams + j;
      if (groups_[k + 1] > groups_[k]) fn(j, groups_[k], groups_[k + 1] - groups_[k]);
    }
  }

  std::unique_ptr<query::TenantRegistry> make() const {
    auto registry = std::make_unique<query::TenantRegistry>(
        kSampleSize, kMaxWidth, kStreams);
    for (const sim::Slot w : widths_) registry->register_tenant(w);
    return registry;
  }

  Arrivals arrivals_;
  std::vector<sim::Slot> widths_;
  hash::HashFunction hash_fn_;
  std::vector<std::uint32_t> groups_;
  std::vector<std::uint64_t> hashes_;
  std::vector<Served> refs_;
};

}  // namespace

std::unique_ptr<Workload> make_tenants_workload(std::uint64_t seed,
                                                double scale) {
  return std::make_unique<TenantsWorkload>(seed, scale);
}

}  // namespace dds::bench
