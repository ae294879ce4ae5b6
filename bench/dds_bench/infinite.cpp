// The infinite-window workloads (Algorithms 1 and 2): the ROADMAP
// baseline deployment, and the same arrivals through four coordinator
// shards.
#include <exception>
#include <memory>

#include "core/system.h"
#include "harness.h"
#include "inputs.h"
#include "oracle.h"

namespace dds::bench {
namespace {

constexpr std::uint32_t kSites = 32;
constexpr std::size_t kSampleSize = 16;
constexpr std::uint64_t kQueryEvery = 16384;
/// Half the paper's OC48 trace: ~21.1M arrivals at full scale.
constexpr double kTraceScale = 0.5;

class InfiniteWorkload final : public Workload {
 public:
  InfiniteWorkload(std::uint32_t shards, std::uint64_t seed, double scale)
      : shards_(shards),
        arrivals_(make_trace_arrivals(stream::Dataset::kOc48,
                                      kTraceScale * scale, kSites, seed)),
        hash_fn_(make(shards_, false)->hash_fn()),
        refs_(bottom_s_references(arrivals_.elements, hash_fn_, kSampleSize,
                                  kQueryEvery)) {}

  std::uint64_t arrivals() const override { return arrivals_.size(); }

  Rep run_rep(const RepOptions& options, SpanLog* spans) override {
    Rep rep;
    rep.arrivals = arrivals_.size();
    std::vector<HashedElement> answers;
    answers.reserve(refs_.size() * kSampleSize);
    std::vector<std::size_t> sizes;
    sizes.reserve(refs_.size());
    rep.query_us.reserve(refs_.size());

    std::unique_ptr<core::InfiniteSystem> system;
    const HeapWatch heap;
    {
      ScopedSpan span(spans, "setup");
      const auto t0 = Clock::now();
      system = make(shards_, options.traced);
      rep.setup_s = seconds_between(t0, Clock::now());
    }
    ReplaySource source(arrivals_);
    IngestSpans ingest(spans);
    system->runner().set_observer(kQueryEvery, [&](const sim::Progress& p) {
      if (p.final_snapshot) return;
      ingest.pause();
      const auto sample = timed_query(rep, spans, [&] { return system->sample(); });
      for (const auto& e : sample.entries()) {
        answers.push_back(HashedElement{e.element, e.hash});
      }
      sizes.push_back(sample.size());
      rep.state_tuples_max =
          std::max<std::uint64_t>(rep.state_tuples_max, system->total_site_state());
      ingest.resume();
    });
    bool threw = false;
    const auto t0 = Clock::now();
    try {
      system->run(source);
      ingest.pause();
    } catch (const std::exception&) {
      threw = true;
    }
    rep.wall_s = seconds_between(t0, Clock::now());
    rep.heap_peak_kib = heap.kib();
    record_wire(system->bus(), options.traced, rep);
    if (options.traced) {
      const auto snap = system->observability().snapshot();
      if (const auto lookups = snap.counter_or("deployment.route_cache.lookups")) {
        rep.layers["core.router.cache_hit_frac"] =
            static_cast<double>(snap.counter_or("deployment.route_cache.hits")) /
            static_cast<double>(lookups);
      }
    }

    ScopedSpan verify(spans, "verify");
    if (options.corrupt_one && !answers.empty()) {
      answers[answers.size() / 2].element ^= 0x9E3779B97F4A7C15ULL;
    }
    rep.queries = refs_.size();
    std::size_t pos = 0;
    for (std::size_t q = 0; q < sizes.size(); ++q) {
      const std::vector<HashedElement> got(answers.begin() + pos,
                                           answers.begin() + pos + sizes[q]);
      pos += sizes[q];
      ++rep.checked;
      // The bottom-s is exact by Algorithms 1-2 and the shard merge, so
      // any difference is a failure.
      if (got == refs_[q]) {
        ++rep.exact;
      } else {
        ++rep.failed;
      }
    }
    if (threw || sizes.size() != refs_.size()) {
      rep.failed += std::max<std::uint64_t>(1, refs_.size() - sizes.size());
    }
    return rep;
  }

  void ladder(std::map<std::string, double>& layers, SpanLog* spans) override {
    const double n = static_cast<double>(arrivals_.size());
    const auto per_arrival = [n](double seconds) { return seconds * 1e9 / n; };
    const double hash_ns =
        hash_rung_ns(spans, arrivals_.elements, {hash_fn_});
    // The bench drives the sites and the Bus itself, without the engine.
    const double direct_ns = per_arrival(rung_seconds(
        spans, "rung.direct_drive", [&] { return make(shards_, false); },
        [&](core::InfiniteSystem& system) {
          net::Transport& bus = system.bus();
          const core::ShardRouter& router = system.router();
          for (std::size_t i = 0; i < arrivals_.size(); ++i) {
            const std::uint64_t e = arrivals_.elements[i];
            const std::uint32_t shard = shards_ > 1 ? router.owner(e) : 0;
            system.site(arrivals_.sites[i], shard)
                .on_element(e, static_cast<sim::Slot>(i), bus);
            bus.drain();
          }
          bus.finish();
        }));
    const auto engine_run = [&](std::uint32_t shards) {
      return per_arrival(rung_seconds(
          spans, "rung.engine_run", [&] { return make(shards, false); },
          [&](core::InfiniteSystem& system) {
            ReplaySource source(arrivals_);
            system.run(source);
          }));
    };
    const double run_ns = engine_run(shards_);
    auto system = make(shards_, false);
    const core::ShardRouter& router = system->router();
    const double router_ns = per_arrival(
        rung_seconds(spans, "rung.router", [&] {
          std::uint64_t acc = 0;
          for (const std::uint64_t e : arrivals_.elements) acc += router.owner(e);
          keep(acc);
        }));
    // With shards, the direct drive routes every arrival through owner().
    const double routed_ns = shards_ > 1 ? router_ns : 0.0;
    layers["hash.ns_per_arrival"] = hash_ns;
    layers["core.router.ns_per_arrival"] = router_ns;
    layers["core.protocol.ns_per_arrival"] = direct_ns - hash_ns - routed_ns;
    layers["sim.engine.ns_per_arrival"] = run_ns - direct_ns;
    if (shards_ > 1) {
      layers["core.router.shard_ns_per_arrival"] = run_ns - engine_run(1);
    }
  }

 private:
  static std::unique_ptr<core::InfiniteSystem> make(std::uint32_t shards,
                                                    bool metrics) {
    core::SystemConfig config;
    config.num_sites = kSites;
    config.sample_size = kSampleSize;
    config.num_shards = shards;
    config.observability.metrics = metrics;
    core::InfiniteTraits::Options options;
    options.suppress_duplicates = true;
    return std::make_unique<core::InfiniteSystem>(config, options);
  }

  std::uint32_t shards_;
  Arrivals arrivals_;
  hash::HashFunction hash_fn_;
  std::vector<std::vector<HashedElement>> refs_;
};

}  // namespace

std::unique_ptr<Workload> make_infinite_workload(std::uint32_t shards,
                                                 std::uint64_t seed,
                                                 double scale) {
  return std::make_unique<InfiniteWorkload>(shards, seed, scale);
}

}  // namespace dds::bench
