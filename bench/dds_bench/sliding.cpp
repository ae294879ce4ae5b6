// The sliding-window workloads (Algorithms 3 and 4, s independent
// copies): one bound by the candidate-set substrate on a lossy simulated
// wire, one bound by a real TCP socket on loopback.
#include <exception>
#include <memory>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/system.h"
#include "harness.h"
#include "inputs.h"
#include "net/wire.h"
#include "oracle.h"
#include "treap/dominance_set.h"

namespace dds::bench {
namespace {

constexpr std::size_t kSampleSize = 8;
constexpr std::uint64_t kQueryEvery = 256;

/// Section 5.3's input: the Enron trace at the repository's default rate
/// of 5 arrivals per slot (the sliding-window benches use it too).
constexpr std::uint32_t kPerSlot = 5;

struct Spec {
  double trace_scale;  ///< share of the 1.56M-element Enron trace
  std::uint32_t sites;
  sim::Slot window;
  bool tcp;
  std::uint64_t checkpoint_every;  ///< 0: no checkpoints
};
constexpr Spec kWireSpec{1.0, 16, 1000, false, 16384};
// k = 4 sites: one loopback connection per core of a 4-core machine. A
// quarter of the trace (~1.3 s per rep), so that a 10 s run holds ~8 reps.
constexpr Spec kTcpSpec{0.25, 4, 50, true, 0};

/// Query answers of one rep: sample(now) per query, flattened.
struct Answers {
  std::vector<std::uint64_t> elements;
  std::vector<std::size_t> starts{0};  ///< answer q: [starts[q], starts[q+1])

  void add(const std::vector<std::uint64_t>& answer) {
    elements.insert(elements.end(), answer.begin(), answer.end());
    starts.push_back(elements.size());
  }
  std::size_t count() const noexcept { return starts.size() - 1; }
  std::vector<std::uint64_t> at(std::size_t q) const {
    return {elements.begin() + static_cast<std::ptrdiff_t>(starts[q]),
            elements.begin() + static_cast<std::ptrdiff_t>(starts[q + 1])};
  }
};

class SlidingWorkload final : public Workload {
 public:
  SlidingWorkload(const Spec& spec, std::uint64_t seed, double scale)
      : spec_(spec),
        arrivals_(make_slotted_arrivals(stream::Dataset::kEnron,
                                        spec.trace_scale * scale, kPerSlot,
                                        spec.sites, seed)),
        slots_(arrivals_.slot_of_each()),
        membership_(arrivals_.elements, slots_) {
    auto probe = make(/*on_network=*/false, false);
    for (std::size_t j = 0; j < kSampleSize; ++j) {
      copies_.push_back(probe->family().at(j));
    }
    refs_ = window_min_references(arrivals_.elements, slots_, copies_,
                                  spec_.window, kQueryEvery);
    if (spec_.tcp) {
      // Sockets deliver in global send order, so every answer must equal
      // the zero-delay Bus run's answer at the same query point.
      Rep scratch;
      reserve(bus_answers_, scratch);
      drive(*probe, scratch, nullptr, bus_answers_);
    }
  }

  std::uint64_t arrivals() const override { return arrivals_.size(); }

  Rep run_rep(const RepOptions& options, SpanLog* spans) override {
    Rep rep;
    rep.arrivals = arrivals_.size();
    Answers answers;
    reserve(answers, rep);
    std::unique_ptr<core::SlidingSystem> system;
    const HeapWatch heap;
    {
      ScopedSpan span(spans, "setup");
      const auto t0 = Clock::now();
      system = make(/*on_network=*/true, options.traced);
      rep.setup_s = seconds_between(t0, Clock::now());
    }
    bool threw = false;
    try {
      drive(*system, rep, spans, answers);
    } catch (const std::exception&) {
      threw = true;
    }
    rep.heap_peak_kib = heap.kib();
    record_wire(system->bus(), options.traced, rep);
    if (options.traced) {
      const auto snap = system->observability().snapshot();
      const double n = static_cast<double>(rep.arrivals);
      rep.layers["treap.occupancy"] = snap.gauge_or("substrate.occupancy");
      rep.layers["treap.migrations"] =
          static_cast<double>(snap.counter_or("substrate.migrations"));
      if (!spec_.tcp) {
        rep.layers["net.retransmissions_per_arrival"] =
            static_cast<double>(snap.counter_or("net.retransmissions")) / n;
        rep.layers["net.batches_per_arrival"] =
            static_cast<double>(snap.counter_or("net.batches_flushed")) / n;
      }
      if (checkpoint_calls_ > 0) {
        rep.layers["core.checkpoint.bytes_per_call"] =
            static_cast<double>(checkpoint_bytes_) /
            static_cast<double>(checkpoint_calls_);
      }
    }

    ScopedSpan verify(spans, "verify");
    if (options.corrupt_one && !answers.elements.empty()) {
      answers.elements[answers.elements.size() / 2] ^= 0x9E3779B97F4A7C15ULL;
    }
    rep.queries = refs_.size();
    for (std::size_t q = 0; q < answers.count(); ++q) {
      const auto got = answers.at(q);
      const std::size_t prefix = (q + 1) * kQueryEvery;
      const sim::Slot now = slots_[prefix - 1];
      bool ok = true;
      for (const std::uint64_t e : got) {
        ok = ok && membership_.in_window(e, prefix, now, spec_.window);
      }
      if (spec_.tcp) ok = ok && got == bus_answers_.at(q);
      ++rep.checked;
      // The lazy protocol may briefly hold a valid non-minimal sample
      // (sliding_coordinator.h), and the wire delays replies, so a
      // non-exact answer is not a failure; an answer outside the window
      // (or, over TCP, one differing from the Bus run) is.
      if (got == refs_[q]) ++rep.exact;
      if (!ok) ++rep.failed;
    }
    if (threw || answers.count() != refs_.size()) {
      rep.failed += std::max<std::uint64_t>(1, refs_.size() - answers.count());
    }
    return rep;
  }

  void ladder(std::map<std::string, double>& layers, SpanLog* spans) override {
    const double n = static_cast<double>(arrivals_.size());
    const auto per_arrival = [n](double seconds) { return seconds * 1e9 / n; };
    const double hash_ns =
        hash_rung_ns(spans, arrivals_.elements, copies_);
    const double treap_ns = per_arrival(treap_rung_seconds(spans));
    // The bench drives slot begins, sites and the Bus itself, without
    // the engine.
    const double direct_ns = per_arrival(rung_seconds(
        spans, "rung.direct_drive", [&] { return make(false, false); },
        [&](core::SlidingSystem& system) {
          net::Transport& bus = system.bus();
          for (sim::Slot t = 1; t <= arrivals_.num_slots(); ++t) {
            bus.set_now(t);
            bus.drain();
            for (std::uint32_t i = 0; i < spec_.sites; ++i) {
              system.site(i).on_slot_begin(t, bus);
              bus.drain();
            }
            for (std::uint32_t i = arrivals_.slot_start[t - 1];
                 i < arrivals_.slot_start[t]; ++i) {
              system.site(arrivals_.sites[i])
                  .on_element(arrivals_.elements[i], t, bus);
              bus.drain();
            }
          }
          bus.finish();
        }));
    const auto engine_run = [&](bool on_network, std::uint64_t* transmissions) {
      return rung_seconds(
          spans, on_network ? "rung.network_run" : "rung.engine_run",
          [&] { return make(on_network, false); },
          [&](core::SlidingSystem& system) {
            ReplaySource source(arrivals_);
            system.run(source);
            if (transmissions != nullptr) {
              *transmissions = system.bus().counters().total;
            }
          });
    };
    const double bus_s = engine_run(false, nullptr);
    std::uint64_t transmissions = 0;
    const double network_s = engine_run(true, &transmissions);
    layers["hash.ns_per_arrival"] = hash_ns;
    layers["treap.ns_per_arrival"] = treap_ns;
    layers["core.protocol.ns_per_arrival"] = direct_ns - hash_ns - treap_ns;
    layers["sim.engine.ns_per_arrival"] = per_arrival(bus_s) - direct_ns;
    const double network_ns_per_transmission =
        (network_s - bus_s) * 1e9 / static_cast<double>(transmissions);
    if (spec_.tcp) {
      layers["net.tcp.ns_per_frame"] = network_ns_per_transmission;
      codec_rung(layers, spans);
    } else {
      layers["net.sim_network.ns_per_msg"] = network_ns_per_transmission;
    }
    const auto totals = spans->totals();
    if (const auto it = totals.find("checkpoint"); it != totals.end()) {
      layers["core.checkpoint.us_per_call"] =
          it->second.first / static_cast<double>(it->second.second);
    }
  }

 private:
  std::unique_ptr<core::SlidingSystem> make(bool on_network,
                                            bool metrics) const {
    core::SystemConfig config;
    config.num_sites = spec_.sites;
    config.sample_size = kSampleSize;
    config.window = spec_.window;
    config.observability.metrics = metrics;
    if (!on_network) {
      config.network.kind = net::TransportKind::kBus;
    } else if (spec_.tcp) {
      config.network.kind = net::TransportKind::kTcp;
    } else {
      config.network.link.latency = 0.25;
      config.network.link.jitter = 0.25;
      config.network.link.drop_rate = 0.01;
      config.network.link.retransmit = true;
      config.network.batch_interval = 1;
    }
    return std::make_unique<core::SlidingSystem>(config);
  }

  /// Room for every answer and query time of a rep, so that recording
  /// them allocates nothing.
  void reserve(Answers& answers, Rep& rep) const {
    answers.elements.reserve(refs_.size() * kSampleSize);
    answers.starts.reserve(refs_.size() + 1);
    rep.query_us.reserve(refs_.size());
  }

  /// Runs every arrival through `system` in one closed loop, querying
  /// sample(now) every kQueryEvery arrivals into `answers` (and
  /// checkpointing every spec_.checkpoint_every); fills the rep's timings.
  void drive(core::SlidingSystem& system, Rep& rep, SpanLog* spans,
             Answers& answers) {
    checkpoint_bytes_ = 0;
    checkpoint_calls_ = 0;
    ReplaySource source(arrivals_);
    IngestSpans ingest(spans);
    system.runner().set_observer(kQueryEvery, [&](const sim::Progress& p) {
      if (p.final_snapshot) return;
      ingest.pause();
      const auto sample =
          timed_query(rep, spans, [&] { return system.sample(p.slot); });
      answers.add(sample);
      rep.state_tuples_max = std::max<std::uint64_t>(rep.state_tuples_max,
                                                     system.total_site_state());
      if (spec_.checkpoint_every != 0 &&
          p.elements_processed % spec_.checkpoint_every == 0) {
        ScopedSpan span(spans, "checkpoint");
        for (const auto& image : core::checkpoint_ensemble(system)) {
          checkpoint_bytes_ += image.size();
        }
        ++checkpoint_calls_;
      }
      ingest.resume();
    });
    const auto t0 = Clock::now();
    system.run(source);
    ingest.pause();
    rep.wall_s = seconds_between(t0, Clock::now());
  }

  /// Each (site, copy) substream replayed into a standalone DominanceSet:
  /// expire(t) per slot, then observe() per arrival, hashes precomputed.
  double treap_rung_seconds(SpanLog* spans) {
    std::vector<double> times(kRungReps, 0.0);
    std::vector<std::uint64_t> hashes(arrivals_.size());
    for (const auto& fn : copies_) {
      fn.hash_batch(arrivals_.elements.data(), hashes.size(), hashes.data());
      for (int r = 0; r < kRungReps; ++r) {
        std::vector<treap::DominanceSet> sets;
        sets.reserve(spec_.sites);
        for (std::uint32_t i = 0; i < spec_.sites; ++i) {
          sets.emplace_back(util::derive_seed(0xD800ULL, i));
        }
        ScopedSpan span(spans, "rung.treap");
        const auto t0 = Clock::now();
        for (sim::Slot t = 1; t <= arrivals_.num_slots(); ++t) {
          for (auto& set : sets) set.expire(t);
          for (std::uint32_t i = arrivals_.slot_start[t - 1];
               i < arrivals_.slot_start[t]; ++i) {
            sets[arrivals_.sites[i]].observe(arrivals_.elements[i], hashes[i],
                                             t + spec_.window);
          }
        }
        times[static_cast<std::size_t>(r)] += seconds_between(t0, Clock::now());
      }
    }
    return median(times);
  }

  /// The wire codec over the Bus run's message trace: encode_message
  /// for every message, then decode_frame for every frame.
  void codec_rung(std::map<std::string, double>& layers, SpanLog* spans) {
    std::vector<sim::Message> trace;
    {
      auto system = make(false, false);
      system->bus().set_tap([&](const sim::Message& m) { trace.push_back(m); });
      ReplaySource source(arrivals_);
      system->run(source);
    }
    std::size_t bytes = 0;
    const double s = rung_seconds(spans, "rung.wire_codec", [&] {
      net::wire::Buffer buffer;
      buffer.reserve(trace.size() * net::wire::message_frame_bytes());
      for (const auto& m : trace) net::wire::encode_message(m, buffer);
      std::size_t pos = 0;
      std::uint64_t decoded = 0;
      while (pos < buffer.size()) {
        const auto frame = net::wire::decode_frame(buffer, pos);
        if (!frame) throw std::runtime_error("wire codec: undecodable frame");
        decoded += frame->msgs.size();
      }
      keep(decoded);
      bytes = buffer.size();
    });
    const double frames = static_cast<double>(trace.size());
    layers["net.wire.ns_per_frame"] = s * 1e9 / frames;
    layers["net.wire.bytes_per_frame"] = static_cast<double>(bytes) / frames;
  }

  Spec spec_;
  Arrivals arrivals_;
  std::vector<sim::Slot> slots_;
  WindowMembership membership_;
  std::vector<hash::HashFunction> copies_;
  std::vector<std::vector<std::uint64_t>> refs_;
  Answers bus_answers_;
  std::uint64_t checkpoint_bytes_ = 0;
  std::uint64_t checkpoint_calls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sliding_workload(bool tcp, std::uint64_t seed,
                                                double scale) {
  return std::make_unique<SlidingWorkload>(tcp ? kTcpSpec : kWireSpec, seed,
                                           scale);
}

}  // namespace dds::bench
