// Due-slot wakeups (sim::StreamNode::due_slot).
//
// The engine calls on_slot_begin only on sites whose due slot has come,
// and MultiSlidingSite / RoutedSite pass a slot begin on only to copies
// that are due. That is an optimization with a one-sided contract: a
// due slot may be early (the woken site re-checks and does nothing) but
// never late (the site would miss an expiry). These tests hold the lazy
// drive to the every-slot drive:
//   * site level: two copies of a site fed the same arrivals and the
//     same coordinator replies (random expiries, delays and drops), one
//     woken every slot and one only when due, must agree after every
//     slot on T_i, u_i, |T_i| and everything they sent;
//   * system level: a deployment driven by its engine must produce the
//     same wire trace, counters, samples and site state as the same
//     deployment driven directly with every copy's on_slot_begin called
//     every slot — on a lossy SimNetwork, on TCP and with 2 coordinator
//     shards;
//   * the engine.site_wakeups counter: far below slots x sites on a
//     sliding-window workload, exactly slots x sites for a protocol that
//     keeps no due slot, and the same on two same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "baseline/baseline_system.h"
#include "core/multi_sliding.h"
#include "core/sliding_site.h"
#include "core/system.h"
#include "hash/hash_function.h"
#include "sim/bus.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

std::string render(const sim::Message& m) {
  return std::to_string(m.from) + ">" + std::to_string(m.to) + " t" +
         std::to_string(static_cast<int>(m.type)) + " i" +
         std::to_string(m.instance) + " " + std::to_string(m.a) + " " +
         std::to_string(m.b) + " " + std::to_string(m.c);
}

// --------------------------------------------------------- site level --

/// Coordinator stand-in: records what the site sends and never replies
/// by itself (the fuzz schedules the replies).
class Recorder final : public sim::Node {
 public:
  void on_message(const sim::Message& msg, net::Transport& /*bus*/) override {
    sent.push_back(render(msg));
    reports.push_back(msg);
  }
  std::vector<std::string> sent;
  std::vector<sim::Message> reports;
};

/// One site on its own Bus with a recording coordinator.
template <typename Site>
struct Rig {
  explicit Rig(std::unique_ptr<Site> s) : bus(1), site(std::move(s)) {
    bus.attach(0, site.get());
    bus.attach(bus.coordinator_id(), &coordinator);
  }
  sim::Bus bus;
  Recorder coordinator;
  std::unique_ptr<Site> site;
};

struct PendingReply {
  sim::Slot slot;  ///< delivered at this slot's boundary
  sim::Message msg;
};

struct SiteFuzzParams {
  std::uint64_t seed;
  sim::Slot window;
  std::uint64_t domain;
};

class DueSlotSiteFuzz : public ::testing::TestWithParam<SiteFuzzParams> {};

/// Drives `eager` (every copy woken every slot by `wake_every_copy`,
/// which must not consult any due slot) and `lazy` (the site woken only
/// when due) through the same arrivals and the same coordinator replies
/// and asserts `same_state` plus identical sends after every slot. Replies
/// answer the eager site's reports: dropped, delivered right after the
/// arrival, or delivered a few slots later, carrying either the
/// reported tuple or another element with an expiry anywhere from just
/// expired to the newest possible (so replies also arrive while T_i
/// holds tuples, and after the tuple they name has left the window).
template <typename Site, typename HashOf, typename Wake, typename SameState>
void fuzz_due_slot(const SiteFuzzParams& p, Rig<Site>& eager, Rig<Site>& lazy,
                   HashOf hash_of, Wake wake_every_copy,
                   SameState same_state) {
  util::Xoshiro256StarStar rng(p.seed);
  std::vector<PendingReply> pending;
  std::size_t answered = 0;
  std::uint64_t lazy_wakes = 0;
  constexpr sim::Slot kSlots = 4000;

  const auto deliver = [&](const sim::Message& reply) {
    eager.site->on_message(reply, eager.bus);
    lazy.site->on_message(reply, lazy.bus);
  };
  // Turns the eager site's new reports into scheduled replies; delay 0
  // is delivered at once (before the next arrival).
  const auto answer_reports = [&](sim::Slot t) {
    const auto& reports = eager.coordinator.reports;
    // Every other restart after a quiet stretch, the coordinator stays
    // silent for a while: T_i refills from empty with no reply to
    // refresh the due slot, which then rests on the arrivals alone.
    const bool silent = t % 360 >= 180 && t % 360 < 240;
    for (; answered < reports.size(); ++answered) {
      const sim::Message& report = reports[answered];
      if (silent || rng.next_below(4) == 0) continue;  // dropped
      sim::Message reply;
      reply.from = eager.bus.coordinator_id();
      reply.to = 0;
      reply.type = sim::MsgType::kSlidingReply;
      reply.instance = report.instance;
      if (rng.next_below(2) == 0) {
        reply.a = report.a;
        reply.b = report.b;
        reply.c = report.c;
      } else {
        const std::uint64_t e = 1 + rng.next_below(p.domain);
        reply.a = e;
        reply.b = hash_of(report.instance, e);
        // Never past t + w: a reply names a tuple some site observed by
        // now, so later arrivals stay the newest (observe()'s contract).
        const sim::Slot expiry =
            t - 2 + static_cast<sim::Slot>(rng.next_below(
                        static_cast<std::uint64_t>(p.window) + 3));
        reply.c = static_cast<std::uint64_t>(std::max<sim::Slot>(expiry, 0));
      }
      const auto delay = static_cast<sim::Slot>(rng.next_below(6));
      if (delay == 0) {
        deliver(reply);
      } else {
        pending.push_back(PendingReply{t + delay, reply});
      }
    }
  };

  for (sim::Slot t = 1; t <= kSlots; ++t) {
    eager.bus.set_now(t);
    lazy.bus.set_now(t);
    // Boundary: replies due now land before the slot begin.
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].slot == t) {
        deliver(pending[i].msg);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    wake_every_copy(*eager.site, t, eager.bus);
    if (lazy.site->due_slot() <= t) {
      ++lazy_wakes;
      lazy.site->on_slot_begin(t, lazy.bus);
    }
    eager.bus.drain();
    lazy.bus.drain();
    answer_reports(t);
    // Quiet stretches longer than the window empty T_i completely.
    const bool quiet = t % 180 >= 120;
    const auto arrivals = quiet ? 0 : rng.next_below(4);
    for (std::uint64_t a = 0; a < arrivals; ++a) {
      const std::uint64_t e = 1 + rng.next_below(p.domain);
      eager.site->on_element(e, t, eager.bus);
      lazy.site->on_element(e, t, lazy.bus);
      eager.bus.drain();
      lazy.bus.drain();
      answer_reports(t);
    }
    same_state(*eager.site, *lazy.site, t);
    ASSERT_EQ(eager.coordinator.sent, lazy.coordinator.sent) << "slot " << t;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The lazy drive must actually have skipped work.
  EXPECT_LT(lazy_wakes, static_cast<std::uint64_t>(kSlots));
  EXPECT_GT(eager.coordinator.sent.size(), 20u);
}

void expect_same_site(const core::SlidingWindowSite& eager,
                      const core::SlidingWindowSite& lazy, sim::Slot t) {
  ASSERT_EQ(eager.candidates().snapshot(), lazy.candidates().snapshot())
      << "slot " << t;
  ASSERT_EQ(eager.local_threshold(), lazy.local_threshold()) << "slot " << t;
  ASSERT_EQ(eager.state_size(), lazy.state_size()) << "slot " << t;
}

TEST_P(DueSlotSiteFuzz, SlidingSiteWokenWhenDueMatchesEverySlot) {
  const auto p = GetParam();
  const hash::HashFunction h(hash::HashKind::kMurmur2, p.seed);
  const auto make = [&] {
    return std::make_unique<core::SlidingWindowSite>(0, 1, p.window, h,
                                                     p.seed);
  };
  Rig<core::SlidingWindowSite> eager(make());
  Rig<core::SlidingWindowSite> lazy(make());
  fuzz_due_slot(
      p, eager, lazy, [&](std::uint32_t, std::uint64_t e) { return h(e); },
      [](core::SlidingWindowSite& site, sim::Slot t, net::Transport& bus) {
        site.on_slot_begin(t, bus);
      },
      expect_same_site);
}

TEST_P(DueSlotSiteFuzz, MultiSlidingSiteWokenWhenDueMatchesEverySlot) {
  const auto p = GetParam();
  constexpr std::size_t kCopies = 4;
  const hash::HashFamily family(hash::HashKind::kMurmur2, p.seed);
  // Small rings and a low promotion threshold: copies cross into treap
  // mode and back, so both substrates' head expiries feed the due slot.
  const treap::HybridConfig substrate{6, 3};
  const auto make = [&] {
    return std::make_unique<core::MultiSlidingSite>(0, 1, p.window, family,
                                                    kCopies, p.seed, substrate);
  };
  Rig<core::MultiSlidingSite> eager(make());
  Rig<core::MultiSlidingSite> lazy(make());
  fuzz_due_slot(
      p, eager, lazy,
      [&](std::uint32_t instance, std::uint64_t e) {
        return eager.site->copy(instance).hash_fn()(e);
      },
      [](core::MultiSlidingSite& site, sim::Slot t, net::Transport& bus) {
        for (std::size_t j = 0; j < site.num_copies(); ++j) {
          site.copy(j).on_slot_begin(t, bus);
        }
      },
      [&](const core::MultiSlidingSite& a, const core::MultiSlidingSite& b,
          sim::Slot t) {
        for (std::size_t j = 0; j < kCopies; ++j) {
          expect_same_site(a.copy(j), b.copy(j), t);
        }
        ASSERT_EQ(a.state_size(), b.state_size()) << "slot " << t;
      });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DueSlotSiteFuzz,
    ::testing::Values(SiteFuzzParams{1, 5, 40},      // tiny window
                      SiteFuzzParams{2, 12, 15},     // heavy duplicates
                      SiteFuzzParams{3, 30, 400},    // mostly distinct
                      SiteFuzzParams{4, 45, 80}));   // window near the gaps

// ------------------------------------------------------- system level --

constexpr std::uint64_t kObserveEvery = 97;

struct Observation {
  std::uint64_t processed;
  sim::Slot slot;
  std::vector<stream::Element> sample;
  std::size_t site_state;
};

struct RunRecord {
  std::vector<std::string> trace;
  net::BusCounters counters;
  std::vector<Observation> observations;
  std::uint64_t wakeups = 0;
};

void expect_same_run(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.counters.total, b.counters.total);
  EXPECT_EQ(a.counters.site_to_coordinator, b.counters.site_to_coordinator);
  EXPECT_EQ(a.counters.coordinator_to_site, b.counters.coordinator_to_site);
  EXPECT_EQ(a.counters.bytes, b.counters.bytes);
  EXPECT_EQ(a.counters.by_type, b.counters.by_type);
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    const Observation& x = a.observations[i];
    const Observation& y = b.observations[i];
    EXPECT_EQ(x.processed, y.processed) << "observation " << i;
    EXPECT_EQ(x.slot, y.slot) << "observation " << i;
    EXPECT_EQ(x.sample, y.sample) << "observation " << i;
    EXPECT_EQ(x.site_state, y.site_state) << "observation " << i;
  }
}

/// Slotted arrivals with gaps: bursts of up to `per_slot` arrivals at
/// random sites, and every few hundred slots a silence longer than the
/// window, so whole candidate sets expire.
std::vector<sim::Arrival> make_arrivals(std::uint64_t seed, std::size_t n,
                                        std::uint32_t sites,
                                        std::uint64_t domain,
                                        std::uint64_t per_slot,
                                        sim::Slot window) {
  util::Xoshiro256StarStar rng(seed);
  std::vector<sim::Arrival> out;
  out.reserve(n);
  sim::Slot t = 0;
  while (out.size() < n) {
    ++t;
    if (t % 300 == 0) t += window + 5;
    const auto k = rng.next_below(per_slot + 1);
    for (std::uint64_t a = 0; a < k && out.size() < n; ++a) {
      out.push_back(sim::Arrival{
          t, static_cast<sim::NodeId>(rng.next_below(sites)),
          1 + rng.next_below(domain)});
    }
  }
  return out;
}

void tap_into(core::SlidingSystem& system, RunRecord& record) {
  system.bus().set_tap(
      [&record](const sim::Message& m) { record.trace.push_back(render(m)); });
}

Observation observe(const core::SlidingSystem& system, std::uint64_t processed,
                    sim::Slot slot) {
  return Observation{processed, slot, system.sample(slot),
                     system.total_site_state()};
}

/// The deployment's own engine: sites are woken only when due.
RunRecord run_engine(const core::SystemConfig& config,
                     const std::vector<sim::Arrival>& arrivals) {
  RunRecord record;
  core::SlidingSystem system(config);
  tap_into(system, record);
  system.runner().set_observer(kObserveEvery, [&](const sim::Progress& p) {
    record.observations.push_back(
        observe(system, p.elements_processed, p.slot));
  });
  sim::ListSource source(arrivals);
  system.run(source);
  record.counters = system.bus().counters();
  record.wakeups = system.engine().site_wakeups();
  return record;
}

/// The reference: the engine's slot loop written out by hand, with
/// every copy of every site (every shard copy, every sample copy) given
/// on_slot_begin at every slot — no due slot is consulted anywhere.
RunRecord run_every_slot(const core::SystemConfig& config,
                         const std::vector<sim::Arrival>& arrivals) {
  RunRecord record;
  core::SlidingSystem system(config);
  tap_into(system, record);
  net::Transport& bus = system.bus();
  std::uint64_t processed = 0;
  std::size_t next = 0;
  for (sim::Slot t = 0; next < arrivals.size(); ++t) {
    bus.set_now(t);
    bus.drain();
    for (std::uint32_t i = 0; i < config.num_sites; ++i) {
      for (std::uint32_t shard = 0; shard < system.num_shards(); ++shard) {
        core::MultiSlidingSite& site = system.site(i, shard);
        for (std::size_t j = 0; j < site.num_copies(); ++j) {
          site.copy(j).on_slot_begin(t, bus);
        }
      }
      bus.drain();
    }
    for (; next < arrivals.size() && arrivals[next].slot == t; ++next) {
      const sim::Arrival& a = arrivals[next];
      system.site(a.site, system.router().owner(a.element))
          .on_element(a.element, t, bus);
      bus.drain();
      if (++processed % kObserveEvery == 0) {
        record.observations.push_back(observe(system, processed, t));
      }
    }
  }
  bus.finish();
  record.observations.push_back(
      observe(system, processed, arrivals.back().slot));
  record.counters = bus.counters();
  return record;
}

struct SystemParams {
  const char* name;
  net::TransportKind kind;
  std::uint32_t shards;
  std::uint32_t sites;
  std::size_t copies;
  std::size_t arrivals;
  double drop_rate;  ///< SimNetwork only
  bool retransmit;   ///< SimNetwork only
};

// Printed by name: the default byte dump would show the name pointer
// and the padding, so the listed test names would change between runs.
void PrintTo(const SystemParams& p, std::ostream* os) { *os << p.name; }

class DueSlotSystem : public ::testing::TestWithParam<SystemParams> {};

TEST_P(DueSlotSystem, EngineRunMatchesEverySlotDrive) {
  const auto p = GetParam();
  core::SystemConfig config;
  config.num_sites = p.sites;
  config.sample_size = p.copies;
  config.seed = 29;
  config.window = 40;
  config.num_shards = p.shards;
  config.network.kind = p.kind;
  if (p.kind == net::TransportKind::kSimNetwork) {
    config.network.link.latency = 0.25;
    config.network.link.jitter = 0.75;
    config.network.link.drop_rate = p.drop_rate;
    config.network.link.retransmit = p.retransmit;
    config.network.batch_interval = 1;
  }
  const auto arrivals =
      make_arrivals(config.seed, p.arrivals, p.sites, 250, 4, config.window);
  const RunRecord lazy = run_engine(config, arrivals);
  const RunRecord reference = run_every_slot(config, arrivals);
  expect_same_run(lazy, reference);
  EXPECT_GT(lazy.observations.size(), 10u);
  EXPECT_GT(lazy.counters.total, 100u);
  EXPECT_GT(lazy.wakeups, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, DueSlotSystem,
    ::testing::Values(
        SystemParams{"LossySimNetwork", net::TransportKind::kSimNetwork, 1, 8,
                     4, 4000, 0.05, true},
        // Lost exchanges stay lost: a site refilling T_i after a gap may
        // hear nothing back, so only its arrivals move its due slot.
        SystemParams{"DroppingSimNetwork", net::TransportKind::kSimNetwork, 1,
                     8, 4, 4000, 0.5, false},
        SystemParams{"Tcp", net::TransportKind::kTcp, 1, 4, 2, 1500, 0.0,
                     false},
        SystemParams{"TwoShards", net::TransportKind::kSimNetwork, 2, 6, 3,
                     4000, 0.05, true}),
    [](const auto& info) { return std::string(info.param.name); });

// --------------------------------------------------- wakeup counting --

/// The sliding_wire benchmark's shape, scaled down: 16 sites x 8
/// copies, a 1000-slot window, 5 arrivals per slot on a lossy batched
/// wire.
core::SystemConfig sliding_wire_config() {
  core::SystemConfig config;
  config.num_sites = 16;
  config.sample_size = 8;
  config.seed = 5;
  config.window = 1000;
  config.network.link.latency = 0.25;
  config.network.link.jitter = 0.25;
  config.network.link.drop_rate = 0.01;
  config.network.link.retransmit = true;
  config.network.batch_interval = 1;
  config.observability.metrics = true;
  return config;
}

std::vector<sim::Arrival> steady_arrivals(std::uint32_t sites, sim::Slot slots,
                                          std::uint64_t domain) {
  util::Xoshiro256StarStar rng(77);
  std::vector<sim::Arrival> out;
  for (sim::Slot t = 1; t <= slots; ++t) {
    for (int a = 0; a < 5; ++a) {
      out.push_back(sim::Arrival{
          t, static_cast<sim::NodeId>(rng.next_below(sites)),
          1 + rng.next_below(domain)});
    }
  }
  return out;
}

std::uint64_t sliding_wire_wakeups(sim::Slot slots) {
  const auto config = sliding_wire_config();
  core::SlidingSystem system(config);
  sim::ListSource source(steady_arrivals(config.num_sites, slots, 20000));
  system.run(source);
  const std::uint64_t wakeups = system.engine().site_wakeups();
  EXPECT_EQ(system.observability().snapshot().counter_or(
                "engine.site_wakeups"),
            wakeups);
  return wakeups;
}

TEST(DueSlotWakeups, SlidingWireShapeWakesFarFewerThanSlotsTimesSites) {
  constexpr sim::Slot kSlots = 3000;
  const std::uint64_t wakeups = sliding_wire_wakeups(kSlots);
  const std::uint64_t every_slot = static_cast<std::uint64_t>(kSlots) * 16;
  EXPECT_GT(wakeups, 0u);
  EXPECT_LT(wakeups * 10, every_slot)
      << wakeups << " wakeups of " << every_slot;
}

TEST(DueSlotWakeups, SameSeedRunsCountTheSameWakeups) {
  EXPECT_EQ(sliding_wire_wakeups(1200), sliding_wire_wakeups(1200));
}

TEST(DueSlotWakeups, SitesWithoutDueSlotWakeEverySlot) {
  // The full-sync baseline keeps no due slot (StreamNode::kEverySlot):
  // every site is woken at every slot, as before due slots existed.
  core::SystemConfig config;
  config.num_sites = 5;
  config.sample_size = 1;
  config.window = 20;
  baseline::FullSyncSlidingSystem system(config);
  constexpr sim::Slot kSlots = 400;
  sim::ListSource source(steady_arrivals(config.num_sites, kSlots, 500));
  system.run(source);
  // The clock starts before slot 0, so slots 0..kSlots are all begun.
  EXPECT_EQ(system.engine().site_wakeups(),
            static_cast<std::uint64_t>(kSlots + 1) * config.num_sites);
}

}  // namespace
}  // namespace dds
