// Walkthrough: sharded sliding-window sampling over a lossy wire — the
// full production-shaped deployment in one program.
//
//   $ ./sharded_sliding_lossy
//
// Four coordinator shards split the element space (core::ShardRouter);
// each site runs one protocol copy per shard, so shard j sees exactly
// its partition's substream. The wire has latency, jitter, and loss
// with retransmission, so the deployment lands on net::SimNetwork and —
// with num_threads > 1 — on the ShardedEngine's lockstep mode, whose
// traces are bit-identical to the serial engine on the same wire.
// Queries go through the validity-window-aware merge layer
// (query::SlidingValidityMerger via Deployment::sample(now)): each
// shard's window sample is merged with per-copy expiry respected.
//
// Observability (the CI smoke drives these):
//   --metrics PATH   enable the metrics registry; write the final
//                    snapshot as Prometheus text to PATH
//   --json PATH      also write the structured-JSON snapshot to PATH
//   --trace PATH     enable tracing; write the Chrome trace to PATH
#include <fstream>
#include <iostream>

#include "core/system.h"
#include "net/sim_network.h"
#include "obs/observability.h"
#include "query/merge.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

/// One slot's worth of arrivals.
class SlotSource final : public dds::sim::ArrivalSource {
 public:
  SlotSource(dds::sim::Slot slot,
             std::vector<std::pair<dds::sim::NodeId, std::uint64_t>> xs)
      : slot_(slot), xs_(std::move(xs)) {}
  std::optional<dds::sim::Arrival> next() override {
    if (pos_ >= xs_.size()) return std::nullopt;
    const auto& [site, e] = xs_[pos_++];
    return dds::sim::Arrival{slot_, site, e};
  }

 private:
  dds::sim::Slot slot_;
  std::vector<std::pair<dds::sim::NodeId, std::uint64_t>> xs_;
  std::size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dds;

  util::Cli cli;
  cli.flag("metrics", "write the final Prometheus snapshot here", "");
  cli.flag("json", "write the final JSON snapshot here", "");
  cli.flag("trace", "write the Chrome trace here", "");
  if (!cli.parse(argc, argv)) return 1;
  const std::string metrics_path = cli.get("metrics");
  const std::string json_path = cli.get("json");
  const std::string trace_path = cli.get("trace");

  core::SlidingSystemConfig config;
  config.num_sites = 8;
  config.sample_size = 3;   // three independent copies -> 3-element sample
  config.window = 50;       // "the last 50 slots"
  config.seed = 7;
  config.num_shards = 4;    // consistent-hash the coordinator four ways
  config.num_threads = 4;   // lockstep waves on the realistic wire
  config.network.link.latency = 1.5;
  config.network.link.jitter = 0.5;
  config.network.link.drop_rate = 0.05;
  config.network.link.retransmit = true;
  config.network.batch_interval = 4;  // coalesce reports up to 4 slots
  config.network.seed = 42;
  config.observability.metrics = !metrics_path.empty() || !json_path.empty();
  config.observability.tracing = !trace_path.empty();
  core::SlidingSystem system(config);

  std::cout << "engine: " << system.runner().name() << " ("
            << system.runner().num_threads() << " threads), shards: "
            << system.num_shards() << ", wire horizon: "
            << system.bus().delivery_horizon() << " slots\n\n";

  // Feed 600 slots of traffic, querying the merged window sample as we
  // go. Queries are validity-aware: only tuples whose expiry is beyond
  // the query slot are merged.
  util::SplitMix64 gen(1);
  for (sim::Slot t = 0; t < 600; ++t) {
    std::vector<std::pair<sim::NodeId, std::uint64_t>> xs;
    for (int i = 0; i < 6; ++i) {
      xs.emplace_back(static_cast<sim::NodeId>(gen.next() % config.num_sites),
                      1 + gen.next() % 3000);
    }
    SlotSource source(t, std::move(xs));
    system.run(source);
    if ((t + 3) % 150 == 0) {
      // About to read every shard: use the per-shard flush hook so
      // reports still coalescing in the batcher get on the wire now
      // instead of waiting out the 4-slot batch deadline. They still
      // need a link flight (1.5 + up to 0.5 jitter slots here), which
      // is why the flush runs two slots before the query.
      auto& net = dynamic_cast<net::SimNetwork&>(system.bus());
      for (std::uint32_t j = 0; j < system.num_shards(); ++j) {
        net.flush_shard(j);
      }
    }
    if ((t + 1) % 150 == 0) {
      // Query time is a quiesced point: bridge the counters into the
      // trace timeline (no-op unless both instruments are on).
      system.observability().sample_counters(static_cast<double>(t));
      const auto sample = system.sample(t);  // merged across the 4 shards
      std::cout << "slot " << t << ": window sample {";
      for (std::size_t i = 0; i < sample.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ") << sample[i];
      }
      std::cout << "}\n";
    }
  }

  // Per-shard accounting: the message counters partition exactly.
  std::cout << "\nwire messages: " << system.bus().counters().total << "\n";
  for (std::uint32_t j = 0; j < system.num_shards(); ++j) {
    std::cout << "  shard " << j << ": "
              << system.bus().coordinator_counters(j).total << "\n";
  }
  const auto& net = dynamic_cast<const net::SimNetwork&>(system.bus());
  std::cout << "drops / retransmissions: " << net.stats().drops << " / "
            << net.stats().retransmissions << "\n";

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << system.observability().prometheus();
    std::cout << "metrics snapshot written to " << metrics_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << system.observability().json();
    std::cout << "JSON snapshot written to " << json_path << "\n";
  }
  if (!trace_path.empty()) {
    system.observability().write_trace(trace_path);
    std::cout << "trace written to " << trace_path << " ("
              << system.observability().tracer()->size() << " events)\n";
  }
  return 0;
}
