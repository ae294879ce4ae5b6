// Ablation A12 — sharded sliding-window sampling over realistic wires:
// the end-to-end scenario PR 5 unlocks (validity-aware query merge +
// ShardRouter-partitioned sliding coordinators + the ShardedEngine's
// lockstep mode on net::SimNetwork).
//
// The workload is Section 5.3's slotted construction (per-slot arrivals
// to uniformly random sites). For each (protocol, wire, shards) point
// the sharded deployment runs next to an unsharded reference on the
// SAME wire and stream; at every slot both are queried through the
// merge layer and compared. Reported per row:
//   * throughput (sharded run only, best of --runs) and messages —
//     message cost GROWS with shards (per-shard thresholds tighten only
//     from their own partition), the price of coordinator scale-out;
//   * agree% — slots where the merged answer equals the unsharded one.
//     The exact bottom-s protocol must print 100.0 on every wire and
//     shard count (its sharding exactness proof lives in
//     tests/sliding_shard_test.cpp; this column demonstrates it at
//     bench scale). The lazy s-copy protocol's per-shard transients
//     make it slightly lower;
//   * the per-shard message balance.
//
// With --threads > 1 the sharded rows exercise lockstep waves on the
// lossy wire (traces stay bit-identical to serial; the determinism
// suite enforces that — here it just changes wall clock).
#include "bench_common.h"

#include <set>

#include "sim/sources.h"

namespace {

using dds::sim::SlotSource;

struct Wire {
  const char* name;
  dds::net::NetworkConfig config;
};

struct PointResult {
  double seconds = 0.0;
  std::uint64_t msgs = 0;
  double agree = 100.0;
  double balance = 1.0;
  const char* engine = "?";
  const char* mode = "?";  ///< Engine::mode_reason of the sharded run
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dds;
  util::Cli cli;
  bench::register_common(cli);
  cli.flag("sites", "number of sites k", "8");
  cli.flag("slots", "stream length in slots", "400");
  cli.flag("per-slot", "arrivals per slot", "6");
  cli.flag("window", "window length w in slots", "40");
  cli.flag("domain", "distinct-element domain", "500");
  cli.flag("sample-size", "window sample size s", "3");
  cli.flag("shard-list", "comma-separated coordinator-shard sweep", "1,2,4");
  if (!cli.parse(argc, argv)) return 1;
  const auto args = bench::read_common(cli);
  const auto k = static_cast<std::uint32_t>(cli.get_uint("sites"));
  const auto slots =
      static_cast<sim::Slot>(cli.get_uint("slots") * (args.full ? 10 : 1));
  const auto per_slot = static_cast<std::uint32_t>(cli.get_uint("per-slot"));
  const auto window = static_cast<sim::Slot>(cli.get_uint("window"));
  const std::uint64_t domain = cli.get_uint("domain");
  const auto s = static_cast<std::size_t>(cli.get_uint("sample-size"));
  const auto shards_sweep = cli.get_uint_list("shard-list");
  const std::uint64_t n = static_cast<std::uint64_t>(slots) * per_slot;
  bench::banner("Ablation A12: sharded sliding windows over the wire", args);
  std::cout << "k=" << k << ", slots=" << slots << ", per-slot=" << per_slot
            << ", w=" << window << ", domain=" << domain << ", s=" << s
            << ", threads=" << args.num_threads << "\n";

  // One fixed slotted stream: every grid point replays it exactly.
  std::vector<std::vector<std::pair<sim::NodeId, std::uint64_t>>> stream;
  stream.reserve(static_cast<std::size_t>(slots));
  {
    util::SplitMix64 gen(util::derive_seed(args.seed, 0xAB12));
    for (sim::Slot t = 0; t < slots; ++t) {
      auto& xs = stream.emplace_back();
      xs.reserve(per_slot);
      for (std::uint32_t a = 0; a < per_slot; ++a) {
        xs.emplace_back(static_cast<sim::NodeId>(gen.next() % k),
                        1 + gen.next() % domain);
      }
    }
  }

  Wire wires[3];
  wires[0].name = "ideal";
  wires[1].name = "lossy";
  wires[1].config.link.latency = 1.5;
  wires[1].config.link.jitter = 0.5;
  wires[1].config.link.drop_rate = 0.05;
  wires[1].config.link.retransmit = true;
  wires[2].name = "lossy+batch";
  wires[2].config = wires[1].config;
  wires[2].config.batch_interval = 3;
  wires[2].config.batch_max_msgs = 16;

  auto make_config = [&](const Wire& wire, std::uint32_t num_shards) {
    core::SlidingSystemConfig config;
    config.num_sites = k;
    config.window = window;
    config.sample_size = s;
    config.hash_kind = args.hash_kind;
    config.seed = args.seed;
    config.network = wire.config;
    config.num_shards = num_shards;
    config.num_threads = num_shards > 1 ? args.num_threads : 1;
    return config;
  };

  // Drives a sharded deployment next to its unsharded twin on the same
  // wire, comparing merged queries every slot.
  auto run_point = [&](auto make_system, const Wire& wire,
                       std::uint32_t num_shards) {
    PointResult result;
    for (std::uint64_t run = 0; run < args.runs; ++run) {
      auto reference = make_system(make_config(wire, 1));
      auto sharded = make_system(make_config(wire, num_shards));
      result.engine = sharded->runner().name();
      result.mode = sharded->runner().mode_reason();
      std::uint64_t agree = 0;
      double seconds = 0.0;
      for (sim::Slot t = 0; t < slots; ++t) {
        {
          SlotSource src(t, stream[static_cast<std::size_t>(t)]);
          reference->run(src);
        }
        {
          SlotSource src(t, stream[static_cast<std::size_t>(t)]);
          util::Timer timer;
          sharded->run(src);
          seconds += timer.elapsed_seconds();
        }
        if (reference->sample(t) == sharded->sample(t)) ++agree;
      }
      if (run == 0 || seconds < result.seconds) result.seconds = seconds;
      result.agree = 100.0 * static_cast<double>(agree) /
                     static_cast<double>(slots);
      result.msgs = sharded->bus().counters().total;
      std::uint64_t mx = 0, mn = ~0ULL;
      for (std::uint32_t j = 0; j < sharded->bus().num_coordinators(); ++j) {
        const std::uint64_t total =
            sharded->bus().coordinator_counters(j).total;
        mx = std::max(mx, total);
        mn = std::min(mn, total);
      }
      result.balance =
          mn == 0 ? 0.0 : static_cast<double>(mx) / static_cast<double>(mn);
    }
    return result;
  };

  struct Protocol {
    const char* name;
    const char* csv;
    bool exact;
  };
  const Protocol protocols[] = {
      {"lazy s-copy (Algorithms 3&4 x s)", "abl12_sliding_sharding_lazy.csv",
       false},
      {"exact bottom-s (full-sync)", "abl12_sliding_sharding_bottoms.csv",
       true},
  };

  for (const Protocol& protocol : protocols) {
    util::Table table({"wire", "shards", "engine", "Marr/s", "msgs",
                       "msgs/arrival", "agree%", "shard max/min"});
    std::set<std::string> modes;  // make_engine decisions seen this sweep
    for (const Wire& wire : wires) {
      for (const std::uint64_t num_shards : shards_sweep) {
        PointResult r;
        if (protocol.exact) {
          r = run_point(
              [](const core::SlidingSystemConfig& config) {
                return std::make_unique<baseline::BottomSSlidingSystem>(
                    config);
              },
              wire, static_cast<std::uint32_t>(num_shards));
        } else {
          r = run_point(
              [](const core::SlidingSystemConfig& config) {
                return std::make_unique<core::SlidingSystem>(config);
              },
              wire, static_cast<std::uint32_t>(num_shards));
        }
        modes.insert(r.mode);
        table.add_row(
            {wire.name, std::to_string(num_shards), r.engine,
             util::fmt(static_cast<double>(n) / r.seconds / 1e6, 3),
             std::to_string(r.msgs),
             util::fmt(static_cast<double>(r.msgs) / static_cast<double>(n),
                       4),
             util::fmt_fixed(r.agree, 1),
             util::fmt(r.balance, 3)});
      }
    }
    bench::emit(table,
                std::string("A12: ") + protocol.name + ", k=" +
                    std::to_string(k) + ", w=" + std::to_string(window) +
                    ", s=" + std::to_string(s),
                protocol.csv, args);
    // Why every row landed on its engine (Engine::mode_reason) — makes
    // a silent serial fallback visible in the bench log.
    for (const std::string& mode : modes) {
      std::cout << "engine mode: " << mode << "\n";
    }
  }
  return 0;
}
