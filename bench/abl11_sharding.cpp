// Ablation A11 — the pluggable execution engine: throughput and message
// cost vs coordinator shards x site worker threads.
//
// The workload is the infinite-window protocol (and its with-replacement
// sibling, whose s parallel hash evaluations per arrival are the
// compute-heavy case that threads accelerate) on a k-site uniform
// stream. For every (threads, shards) point we report:
//   * arrival throughput (M arrivals/s, best of --runs) and its speedup
//     over the serial single-coordinator row;
//   * total protocol messages and messages/arrival — the paper's cost
//     metric, which GROWS with shards (each shard's threshold tightens
//     only from its own partition: expect roughly the Theta(ks ln(d/s))
//     curve per shard) — the price of coordinator scale-out;
//   * the max/min per-shard message ratio (ShardRouter balance).
//
// The ShardedEngine is bit-identical to the serial engine (the
// engine_test determinism suite holds that), so the speedup column is a
// pure wall-clock statement. Thread speedups need physical cores: on a
// single-core container every threads>1 row just measures handoff
// overhead.
#include "bench_common.h"

#include <set>

namespace {

class VectorSource final : public dds::sim::ArrivalSource {
 public:
  explicit VectorSource(const std::vector<dds::sim::Arrival>& arrivals)
      : arrivals_(arrivals) {}
  std::optional<dds::sim::Arrival> next() override {
    if (pos_ >= arrivals_.size()) return std::nullopt;
    return arrivals_[pos_++];
  }

 private:
  const std::vector<dds::sim::Arrival>& arrivals_;
  std::size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dds;
  util::Cli cli;
  bench::register_common(cli);
  cli.flag("sites", "number of sites k", "32");
  cli.flag("n", "arrivals per run", "300000");
  cli.flag("domain", "distinct-element domain", "50000");
  cli.flag("sample-size", "sample size s", "16");
  cli.flag("thread-list", "comma-separated worker-thread sweep", "1,2,4");
  cli.flag("shard-list", "comma-separated coordinator-shard sweep", "1,2,4");
  cli.boolean("wakeup-ablation",
              "also measure threads>1 rows with per-message replay wakeups "
              "(before/after the wakeup-coalescing optimization)");
  if (!cli.parse(argc, argv)) return 1;
  const auto args = bench::read_common(cli);
  const auto k = static_cast<std::uint32_t>(cli.get_uint("sites"));
  const std::uint64_t n = cli.get_uint("n") * (args.full ? 10 : 1);
  const std::uint64_t domain = cli.get_uint("domain");
  const auto s = static_cast<std::size_t>(cli.get_uint("sample-size"));
  const auto threads_sweep = cli.get_uint_list("thread-list");
  const auto shards_sweep = cli.get_uint_list("shard-list");
  const bool wakeup_ablation = cli.get_bool("wakeup-ablation");
  bench::banner("Ablation A11: sharded coordinator x threaded engine", args);
  std::cout << "k=" << k << ", n=" << n << ", domain=" << domain
            << ", s=" << s << "\n";

  // One fixed arrival sequence per protocol: every grid point replays
  // the identical stream, so message deltas are purely the topology's.
  std::vector<sim::Arrival> arrivals;
  arrivals.reserve(n);
  {
    util::SplitMix64 gen(util::derive_seed(args.seed, 0xAB11));
    for (std::uint64_t i = 0; i < n; ++i) {
      arrivals.push_back(sim::Arrival{static_cast<sim::Slot>(i),
                                      static_cast<sim::NodeId>(gen.next() % k),
                                      1 + gen.next() % domain});
    }
  }

  struct Protocol {
    const char* name;
    const char* csv;
    bool with_replacement;
  };
  const Protocol protocols[] = {
      {"infinite (bottom-s)", "abl11_sharding_infinite.csv", false},
      {"with-replacement (s copies)", "abl11_sharding_withrepl.csv", true},
  };

  for (const Protocol& protocol : protocols) {
    util::Table table({"threads", "shards", "engine", "wakeups", "Marr/s",
                       "speedup", "msgs", "msgs/arrival", "shard max/min"});
    std::set<std::string> modes;  // make_engine decisions seen this sweep
    double serial_rate = 0.0;
    for (const std::uint64_t shards : shards_sweep) {
      for (const std::uint64_t threads : threads_sweep) {
        // The wakeup ablation only touches the run-ahead handshake, so
        // it adds a second row for threads > 1 points only.
        std::vector<bool> wakeup_modes{true};
        if (wakeup_ablation && threads > 1) wakeup_modes.push_back(false);
        for (const bool coalesce : wakeup_modes) {
          core::SystemConfig config{k, s, args.hash_kind, args.seed};
          config.num_shards = static_cast<std::uint32_t>(shards);
          config.num_threads = static_cast<std::uint32_t>(threads);
          config.coalesce_wakeups = coalesce;
          // The message-cost columns read the metrics registry, not the
          // raw component counters: the bench doubles as a smoke test
          // that the pull-based bindings agree with the ground truth
          // (registration is bind-time-only, so the timed loop is
          // unchanged — BM_ObsOverhead in micro_substrates pins that).
          config.observability.metrics = true;
          double best_seconds = 0.0;
          std::uint64_t msgs = 0;
          double balance = 1.0;
          const char* engine_name = "?";
          for (std::uint64_t run = 0; run < args.runs; ++run) {
            auto run_one = [&](auto& system) {
              engine_name = system.runner().name();
              modes.insert(system.runner().mode_reason());
              VectorSource source(arrivals);
              util::Timer timer;
              system.run(source);
              const double seconds = timer.elapsed_seconds();
              if (run == 0 || seconds < best_seconds) best_seconds = seconds;
              const obs::MetricsSnapshot snap =
                  system.observability().snapshot();
              msgs = snap.counter_or("net.wire.msgs");
              std::uint64_t mx = 0, mn = ~0ULL;
              for (std::uint32_t j = 0; j < system.bus().num_coordinators();
                   ++j) {
                const std::uint64_t t = snap.counter_or(
                    "net.shard" + std::to_string(j) + ".msgs");
                mx = std::max(mx, t);
                mn = std::min(mn, t);
              }
              balance = mn == 0 ? 0.0
                                : static_cast<double>(mx) /
                                      static_cast<double>(mn);
            };
            if (protocol.with_replacement) {
              core::WithReplacementSystem system(config);
              run_one(system);
            } else {
              core::InfiniteSystem system(config, /*eager_threshold=*/false,
                                          args.suppress_duplicates);
              run_one(system);
            }
          }
          const double rate = static_cast<double>(n) / best_seconds / 1e6;
          if (shards == shards_sweep.front() &&
              threads == threads_sweep.front() && coalesce) {
            serial_rate = rate;
          }
          const char* wakeups =
              threads == 1 ? "-" : (coalesce ? "coalesced" : "per-msg");
          table.add_row({std::to_string(threads), std::to_string(shards),
                         engine_name, wakeups, util::fmt(rate, 3),
                         util::fmt(rate / serial_rate, 3),
                         std::to_string(msgs),
                         util::fmt(static_cast<double>(msgs) /
                                       static_cast<double>(n),
                                   4),
                         util::fmt(balance, 3)});
        }
      }
    }
    bench::emit(table,
                std::string("A11: ") + protocol.name + ", k=" +
                    std::to_string(k) + ", n=" + std::to_string(n),
                protocol.csv, args);
    // Why every row landed on its engine (Engine::mode_reason) — makes
    // a silent serial fallback visible in the bench log.
    for (const std::string& mode : modes) {
      std::cout << "engine mode: " << mode << "\n";
    }
  }
  return 0;
}
