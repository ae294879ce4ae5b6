// Loopback differential harness (ISSUE 9 tentpole 3 + satellites 3/4).
//
// The proof obligation of the real-socket runtime: the same seeded
// workload produces IDENTICAL results — samples, estimates, logical
// message counts, and the full logical send trace — whether it runs
// over the zero-delay Bus, the event-driven SimNetwork, real UDP
// datagrams, or real TCP streams. The socket transports buy this with
// their global send-order token queue (socket_transport.h), and this
// suite is what holds them to it, for the infinite-window,
// with-replacement, and exact-sliding protocols.
//
// Also here:
//   * the batched variant (batch_interval > 0): SimNetwork vs UDP vs
//     TCP, plus real-frame accounting against wire::batch_frame_bytes
//   * the drain-at-finish regression: a batch buffered against a far
//     deadline must be delivered by finish(), leaving the transport
//     quiescent() — a slow socket can never strand end-of-stream
//     messages
//   * the multi-process spawn smoke: fork/exec tools/dds_node
//     (coordinator + 2 sites over real sockets), compare its sample
//     with the in-process reference
//   * TCP syscall accounting: an all-local sliding-window run reads
//     only the stream whose frame is due, so it makes about one send
//     and one recv per frame (socket.syscalls / socket.frames_sent)
//   * a frame larger than the loopback socket buffers: partial sends,
//     waits for bytes on the due stream, and still a delivery trace
//     identical to SimNetwork's
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/baseline_system.h"
#include "core/infinite_coordinator.h"
#include "core/infinite_site.h"
#include "core/system.h"
#include "net/sim_network.h"
#include "net/socket_transport.h"
#include "net/tcp_transport.h"
#include "net/udp_transport.h"
#include "query/estimators.h"
#include "sim/bus.h"
#include "sim/sources.h"
#include "util/rng.h"

namespace dds {
namespace {

using net::TransportKind;
namespace wire = net::wire;

constexpr std::uint64_t kDomain = 400;
constexpr sim::Slot kSlots = 30;
constexpr int kArrivalsPerSlot = 6;

/// Everything a run exposes that must be transport-invariant.
struct Fingerprint {
  std::string sample;          ///< protocol-specific rendering
  std::uint64_t total = 0;     ///< logical transmissions
  std::uint64_t site_to_coordinator = 0;
  std::uint64_t coordinator_to_site = 0;
  std::uint64_t bytes = 0;     ///< logical (paper-model) bytes
  std::array<std::uint64_t, sim::kNumMsgTypes> by_type{};
  std::uint64_t trace_hash = 0;  ///< FNV over every logical send

  bool operator==(const Fingerprint&) const = default;
};

std::string describe(const Fingerprint& fp) {
  std::ostringstream out;
  out << "total=" << fp.total << " s2c=" << fp.site_to_coordinator
      << " c2s=" << fp.coordinator_to_site << " bytes=" << fp.bytes
      << " trace=" << fp.trace_hash << " sample=[" << fp.sample << "]";
  return out.str();
}

void hash_in(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

/// The logical (per-send) counters of any transport kind. The Bus has
/// no batching, so its wire counters ARE its logical counters.
const net::BusCounters& logical_of(net::Transport& bus) {
  if (auto* sim_net = dynamic_cast<net::SimNetwork*>(&bus)) {
    return sim_net->logical_counters();
  }
  if (auto* socket = dynamic_cast<net::SocketTransport*>(&bus)) {
    return socket->logical_counters();
  }
  return bus.counters();
}

/// Runs `System` over the given transport kind with the shared seeded
/// workload; `sample_fn(system, last_slot)` renders the sample.
template <typename System, typename SampleFn>
Fingerprint run_one(TransportKind kind, std::uint64_t seed,
                    sim::Slot batch_interval, SampleFn sample_fn) {
  core::SystemConfig config;
  config.num_sites = 4;
  config.sample_size = 6;
  config.seed = seed;
  config.window = 12;
  config.network.kind = kind;
  config.network.batch_interval = batch_interval;
  System system(config);

  Fingerprint fp;
  fp.trace_hash = 0xCBF29CE484222325ULL;
  system.bus().set_tap([&fp](const sim::Message& msg) {
    hash_in(fp.trace_hash, msg.from);
    hash_in(fp.trace_hash, msg.to);
    hash_in(fp.trace_hash, static_cast<std::uint64_t>(msg.type));
    hash_in(fp.trace_hash, msg.instance);
    hash_in(fp.trace_hash, msg.a);
    hash_in(fp.trace_hash, msg.b);
    hash_in(fp.trace_hash, msg.c);
  });

  util::Xoshiro256StarStar workload(util::derive_seed(seed, 0x50CE7));
  for (sim::Slot t = 0; t < kSlots; ++t) {
    std::vector<std::pair<sim::NodeId, std::uint64_t>> arrivals;
    arrivals.reserve(kArrivalsPerSlot);
    for (int i = 0; i < kArrivalsPerSlot; ++i) {
      arrivals.emplace_back(
          static_cast<sim::NodeId>(workload.next_below(config.num_sites)),
          1 + workload.next_below(kDomain));
    }
    sim::SlotSource source(t, arrivals);
    system.run(source);
  }
  system.bus().finish();
  EXPECT_TRUE(system.bus().quiescent());

  fp.sample = sample_fn(system, kSlots - 1);
  const net::BusCounters& logical = logical_of(system.bus());
  fp.total = logical.total;
  fp.site_to_coordinator = logical.site_to_coordinator;
  fp.coordinator_to_site = logical.coordinator_to_site;
  fp.bytes = logical.bytes;
  fp.by_type = logical.by_type;
  return fp;
}

std::string infinite_sample(core::InfiniteSystem& system, sim::Slot) {
  std::ostringstream out;
  for (const auto& entry : system.sample().entries()) {
    out << entry.element << ":" << entry.hash << " ";
  }
  out << "| d^=" << query::estimate_distinct(system.sample());
  return out.str();
}

std::string wr_sample(core::WithReplacementSystem& system, sim::Slot) {
  std::ostringstream out;
  for (const stream::Element element : system.sample()) {
    out << element << " ";
  }
  return out.str();
}

std::string sliding_sample(baseline::BottomSSlidingSystem& system,
                           sim::Slot now) {
  std::ostringstream out;
  for (const auto& candidate : system.sample(now)) {
    out << candidate.element << ":" << candidate.hash << "@"
        << candidate.expiry << " ";
  }
  return out.str();
}

const std::vector<TransportKind> kAllKinds{
    TransportKind::kBus, TransportKind::kSimNetwork, TransportKind::kUdp,
    TransportKind::kTcp};

const char* kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kBus: return "bus";
    case TransportKind::kSimNetwork: return "simnet";
    case TransportKind::kUdp: return "udp";
    case TransportKind::kTcp: return "tcp";
    default: return "auto";
  }
}

template <typename System, typename SampleFn>
void expect_transport_invariant(std::uint64_t seed, SampleFn sample_fn) {
  const Fingerprint reference =
      run_one<System>(TransportKind::kBus, seed, 0, sample_fn);
  EXPECT_GT(reference.total, 0u);
  for (const TransportKind kind : kAllKinds) {
    if (kind == TransportKind::kBus) continue;
    const Fingerprint fp = run_one<System>(kind, seed, 0, sample_fn);
    EXPECT_EQ(fp, reference)
        << kind_name(kind) << " diverged from bus at seed " << seed
        << "\n  bus:    " << describe(reference)
        << "\n  " << kind_name(kind) << ": " << describe(fp);
  }
}

TEST(SocketDifferential, InfiniteWindowBitMatchesAcrossTransports) {
  for (const std::uint64_t seed : {7ULL, 1234ULL}) {
    expect_transport_invariant<core::InfiniteSystem>(seed, infinite_sample);
  }
}

TEST(SocketDifferential, WithReplacementBitMatchesAcrossTransports) {
  for (const std::uint64_t seed : {7ULL, 1234ULL}) {
    expect_transport_invariant<core::WithReplacementSystem>(seed, wr_sample);
  }
}

TEST(SocketDifferential, ExactSlidingBitMatchesAcrossTransports) {
  for (const std::uint64_t seed : {7ULL, 1234ULL}) {
    expect_transport_invariant<baseline::BottomSSlidingSystem>(
        seed, sliding_sample);
  }
}

TEST(SocketDifferential, BatchedRunsBitMatchSimNetwork) {
  // With batching on, the Bus is out (it cannot batch) — SimNetwork is
  // the reference. Logical counters and samples must still agree;
  // batching may only change the wire-level framing.
  for (const std::uint64_t seed : {7ULL, 1234ULL}) {
    const Fingerprint reference = run_one<core::InfiniteSystem>(
        TransportKind::kSimNetwork, seed, /*batch_interval=*/4,
        infinite_sample);
    for (const TransportKind kind :
         {TransportKind::kUdp, TransportKind::kTcp}) {
      const Fingerprint fp = run_one<core::InfiniteSystem>(
          kind, seed, /*batch_interval=*/4, infinite_sample);
      EXPECT_EQ(fp, reference)
          << kind_name(kind) << " batched run diverged at seed " << seed
          << "\n  simnet: " << describe(reference)
          << "\n  " << kind_name(kind) << ": " << describe(fp);
    }
    // Batching may change the message TRACE (delayed replies leave site
    // thresholds stale longer, so sites report differently) but never
    // the sample: the coordinator still hears every below-threshold
    // element.
    const Fingerprint unbatched = run_one<core::InfiniteSystem>(
        TransportKind::kSimNetwork, seed, 0, infinite_sample);
    EXPECT_EQ(reference.sample, unbatched.sample);
  }
}

TEST(SocketAccounting, RealFrameBytesFollowTheWireModel) {
  // A socket run's kernel-visible frame sizes are exactly the
  // wire::*_frame_bytes forms: per unbatched message message_frame_bytes,
  // per batch batch_frame_bytes(n). Check via the transport's own
  // accounting: wire bytes == sum of the frame-size formulas.
  core::SystemConfig config;
  config.num_sites = 4;
  config.sample_size = 6;
  config.seed = 99;
  config.network.kind = TransportKind::kUdp;
  config.network.batch_interval = 4;
  core::InfiniteSystem system(config);
  util::Xoshiro256StarStar workload(util::derive_seed(99, 0x50CE7));
  for (sim::Slot t = 0; t < kSlots; ++t) {
    std::vector<std::pair<sim::NodeId, std::uint64_t>> arrivals;
    for (int i = 0; i < kArrivalsPerSlot; ++i) {
      arrivals.emplace_back(
          static_cast<sim::NodeId>(workload.next_below(config.num_sites)),
          1 + workload.next_below(kDomain));
    }
    sim::SlotSource source(t, arrivals);
    system.run(source);
  }
  system.bus().finish();

  auto& socket = dynamic_cast<net::SocketTransport&>(system.bus());
  const net::SocketStats& stats = socket.socket_stats();
  EXPECT_GT(stats.batches_flushed, 0u);
  EXPECT_GT(stats.batched_messages, stats.batches_flushed);
  const std::uint64_t unbatched_frames =
      stats.frames_sent - stats.batches_flushed;
  const std::uint64_t expected_bytes =
      unbatched_frames * wire::message_frame_bytes() +
      stats.batches_flushed * wire::batch_frame_bytes(0) +
      stats.batched_messages * 29;
  EXPECT_EQ(socket.counters().bytes, expected_bytes);
  // And the kernel moved at least that much (packet headers add more).
  EXPECT_GE(stats.kernel_bytes_sent, expected_bytes);
}

// ---- the drain-at-finish contract (satellite 4) ----------------------

TEST(DrainAtFinish, BufferedBatchesCannotOutliveFinish) {
  // A report buffered by the Batcher against a deadline far in the
  // future is exactly the "slow socket strands the last message" shape:
  // nothing will flush it on its own. finish() must deliver it anyway
  // and leave the transport quiescent — on the event-driven simulator
  // and on both real-socket transports.
  for (const TransportKind kind :
       {TransportKind::kSimNetwork, TransportKind::kUdp,
        TransportKind::kTcp}) {
    core::SystemConfig config;
    config.num_sites = 3;
    config.sample_size = 4;
    config.seed = 5;
    config.network.kind = kind;
    config.network.batch_interval = 1000;  // deadline far beyond the run
    core::InfiniteSystem system(config);

    std::vector<std::pair<sim::NodeId, std::uint64_t>> arrivals{
        {0, 11}, {1, 22}, {2, 33}, {0, 44}};
    sim::SlotSource source(0, arrivals);
    system.run(source);
    // The reports are buffered, not delivered: without finish() the
    // coordinator would never hear of them.
    system.bus().finish();
    EXPECT_TRUE(system.bus().quiescent())
        << kind_name(kind) << ": finish() left traffic stranded";

    // The coordinator heard every report: its sample equals the Bus
    // run's sample of the same four elements.
    core::SystemConfig bus_config = config;
    bus_config.network = net::NetworkConfig{};
    core::InfiniteSystem reference(bus_config);
    sim::SlotSource replay(0, arrivals);
    reference.run(replay);
    EXPECT_EQ(system.sample().entries().size(),
              reference.sample().entries().size())
        << kind_name(kind);
    EXPECT_EQ(system.sample().elements(), reference.sample().elements())
        << kind_name(kind);
  }
}

/// Swallows deliveries without replying.
struct SinkNode final : sim::Node {
  std::uint64_t received = 0;
  void on_message(const sim::Message&, net::Transport&) override {
    ++received;
  }
};

TEST(DrainAtFinish, QuiescentReportsBufferedTraffic) {
  // quiescent() must be an honest indicator: false while a batch sits
  // buffered against a far-future deadline, true (with the message
  // actually delivered) after finish(). The engine finishes after every
  // run(), so this drives the transport directly to see the window.
  net::NetworkConfig config;
  config.batch_interval = 1000;
  config.seed = 5;
  net::UdpTransport transport(/*num_sites=*/2, config);
  SinkNode site0, site1, coordinator;
  transport.attach(0, &site0);
  transport.attach(1, &site1);
  transport.attach(transport.coordinator_id(), &coordinator);

  sim::Message report;
  report.from = 0;
  report.to = transport.coordinator_id();
  report.type = sim::MsgType::kReportElement;
  report.a = 11;
  report.b = 22;
  transport.send(report);

  EXPECT_FALSE(transport.quiescent());
  EXPECT_EQ(coordinator.received, 0u);  // genuinely stranded until finish
  transport.finish();
  EXPECT_TRUE(transport.quiescent());
  EXPECT_EQ(coordinator.received, 1u);
}

// ---- TCP reads only the stream whose frame is due --------------------

TEST(TcpSyscalls, AllLocalSlidingRunMakesAboutTwoPerFrame) {
  // The sliding_tcp benchmark's shape, scaled down: 4 sites, w = 50, a
  // report and a reply for most candidates. Each frame costs the send
  // that ships it and the recv that reads it on the due stream; the
  // handshake and the odd read that finds the bytes still in flight
  // make up the rest of the 2.5 budget.
  core::SystemConfig config;
  config.num_sites = 4;
  config.sample_size = 4;
  config.seed = 41;
  config.window = 50;
  config.network.kind = TransportKind::kTcp;
  config.observability.metrics = true;
  core::SlidingSystem system(config);

  util::Xoshiro256StarStar rng(util::derive_seed(41, 0x5CA11));
  std::vector<sim::Arrival> arrivals;
  for (sim::Slot t = 1; t <= 1200; ++t) {
    for (int a = 0; a < 5; ++a) {
      arrivals.push_back(sim::Arrival{
          t, static_cast<sim::NodeId>(rng.next_below(config.num_sites)),
          1 + rng.next_below(5000)});
    }
  }
  sim::ListSource source(std::move(arrivals));
  system.run(source);
  EXPECT_TRUE(system.bus().quiescent());

  const auto snapshot = system.observability().snapshot();
  const std::uint64_t frames = snapshot.counter_or("socket.frames_sent");
  const std::uint64_t syscalls = snapshot.counter_or("socket.syscalls");
  const auto& stats =
      dynamic_cast<net::SocketTransport&>(system.bus()).socket_stats();
  EXPECT_EQ(syscalls, stats.syscalls);
  EXPECT_GT(frames, 1000u);
  EXPECT_LE(static_cast<double>(syscalls), 2.5 * static_cast<double>(frames))
      << syscalls << " syscalls for " << frames << " frames";
}

/// Records every message it receives; the coordinator-side instance
/// answers every 1000th one, so deliveries of one frame ship more.
struct EchoRecorder final : sim::Node {
  bool echo = false;
  std::vector<std::string> received;
  void on_message(const sim::Message& msg, net::Transport& bus) override {
    received.push_back(std::to_string(msg.from) + ">" +
                       std::to_string(msg.to) + " " + std::to_string(msg.a) +
                       " " + std::to_string(msg.b));
    if (echo && msg.a % 1000 == 0) {
      sim::Message reply;
      reply.from = msg.to;
      reply.to = msg.from;
      reply.type = sim::MsgType::kThresholdReply;
      reply.a = msg.a;
      reply.b = msg.b;
      bus.send(reply);
    }
  }
};

/// One site ships `n` batchable reports that a far batch deadline holds
/// back until finish(), which sends them as a single kBatch frame.
std::vector<std::string> run_one_huge_batch(net::Transport& transport,
                                            std::uint64_t n) {
  EchoRecorder site, coordinator;
  coordinator.echo = true;
  transport.attach(0, &site);
  transport.attach(transport.coordinator_id(), &coordinator);
  for (std::uint64_t i = 1; i <= n; ++i) {
    sim::Message report;
    report.from = 0;
    report.to = transport.coordinator_id();
    report.type = sim::MsgType::kReportElement;
    report.a = i;
    report.b = i * 0x9E3779B97F4A7C15ULL;
    transport.send(report);
  }
  transport.finish();
  EXPECT_TRUE(transport.quiescent());
  std::vector<std::string> trace = std::move(coordinator.received);
  trace.insert(trace.end(), site.received.begin(), site.received.end());
  return trace;
}

TEST(TcpSyscalls, FrameLargerThanSocketBuffersStillDeliversInOrder) {
  // 200k reports make one ~5.8 MB frame, more than loopback TCP will
  // buffer (tcp_wmem's default ceiling is 4 MiB). The first send is
  // partial, the rest waits for the receiver; the due stream's reader
  // finds the frame incomplete, reads on, and waits for bytes until
  // the sender's backlog drains. finish() must still complete, and the
  // delivery trace must equal the simulator's.
  constexpr std::uint64_t kReports = 200000;
  net::NetworkConfig config;
  config.batch_interval = 1000;  // only finish() ships the batch
  config.batch_max_msgs = kReports + 1;
  net::TcpTransport tcp(/*num_sites=*/1, config);
  const net::SocketStats handshake = tcp.socket_stats();
  const std::vector<std::string> got = run_one_huge_batch(tcp, kReports);

  config.kind = TransportKind::kSimNetwork;
  net::SimNetwork sim_net(/*num_sites=*/1, config);
  const std::vector<std::string> want = run_one_huge_batch(sim_net, kReports);
  ASSERT_EQ(got.size(), kReports + kReports / 1000);
  EXPECT_TRUE(got == want) << "TCP delivery trace diverged from SimNetwork";
  EXPECT_EQ(tcp.logical_counters().total, sim_net.logical_counters().total);
  EXPECT_EQ(tcp.logical_counters().bytes, sim_net.logical_counters().bytes);

  const net::SocketStats& stats = tcp.socket_stats();
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_GT(stats.kernel_bytes_sent, kReports * 29);
  // The batch frame took more than one send (the first was partial),
  // and at least one read per 64 KiB chunk (89 for 5.8 MB)...
  const std::uint64_t sends = stats.packets_sent - handshake.packets_sent;
  const std::uint64_t reads =
      stats.packets_received - handshake.packets_received;
  EXPECT_GT(sends, stats.frames_sent - handshake.frames_sent);
  EXPECT_GE(reads, kReports * 29 / 65536);
  // ...and beyond those, calls that found the socket full or empty
  // (EAGAIN) or waited in poll.
  EXPECT_GT(stats.syscalls - handshake.syscalls, sends + reads);
}

// ---- multi-process spawn smoke (satellite 3) -------------------------

struct SpawnConfig {
  std::string transport;
  std::uint32_t num_sites = 2;
  std::uint64_t seed = 7;
  std::size_t sample_size = 8;
  std::uint64_t elements = 300;
  std::uint64_t domain = 500;
};

/// The sample dds_node must produce, computed in-process: same hash
/// recipe, same per-site workload generator. The infinite-window sample
/// is a pure function of the element SET, so arrival order across
/// processes cannot change it.
std::vector<std::string> expected_sample_lines(const SpawnConfig& config) {
  sim::Bus bus(config.num_sites, 1);
  core::InfiniteWindowCoordinator coordinator(bus.coordinator_id(),
                                              config.sample_size);
  bus.attach(bus.coordinator_id(), &coordinator);
  const hash::HashFunction hash_fn(
      hash::HashKind::kMurmur2, util::derive_seed(config.seed, 0xA5));
  std::vector<std::unique_ptr<core::InfiniteWindowSite>> sites;
  for (std::uint32_t i = 0; i < config.num_sites; ++i) {
    sites.push_back(std::make_unique<core::InfiniteWindowSite>(
        i, bus.coordinator_id(), hash_fn));
    bus.attach(i, sites.back().get());
  }
  for (std::uint32_t i = 0; i < config.num_sites; ++i) {
    util::Xoshiro256StarStar rng(
        util::derive_seed(config.seed, 0xF00D + i));
    for (std::uint64_t n = 0; n < config.elements; ++n) {
      sites[i]->on_element(1 + rng.next_below(config.domain), 0, bus);
      bus.drain();
    }
  }
  std::vector<std::string> lines;
  for (const stream::Element element : coordinator.sample().elements()) {
    lines.push_back(std::to_string(element));
  }
  return lines;
}

pid_t spawn(const std::vector<std::string>& argv_strings) {
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const std::string& s : argv_strings) {
    argv.push_back(const_cast<char*>(s.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("execv dds_node");
    ::_exit(127);
  }
  return pid;
}

/// Waits for `pid` with a deadline; kills and fails on timeout.
int wait_with_timeout(pid_t pid, int seconds) {
  for (int waited_ms = 0; waited_ms < seconds * 1000; waited_ms += 20) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    }
    ::usleep(20 * 1000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

void run_spawn_smoke(const SpawnConfig& config) {
  const std::string node_binary = std::string(DDS_BINARY_DIR) + "/dds_node";
  char dir_template[] = "/tmp/dds_socket_test_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const std::string port_file = dir + "/coord.port";
  const std::string out_file = dir + "/sample";

  auto common = [&](std::vector<std::string> head) {
    head.insert(head.end(),
                {"--transport", config.transport, "--num-sites",
                 std::to_string(config.num_sites), "--seed",
                 std::to_string(config.seed), "--sample-size",
                 std::to_string(config.sample_size), "--elements",
                 std::to_string(config.elements), "--domain",
                 std::to_string(config.domain), "--port-file", port_file});
    return head;
  };

  std::vector<pid_t> pids;
  pids.push_back(spawn(
      common({node_binary, "--coordinator", "--out", out_file})));
  for (std::uint32_t i = 0; i < config.num_sites; ++i) {
    pids.push_back(spawn(common({node_binary, "--site", std::to_string(i)})));
  }
  for (const pid_t pid : pids) {
    EXPECT_EQ(wait_with_timeout(pid, 25), 0)
        << config.transport << " node " << pid << " failed";
  }

  std::vector<std::string> lines;
  std::ifstream in(out_file);
  ASSERT_TRUE(in.good()) << "coordinator wrote no sample";
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  EXPECT_EQ(lines, expected_sample_lines(config))
      << config.transport << " multi-process sample diverged";

  std::remove(port_file.c_str());
  std::remove(out_file.c_str());
  ::rmdir(dir.c_str());
}

TEST(SpawnSmoke, UdpThreeProcessRunMatchesInProcessSample) {
  SpawnConfig config;
  config.transport = "udp";
  run_spawn_smoke(config);
}

TEST(SpawnSmoke, TcpThreeProcessRunMatchesInProcessSample) {
  SpawnConfig config;
  config.transport = "tcp";
  run_spawn_smoke(config);
}

}  // namespace
}  // namespace dds
