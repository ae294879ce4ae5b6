// Shared machinery for the real-socket transports (UDP and TCP).
//
// Both concrete transports move every message through the kernel on
// 127.0.0.1 sockets — real sendto/recv, real file descriptors — while
// implementing the exact net::Transport contract the in-process wires
// satisfy, so make_engine/Deployment run over them with zero protocol
// changes. The shared base owns everything that is not socket-flavored:
//
//   * Batcher integration copied move-for-move from SimNetwork: send()
//     buffers batchable site->coordinator reports, a size-triggered
//     batch ships immediately, on_clock_advance() ships due batches,
//     flush_shard() ships one shard's buffers, finish() alternates
//     take_all() with socket pumping until everything is quiescent.
//   * The logical/wire counter split: logical_counters() counts one
//     per send() like SimNetwork; counters() (the base Transport wire
//     view) counts encoded frames with their true serialized size, so
//     (wire bytes - logical bytes) is the real framing overhead abl16
//     tabulates against the paper's 8 + 29n model.
//   * Bus-identical delivery order. All nodes of a loopback deployment
//     live in one process, so the transport records the global send
//     order of frames in a token queue; arriving frames wait in
//     per-link FIFOs (each link is in-order: the conn layer or TCP
//     guarantees it) and are delivered strictly in token order. That
//     makes delivery order — and therefore every sample, estimate, and
//     logical counter — bit-identical to the zero-delay Bus, which is
//     the differential harness's whole proof obligation.
//   * The drain-at-finish contract: drain() pumps the sockets until no
//     shipped frame is undelivered; finish() additionally requires the
//     batcher empty and every link idle (all data acknowledged). A
//     transport must never report finish() while a slow socket still
//     holds end-of-stream messages — quiescent() is the auditable form
//     of that promise (regression-tested in socket_test).
//
// Multi-process mode: a SocketTopology restricting local_nodes makes
// this process host a subset of the deployment (tools/dds_node). Sends
// to remote nodes go over the wire to peer addresses; frames arriving
// from remote nodes bypass the token queue (there is no global order
// across processes — per-link FIFO order still holds) and deliver on
// receipt. Only all-local transports claim synchronous().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/batcher.h"
#include "net/config.h"
#include "net/transport.h"
#include "net/wire.h"

namespace dds::net {

/// Where the nodes of this deployment live. Default: everything local
/// (the loopback differential mode).
struct SocketTopology {
  /// Nodes hosted by this process; empty means all of them.
  std::vector<sim::NodeId> local_nodes;
  /// Fixed port a local coordinator listens on (0 = ephemeral; fine
  /// when every node is local and ports are exchanged in-process).
  /// Multi-coordinator partial deployments listen on listen_port + j.
  std::uint16_t listen_port = 0;
  /// Address of coordinator shard j for remote-coordinator processes,
  /// as (host, port). Sites initiate all connections.
  std::vector<std::pair<std::string, std::uint16_t>> coordinator_addrs;

  bool all_local(std::uint32_t num_nodes) const noexcept {
    return local_nodes.empty() || local_nodes.size() == num_nodes;
  }
};

/// Socket-level accounting beyond BusCounters (which counts frames):
/// what actually crossed the kernel boundary.
struct SocketStats {
  std::uint64_t frames_sent = 0;      ///< encoded wire frames shipped
  std::uint64_t frames_received = 0;  ///< frames decoded and dispatched
  std::uint64_t packets_sent = 0;     ///< datagrams / stream writes
  std::uint64_t packets_received = 0;
  std::uint64_t kernel_bytes_sent = 0;  ///< incl. packet-header overhead
  std::uint64_t kernel_bytes_received = 0;
  std::uint64_t retransmit_packets = 0;  ///< UDP reliability resends
  std::uint64_t ack_only_packets = 0;
  std::uint64_t handshake_packets = 0;
  std::uint64_t batches_flushed = 0;
  std::uint64_t batched_messages = 0;
  /// send/recv/poll calls, EAGAIN and handshake included (TCP only;
  /// UDP leaves it 0).
  std::uint64_t syscalls = 0;
};

class SocketTransport : public Transport {
 public:
  SocketTransport(std::uint32_t num_sites, const NetworkConfig& config,
                  std::uint32_t num_coordinators, SocketTopology topology);
  ~SocketTransport() override = default;

  void send(const sim::Message& msg) override;

  /// Pumps the sockets until every frame shipped between local nodes
  /// has been delivered (the Bus cascade: deliveries send, sends are
  /// delivered, until silent). Throws std::runtime_error if the wire
  /// makes no progress for the stall timeout — a hung socket must be a
  /// loud failure, never a silent partial drain.
  void drain() override;

  /// Drain + batcher empty + links idle: the end-of-stream barrier.
  /// Alternates flushing the batcher with pumping, exactly like
  /// SimNetwork::finish(), because deliveries can buffer fresh
  /// batchable reports.
  void finish() override;

  void flush_shard(std::uint32_t shard) override;

  bool synchronous() const noexcept override { return all_local_; }

  /// Nothing shipped is undelivered, nothing is buffered, every link
  /// has acknowledged all data: the transport may be abandoned without
  /// stranding a message. finish() leaves the transport quiescent.
  bool quiescent() const noexcept override {
    return tokens_.empty() && batcher_.buffered_total() == 0 && links_idle();
  }

  /// Protocol-level counters, one per send() (see SimNetwork): the
  /// differential harness compares THESE across transports; counters()
  /// carries real frame bytes and so legitimately differs from the
  /// simulated byte model.
  const BusCounters& logical_counters() const noexcept { return logical_; }

  const SocketStats& socket_stats() const noexcept { return stats_; }

  /// Ships a kFin end-of-stream frame from `from` to `to` (dds_node's
  /// completion barrier). Counted as a frame, not as a protocol
  /// message.
  void send_fin(sim::NodeId from, sim::NodeId to,
                std::uint64_t messages_sent);

  /// Fin frames received so far, in arrival order.
  const std::vector<wire::Fin>& fins() const noexcept { return fins_; }

  /// Pumps I/O once without blocking for long (dds_node's event loop;
  /// tests use drain()/finish()). Returns true if any byte moved.
  bool pump() { return pump_io(now_seconds()); }

  /// Seconds since transport construction (monotonic) — the clock the
  /// reliability layer runs on.
  double now_seconds() const;

  void bind_observability(obs::MetricsRegistry* registry,
                          obs::Tracer* tracer) override;

 protected:
  void on_clock_advance(sim::Slot now) override;

  // ---- the socket-flavored surface subclasses implement --------------

  /// Queues one encoded frame for reliable in-order delivery from
  /// `from` to `to` and pushes it toward the kernel.
  virtual void ship_frame(sim::NodeId from, sim::NodeId to,
                          wire::Buffer frame) = 0;

  /// Moves bytes: reads what is readable (feeding received frames back
  /// through on_frame_bytes), services retransmit/ack timers, flushes
  /// pending writes. May block briefly (a few ms) when idle. Returns
  /// true if anything moved.
  virtual bool pump_io(double now) = 0;

  /// Every link has acknowledged (UDP) or fully written (TCP) all data.
  virtual bool links_idle() const = 0;

  // ---- services for subclasses ---------------------------------------

  /// All-local mode: the directed link (from, to) that carries the next
  /// frame due for delivery (the head of the global send order), or
  /// nullptr when every shipped frame has been delivered. Its bytes are
  /// the only ones the delivery loop is waiting for.
  const std::pair<sim::NodeId, sim::NodeId>* next_due_link() const noexcept {
    return tokens_.empty() ? nullptr : &tokens_.front();
  }

  bool is_local(sim::NodeId id) const { return local_mask_[id]; }
  bool all_local() const noexcept { return all_local_; }
  const SocketTopology& topology() const noexcept { return topology_; }
  SocketStats& stats() noexcept { return stats_; }

  /// Subclasses hand every received frame's bytes here (payloads the
  /// reliability layer released, or frames sliced off a TCP stream).
  /// Decodes, validates, and either queues the frame behind its token
  /// (local sender) or delivers immediately (remote sender). Throws on
  /// a frame that does not decode — the link layers below guarantee
  /// integrity, so a bad frame here is a bug, not weather.
  void on_frame_bytes(sim::NodeId from, sim::NodeId to,
                      const wire::Buffer& bytes);

  /// Same entry point for a frame the subclass already decoded (the
  /// TCP stream parser slices and validates in place).
  void accept_frame(sim::NodeId from, sim::NodeId to, wire::Frame frame);

 private:
  void ship(std::vector<sim::Message> msgs, bool batched);
  void flush_batches(std::vector<Batch> batches);
  void deliver_frame(const wire::Frame& frame);
  /// Delivers every frame whose token is at the head of the global
  /// order and whose bytes have arrived. Returns true when the token
  /// queue is empty afterwards.
  bool deliver_due();
  /// Pump + deliver until the token queue empties; stall-guarded.
  void drain_tokens();

  NetworkConfig config_;
  SocketTopology topology_;
  bool all_local_;
  std::vector<char> local_mask_;
  Batcher batcher_;
  BusCounters logical_;
  SocketStats stats_;
  std::vector<wire::Fin> fins_;

  /// Global send order of local->local frames: front = next delivery.
  std::deque<std::pair<sim::NodeId, sim::NodeId>> tokens_;  // (from, to)
  /// Arrived-but-not-yet-due frames per directed link.
  std::map<std::pair<sim::NodeId, sim::NodeId>, std::deque<wire::Frame>>
      ready_;

  double clock_origin_ = 0.0;
  double stall_timeout_ = 10.0;  ///< seconds without progress -> throw
};

}  // namespace dds::net
