#include "net/socket_transport.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace dds::net {

namespace {

double monotonic_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace

SocketTransport::SocketTransport(std::uint32_t num_sites,
                                 const NetworkConfig& config,
                                 std::uint32_t num_coordinators,
                                 SocketTopology topology)
    : Transport(num_sites, num_coordinators),
      config_(config),
      topology_(std::move(topology)),
      all_local_(topology_.all_local(num_sites + num_coordinators)),
      local_mask_(num_sites + num_coordinators, all_local_ ? 1 : 0),
      batcher_(num_sites, num_coordinators, config.batch_interval,
               config.batch_max_msgs),
      clock_origin_(monotonic_seconds()) {
  if (!all_local_) {
    for (const sim::NodeId id : topology_.local_nodes) {
      if (id >= local_mask_.size()) {
        throw std::out_of_range("SocketTransport: local node id " +
                                std::to_string(id) + " outside topology");
      }
      local_mask_[id] = 1;
    }
  }
}

double SocketTransport::now_seconds() const {
  return monotonic_seconds() - clock_origin_;
}

void SocketTransport::send(const sim::Message& msg) {
  check_endpoints(msg);
  note_send(msg);
  logical_.add_transmission(is_coordinator(msg.from),
                            sim::Message::wire_bytes());
  logical_.by_type[static_cast<std::size_t>(msg.type)] += 1;

  const bool batchable = config_.batch_interval > 0 &&
                         !is_coordinator(msg.from) && is_coordinator(msg.to);
  if (batchable) {
    stats_.batched_messages += 1;
    if (batcher_.add(msg, now())) {
      Batch full = batcher_.take_for(msg);
      stats_.batches_flushed += 1;
      ship(std::move(full.msgs), true);
    }
    return;
  }
  ship({msg}, false);
}

void SocketTransport::ship(std::vector<sim::Message> msgs, bool batched) {
  const sim::Message head = msgs.front();
  wire::Buffer frame;
  if (batched) {
    wire::encode_batch(msgs, frame);
  } else {
    wire::encode_message(head, frame);
  }
  // Wire counters carry the true serialized size — the framing overhead
  // over batch_wire_bytes() is exactly what abl16 measures.
  count_wire(head, frame.size());
  stats_.frames_sent += 1;
  if (is_local(head.from) && is_local(head.to)) {
    tokens_.emplace_back(head.from, head.to);
  }
  ship_frame(head.from, head.to, std::move(frame));
}

void SocketTransport::send_fin(sim::NodeId from, sim::NodeId to,
                               std::uint64_t messages_sent) {
  wire::Buffer frame;
  wire::encode_fin(wire::Fin{from, messages_sent}, frame);
  stats_.frames_sent += 1;
  if (is_local(from) && is_local(to)) tokens_.emplace_back(from, to);
  ship_frame(from, to, std::move(frame));
}

void SocketTransport::on_frame_bytes(sim::NodeId from, sim::NodeId to,
                                     const wire::Buffer& bytes) {
  std::size_t pos = 0;
  const auto frame = wire::decode_frame(bytes, pos);
  if (!frame || pos != bytes.size()) {
    // The reliability layer (or TCP) already guaranteed integrity and
    // framing; an undecodable frame here means a sender bug.
    throw std::runtime_error("SocketTransport: undecodable frame on link " +
                             std::to_string(from) + "->" +
                             std::to_string(to));
  }
  accept_frame(from, to, std::move(*frame));
}

void SocketTransport::accept_frame(sim::NodeId from, sim::NodeId to,
                                   wire::Frame frame) {
  if (is_local(from) && is_local(to)) {
    // Local sender: the frame waits for its global-order token, which
    // is what makes delivery order Bus-identical.
    ready_[{from, to}].push_back(std::move(frame));
    return;
  }
  deliver_frame(frame);
}

void SocketTransport::deliver_frame(const wire::Frame& frame) {
  stats_.frames_received += 1;
  switch (frame.kind) {
    case wire::FrameKind::kMessage:
    case wire::FrameKind::kBatch:
      for (const sim::Message& msg : frame.msgs) deliver(msg);
      return;
    case wire::FrameKind::kFin:
      fins_.push_back(frame.fin);
      return;
    case wire::FrameKind::kImage:
    case wire::FrameKind::kHello:
    case wire::FrameKind::kWelcome:
      // Handshake frames are consumed by the link layers; images never
      // ride the message transport today.
      throw std::runtime_error(
          "SocketTransport: unexpected frame kind on data path");
  }
}

bool SocketTransport::deliver_due() {
  while (!tokens_.empty()) {
    const auto link = tokens_.front();
    auto it = ready_.find(link);
    if (it == ready_.end() || it->second.empty()) return false;
    wire::Frame frame = std::move(it->second.front());
    it->second.pop_front();
    tokens_.pop_front();
    // deliver_frame can re-enter send() (nodes reply synchronously),
    // which appends fresh tokens — the loop keeps going until the
    // cascade is silent, exactly the Bus drain semantics.
    deliver_frame(frame);
  }
  return true;
}

void SocketTransport::drain_tokens() {
  double last_progress = now_seconds();
  std::size_t last_depth = tokens_.size();
  while (!deliver_due()) {
    const bool moved = pump_io(now_seconds());
    if (moved || tokens_.size() != last_depth) {
      last_progress = now_seconds();
      last_depth = tokens_.size();
      continue;
    }
    if (now_seconds() - last_progress > stall_timeout_) {
      throw std::runtime_error(
          "SocketTransport: drain stalled with " +
          std::to_string(tokens_.size()) + " undelivered frames");
    }
  }
}

void SocketTransport::drain() { drain_tokens(); }

void SocketTransport::finish() {
  // Deliveries may buffer fresh batchable reports, so alternate
  // flushing with draining until both sides are empty (the SimNetwork
  // finish loop), then wait for the links to acknowledge everything —
  // a process may only exit once retransmission duty is discharged.
  for (;;) {
    if (config_.batch_interval > 0) {
      std::vector<Batch> due = batcher_.take_all();
      if (!due.empty()) {
        flush_batches(std::move(due));
        continue;
      }
    }
    if (tokens_.empty()) break;
    drain_tokens();
  }
  double last_progress = now_seconds();
  while (!links_idle()) {
    if (pump_io(now_seconds())) {
      last_progress = now_seconds();
      continue;
    }
    if (now_seconds() - last_progress > stall_timeout_) {
      throw std::runtime_error(
          "SocketTransport: finish stalled waiting for link ack");
    }
  }
}

void SocketTransport::flush_shard(std::uint32_t shard) {
  if (config_.batch_interval > 0) {
    flush_batches(batcher_.take_for_shard(shard));
  }
}

void SocketTransport::flush_batches(std::vector<Batch> batches) {
  for (Batch& batch : batches) {
    stats_.batches_flushed += 1;
    ship(std::move(batch.msgs), true);
  }
}

void SocketTransport::on_clock_advance(sim::Slot now_slot) {
  if (config_.batch_interval > 0) {
    flush_batches(batcher_.take_due(now_slot));
  }
}

void SocketTransport::bind_observability(obs::MetricsRegistry* registry,
                                         obs::Tracer* tracer) {
  Transport::bind_observability(registry, tracer);
  if (registry == nullptr) return;
  registry->counter("socket.frames_sent", &stats_.frames_sent);
  registry->counter("socket.frames_received", &stats_.frames_received);
  registry->counter("socket.packets_sent", &stats_.packets_sent);
  registry->counter("socket.packets_received", &stats_.packets_received);
  registry->counter("socket.kernel_bytes_sent", &stats_.kernel_bytes_sent);
  registry->counter("socket.kernel_bytes_received",
                    &stats_.kernel_bytes_received);
  registry->counter("socket.retransmit_packets", &stats_.retransmit_packets);
  registry->counter("socket.ack_only_packets", &stats_.ack_only_packets);
  registry->counter("socket.handshake_packets", &stats_.handshake_packets);
  registry->counter("socket.batches_flushed", &stats_.batches_flushed);
  registry->counter("socket.batched_messages", &stats_.batched_messages);
  registry->counter("socket.syscalls", &stats_.syscalls);
  registry->counter("net.logical.msgs", &logical_.total);
  registry->counter("net.logical.bytes", &logical_.bytes);
}

}  // namespace dds::net
