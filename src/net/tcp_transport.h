// TCP transport: one stream per (site, coordinator) pair on 127.0.0.1.
//
// TCP already provides ordered reliable bytes, so there is no conn
// layer here — frames are written back-to-back onto the stream and
// sliced off the receive side with wire::decode_frame, using
// wire::incomplete_prefix to distinguish "wait for more bytes" from a
// corrupt stream (which throws; TCP does not corrupt silently, so a
// bad frame means a sender bug or a foreign client).
//
// Reads: in all-local mode the transport knows which stream carries the
// next frame due for delivery (SocketTransport::next_due_link), so
// pump_io flushes the streams with unsent bytes, makes one recv on the
// due stream, and polls that stream only when its bytes have not
// arrived yet — about one send and one recv per frame. In multi-process
// mode any stream may bring a frame, so pump_io polls every stream
// first and reads only those the poll reports readable.
//
// Handshake: the site writes a kHello frame immediately after connect;
// the coordinator validates the topology and answers kWelcome. The
// constructor completes every handshake before returning. TCP_NODELAY
// is set on every stream — the transport batches at the frame level
// (net::Batcher), so Nagle would only add latency.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <vector>

#include "net/socket_transport.h"

namespace dds::net {

class TcpTransport final : public SocketTransport {
 public:
  TcpTransport(std::uint32_t num_sites, const NetworkConfig& config,
               std::uint32_t num_coordinators = 1,
               SocketTopology topology = {});
  ~TcpTransport() override;

  /// Listening port of a local coordinator shard.
  std::uint16_t listen_port_of(std::uint32_t shard) const;

 protected:
  void ship_frame(sim::NodeId from, sim::NodeId to,
                  wire::Buffer frame) override;
  bool pump_io(double now) override;
  bool links_idle() const override;

 private:
  struct Peer {
    int fd = -1;
    wire::Buffer inbuf;
    std::size_t inpos = 0;  ///< parse cursor into inbuf
    wire::Buffer outbuf;
    std::size_t outpos = 0;  ///< flush cursor into outbuf
    bool eof = false;        ///< the remote end closed its side

    bool backlogged() const noexcept { return outpos < outbuf.size(); }
  };

  struct Listener {
    int fd = -1;
    std::uint16_t port = 0;
  };

  /// Directed key: (local node, peer node).
  using PeerMap = std::map<std::pair<sim::NodeId, sim::NodeId>, Peer>;

  void open_listeners();
  void connect_sites();
  void accept_sites();
  void await_welcomes();
  int connect_with_retry(std::uint32_t ip, std::uint16_t port,
                         double deadline);
  void write_frame_blocking(int fd, const wire::Buffer& frame);
  wire::Frame read_frame_blocking(Peer& peer, double deadline);
  // Every send/recv/poll goes through these three, so socket.syscalls
  // counts them all.
  ssize_t sys_send(int fd, const void* data, std::size_t len, int flags);
  ssize_t sys_recv(int fd, void* data, std::size_t len, int flags);
  int sys_poll(pollfd* fds, std::size_t n, int timeout_ms);

  /// All-local pump: flush the backlog, read the due stream only.
  bool pump_due();
  /// Multi-process pump: poll every stream, read only the readable ones.
  bool pump_polled();
  /// Flushes every peer with unsent bytes; true if any byte moved.
  bool flush_backlog();
  bool flush_out(Peer& peer);
  /// Reads until a recv comes back short of a full chunk, then parses.
  bool read_peer(sim::NodeId local, sim::NodeId remote, Peer& peer);
  void parse_frames(sim::NodeId local, sim::NodeId remote, Peer& peer);
  void adopt_peer(sim::NodeId local, sim::NodeId remote, Peer peer);
  /// Partial-topology accept path: drains pending accepts from the
  /// listeners and identifies each new stream by its Hello, all
  /// without blocking (the ctor cannot wait for processes that have
  /// not started yet).
  bool pump_accepts();

  std::map<std::uint32_t, Listener> listeners_;  ///< by coordinator shard
  PeerMap peers_;
  /// Accepted streams whose identifying Hello has not fully arrived.
  std::map<std::uint32_t, std::vector<Peer>> pending_accepts_;
  /// Frames addressed to a remote site whose stream has not been
  /// accepted yet (a threshold broadcast can race a slow connector);
  /// flushed the moment the stream is identified.
  std::map<std::pair<sim::NodeId, sim::NodeId>, wire::Buffer> pre_accept_out_;
  /// Some peer may hold unsent bytes (false: every outbuf is flushed).
  bool backlog_ = false;
  std::vector<pollfd> poll_fds_;  ///< reused by every poll of pump_io
};

}  // namespace dds::net
