#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace dds::net {

namespace {

constexpr std::size_t kReadChunk = 65536;
/// How long an idle pump parks in poll before returning to its caller.
constexpr int kIdleWaitMs = 2;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("TcpTransport: " + what + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl O_NONBLOCK");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::inet_addr("127.0.0.1");
  addr.sin_port = htons(port);
  return addr;
}

std::uint32_t resolve_host(const std::string& host) {
  const in_addr_t ip = ::inet_addr(host.empty() ? "127.0.0.1" : host.c_str());
  if (ip == INADDR_NONE) {
    throw std::runtime_error("TcpTransport: unresolvable host " + host);
  }
  return ip;
}

}  // namespace

TcpTransport::TcpTransport(std::uint32_t num_sites,
                           const NetworkConfig& config,
                           std::uint32_t num_coordinators,
                           SocketTopology topology)
    : SocketTransport(num_sites, config, num_coordinators,
                      std::move(topology)) {
  open_listeners();
  connect_sites();
  // All-local: this process is both ends, so the whole handshake can
  // (and must, for fail-at-construction) complete here. Partial: the
  // coordinator side accepts lazily in pump_io — peer processes may
  // not have started yet — while the site side still blocks for its
  // Welcomes (its coordinators are, by definition, already listening).
  if (all_local()) accept_sites();
  await_welcomes();
  for (auto& [key, peer] : peers_) {
    set_nonblocking(peer.fd);
    set_nodelay(peer.fd);
  }
}

TcpTransport::~TcpTransport() {
  for (auto& [key, peer] : peers_) {
    if (peer.fd >= 0) ::close(peer.fd);
  }
  for (auto& [shard, listener] : listeners_) {
    if (listener.fd >= 0) ::close(listener.fd);
  }
}

void TcpTransport::open_listeners() {
  for (std::uint32_t shard = 0; shard < num_coordinators(); ++shard) {
    if (!is_local(coordinator_id(shard))) continue;
    Listener listener;
    listener.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener.fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    std::uint16_t want_port = 0;
    if (!all_local() && this->topology().listen_port != 0) {
      want_port =
          static_cast<std::uint16_t>(this->topology().listen_port + shard);
    }
    sockaddr_in addr = loopback_addr(want_port);
    if (::bind(listener.fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      throw_errno("bind");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr),
                      &len) < 0) {
      throw_errno("getsockname");
    }
    listener.port = ntohs(addr.sin_port);
    if (::listen(listener.fd, 128) < 0) throw_errno("listen");
    set_nonblocking(listener.fd);  // accept loop honors its deadline
    listeners_.emplace(shard, listener);
  }
}

std::uint16_t TcpTransport::listen_port_of(std::uint32_t shard) const {
  return listeners_.at(shard).port;
}

int TcpTransport::connect_with_retry(std::uint32_t ip, std::uint16_t port,
                                     double deadline) {
  const sockaddr_in addr = [&] {
    sockaddr_in a = loopback_addr(port);
    a.sin_addr.s_addr = ip;
    return a;
  }();
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (now_seconds() > deadline) {
      throw std::runtime_error("TcpTransport: connect timed out on port " +
                               std::to_string(port));
    }
    // The peer process may not be listening yet (multi-process spawn
    // order); back off briefly and retry.
    sys_poll(nullptr, 0, 20);
  }
}

void TcpTransport::write_frame_blocking(int fd, const wire::Buffer& frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = sys_send(fd, frame.data() + off, frame.size() - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd, POLLOUT, 0};
        sys_poll(&p, 1, 100);
        continue;
      }
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

wire::Frame TcpTransport::read_frame_blocking(Peer& peer, double deadline) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    std::size_t pos = peer.inpos;
    auto frame = wire::decode_frame(peer.inbuf, pos);
    if (frame) {
      peer.inpos = pos;
      return std::move(*frame);
    }
    if (!wire::incomplete_prefix(peer.inbuf, peer.inpos)) {
      throw std::runtime_error("TcpTransport: corrupt handshake stream");
    }
    if (now_seconds() > deadline) {
      throw std::runtime_error("TcpTransport: handshake timed out");
    }
    pollfd p{peer.fd, POLLIN, 0};
    sys_poll(&p, 1, 100);
    const ssize_t n = sys_recv(peer.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      stats().packets_received += 1;
      stats().kernel_bytes_received += static_cast<std::uint64_t>(n);
      peer.inbuf.insert(peer.inbuf.end(), chunk, chunk + n);
    } else if (n == 0) {
      throw std::runtime_error("TcpTransport: peer closed during handshake");
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      throw_errno("recv");
    }
  }
}

void TcpTransport::connect_sites() {
  // Site side of every (site, coordinator) stream: connect, introduce
  // ourselves with a Hello frame, wait for the Welcome.
  const double deadline = now_seconds() + (all_local() ? 10.0 : 60.0);
  for (sim::NodeId site = 0; site < num_sites(); ++site) {
    if (!is_local(site)) continue;
    for (std::uint32_t shard = 0; shard < num_coordinators(); ++shard) {
      std::uint32_t ip = 0;
      std::uint16_t port = 0;
      if (is_local(coordinator_id(shard))) {
        ip = resolve_host("127.0.0.1");
        port = listeners_.at(shard).port;
      } else {
        if (shard >= this->topology().coordinator_addrs.size()) {
          throw std::runtime_error(
              "TcpTransport: no address for coordinator shard " +
              std::to_string(shard));
        }
        const auto& [host, p] = this->topology().coordinator_addrs[shard];
        ip = resolve_host(host);
        port = p;
      }
      Peer peer;
      peer.fd = connect_with_retry(ip, port, deadline);
      set_nodelay(peer.fd);
      wire::Buffer hello;
      wire::encode_hello(
          wire::Hello{site, num_sites(), num_coordinators(), 0}, hello);
      write_frame_blocking(peer.fd, hello);
      stats().handshake_packets += 1;
      // The Welcome is read in await_welcomes(), AFTER accept_sites():
      // in all-local mode this same process must accept and answer the
      // Hello first, so waiting here would deadlock.
      peers_.emplace(std::make_pair(site, coordinator_id(shard)),
                     std::move(peer));
    }
  }
}

void TcpTransport::await_welcomes() {
  const double deadline = now_seconds() + (all_local() ? 10.0 : 60.0);
  for (auto& [key, peer] : peers_) {
    if (is_coordinator(key.first)) continue;  // coordinator-side stream
    const wire::Frame welcome = read_frame_blocking(peer, deadline);
    if (welcome.kind != wire::FrameKind::kWelcome ||
        welcome.hello.num_sites != num_sites() ||
        welcome.hello.num_coordinators != num_coordinators()) {
      throw std::runtime_error(
          "TcpTransport: bad welcome (topology mismatch?)");
    }
  }
}

void TcpTransport::accept_sites() {
  // Coordinator side: accept one stream per site, identify it by its
  // Hello, answer Welcome. Accept order is whatever the kernel gives
  // us; identity comes from the Hello, never from arrival order.
  const double deadline = now_seconds() + (all_local() ? 10.0 : 60.0);
  for (auto& [shard, listener] : listeners_) {
    const sim::NodeId coord = coordinator_id(shard);
    for (std::uint32_t accepted = 0; accepted < num_sites(); ++accepted) {
      int fd = -1;
      for (;;) {
        fd = ::accept(listener.fd, nullptr, nullptr);
        if (fd >= 0) break;
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          throw_errno("accept");
        }
        if (now_seconds() > deadline) {
          throw std::runtime_error("TcpTransport: accept timed out");
        }
        pollfd p{listener.fd, POLLIN, 0};
        sys_poll(&p, 1, 100);
      }
      set_nodelay(fd);
      Peer peer;
      peer.fd = fd;
      const wire::Frame hello = read_frame_blocking(peer, deadline);
      if (hello.kind != wire::FrameKind::kHello ||
          hello.hello.num_sites != num_sites() ||
          hello.hello.num_coordinators != num_coordinators() ||
          hello.hello.node_id >= num_sites()) {
        ::close(fd);
        throw std::runtime_error("TcpTransport: bad hello from client");
      }
      wire::Buffer welcome;
      wire::encode_welcome(
          wire::Hello{coord, num_sites(), num_coordinators(),
                      hello.hello.cookie},
          welcome);
      write_frame_blocking(peer.fd, welcome);
      stats().handshake_packets += 1;
      peers_.emplace(std::make_pair(coord, hello.hello.node_id),
                     std::move(peer));
    }
  }
}

void TcpTransport::adopt_peer(sim::NodeId local, sim::NodeId remote,
                              Peer peer) {
  set_nonblocking(peer.fd);
  set_nodelay(peer.fd);
  auto [it, inserted] =
      peers_.emplace(std::make_pair(local, remote), std::move(peer));
  if (!inserted) {
    ::close(it->second.fd);
    throw std::runtime_error("TcpTransport: duplicate stream for node " +
                             std::to_string(remote));
  }
  // Release anything that raced the connector.
  auto waiting = pre_accept_out_.find({local, remote});
  if (waiting != pre_accept_out_.end()) {
    it->second.outbuf.insert(it->second.outbuf.end(),
                             waiting->second.begin(), waiting->second.end());
    pre_accept_out_.erase(waiting);
    flush_out(it->second);
  }
  // The Hello may have arrived glued to the first data frames.
  parse_frames(local, remote, it->second);
}

bool TcpTransport::pump_accepts() {
  bool moved = false;
  for (auto& [shard, listener] : listeners_) {
    const sim::NodeId coord = coordinator_id(shard);
    for (;;) {
      const int fd = ::accept(listener.fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        throw_errno("accept");
      }
      moved = true;
      Peer peer;
      peer.fd = fd;
      pending_accepts_[shard].push_back(std::move(peer));
    }
    auto& pending = pending_accepts_[shard];
    for (auto it = pending.begin(); it != pending.end();) {
      Peer& peer = *it;
      std::uint8_t chunk[kReadChunk];
      const ssize_t n = sys_recv(peer.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        moved = true;
        stats().packets_received += 1;
        stats().kernel_bytes_received += static_cast<std::uint64_t>(n);
        peer.inbuf.insert(peer.inbuf.end(), chunk, chunk + n);
      } else if (n == 0 ||
                 (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                  errno != EINTR)) {
        ::close(peer.fd);  // gave up before identifying itself
        it = pending.erase(it);
        continue;
      }
      std::size_t pos = peer.inpos;
      auto hello = wire::decode_frame(peer.inbuf, pos);
      if (!hello) {
        if (!wire::incomplete_prefix(peer.inbuf, peer.inpos)) {
          ::close(peer.fd);  // foreign client
          it = pending.erase(it);
          continue;
        }
        ++it;
        continue;
      }
      peer.inpos = pos;
      if (hello->kind != wire::FrameKind::kHello ||
          hello->hello.num_sites != num_sites() ||
          hello->hello.num_coordinators != num_coordinators() ||
          hello->hello.node_id >= num_sites()) {
        ::close(peer.fd);
        it = pending.erase(it);
        continue;
      }
      wire::Buffer welcome;
      wire::encode_welcome(
          wire::Hello{coord, num_sites(), num_coordinators(),
                      hello->hello.cookie},
          welcome);
      write_frame_blocking(peer.fd, welcome);
      stats().handshake_packets += 1;
      const sim::NodeId site = hello->hello.node_id;
      Peer adopted = std::move(peer);
      it = pending.erase(it);
      adopt_peer(coord, site, std::move(adopted));
      moved = true;
    }
  }
  return moved;
}

void TcpTransport::ship_frame(sim::NodeId from, sim::NodeId to,
                              wire::Buffer frame) {
  auto it = peers_.find({from, to});
  if (it == peers_.end()) {
    // Remote site not accepted yet (partial topology): park the bytes;
    // adopt_peer() flushes them the moment the stream is identified.
    wire::Buffer& waiting = pre_accept_out_[{from, to}];
    waiting.insert(waiting.end(), frame.begin(), frame.end());
    return;
  }
  Peer& peer = it->second;
  peer.outbuf.insert(peer.outbuf.end(), frame.begin(), frame.end());
  flush_out(peer);
}

ssize_t TcpTransport::sys_send(int fd, const void* data, std::size_t len,
                               int flags) {
  stats().syscalls += 1;
  return ::send(fd, data, len, flags);
}

ssize_t TcpTransport::sys_recv(int fd, void* data, std::size_t len,
                               int flags) {
  stats().syscalls += 1;
  return ::recv(fd, data, len, flags);
}

int TcpTransport::sys_poll(pollfd* fds, std::size_t n, int timeout_ms) {
  stats().syscalls += 1;
  return ::poll(fds, static_cast<nfds_t>(n), timeout_ms);
}

bool TcpTransport::flush_out(Peer& peer) {
  bool moved = false;
  while (peer.backlogged()) {
    const ssize_t n =
        sys_send(peer.fd, peer.outbuf.data() + peer.outpos,
                 peer.outbuf.size() - peer.outpos, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw_errno("send");
    }
    moved = true;
    stats().packets_sent += 1;
    stats().kernel_bytes_sent += static_cast<std::uint64_t>(n);
    peer.outpos += static_cast<std::size_t>(n);
  }
  if (peer.backlogged()) {
    backlog_ = true;
  } else if (peer.outpos > 0) {
    peer.outbuf.clear();
    peer.outpos = 0;
  }
  return moved;
}

bool TcpTransport::flush_backlog() {
  if (!backlog_) return false;
  backlog_ = false;  // flush_out sets it again for a peer it cannot empty
  bool moved = false;
  for (auto& [key, peer] : peers_) {
    if (peer.backlogged() && flush_out(peer)) moved = true;
  }
  return moved;
}

void TcpTransport::parse_frames(sim::NodeId local, sim::NodeId remote,
                                Peer& peer) {
  for (;;) {
    std::size_t pos = peer.inpos;
    auto frame = wire::decode_frame(peer.inbuf, pos);
    if (!frame) {
      if (!wire::incomplete_prefix(peer.inbuf, peer.inpos)) {
        throw std::runtime_error("TcpTransport: corrupt stream from node " +
                                 std::to_string(remote));
      }
      break;
    }
    peer.inpos = pos;
    accept_frame(remote, local, std::move(*frame));
  }
  // Compact once the parsed prefix dominates the buffer.
  if (peer.inpos > 4096 && peer.inpos * 2 > peer.inbuf.size()) {
    peer.inbuf.erase(peer.inbuf.begin(),
                     peer.inbuf.begin() + static_cast<std::ptrdiff_t>(
                                              peer.inpos));
    peer.inpos = 0;
  }
}

bool TcpTransport::read_peer(sim::NodeId local, sim::NodeId remote,
                             Peer& peer) {
  bool moved = false;
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = sys_recv(peer.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw_errno("recv");
    }
    if (n == 0) {  // peer closed; parsed frames already delivered
      peer.eof = true;
      break;
    }
    moved = true;
    stats().packets_received += 1;
    stats().kernel_bytes_received += static_cast<std::uint64_t>(n);
    peer.inbuf.insert(peer.inbuf.end(), chunk, chunk + n);
    // A short read took everything the kernel held; asking again would
    // only return EAGAIN.
    if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
  }
  if (moved) parse_frames(local, remote, peer);
  return moved;
}

bool TcpTransport::pump_io(double now) {
  (void)now;
  return all_local() ? pump_due() : pump_polled();
}

bool TcpTransport::pump_due() {
  bool moved = flush_backlog();
  const auto* due = next_due_link();
  if (due == nullptr) return moved;  // every frame delivered
  // The due frame travels from `from` to `to`; it is read at `to`'s end
  // of their stream. Frames queued on other streams wait in the kernel
  // until their own turn comes.
  const sim::NodeId from = due->first;
  const sim::NodeId to = due->second;
  Peer& in = peers_.at({to, from});
  if (read_peer(to, from, in)) return true;
  if (moved) return true;
  // The bytes are not there yet: park on the due stream, and on any
  // stream that still has bytes to write (a frame larger than the socket
  // buffers arrives only as its sender's backlog drains).
  poll_fds_.clear();
  poll_fds_.push_back(pollfd{in.fd, POLLIN, 0});
  if (backlog_) {
    for (const auto& [key, peer] : peers_) {
      if (peer.backlogged()) poll_fds_.push_back(pollfd{peer.fd, POLLOUT, 0});
    }
  }
  sys_poll(poll_fds_.data(), poll_fds_.size(), kIdleWaitMs);
  return false;
}

bool TcpTransport::pump_polled() {
  bool moved = flush_backlog();
  poll_fds_.clear();
  for (const auto& [key, peer] : peers_) {
    short events = peer.eof ? 0 : POLLIN;
    if (peer.backlogged()) events |= POLLOUT;
    poll_fds_.push_back(pollfd{peer.fd, events, 0});
  }
  for (const auto& [shard, listener] : listeners_) {
    poll_fds_.push_back(pollfd{listener.fd, POLLIN, 0});
  }
  for (const auto& [shard, pending] : pending_accepts_) {
    for (const Peer& peer : pending) {
      poll_fds_.push_back(pollfd{peer.fd, POLLIN, 0});
    }
  }
  // Wait only when nothing has moved yet, then read in the same call.
  if (sys_poll(poll_fds_.data(), poll_fds_.size(), moved ? 0 : kIdleWaitMs) <=
      0) {
    return moved;
  }
  std::size_t i = 0;
  for (auto& [key, peer] : peers_) {
    const short revents = poll_fds_[i++].revents;
    if ((revents & POLLOUT) != 0 && flush_out(peer)) moved = true;
    if (!peer.eof && (revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        read_peer(key.first, key.second, peer)) {
      moved = true;
    }
  }
  bool accept_ready = false;
  for (; i < poll_fds_.size(); ++i) accept_ready |= poll_fds_[i].revents != 0;
  if (accept_ready && pump_accepts()) moved = true;
  return moved;
}

bool TcpTransport::links_idle() const {
  if (!pre_accept_out_.empty()) return false;
  for (const auto& [key, peer] : peers_) {
    if (peer.backlogged()) return false;
  }
  return true;
}

}  // namespace dds::net
