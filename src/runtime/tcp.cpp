#include "runtime/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace sbft {
namespace {

constexpr std::uint32_t kMaxTcpFrame = 16u << 20;
constexpr std::size_t kReadChunk = 128u << 10;
/// Per connection and wakeup: a sender that keeps the socket full
/// cannot hold its receiver's loop in recv. The sets are
/// level-triggered, so the rest is reported next wakeup.
constexpr std::size_t kReadBudget = 1u << 20;
/// A connection whose unsent queue would exceed this is dropped (the
/// peer stopped reading): ops on it fail or retry instead of the node
/// buffering without bound.
constexpr std::size_t kMaxPendingBytes = 64u << 20;

std::uint32_t LoadU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void StoreU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool Register(int epoll_fd, int op, int fd, std::uint32_t events,
              void* socket) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = socket;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

}  // namespace

TcpBus::~TcpBus() { Stop(); }

TcpBus::NodeSockets* TcpBus::Node(NodeId node) const {
  return node < nodes_.size() ? nodes_[node].get() : nullptr;
}

std::uint16_t TcpBus::AddNode(NodeId node, int epoll_fd) {
  SBFT_ASSERT(!running_);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SBFT_ASSERT(fd >= 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  SBFT_ASSERT(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0);
  SBFT_ASSERT(::listen(fd, 256) == 0);
  SetNonBlocking(fd);

  socklen_t len = sizeof(addr);
  SBFT_ASSERT(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0);
  if (nodes_.size() <= node) nodes_.resize(node + 1);
  nodes_[node] = std::make_unique<NodeSockets>();
  NodeSockets& sockets = *nodes_[node];
  sockets.epoll_fd = epoll_fd;
  sockets.port = ntohs(addr.sin_port);
  sockets.listener.fd = fd;
  sockets.listener.node = node;
  // Level-triggered; Accept drains until EAGAIN anyway.
  SBFT_ASSERT(Register(epoll_fd, EPOLL_CTL_ADD, fd, EPOLLIN,
                       &sockets.listener));
  return sockets.port;
}

void TcpBus::Start() { running_ = true; }

void TcpBus::OnEvent(void* socket, std::uint32_t events) {
  auto* target = static_cast<Socket*>(socket);
  switch (target->kind) {
    case Kind::kListener:
      Accept(*target);
      break;
    case Kind::kInbound:
      Read(static_cast<Inbound&>(*target), events);
      break;
    case Kind::kOutbound:
      OnOutboundEvent(static_cast<Outbound&>(*target), events);
      break;
  }
}

void TcpBus::Accept(const Socket& listener) {
  NodeSockets& sockets = *nodes_[listener.node];
  while (true) {
    const int fd = ::accept4(listener.fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or the listener is going down
    SetNoDelay(fd);
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    in->node = listener.node;
    if (!Register(sockets.epoll_fd, EPOLL_CTL_ADD, fd, EPOLLIN,
                  static_cast<Socket*>(in.get()))) {
      ::close(fd);
      continue;
    }
    sockets.inbound.push_back(std::move(in));
  }
}

void TcpBus::Read(Inbound& in, std::uint32_t events) {
  if (in.closing) return;
  std::size_t budget = kReadBudget;
  while (true) {
    // Make room for the next chunk: slide any partial frame to the
    // front, then grow the capacity buffer if still needed.
    if (in.off > 0) {
      std::memmove(in.inbuf.data(), in.inbuf.data() + in.off, in.len - in.off);
      in.len -= in.off;
      in.off = 0;
    }
    if (in.inbuf.size() - in.len < kReadChunk) {
      in.inbuf.resize(in.len + kReadChunk);
    }
    const std::size_t room = in.inbuf.size() - in.len;
    const ssize_t n = ::recv(in.fd, in.inbuf.data() + in.len, room, 0);
    if (n > 0) {
      const auto got = static_cast<std::size_t>(n);
      in.len += got;
      if (got < room || got >= budget) break;  // short read: drained
      budget -= got;
      continue;
    }
    if (n == 0) {
      in.closing = true;  // peer closed
      break;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) in.closing = true;
    break;
  }
  if (events & (EPOLLERR | EPOLLHUP)) in.closing = true;
  if (!in.ready) {
    in.ready = true;
    nodes_[in.node]->ready.push_back(&in);
  }
}

void TcpBus::Deliver(NodeId node, const FrameFn& fn) {
  NodeSockets& sockets = *nodes_[node];
  if (sockets.ready.empty()) return;
  bool closed = false;
  for (Inbound* in : sockets.ready) {
    in->ready = false;
    while (in->len - in->off >= 8) {
      const std::uint8_t* head = in->inbuf.data() + in->off;
      const std::uint32_t length = LoadU32(head);
      if (length > kMaxTcpFrame) {  // malformed: drop this connection
        in->closing = true;
        break;
      }
      if (in->len - in->off - 8 < length) break;  // torn frame: wait
      in->off += 8 + static_cast<std::size_t>(length);
      fn(LoadU32(head + 4), BytesView(head + 8, length));
    }
    if (in->off == in->len) {
      in->off = 0;
      in->len = 0;
    }
    if (in->closing) {
      Close(*in);
      closed = true;
    }
  }
  sockets.ready.clear();
  if (closed) {
    std::erase_if(sockets.inbound, [](const auto& in) { return in->fd < 0; });
  }
}

std::shared_ptr<TcpBus::Outbound> TcpBus::Connect(NodeId src, NodeId dst) {
  const NodeSockets* peer = Node(dst);
  if (peer == nullptr) return nullptr;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(peer->port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;  // degraded: the caller's op fails/retries cleanly
  }
  SetNoDelay(fd);
  SetNonBlocking(fd);
  auto conn = std::make_shared<Outbound>();
  conn->fd = fd;
  conn->node = src;
  conn->dst = dst;
  // Outgoing connections carry no inbound protocol traffic; readability
  // means EOF or reset, which OnEvent turns into a dead connection.
  if (!Register(nodes_[src]->epoll_fd, EPOLL_CTL_ADD, fd, EPOLLIN,
                static_cast<Socket*>(conn.get()))) {
    ::close(fd);
    return nullptr;
  }
  return conn;
}

bool TcpBus::Send(NodeId src, NodeId dst, BytesView frame) {
  if (!running_) return false;
  NodeSockets* sockets = Node(src);
  if (sockets == nullptr) return false;
  std::shared_ptr<Outbound> conn;
  if (auto it = sockets->outbound.find(dst);
      it != sockets->outbound.end() && !it->second->dead) {
    conn = it->second;
  }
  if (!conn) {  // first send, or lazily reconnect a dead connection
    conn = Connect(src, dst);
    if (!conn) {
      sockets->outbound.erase(dst);
      return false;
    }
    sockets->outbound[dst] = conn;
  }
  Bytes& out = conn->out;
  if (out.size() - conn->sent + 8 + frame.size() > kMaxPendingBytes) {
    MarkDead(*conn);  // peer stopped reading; degrade, don't buffer
    return false;
  }

  // Append [len][src][payload]; the bytes hit the wire on Flush (or
  // from OnEvent when backlogged).
  const std::size_t at = out.size();
  out.resize(at + 8);
  StoreU32(out.data() + at, static_cast<std::uint32_t>(frame.size()));
  StoreU32(out.data() + at + 4, src);
  out.insert(out.end(), frame.begin(), frame.end());
  if (!conn->in_dirty) {
    conn->in_dirty = true;
    sockets->dirty.push_back(std::move(conn));
  }
  return true;
}

void TcpBus::Flush(NodeId src) {
  NodeSockets* sockets = Node(src);
  if (sockets == nullptr) return;
  for (auto& conn : sockets->dirty) {
    conn->in_dirty = false;
    // A backlogged connection is continued by OnEvent on EPOLLOUT.
    if (conn->dead || conn->epollout_armed) continue;
    if (Write(*conn) == FlushResult::kError) MarkDead(*conn);
  }
  sockets->dirty.clear();
}

TcpBus::FlushResult TcpBus::Write(Outbound& conn) {
  while (conn.sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.sent,
                             conn.out.size() - conn.sent, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Drop what already went out, so a long backlog holds only
      // unsent bytes.
      conn.out.erase(conn.out.begin(),
                     conn.out.begin() + static_cast<std::ptrdiff_t>(conn.sent));
      conn.sent = 0;
      if (!conn.epollout_armed) {
        conn.epollout_armed = true;
        Register(nodes_[conn.node]->epoll_fd, EPOLL_CTL_MOD, conn.fd,
                 EPOLLIN | EPOLLOUT, static_cast<Socket*>(&conn));
      }
      return FlushResult::kBlocked;
    }
    return FlushResult::kError;  // EPIPE/ECONNRESET/...
  }
  conn.out.clear();  // keeps the capacity for the next wakeup's frames
  conn.sent = 0;
  return FlushResult::kDrained;
}

void TcpBus::OnOutboundEvent(Outbound& conn, std::uint32_t events) {
  if (conn.dead) return;
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    std::uint8_t scratch[256];
    ssize_t n;
    while ((n = ::recv(conn.fd, scratch, sizeof(scratch), 0)) > 0) {
    }
    const bool reset =
        n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR);
    if (reset || (events & (EPOLLERR | EPOLLHUP))) {
      MarkDead(conn);
      return;
    }
  }
  if (events & EPOLLOUT) {
    const FlushResult result = Write(conn);
    if (result == FlushResult::kError) {
      MarkDead(conn);
    } else if (result == FlushResult::kDrained) {
      conn.epollout_armed = false;
      Register(nodes_[conn.node]->epoll_fd, EPOLL_CTL_MOD, conn.fd, EPOLLIN,
               static_cast<Socket*>(&conn));
    }
  }
}

void TcpBus::MarkDead(Outbound& conn) {
  if (conn.dead) return;
  conn.dead = true;
  conn.out = Bytes();
  conn.sent = 0;
  connections_dropped_.fetch_add(1, std::memory_order_relaxed);
  Close(conn);
}

void TcpBus::Close(Socket& socket) {
  if (socket.fd < 0) return;
  // Deregister explicitly: a forked child holding a copy of the fd
  // would otherwise keep it in the set after close.
  ::epoll_ctl(nodes_[socket.node]->epoll_fd, EPOLL_CTL_DEL, socket.fd,
              nullptr);
  ::close(socket.fd);
  socket.fd = -1;
}

void TcpBus::DropConnection(NodeId src, NodeId dst) {
  NodeSockets* sockets = Node(src);
  if (sockets == nullptr) return;
  auto it = sockets->outbound.find(dst);
  if (it != sockets->outbound.end()) MarkDead(*it->second);
}

void TcpBus::Stop() {
  if (stopped_) return;
  stopped_ = true;
  running_ = false;
  // No thread drives the bus any more; every socket closes here.
  for (auto& sockets : nodes_) {
    if (!sockets) continue;
    Close(sockets->listener);
    for (auto& in : sockets->inbound) Close(*in);
    for (auto& [dst, conn] : sockets->outbound) Close(*conn);
  }
}

}  // namespace sbft
