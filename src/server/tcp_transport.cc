#include "server/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/thread_pool.h"
#include "server/epoll_transport.h"

namespace impatience {
namespace server {

namespace {

// Full write with EINTR retry, short-write continuation, and an EAGAIN
// poll for non-blocking sockets; false once the peer is gone. A frame
// must reach the wire whole — giving up after a partial send() would
// leave the stream mid-frame and poison the server's decoder on the
// next frame's bytes.
bool WriteAllFd(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{};
        p.fd = fd;
        p.events = POLLOUT;
        const int r = ::poll(&p, 1, /*timeout=*/-1);
        if (r < 0 && errno != EINTR) return false;
        continue;
      }
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

size_t ResolveIoThreads(size_t requested) {
  if (requested > 0) return requested;
  const std::optional<size_t> n =
      ParseThreadCount(std::getenv("IMPATIENCE_IO_THREADS"));
  return n.value_or(0) > 0 ? *n : 2;
}

TcpServer::TcpServer(IngestService* service, uint16_t port,
                     TcpServerOptions options)
    : service_(service), port_(port), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

bool TcpServer::Start(std::string* error) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 1024) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd);
    return false;
  }
  if (port_ == 0) {
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }

  const size_t io_threads = ResolveIoThreads(options_.io_threads);
  EventLoopOptions loop_options;
  loop_options.max_write_queue_bytes = options_.max_write_queue_bytes;
  loop_options.telemetry_write_queue_bytes =
      options_.telemetry_write_queue_bytes;
  for (size_t i = 0; i < io_threads; ++i) {
    auto poller = std::make_unique<EpollPoller>();
    if (!poller->valid()) {
      if (error != nullptr) *error = "epoll_create1 failed";
      loops_.clear();
      ::close(listen_fd);
      return false;
    }
    loops_.push_back(std::make_unique<EventLoop>(
        service_, std::move(poller), loop_options, i));
  }
  for (auto& loop : loops_) loop->Start();

  service_->SetTransportMetricsFn([this] { return SnapshotTransport(); });
  listen_fd_.store(listen_fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void TcpServer::AcceptLoop() {
  for (;;) {
    // Stop() swaps the fd to -1 before closing it; accept(-1) then fails
    // immediately instead of racing on a recycled descriptor.
    const int fd =
        ::accept(listen_fd_.load(std::memory_order_acquire), nullptr,
                 nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
          errno == ENOBUFS || errno == ENOMEM) {
        // Transient: the listener is still good, count and keep going.
        accept_errors_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return;  // Listener closed by Stop().
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!SetNonBlocking(fd)) {
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    loops_[next_loop_]->AddConnection(std::make_unique<FdTransport>(fd));
    next_loop_ = (next_loop_ + 1) % loops_.size();
  }
}

void TcpServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Unhook the metrics provider first: the service may be snapshotted
  // after the loops below are gone.
  service_->SetTransportMetricsFn(nullptr);
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& loop : loops_) loop->Stop();
}

TransportMetrics TcpServer::SnapshotTransport() const {
  TransportMetrics m;
  m.accepted = accepted_.load(std::memory_order_relaxed);
  m.accept_errors = accept_errors_.load(std::memory_order_relaxed);
  m.loops.reserve(loops_.size());
  for (const auto& loop : loops_) m.loops.push_back(loop->SnapshotMetrics());
  return m;
}

std::unique_ptr<TcpChannel> TcpChannel::Connect(uint16_t port,
                                                std::string* error,
                                                bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking && !SetNonBlocking(fd)) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<TcpChannel>(new TcpChannel(fd));
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

bool TcpChannel::Write(const uint8_t* data, size_t n) {
  return WriteAllFd(fd_, data, n);
}

int64_t TcpChannel::Read(uint8_t* out, size_t n, bool blocking) {
  for (;;) {
    const ssize_t r = ::recv(fd_, out, n, blocking ? 0 : MSG_DONTWAIT);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!blocking) return 0;
        // Non-blocking socket, blocking caller: wait for readability.
        pollfd p{};
        p.fd = fd_;
        p.events = POLLIN;
        const int pr = ::poll(&p, 1, /*timeout=*/-1);
        if (pr < 0 && errno != EINTR) return -1;
        continue;
      }
      return -1;
    }
    if (r == 0) return -1;  // EOF.
    return static_cast<int64_t>(r);
  }
}

}  // namespace server
}  // namespace impatience
