// POSIX TCP front end for the ingestion protocol.
//
// TcpServer listens on a port (0 = ephemeral, for tests) and multiplexes
// every accepted connection across a small pool of epoll event loops
// (event_loop.h) — a bounded number of I/O threads no matter how many
// clients connect, instead of the former thread-per-connection reader
// model. One dedicated thread blocks in accept(); sockets are switched
// to non-blocking and handed to the least-recently-fed loop round-robin.
// The pool size comes from TcpServerOptions::io_threads, defaulting to
// the IMPATIENCE_IO_THREADS environment variable (and to 2 when unset).
//
// TcpChannel is the client half: a ByteChannel over a connected socket,
// usable with IngestClient. Its writes survive EINTR and short/EAGAIN
// writes on non-blocking sockets — a partial send() mid-frame would
// otherwise corrupt the framing for every later frame on the stream.

#ifndef IMPATIENCE_SERVER_TCP_TRANSPORT_H_
#define IMPATIENCE_SERVER_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/event_loop.h"
#include "server/ingest_service.h"
#include "server/metrics.h"

namespace impatience {
namespace server {

struct TcpServerOptions {
  // Number of epoll I/O threads. 0 = IMPATIENCE_IO_THREADS, else 2.
  size_t io_threads = 0;
  // Per-connection reply-queue bound before the connection is shed.
  size_t max_write_queue_bytes = 4u << 20;
  // Per-connection budget for best-effort telemetry chunks; chunks past
  // it are dropped (counted), never shed (event_loop.h).
  size_t telemetry_write_queue_bytes = 1u << 20;
};

// Resolves the I/O thread count: `requested` if nonzero, else the
// IMPATIENCE_IO_THREADS environment variable (ParseThreadCount), else 2;
// never 0.
size_t ResolveIoThreads(size_t requested);

class TcpServer {
 public:
  // Does not start listening; call Start().
  TcpServer(IngestService* service, uint16_t port,
            TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens (loopback interface), starts the I/O loops and the
  // accept thread, and registers the front-end metrics with the service.
  // False (with the OS error in *error) if the port cannot be bound.
  bool Start(std::string* error = nullptr);

  // Stops accepting, severs every live connection, joins all threads.
  // Idempotent. Does NOT shut the service down — drain policy is the
  // owner's call.
  void Stop();

  // The bound port (resolves ephemeral port 0 after Start).
  uint16_t port() const { return port_; }

  size_t io_threads() const { return loops_.size(); }

  // Acceptor totals plus every loop's gauges/counters.
  TransportMetrics SnapshotTransport() const;

 private:
  void AcceptLoop();

  IngestService* const service_;
  uint16_t port_;
  const TcpServerOptions options_;
  // Written by Start()/Stop(), read concurrently by the accept loop.
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<EventLoop>> loops_;
  size_t next_loop_ = 0;  // Accept-thread-only round-robin cursor.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> accept_errors_{0};
};

// Client-side channel over a connected TCP socket.
class TcpChannel : public ByteChannel {
 public:
  // Connects to 127.0.0.1:port; null on failure. With `nonblocking` the
  // socket is put in non-blocking mode — Write still delivers every byte
  // (it polls for writability on EAGAIN), exercising the short-write
  // path a congested peer produces.
  static std::unique_ptr<TcpChannel> Connect(uint16_t port,
                                             std::string* error = nullptr,
                                             bool nonblocking = false);
  ~TcpChannel() override;

  bool Write(const uint8_t* data, size_t n) override;
  int64_t Read(uint8_t* out, size_t n, bool blocking) override;

 private:
  explicit TcpChannel(int fd) : fd_(fd) {}
  int fd_;
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_TCP_TRANSPORT_H_
