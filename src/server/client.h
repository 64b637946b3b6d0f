// Client side of the ingestion protocol.
//
// IngestClient speaks frames over a ByteChannel — an abstract duplex byte
// pipe. Two channels ship: LoopbackChannel pairs the client directly with
// an in-process IngestService (no sockets, deterministic, used by the
// tests and the bench), and TcpChannel (tcp_transport.h) carries the same
// bytes over a socket. The client itself cannot tell them apart, which is
// the point: the loopback tests exercise the exact encode/decode path the
// TCP deployment uses.

#ifndef IMPATIENCE_SERVER_CLIENT_H_
#define IMPATIENCE_SERVER_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/event.h"
#include "server/ingest_service.h"
#include "server/transport.h"
#include "server/wire_format.h"

namespace impatience {
namespace server {

// A duplex byte pipe between a client and the service. Write delivers
// bytes toward the server; Read yields reply bytes. Implementations must
// tolerate Read being called from the client thread while replies arrive
// from server-side threads.
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;

  // Sends all `n` bytes; false means the connection is dead (the server
  // poisoned it or the transport failed).
  virtual bool Write(const uint8_t* data, size_t n) = 0;

  // Reads up to `n` reply bytes into `out`. Blocking mode waits for data;
  // non-blocking returns 0 immediately when none is buffered. Returns -1
  // on EOF/error.
  virtual int64_t Read(uint8_t* out, size_t n, bool blocking) = 0;
};

// In-process channel: Write feeds the service's connection directly on
// the caller's thread; replies (which the service may emit from shard
// worker threads) queue into an inbox that Read drains.
class LoopbackChannel : public ByteChannel {
 public:
  explicit LoopbackChannel(IngestService* service);
  ~LoopbackChannel() override;

  bool Write(const uint8_t* data, size_t n) override;
  int64_t Read(uint8_t* out, size_t n, bool blocking) override;

 private:
  std::unique_ptr<Connection> conn_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string inbox_;
  size_t read_pos_ = 0;  // Consumed prefix of inbox_.
};

// ByteChannel over any non-blocking Transport (transport.h). Write
// delivers every byte no matter how the transport slices it: short
// writes continue from the accepted prefix, EINTR retries, EAGAIN waits
// for writability — the failure mode this guards against is a partial
// send mid-frame, which would corrupt the framing for the rest of the
// stream. The fault-injection tests drive IngestClient through this
// adapter over the scripted transport.
class TransportChannel : public ByteChannel {
 public:
  explicit TransportChannel(std::unique_ptr<Transport> transport)
      : transport_(std::move(transport)) {}

  bool Write(const uint8_t* data, size_t n) override;
  int64_t Read(uint8_t* out, size_t n, bool blocking) override;

  Transport* transport() { return transport_.get(); }

 private:
  std::unique_ptr<Transport> transport_;
};

// Frame-level client over any ByteChannel. Not thread-safe; one client
// per thread (multiple clients may share a service).
class IngestClient {
 public:
  explicit IngestClient(std::unique_ptr<ByteChannel> channel);

  // Data path. Returns false when the channel is dead.
  bool SendEvents(uint64_t session_id, const std::vector<Event>& events);
  bool SendPunctuation(uint64_t session_id, Timestamp t);

  // Sends kFlushSession and blocks until the matching kFlushAck: on
  // return, everything this session sent earlier has been applied to its
  // shard pipeline.
  bool FlushSession(uint64_t session_id);

  // Sends kShutdown and blocks for kShutdownAck: on return every shard
  // has drained and flushed.
  bool Shutdown();

  // Fetches the metrics rendering in `format`.
  bool GetMetrics(MetricsFormat format, std::string* out);

  // Drains the server's span buffers into a Chrome trace-event JSON
  // document (loadable in chrome://tracing or Perfetto). The dump arrives
  // as a stream of bounded kTelemetryChunk frames terminated by a footer,
  // so it is never silently truncated at the frame-size limit; this call
  // reassembles the full document.
  bool GetTrace(std::string* out);

  // Toggles span recording on the server at runtime.
  bool SetTraceEnabled(bool enabled);

  // Opens a live telemetry subscription. `streams` is a bitmask of
  // kTelemetrySpans | kTelemetryMetrics; chunks then arrive interleaved
  // with other replies and surface through PollTelemetry/NextTelemetry.
  // Subscribing again replaces the previous subscription.
  bool Subscribe(uint64_t session_id, uint8_t streams,
                 uint64_t* subscription_id = nullptr);

  // Pops the next buffered kTelemetryChunk, if any; checks the channel
  // (non-blocking) first. Inspect telemetry_streams / telemetry_seq /
  // telemetry_dropped / text on the popped frame.
  bool PollTelemetry(Frame* out);

  // Blocks until the next kTelemetryChunk arrives; false on channel
  // death or decode error.
  bool NextTelemetry(Frame* out);

  // Opens a live result-stream subscription. `filter` is
  // kResultFilterSession (only the shard serving `session_id`) or
  // kResultFilterAll (every shard); kResultChunk frames then arrive
  // interleaved with other replies and surface through
  // PollResults/NextResults. Subscribing again replaces the previous
  // subscription.
  bool SubscribeResults(uint64_t session_id, uint8_t filter,
                        uint64_t* subscription_id = nullptr);

  // Pops the next buffered kResultChunk, if any; checks the channel
  // (non-blocking) first. Inspect result_seq / result_dropped /
  // result_watermark / result_shard / result_stream / events on the
  // popped frame.
  bool PollResults(Frame* out);

  // Blocks until the next kResultChunk arrives; false on channel death
  // or decode error.
  bool NextResults(Frame* out);

  // Pops the next asynchronously received kReject frame, if any; checks
  // the channel (non-blocking) first. Rejects that arrive while waiting
  // for an ack are stashed and surface here.
  bool PollReject(Frame* out);

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  bool SendFrame(const Frame& frame);
  // Reads until a frame of `type` arrives (stashing rejects); false on
  // channel death or decode error.
  bool WaitFor(FrameType type, Frame* out);
  // Decodes buffered/readable bytes into pending_; false on error.
  bool Pump(bool blocking);

  std::unique_ptr<ByteChannel> channel_;
  FrameDecoder decoder_;
  std::deque<Frame> pending_;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_CLIENT_H_
