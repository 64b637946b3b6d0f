// The ingestion wire protocol: length-prefixed, CRC32-checked frames.
//
// Every message between a client and the server is one frame:
//
//   offset  size  field
//   0       4     magic        0x31465049 ("IPF1", little-endian)
//   4       1     type         FrameType
//   5       1     aux          type-specific small field (reason/format)
//   6       2     reserved     must be 0
//   8       8     session_id   client session the frame belongs to
//   16      4     payload_len  bytes following the header
//   20      4     payload_crc  CRC32 (IEEE) of the payload bytes
//   24      ...   payload
//
// All multi-byte fields are little-endian, encoded and decoded byte by
// byte — a frame produced on any host round-trips on any other. The CRC
// (impatience::Crc32, common/crc32.h) covers the payload only; header
// corruption is caught by the magic check and the length bound. Payloads:
//
//   kEvents          u32 count, then per event: i64 sync_time,
//                    i64 other_time, i32 key, u64 hash, 4 x i32 payload
//                    (the engine's W=4 Event — 44 bytes/event)
//   kPunctuation     i64 timestamp
//   kFlushSession    (empty)   client: "session done, ack when ingested"
//   kFlushAck        (empty)   server: all prior frames of the session
//                              are in its shard pipeline
//   kShutdown        (empty)   client: drain every shard and flush
//   kShutdownAck     (empty)   server: drain complete
//   kMetricsRequest  (empty; aux = MetricsFormat)
//   kMetricsResponse rendered metrics bytes (aux = MetricsFormat)
//   kReject          u64 count of events affected (aux = RejectReason)
//   kTraceRequest    (empty; aux = TraceAction) — kDump drains the
//                    server's span buffers; kEnable/kDisable toggle
//                    recording at runtime
//   kTraceResponse   For kDump: a JSON footer terminating the chunked
//                    dump ({"dropped":N,"chunks":M,"chunks_dropped":K});
//                    the span payload itself arrives beforehand as
//                    kTelemetryChunk(kTelemetryDump) frames. Empty for
//                    the toggles (aux echoes the TraceAction).
//   kSubscribeRequest (empty; aux = TelemetryStream bitmask, 1..3) —
//                    subscribe this connection to the live telemetry
//                    feed; a second request replaces the subscription
//   kSubscribeAck    u64 subscription id (aux echoes the granted mask)
//   kTelemetryChunk  u64 sequence number, u64 cumulative dropped-chunk
//                    count, then the chunk body (aux = the single
//                    TelemetryStream the body belongs to). Sequence
//                    numbers count delivered chunks per subscription
//                    (1, 2, 3, ...): a subscriber sees a gap-free
//                    sequence, and `dropped` rising makes shed chunks
//                    explicit. For dump chunks both counters are scoped
//                    to the one dump request.
//   kResultSubscribeRequest (empty; aux = ResultFilter) — subscribe this
//                    connection to the pipeline's query-result stream.
//                    kResultFilterSession limits delivery to the shard
//                    serving the frame's session_id; kResultFilterAll
//                    delivers every shard's output. A second request
//                    replaces the subscription.
//   kResultSubscribeAck u64 subscription id (aux echoes the filter).
//   kResultChunk     u64 delivered-sequence number, u64 cumulative
//                    dropped-record count, i64 watermark (the emitting
//                    shard's band-0 punctuation frontier at seal time),
//                    u32 shard, u32 stream, u32 record count, then
//                    `count` packed 44-byte events (the same layout as
//                    kEvents records, already in pipeline emission
//                    order). Sequence numbers count delivered chunks per
//                    subscription; `dropped` rising makes shed records
//                    explicit while delivered seqs stay gap-free.
//                    Watermarks are non-decreasing per (subscription,
//                    shard).
//
// Decoding is incremental: feed arbitrary byte chunks, get frames out.
// A corrupted stream (bad magic, bad CRC, oversized length, malformed
// payload) poisons the decoder — framing is unrecoverable on a byte
// stream, so the transport must drop the connection.

#ifndef IMPATIENCE_SERVER_WIRE_FORMAT_H_
#define IMPATIENCE_SERVER_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/timestamp.h"

namespace impatience {
namespace server {

inline constexpr uint32_t kWireMagic = 0x31465049u;  // "IPF1"
inline constexpr size_t kFrameHeaderBytes = 24;
inline constexpr size_t kWireEventBytes = 44;
// Upper bound on a frame payload; larger lengths are treated as corruption
// (they would otherwise make the decoder buffer unbounded garbage).
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class FrameType : uint8_t {
  kEvents = 1,
  kPunctuation = 2,
  kFlushSession = 3,
  kFlushAck = 4,
  kShutdown = 5,
  kShutdownAck = 6,
  kMetricsRequest = 7,
  kMetricsResponse = 8,
  kReject = 9,
  kTraceRequest = 10,
  kTraceResponse = 11,
  // 12 is unassigned: it once named an internal, never-encoded frame, and
  // the decoder rejects it like any unknown type byte.
  kSubscribeRequest = 13,
  kSubscribeAck = 14,
  kTelemetryChunk = 15,
  kResultSubscribeRequest = 16,
  kResultSubscribeAck = 17,
  kResultChunk = 18,
};

enum class RejectReason : uint8_t {
  kQueueFull = 1,     // Bounded shard queue full under kRejectFrame policy.
  kDecodeError = 2,   // The server could not decode the connection's bytes.
  kShuttingDown = 3,  // Data frame received after shutdown began.
};

enum class MetricsFormat : uint8_t {
  kText = 0,  // Bare "name{labels} value" lines (no HELP/TYPE headers).
  kJson = 1,
  kPrometheus = 2,  // Full exposition format: # HELP / # TYPE + quantiles.
};

enum class TraceAction : uint8_t {
  kDump = 0,     // Drain span buffers; response carries Chrome trace JSON.
  kEnable = 1,   // Start recording spans.
  kDisable = 2,  // Stop recording (buffered spans kept until dumped).
};

// Telemetry stream selector. kSubscribeRequest carries a bitmask of the
// first two; each kTelemetryChunk carries exactly one value naming the
// stream its body belongs to. Span chunk bodies are comma-separated
// Chrome trace-event objects (no enclosing brackets — join with "," and
// wrap in {"traceEvents":[...]}); metrics chunk bodies are one JSON
// delta object; dump chunks are span bodies scoped to one kDump request.
inline constexpr uint8_t kTelemetrySpans = 1;
inline constexpr uint8_t kTelemetryMetrics = 2;
inline constexpr uint8_t kTelemetryDump = 4;

// Result-stream subscription filter (kResultSubscribeRequest aux).
// kResultFilterSession scopes delivery to the shard the request's
// session_id routes to; kResultFilterAll is the wildcard.
inline constexpr uint8_t kResultFilterSession = 1;
inline constexpr uint8_t kResultFilterAll = 2;

// Fixed prefix of a kResultChunk payload before the packed records:
// seq (8) + dropped (8) + watermark (8) + shard (4) + stream (4) +
// count (4).
inline constexpr size_t kResultChunkHeaderBytes = 36;

// One decoded frame. Only the fields relevant to `type` are meaningful.
struct Frame {
  FrameType type = FrameType::kEvents;
  uint64_t session_id = 0;
  std::vector<Event> events;          // kEvents
  Timestamp punctuation = 0;          // kPunctuation
  MetricsFormat metrics_format = MetricsFormat::kText;  // kMetrics*
  std::string text;  // kMetricsResponse / kTraceResponse / kTelemetryChunk
  RejectReason reject_reason = RejectReason::kQueueFull;  // kReject
  uint64_t reject_count = 0;          // kReject
  TraceAction trace_action = TraceAction::kDump;  // kTrace*
  uint8_t telemetry_streams = 0;      // kSubscribeRequest/Ack (bitmask)
                                      // and kTelemetryChunk (one stream).
  uint64_t subscription_id = 0;       // kSubscribeAck
  uint64_t telemetry_seq = 0;         // kTelemetryChunk (1-based)
  uint64_t telemetry_dropped = 0;     // kTelemetryChunk (cumulative)
                                      // — the chunk body rides in `text`.
  uint8_t result_filter = 0;          // kResultSubscribeRequest/Ack.
  uint64_t result_seq = 0;            // kResultChunk (1-based, gap-free).
  uint64_t result_dropped = 0;        // kResultChunk (cumulative records
                                      // dropped for this subscriber).
  Timestamp result_watermark = 0;     // kResultChunk (shard frontier).
  uint32_t result_shard = 0;          // kResultChunk.
  uint32_t result_stream = 0;         // kResultChunk — the packed records
                                      // ride in `events`.

  // Server-side only, never serialized: Clock::Nanos() when the frame was
  // accepted into a shard queue, for queue-wait accounting.
  uint64_t enqueue_ns = 0;
};

// Serializes `frame` and appends the bytes to `out`.
void AppendFrame(const Frame& frame, std::vector<uint8_t>* out);
void AppendFrame(const Frame& frame, std::string* out);

inline std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  AppendFrame(frame, &out);
  return out;
}

enum class DecodeStatus : uint8_t {
  kOk = 0,        // A frame was produced.
  kNeedMore = 1,  // Not enough bytes buffered for the next frame.
  kBadMagic = 2,
  kBadLength = 3,  // payload_len > kMaxPayloadBytes or reserved != 0.
  kBadCrc = 4,
  kBadPayload = 5,  // Type-specific payload malformed (size mismatch,
                    // unknown type, trailing bytes).
};

inline bool IsDecodeError(DecodeStatus s) {
  return s != DecodeStatus::kOk && s != DecodeStatus::kNeedMore;
}

// Incremental frame decoder over a byte stream.
class FrameDecoder {
 public:
  // Appends raw bytes from the transport.
  void Feed(const uint8_t* data, size_t n);

  // Attempts to decode the next frame from the buffered bytes. On kOk the
  // frame's bytes are consumed. Any error status poisons the decoder:
  // every later call returns the same error.
  DecodeStatus Next(Frame* frame);

  // True if undecoded bytes remain — at connection close this means the
  // peer sent a truncated frame.
  bool HasPartialFrame() const { return !failed_ && pos_ < buffer_.size(); }

  size_t buffered_bytes() const { return buffer_.size() - pos_; }
  bool failed() const { return failed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t pos_ = 0;  // Consumed prefix of buffer_.
  bool failed_ = false;
  DecodeStatus error_ = DecodeStatus::kNeedMore;
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_WIRE_FORMAT_H_
