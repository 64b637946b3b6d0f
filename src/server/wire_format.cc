#include "server/wire_format.h"

#include <cstring>

#include "common/check.h"
#include "common/crc32.h"

namespace impatience {
namespace server {

namespace {

// Little-endian field writer over an output already sized for the whole
// frame. Fixed-width byte-by-byte shifts, not memcpy of host
// representations, so the encoding is identical on any endianness; the
// compiler merges each field into one store on little-endian hosts.
class FieldWriter {
 public:
  explicit FieldWriter(uint8_t* p) : p_(p) {}

  void U8(uint8_t v) { *p_++ = v; }
  void U16(uint16_t v) { Store<2>(v); }
  void U32(uint32_t v) { Store<4>(v); }
  void U64(uint64_t v) { Store<8>(v); }
  void I32(int32_t v) { Store<4>(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { Store<8>(static_cast<uint64_t>(v)); }
  void Text(const std::string& s) {
    if (!s.empty()) std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  // Packed wire events (kWireEventBytes each); shared by kEvents and
  // kResultChunk so a result record round-trips bit-identically to the
  // ingress encoding.
  void Events(const std::vector<Event>& events) {
    for (const Event& e : events) {
      I64(e.sync_time);
      I64(e.other_time);
      I32(e.key);
      U64(e.hash);
      for (int c = 0; c < 4; ++c) I32(e.payload[c]);
    }
  }

 private:
  template <int kBytes>
  void Store(uint64_t v) {
    for (int i = 0; i < kBytes; ++i) {
      p_[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    p_ += kBytes;
  }

  uint8_t* p_;
};

// Counts the bytes FieldWriter stores for the same payload calls, so
// AppendFrame sizes its output once before writing.
class FieldCounter {
 public:
  void U32(uint32_t) { n_ += 4; }
  void U64(uint64_t) { n_ += 8; }
  void I64(int64_t) { n_ += 8; }
  void Text(const std::string& s) { n_ += s.size(); }
  void Events(const std::vector<Event>& events) {
    n_ += events.size() * kWireEventBytes;
  }
  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

// Little-endian reads, byte by byte for the same reason.
uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

int32_t GetI32(const uint8_t* p) { return static_cast<int32_t>(GetU32(p)); }
int64_t GetI64(const uint8_t* p) { return static_cast<int64_t>(GetU64(p)); }

void GetEvent(const uint8_t* q, Event* e) {
  e->sync_time = GetI64(q);
  e->other_time = GetI64(q + 8);
  e->key = GetI32(q + 16);
  e->hash = GetU64(q + 20);
  for (int c = 0; c < 4; ++c) e->payload[c] = GetI32(q + 28 + 4 * c);
}

// The type-specific small header field (byte 5).
uint8_t AuxOf(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kMetricsRequest:
    case FrameType::kMetricsResponse:
      return static_cast<uint8_t>(frame.metrics_format);
    case FrameType::kReject:
      return static_cast<uint8_t>(frame.reject_reason);
    case FrameType::kTraceRequest:
    case FrameType::kTraceResponse:
      return static_cast<uint8_t>(frame.trace_action);
    case FrameType::kSubscribeRequest:
    case FrameType::kSubscribeAck:
    case FrameType::kTelemetryChunk:
      return frame.telemetry_streams;
    case FrameType::kResultSubscribeRequest:
    case FrameType::kResultSubscribeAck:
      return frame.result_filter;
    default:
      return 0;
  }
}

// Emits `frame`'s payload through a FieldWriter or a FieldCounter.
template <typename Out>
void EmitPayload(const Frame& frame, Out* out) {
  switch (frame.type) {
    case FrameType::kEvents:
      out->U32(static_cast<uint32_t>(frame.events.size()));
      out->Events(frame.events);
      return;
    case FrameType::kPunctuation:
      out->I64(frame.punctuation);
      return;
    case FrameType::kMetricsResponse:
    case FrameType::kTraceResponse:
      out->Text(frame.text);
      return;
    case FrameType::kReject:
      out->U64(frame.reject_count);
      return;
    case FrameType::kSubscribeAck:
    case FrameType::kResultSubscribeAck:
      out->U64(frame.subscription_id);
      return;
    case FrameType::kTelemetryChunk:
      out->U64(frame.telemetry_seq);
      out->U64(frame.telemetry_dropped);
      out->Text(frame.text);
      return;
    case FrameType::kResultChunk:
      out->U64(frame.result_seq);
      out->U64(frame.result_dropped);
      out->I64(frame.result_watermark);
      out->U32(frame.result_shard);
      out->U32(frame.result_stream);
      out->U32(static_cast<uint32_t>(frame.events.size()));
      out->Events(frame.events);
      return;
    case FrameType::kFlushSession:
    case FrameType::kFlushAck:
    case FrameType::kShutdown:
    case FrameType::kShutdownAck:
    case FrameType::kMetricsRequest:
    case FrameType::kTraceRequest:
    case FrameType::kSubscribeRequest:
    case FrameType::kResultSubscribeRequest:
      return;  // Empty payloads.
  }
  IMPATIENCE_CHECK_MSG(false, "unencodable frame type");
}

// Decodes a payload already verified against its CRC. Returns kOk or
// kBadPayload.
DecodeStatus ParsePayload(FrameType type, uint8_t aux, const uint8_t* p,
                          size_t n, Frame* frame) {
  switch (type) {
    case FrameType::kEvents: {
      if (n < 4 || aux != 0) return DecodeStatus::kBadPayload;
      const uint32_t count = GetU32(p);
      if (n != 4 + static_cast<size_t>(count) * kWireEventBytes) {
        return DecodeStatus::kBadPayload;
      }
      frame->events.resize(count);
      const uint8_t* q = p + 4;
      for (uint32_t i = 0; i < count; ++i) {
        GetEvent(q, &frame->events[i]);
        q += kWireEventBytes;
      }
      return DecodeStatus::kOk;
    }
    case FrameType::kPunctuation:
      if (n != 8 || aux != 0) return DecodeStatus::kBadPayload;
      frame->punctuation = GetI64(p);
      return DecodeStatus::kOk;
    case FrameType::kMetricsRequest:
      if (n != 0 || aux > 2) return DecodeStatus::kBadPayload;
      frame->metrics_format = static_cast<MetricsFormat>(aux);
      return DecodeStatus::kOk;
    case FrameType::kMetricsResponse:
      if (aux > 2) return DecodeStatus::kBadPayload;
      frame->metrics_format = static_cast<MetricsFormat>(aux);
      frame->text.assign(reinterpret_cast<const char*>(p), n);
      return DecodeStatus::kOk;
    case FrameType::kTraceRequest:
      if (n != 0 || aux > 2) return DecodeStatus::kBadPayload;
      frame->trace_action = static_cast<TraceAction>(aux);
      return DecodeStatus::kOk;
    case FrameType::kTraceResponse:
      if (aux > 2) return DecodeStatus::kBadPayload;
      frame->trace_action = static_cast<TraceAction>(aux);
      frame->text.assign(reinterpret_cast<const char*>(p), n);
      return DecodeStatus::kOk;
    case FrameType::kReject:
      if (n != 8 || aux < 1 || aux > 3) return DecodeStatus::kBadPayload;
      frame->reject_reason = static_cast<RejectReason>(aux);
      frame->reject_count = GetU64(p);
      return DecodeStatus::kOk;
    case FrameType::kSubscribeRequest:
      // aux is a bitmask of the subscribable streams (spans | metrics);
      // an empty mask subscribes to nothing and is rejected.
      if (n != 0 || aux < 1 ||
          aux > (kTelemetrySpans | kTelemetryMetrics)) {
        return DecodeStatus::kBadPayload;
      }
      frame->telemetry_streams = aux;
      return DecodeStatus::kOk;
    case FrameType::kSubscribeAck:
      if (n != 8 || aux < 1 ||
          aux > (kTelemetrySpans | kTelemetryMetrics)) {
        return DecodeStatus::kBadPayload;
      }
      frame->telemetry_streams = aux;
      frame->subscription_id = GetU64(p);
      return DecodeStatus::kOk;
    case FrameType::kTelemetryChunk:
      // aux names exactly one stream: spans, metrics, or dump.
      if (n < 16 || (aux != kTelemetrySpans && aux != kTelemetryMetrics &&
                     aux != kTelemetryDump)) {
        return DecodeStatus::kBadPayload;
      }
      frame->telemetry_streams = aux;
      frame->telemetry_seq = GetU64(p);
      frame->telemetry_dropped = GetU64(p + 8);
      frame->text.assign(reinterpret_cast<const char*>(p) + 16, n - 16);
      return DecodeStatus::kOk;
    case FrameType::kResultSubscribeRequest:
      if (n != 0 ||
          (aux != kResultFilterSession && aux != kResultFilterAll)) {
        return DecodeStatus::kBadPayload;
      }
      frame->result_filter = aux;
      return DecodeStatus::kOk;
    case FrameType::kResultSubscribeAck:
      if (n != 8 ||
          (aux != kResultFilterSession && aux != kResultFilterAll)) {
        return DecodeStatus::kBadPayload;
      }
      frame->result_filter = aux;
      frame->subscription_id = GetU64(p);
      return DecodeStatus::kOk;
    case FrameType::kResultChunk: {
      if (n < kResultChunkHeaderBytes || aux != 0) {
        return DecodeStatus::kBadPayload;
      }
      frame->result_seq = GetU64(p);
      frame->result_dropped = GetU64(p + 8);
      frame->result_watermark = GetI64(p + 16);
      frame->result_shard = GetU32(p + 24);
      frame->result_stream = GetU32(p + 28);
      const uint32_t count = GetU32(p + 32);
      if (n != kResultChunkHeaderBytes +
                   static_cast<size_t>(count) * kWireEventBytes) {
        return DecodeStatus::kBadPayload;
      }
      frame->events.resize(count);
      const uint8_t* q = p + kResultChunkHeaderBytes;
      for (uint32_t i = 0; i < count; ++i) {
        GetEvent(q, &frame->events[i]);
        q += kWireEventBytes;
      }
      return DecodeStatus::kOk;
    }
    case FrameType::kFlushSession:
    case FrameType::kFlushAck:
    case FrameType::kShutdown:
    case FrameType::kShutdownAck:
      return n == 0 && aux == 0 ? DecodeStatus::kOk
                                : DecodeStatus::kBadPayload;
  }
  return DecodeStatus::kBadPayload;  // Unknown type byte.
}

template <typename Buffer>
void AppendFrameTo(const Frame& frame, Buffer* out) {
  FieldCounter counter;
  EmitPayload(frame, &counter);
  const size_t payload_len = counter.size();
  IMPATIENCE_CHECK_MSG(payload_len <= kMaxPayloadBytes,
                       "frame payload exceeds kMaxPayloadBytes");
  const size_t start = out->size();
  out->resize(start + kFrameHeaderBytes + payload_len);
  uint8_t* header = reinterpret_cast<uint8_t*>(out->data()) + start;
  uint8_t* payload = header + kFrameHeaderBytes;
  FieldWriter body(payload);
  EmitPayload(frame, &body);
  // The header goes last: its CRC is taken over the payload in place.
  FieldWriter h(header);
  h.U32(kWireMagic);
  h.U8(static_cast<uint8_t>(frame.type));
  h.U8(AuxOf(frame));
  h.U16(0);  // reserved
  h.U64(frame.session_id);
  h.U32(static_cast<uint32_t>(payload_len));
  h.U32(Crc32(payload, payload_len));
}

}  // namespace

void AppendFrame(const Frame& frame, std::vector<uint8_t>* out) {
  AppendFrameTo(frame, out);
}

void AppendFrame(const Frame& frame, std::string* out) {
  AppendFrameTo(frame, out);
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (failed_) return;
  // Drop the consumed prefix before growing, so long-lived connections do
  // not accumulate history.
  if (pos_ > 0 && (pos_ == buffer_.size() || pos_ >= (size_t{1} << 16))) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

DecodeStatus FrameDecoder::Next(Frame* frame) {
  if (failed_) return error_;
  const size_t avail = buffer_.size() - pos_;
  if (avail < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  const uint8_t* h = buffer_.data() + pos_;

  auto fail = [this](DecodeStatus status) {
    failed_ = true;
    error_ = status;
    return status;
  };

  if (GetU32(h) != kWireMagic) return fail(DecodeStatus::kBadMagic);
  const uint8_t type = h[4];
  const uint8_t aux = h[5];
  if (GetU16(h + 6) != 0) return fail(DecodeStatus::kBadLength);
  const uint64_t session_id = GetU64(h + 8);
  const uint32_t payload_len = GetU32(h + 16);
  const uint32_t expect_crc = GetU32(h + 20);
  if (payload_len > kMaxPayloadBytes) return fail(DecodeStatus::kBadLength);
  if (avail < kFrameHeaderBytes + payload_len) return DecodeStatus::kNeedMore;

  const uint8_t* payload = h + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != expect_crc) {
    return fail(DecodeStatus::kBadCrc);
  }

  *frame = Frame{};
  frame->type = static_cast<FrameType>(type);
  frame->session_id = session_id;
  const DecodeStatus status =
      ParsePayload(frame->type, aux, payload, payload_len, frame);
  if (status != DecodeStatus::kOk) return fail(status);
  pos_ += kFrameHeaderBytes + payload_len;
  return DecodeStatus::kOk;
}

}  // namespace server
}  // namespace impatience
