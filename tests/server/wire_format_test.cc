#include "server/wire_format.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "tests/testing/corrupt_corpus.h"

namespace impatience {
namespace server {
namespace {

Event MakeEvent(Timestamp sync, int32_t key, int32_t p0) {
  Event e;
  e.sync_time = sync;
  e.other_time = sync + 5;
  e.key = key;
  e.hash = HashKey(key);
  e.payload[0] = p0;
  e.payload[1] = -p0;
  e.payload[2] = 0x7fffffff;
  e.payload[3] = -0x80000000;
  return e;
}

Frame EventsFrame(uint64_t session, size_t n) {
  Frame f;
  f.type = FrameType::kEvents;
  f.session_id = session;
  for (size_t i = 0; i < n; ++i) {
    f.events.push_back(
        MakeEvent(static_cast<Timestamp>(100 * i), static_cast<int32_t>(i),
                  static_cast<int32_t>(i * 7)));
  }
  return f;
}

// Decodes exactly one frame from `bytes`, requiring success.
Frame DecodeOne(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kOk);
  EXPECT_FALSE(decoder.HasPartialFrame());
  return frame;
}

TEST(WireFormatTest, Crc32KnownVector) {
  // The IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(impatience::Crc32(reinterpret_cast<const uint8_t*>(s), 9),
            0xCBF43926u);
  EXPECT_EQ(impatience::Crc32(nullptr, 0), 0u);
}

TEST(WireFormatTest, EventsRoundTrip) {
  const Frame original = EventsFrame(0xDEADBEEFCAFEBABEull, 3);
  const Frame decoded = DecodeOne(EncodeFrame(original));
  EXPECT_EQ(decoded.type, FrameType::kEvents);
  EXPECT_EQ(decoded.session_id, original.session_id);
  ASSERT_EQ(decoded.events.size(), original.events.size());
  for (size_t i = 0; i < decoded.events.size(); ++i) {
    EXPECT_EQ(decoded.events[i].sync_time, original.events[i].sync_time);
    EXPECT_EQ(decoded.events[i].other_time, original.events[i].other_time);
    EXPECT_EQ(decoded.events[i].key, original.events[i].key);
    EXPECT_EQ(decoded.events[i].hash, original.events[i].hash);
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(decoded.events[i].payload[c], original.events[i].payload[c]);
    }
  }
}

TEST(WireFormatTest, WireEventSizeMatchesConstant) {
  const Frame one = EventsFrame(1, 1);
  const Frame two = EventsFrame(1, 2);
  EXPECT_EQ(EncodeFrame(two).size() - EncodeFrame(one).size(),
            kWireEventBytes);
  EXPECT_EQ(EncodeFrame(one).size(), kFrameHeaderBytes + 4 + kWireEventBytes);
}

TEST(WireFormatTest, EmptyEventsFrameRoundTrips) {
  const Frame decoded = DecodeOne(EncodeFrame(EventsFrame(7, 0)));
  EXPECT_EQ(decoded.type, FrameType::kEvents);
  EXPECT_TRUE(decoded.events.empty());
}

TEST(WireFormatTest, PunctuationRoundTrip) {
  Frame f;
  f.type = FrameType::kPunctuation;
  f.session_id = 42;
  f.punctuation = -123456789;  // Timestamps are signed.
  const Frame decoded = DecodeOne(EncodeFrame(f));
  EXPECT_EQ(decoded.type, FrameType::kPunctuation);
  EXPECT_EQ(decoded.punctuation, f.punctuation);
}

TEST(WireFormatTest, ControlFramesRoundTrip) {
  for (const FrameType type :
       {FrameType::kFlushSession, FrameType::kFlushAck, FrameType::kShutdown,
        FrameType::kShutdownAck}) {
    Frame f;
    f.type = type;
    f.session_id = 9;
    const Frame decoded = DecodeOne(EncodeFrame(f));
    EXPECT_EQ(decoded.type, type);
    EXPECT_EQ(decoded.session_id, 9u);
  }
}

TEST(WireFormatTest, MetricsAndRejectRoundTrip) {
  Frame req;
  req.type = FrameType::kMetricsRequest;
  req.metrics_format = MetricsFormat::kJson;
  EXPECT_EQ(DecodeOne(EncodeFrame(req)).metrics_format, MetricsFormat::kJson);

  Frame resp;
  resp.type = FrameType::kMetricsResponse;
  resp.metrics_format = MetricsFormat::kText;
  resp.text = "impatience_frames_in 3\n";
  const Frame decoded = DecodeOne(EncodeFrame(resp));
  EXPECT_EQ(decoded.text, resp.text);
  EXPECT_EQ(decoded.metrics_format, MetricsFormat::kText);

  Frame reject;
  reject.type = FrameType::kReject;
  reject.reject_reason = RejectReason::kQueueFull;
  reject.reject_count = 512;
  const Frame dr = DecodeOne(EncodeFrame(reject));
  EXPECT_EQ(dr.reject_reason, RejectReason::kQueueFull);
  EXPECT_EQ(dr.reject_count, 512u);
}

TEST(WireFormatTest, PrometheusMetricsFormatRoundTrips) {
  Frame req;
  req.type = FrameType::kMetricsRequest;
  req.metrics_format = MetricsFormat::kPrometheus;
  EXPECT_EQ(DecodeOne(EncodeFrame(req)).metrics_format,
            MetricsFormat::kPrometheus);

  Frame resp;
  resp.type = FrameType::kMetricsResponse;
  resp.metrics_format = MetricsFormat::kPrometheus;
  resp.text = "# TYPE impatience_frames_in counter\nimpatience_frames_in 3\n";
  const Frame decoded = DecodeOne(EncodeFrame(resp));
  EXPECT_EQ(decoded.metrics_format, MetricsFormat::kPrometheus);
  EXPECT_EQ(decoded.text, resp.text);
}

TEST(WireFormatTest, TraceFramesRoundTrip) {
  for (const TraceAction action :
       {TraceAction::kDump, TraceAction::kEnable, TraceAction::kDisable}) {
    Frame req;
    req.type = FrameType::kTraceRequest;
    req.session_id = 11;
    req.trace_action = action;
    const Frame decoded = DecodeOne(EncodeFrame(req));
    EXPECT_EQ(decoded.type, FrameType::kTraceRequest);
    EXPECT_EQ(decoded.trace_action, action);
    EXPECT_EQ(decoded.session_id, 11u);
  }

  Frame resp;
  resp.type = FrameType::kTraceResponse;
  resp.trace_action = TraceAction::kDump;
  resp.text = "{\"traceEvents\":[]}";
  const Frame decoded = DecodeOne(EncodeFrame(resp));
  EXPECT_EQ(decoded.type, FrameType::kTraceResponse);
  EXPECT_EQ(decoded.trace_action, TraceAction::kDump);
  EXPECT_EQ(decoded.text, resp.text);
}

TEST(WireFormatTest, OutOfRangeAuxRejected) {
  // The aux byte (offset 5) carries the metrics format / trace action;
  // values beyond the defined range must be kBadPayload, not decoded.
  for (const FrameType type :
       {FrameType::kMetricsRequest, FrameType::kTraceRequest}) {
    Frame f;
    f.type = type;
    std::vector<uint8_t> bytes = EncodeFrame(f);
    bytes[5] = 3;
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload);
  }
}

TEST(WireFormatTest, UnassignedTypeByteRejectedAsUnknown) {
  // Type 12 is unassigned: an otherwise well-formed header-only frame
  // carrying it fails exactly like any other unknown type byte.
  for (const uint8_t type : {uint8_t{12}, uint8_t{0}, uint8_t{200}}) {
    Frame f;
    f.type = FrameType::kShutdown;
    std::vector<uint8_t> bytes = EncodeFrame(f);
    bytes[4] = type;  // Empty payload: the CRC still matches.
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload)
        << "type " << static_cast<int>(type);
  }
}

TEST(WireFormatTest, TraceRequestWithPayloadRejected) {
  // kTraceRequest is header-only; a payload is protocol misuse.
  Frame f;
  f.type = FrameType::kTraceRequest;
  std::vector<uint8_t> bytes = EncodeFrame(f);
  const uint8_t junk = 0xAB;
  const uint32_t len = 1;
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  const uint32_t crc = impatience::Crc32(&junk, 1);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  bytes.push_back(junk);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload);
}

TEST(WireFormatTest, TelemetryFramesRoundTrip) {
  for (const uint8_t streams :
       {kTelemetrySpans, kTelemetryMetrics,
        static_cast<uint8_t>(kTelemetrySpans | kTelemetryMetrics)}) {
    Frame req;
    req.type = FrameType::kSubscribeRequest;
    req.session_id = 5;
    req.telemetry_streams = streams;
    const Frame decoded = DecodeOne(EncodeFrame(req));
    EXPECT_EQ(decoded.type, FrameType::kSubscribeRequest);
    EXPECT_EQ(decoded.session_id, 5u);
    EXPECT_EQ(decoded.telemetry_streams, streams);
  }

  Frame ack;
  ack.type = FrameType::kSubscribeAck;
  ack.session_id = 5;
  ack.telemetry_streams = kTelemetrySpans | kTelemetryMetrics;
  ack.subscription_id = 77;
  const Frame dack = DecodeOne(EncodeFrame(ack));
  EXPECT_EQ(dack.type, FrameType::kSubscribeAck);
  EXPECT_EQ(dack.telemetry_streams, kTelemetrySpans | kTelemetryMetrics);
  EXPECT_EQ(dack.subscription_id, 77u);

  // A chunk's aux names exactly one stream: spans, metrics, or dump.
  for (const uint8_t stream :
       {kTelemetrySpans, kTelemetryMetrics, kTelemetryDump}) {
    Frame chunk;
    chunk.type = FrameType::kTelemetryChunk;
    chunk.session_id = 6;
    chunk.telemetry_streams = stream;
    chunk.telemetry_seq = 41;
    chunk.telemetry_dropped = 3;
    chunk.text = "{\"name\":\"x\",\"ph\":\"X\"}";
    const Frame decoded = DecodeOne(EncodeFrame(chunk));
    EXPECT_EQ(decoded.type, FrameType::kTelemetryChunk);
    EXPECT_EQ(decoded.telemetry_streams, stream);
    EXPECT_EQ(decoded.telemetry_seq, 41u);
    EXPECT_EQ(decoded.telemetry_dropped, 3u);
    EXPECT_EQ(decoded.text, chunk.text);
  }
}

TEST(WireFormatTest, TelemetryAuxValidationRejectsBadMasks) {
  // Subscribe aux is a stream bitmask in [1, 3]; 0 (no streams) and bits
  // beyond the defined set are kBadPayload.
  for (const uint8_t aux : {0, 4, 7, 255}) {
    Frame f;
    f.type = FrameType::kSubscribeRequest;
    f.telemetry_streams = kTelemetrySpans;
    std::vector<uint8_t> bytes = EncodeFrame(f);
    bytes[5] = aux;
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload)
        << "subscribe aux " << static_cast<int>(aux);
  }
  // Chunk aux must be exactly one of spans/metrics/dump — a combined
  // mask or zero is malformed.
  for (const uint8_t aux : {0, 3, 5, 6, 7}) {
    Frame f;
    f.type = FrameType::kTelemetryChunk;
    f.telemetry_streams = kTelemetrySpans;
    f.telemetry_seq = 1;
    std::vector<uint8_t> bytes = EncodeFrame(f);
    bytes[5] = aux;
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload)
        << "chunk aux " << static_cast<int>(aux);
  }
}

TEST(WireFormatTest, SubscribeRequestWithPayloadRejected) {
  // kSubscribeRequest is header-only; a payload is protocol misuse.
  Frame f;
  f.type = FrameType::kSubscribeRequest;
  f.telemetry_streams = kTelemetryMetrics;
  std::vector<uint8_t> bytes = EncodeFrame(f);
  const uint8_t junk = 0xAB;
  const uint32_t len = 1;
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  const uint32_t crc = impatience::Crc32(&junk, 1);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  bytes.push_back(junk);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload);
}

TEST(WireFormatTest, TelemetryChunkShortPayloadRejected) {
  // A chunk payload opens with two u64 counters (seq, dropped); anything
  // shorter cannot be a chunk.
  Frame f;
  f.type = FrameType::kTelemetryChunk;
  f.telemetry_streams = kTelemetrySpans;
  f.telemetry_seq = 1;
  std::vector<uint8_t> bytes = EncodeFrame(f);
  // Truncate the payload to 8 bytes and re-stamp length + CRC.
  bytes.resize(24 + 8);
  const uint32_t len = 8;
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  const uint32_t crc = impatience::Crc32(bytes.data() + 24, 8);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload);
}

TEST(WireFormatTest, ByteAtATimeFeedingDecodesAllFrames) {
  std::vector<uint8_t> bytes;
  AppendFrame(EventsFrame(1, 2), &bytes);
  Frame punct;
  punct.type = FrameType::kPunctuation;
  punct.punctuation = 99;
  AppendFrame(punct, &bytes);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const uint8_t b : bytes) {
    decoder.Feed(&b, 1);
    Frame frame;
    while (decoder.Next(&frame) == DecodeStatus::kOk) {
      frames.push_back(frame);
    }
    ASSERT_FALSE(decoder.failed());
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kEvents);
  EXPECT_EQ(frames[1].type, FrameType::kPunctuation);
  EXPECT_FALSE(decoder.HasPartialFrame());
}

TEST(WireFormatTest, CorruptedCrcRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(EventsFrame(1, 2));
  bytes[kFrameHeaderBytes + 6] ^= 0xFF;  // Flip one payload byte.
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadCrc);
  EXPECT_TRUE(decoder.failed());
  // Poisoned: more (valid) bytes cannot revive the stream.
  const std::vector<uint8_t> good = EncodeFrame(EventsFrame(1, 1));
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadCrc);
}

TEST(WireFormatTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(EventsFrame(1, 1));
  bytes[0] ^= 0x01;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadMagic);
}

TEST(WireFormatTest, NonZeroReservedRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(EventsFrame(1, 1));
  bytes[6] = 1;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadLength);
}

TEST(WireFormatTest, OversizedLengthRejectedWithoutBuffering) {
  std::vector<uint8_t> bytes = EncodeFrame(EventsFrame(1, 1));
  bytes[16] = 0xFF;  // payload_len little-endian low byte...
  bytes[17] = 0xFF;
  bytes[18] = 0xFF;
  bytes[19] = 0x7F;  // ...now ~2 GiB, far over kMaxPayloadBytes.
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  // Rejected from the header alone — no waiting for 2 GiB of payload.
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadLength);
}

TEST(WireFormatTest, EventsCountPayloadMismatchRejected) {
  // A count field claiming more events than the payload carries must be
  // kBadPayload even though the CRC (computed over the corrupt payload
  // here) matches.
  Frame f = EventsFrame(1, 2);
  std::vector<uint8_t> payload;
  {
    std::vector<uint8_t> bytes = EncodeFrame(f);
    payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
  }
  payload[0] = 3;  // Claim 3 events; only 2 are present.
  std::vector<uint8_t> bytes;
  Frame empty;
  empty.type = FrameType::kFlushSession;
  bytes = EncodeFrame(empty);
  // Rewrite header: type=events, len and CRC of the doctored payload.
  bytes[4] = static_cast<uint8_t>(FrameType::kEvents);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes[16 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  const uint32_t crc = impatience::Crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes[20 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadPayload);
}

TEST(WireFormatTest, TruncationCorpusNeverYieldsAFrame) {
  const std::vector<uint8_t> bytes = EncodeFrame(EventsFrame(5, 4));
  for (const auto& prefix : impatience::testing::TruncationsOf(bytes)) {
    FrameDecoder decoder;
    if (!prefix.empty()) decoder.Feed(prefix.data(), prefix.size());
    Frame frame;
    // A strict prefix is never a frame and never an error — the decoder
    // just waits; at connection teardown the partial bytes are visible.
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
    EXPECT_EQ(decoder.HasPartialFrame(), !prefix.empty());
    EXPECT_EQ(decoder.buffered_bytes(), prefix.size());
  }
}

TEST(WireFormatTest, PayloadFlipCorpusAlwaysCaughtByCrc) {
  const std::vector<uint8_t> bytes = EncodeFrame(EventsFrame(5, 4));
  for (auto& mutant : impatience::testing::ByteFlipsOf(bytes)) {
    FrameDecoder decoder;
    decoder.Feed(mutant.data(), mutant.size());
    Frame frame;
    const DecodeStatus status = decoder.Next(&frame);
    // Find which byte differs to know the corrupted region.
    size_t at = 0;
    while (at < bytes.size() && mutant[at] == bytes[at]) ++at;
    if (at >= kFrameHeaderBytes) {
      // Payload corruption must be caught by the CRC, never decoded.
      EXPECT_EQ(status, DecodeStatus::kBadCrc) << "flip at offset " << at;
    } else if (at >= 8 && at < 16) {
      // The session id is not covered by the CRC: the frame decodes with
      // a different session. Framing is still intact.
      EXPECT_EQ(status, DecodeStatus::kOk);
    } else {
      // Any other header corruption must produce an error, not a bogus
      // frame (magic/reserved/length/CRC-field checks).
      EXPECT_NE(status, DecodeStatus::kOk) << "flip at offset " << at;
    }
  }
}

TEST(WireFormatTest, GarbageStreamRejectedQuickly) {
  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  FrameDecoder decoder;
  decoder.Feed(garbage.data(), garbage.size());
  Frame frame;
  EXPECT_TRUE(IsDecodeError(decoder.Next(&frame)));
}

}  // namespace
}  // namespace server
}  // namespace impatience
