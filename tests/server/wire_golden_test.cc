// Golden-bytes regression corpus for the wire protocol: one exact
// encoded frame per encodable FrameType, pinned as hex literals. These
// bytes are the protocol — a change to any of them breaks deployed
// clients mid-stream (the decoder poisons on the first malformed frame),
// so any encoder change that fails this test must bump the protocol
// rather than silently reshape frames. The corpus pins the header layout
// (magic, aux placement, little-endian fields, payload CRC) and every
// payload encoding, including sign handling for negative timestamps,
// INT32_MIN keys, and all-ones hashes in packed event records.
//
// If an intentional format change lands: re-derive the hex by encoding
// MakeGoldenFrames() with the new encoder, and say so loudly in the
// commit message.

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/event.h"
#include "server/wire_format.h"

namespace impatience {
namespace server {
namespace {

Event GoldenEventA() {
  Event e;
  e.sync_time = 1000;
  e.other_time = 1001;
  e.key = 42;
  e.hash = 0x0123456789ABCDEFull;
  e.payload = {1, -2, 3, -4};
  return e;
}

// Extremes: negative sync_time, INT64_MAX, INT32_MIN, all-ones hash —
// the values a sign-extension or endianness slip would corrupt first.
Event GoldenEventB() {
  Event e;
  e.sync_time = -1;
  e.other_time = 9223372036854775807LL;
  e.key = -2147483647 - 1;
  e.hash = 0xFFFFFFFFFFFFFFFFull;
  e.payload = {2147483647, 0, -1, 7};
  return e;
}

// One representative frame per encodable type, in FrameType order.
std::vector<std::pair<const char*, Frame>> MakeGoldenFrames() {
  std::vector<std::pair<const char*, Frame>> out;
  auto add = [&](const char* name, Frame f) {
    out.emplace_back(name, std::move(f));
  };
  {
    Frame f;
    f.type = FrameType::kEvents;
    f.session_id = 0x1122334455667788ull;
    f.events = {GoldenEventA(), GoldenEventB()};
    add("events", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kPunctuation;
    f.session_id = 7;
    f.punctuation = 0x0102030405060708LL;
    add("punctuation", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kFlushSession;
    f.session_id = 9;
    add("flush_session", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kFlushAck;
    f.session_id = 9;
    add("flush_ack", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kShutdown;
    add("shutdown", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kShutdownAck;
    add("shutdown_ack", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kMetricsRequest;
    f.session_id = 3;
    f.metrics_format = MetricsFormat::kJson;
    add("metrics_request", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kMetricsResponse;
    f.session_id = 3;
    f.metrics_format = MetricsFormat::kText;
    f.text = "impatience_events_in 42\n";
    add("metrics_response", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kReject;
    f.session_id = 11;
    f.reject_reason = RejectReason::kQueueFull;
    f.reject_count = 7;
    add("reject", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kTraceRequest;
    f.trace_action = TraceAction::kDump;
    add("trace_request", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kTraceResponse;
    f.trace_action = TraceAction::kDump;
    f.text = "{\"dropped\":0,\"chunks\":1,\"chunks_dropped\":0}";
    add("trace_response", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kSubscribeRequest;
    f.session_id = 5;
    f.telemetry_streams = kTelemetrySpans | kTelemetryMetrics;
    add("subscribe_request", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kSubscribeAck;
    f.session_id = 5;
    f.telemetry_streams = kTelemetrySpans | kTelemetryMetrics;
    f.subscription_id = 1;
    add("subscribe_ack", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kTelemetryChunk;
    f.session_id = 5;
    f.telemetry_streams = kTelemetryMetrics;
    f.telemetry_seq = 1;
    f.telemetry_dropped = 0;
    f.text = "{\"d_events_in\":10}";
    add("telemetry_chunk", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kResultSubscribeRequest;
    f.session_id = 5;
    f.result_filter = kResultFilterSession;
    add("result_subscribe_request", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kResultSubscribeAck;
    f.session_id = 5;
    f.result_filter = kResultFilterAll;
    f.subscription_id = 2;
    add("result_subscribe_ack", std::move(f));
  }
  {
    Frame f;
    f.type = FrameType::kResultChunk;
    f.session_id = 5;
    f.result_seq = 3;
    f.result_dropped = 1;
    f.result_watermark = 4096;
    f.result_shard = 1;
    f.result_stream = 0;
    f.events = {GoldenEventA(), GoldenEventB()};
    add("result_chunk", std::move(f));
  }
  return out;
}

struct GoldenEntry {
  const char* name;
  const char* hex;
};

// Exact encoder output for MakeGoldenFrames(), same order.
const GoldenEntry kGolden[] = {
    {"events",
     "495046310100000088776655443322115c0000009ae723b402000000e8030000"
     "00000000e9030000000000002a000000efcdab896745230101000000feffffff"
     "03000000fcffffffffffffffffffffffffffffffffffff7f00000080ffffffff"
     "ffffffffffffff7f00000000ffffffff07000000"},
    {"punctuation",
     "495046310200000007000000000000000800000025edcca50807060504030201"},
    {"flush_session",
     "495046310300000009000000000000000000000000000000"},
    {"flush_ack",
     "495046310400000009000000000000000000000000000000"},
    {"shutdown",
     "495046310500000000000000000000000000000000000000"},
    {"shutdown_ack",
     "495046310600000000000000000000000000000000000000"},
    {"metrics_request",
     "495046310701000003000000000000000000000000000000"},
    {"metrics_response",
     "49504631080000000300000000000000180000002380375d696d70617469656e"
     "63655f6576656e74735f696e2034320a"},
    {"reject",
     "49504631090100000b000000000000000800000070d6e76f0700000000000000"},
    {"trace_request",
     "495046310a00000000000000000000000000000000000000"},
    {"trace_response",
     "495046310b00000000000000000000002b00000077f1368a7b2264726f707065"
     "64223a302c226368756e6b73223a312c226368756e6b735f64726f7070656422"
     "3a307d"},
    {"subscribe_request",
     "495046310d03000005000000000000000000000000000000"},
    {"subscribe_ack",
     "495046310e030000050000000000000008000000f7df88a90100000000000000"},
    {"telemetry_chunk",
     "495046310f02000005000000000000002200000063f6185a0100000000000000"
     "00000000000000007b22645f6576656e74735f696e223a31307d"},
    {"result_subscribe_request",
     "495046311001000005000000000000000000000000000000"},
    {"result_subscribe_ack",
     "495046311102000005000000000000000800000014d807270200000000000000"},
    {"result_chunk",
     "495046311200000005000000000000007c0000009dd6fb310300000000000000"
     "01000000000000000010000000000000010000000000000002000000e8030000"
     "00000000e9030000000000002a000000efcdab896745230101000000feffffff"
     "03000000fcffffffffffffffffffffffffffffffffffff7f00000080ffffffff"
     "ffffffffffffff7f00000000ffffffff07000000"},
};

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) -> uint8_t {
    if (c >= '0' && c <= '9') return static_cast<uint8_t>(c - '0');
    return static_cast<uint8_t>(c - 'a' + 10);
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>((nibble(hex[i]) << 4) |
                                       nibble(hex[i + 1])));
  }
  return out;
}

std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// The corpus has one entry per encodable frame type — adding a frame
// type without extending the corpus fails here, not silently.
TEST(WireGoldenTest, CorpusCoversEveryEncodableFrameType) {
  std::set<FrameType> covered;
  for (const auto& [name, frame] : MakeGoldenFrames()) covered.insert(frame.type);
  std::set<FrameType> expected;
  for (uint8_t t = 1; t <= static_cast<uint8_t>(FrameType::kResultChunk);
       ++t) {
    if (t == 12) continue;  // Unassigned type byte.
    expected.insert(static_cast<FrameType>(t));
  }
  EXPECT_EQ(covered, expected);
  EXPECT_EQ(MakeGoldenFrames().size(), std::size(kGolden));
}

// Today's encoder produces exactly the pinned bytes.
TEST(WireGoldenTest, EncoderMatchesGoldenBytes) {
  const auto frames = MakeGoldenFrames();
  ASSERT_EQ(frames.size(), std::size(kGolden));
  for (size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(frames[i].first);
    ASSERT_STREQ(frames[i].first, kGolden[i].name);
    EXPECT_EQ(ToHex(EncodeFrame(frames[i].second)),
              std::string(kGolden[i].hex));
  }
}

// The pinned bytes decode (individually and as one concatenated
// stream), and re-encoding each decoded frame reproduces the input
// byte-for-byte — no field is dropped, defaulted, or re-derived
// differently on the decode side.
TEST(WireGoldenTest, GoldenBytesDecodeAndReencodeByteIdentical) {
  FrameDecoder stream_decoder;
  size_t stream_frames = 0;
  for (const GoldenEntry& entry : kGolden) {
    SCOPED_TRACE(entry.name);
    const std::vector<uint8_t> bytes = FromHex(entry.hex);

    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kOk);
    EXPECT_FALSE(decoder.HasPartialFrame());
    EXPECT_EQ(EncodeFrame(frame), bytes);

    stream_decoder.Feed(bytes.data(), bytes.size());
    Frame streamed;
    ASSERT_EQ(stream_decoder.Next(&streamed), DecodeStatus::kOk);
    EXPECT_EQ(EncodeFrame(streamed), bytes);
    ++stream_frames;
  }
  EXPECT_EQ(stream_frames, std::size(kGolden));
  EXPECT_FALSE(stream_decoder.HasPartialFrame());
}

// Flipping any single payload byte of a golden frame must be caught by
// the CRC — the check covers the whole payload, not a prefix.
TEST(WireGoldenTest, PayloadCorruptionAnywhereFailsCrc) {
  for (const GoldenEntry& entry : kGolden) {
    std::vector<uint8_t> bytes = FromHex(entry.hex);
    if (bytes.size() == kFrameHeaderBytes) continue;  // Empty payload.
    SCOPED_TRACE(entry.name);
    for (size_t i : {kFrameHeaderBytes, bytes.size() - 1}) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[i] ^= 0x01;
      FrameDecoder decoder;
      decoder.Feed(corrupt.data(), corrupt.size());
      Frame frame;
      EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadCrc)
          << "flipped byte " << i;
    }
  }
}

}  // namespace
}  // namespace server
}  // namespace impatience
