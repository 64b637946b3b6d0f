// SubscriptionHub: the fan-out both streaming exporters share. The unit
// cases drive the hub directly with scripted sinks; the loopback case
// checks that streamed chunks reach a client through the connection's
// counted send path.

#include "server/subscription_hub.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/event.h"
#include "server/client.h"
#include "server/ingest_service.h"
#include "server/result_exporter.h"
#include "server/wire_format.h"

namespace impatience {
namespace server {
namespace {

bool MatchAll(uint64_t, uint64_t) { return true; }

std::vector<Frame> DecodeAll(const std::vector<std::string>& wire) {
  std::vector<Frame> frames;
  for (const std::string& bytes : wire) {
    FrameDecoder decoder;
    decoder.Feed(reinterpret_cast<const uint8_t*>(bytes.data()),
                 bytes.size());
    Frame f;
    EXPECT_EQ(decoder.Next(&f), DecodeStatus::kOk);
    frames.push_back(std::move(f));
  }
  return frames;
}

// Accepts the first chunk, refuses the second, and so on.
struct AlternatingSink {
  std::vector<std::string> delivered;
  uint64_t offers = 0;

  SubscriptionHub::TrySink Sink() {
    return [this](std::string bytes) {
      if (offers++ % 2 == 1) return false;
      delivered.push_back(std::move(bytes));
      return true;
    };
  }
};

Frame TelemetryChunk(int i) {
  Frame chunk;
  chunk.type = FrameType::kTelemetryChunk;
  chunk.telemetry_streams = kTelemetryMetrics;
  chunk.text = "{\"chunk\":" + std::to_string(i) + "}";
  return chunk;
}

// Chunk i carries i + 1 records, so record-weighted drops differ from
// chunk counts.
Frame ResultChunk(int i) {
  Frame chunk;
  chunk.type = FrameType::kResultChunk;
  chunk.result_watermark = 100 * i;
  chunk.result_shard = 0;
  chunk.events.resize(static_cast<size_t>(i) + 1);
  for (size_t r = 0; r < chunk.events.size(); ++r) {
    chunk.events[r].sync_time = static_cast<Timestamp>(100 * i + r);
  }
  return chunk;
}

// Refusing every other chunk never makes two refusals consecutive, so at
// shed_after_drops = 2 the subscriber survives; its delivered seqs stay
// 1, 2, 3, ... and each delivered chunk carries the chunks refused so
// far.
TEST(SubscriptionHubTest, AlternatingRefusalsNeverShedDropsCountChunks) {
  SubscriptionHub hub(/*shed_after_drops=*/2, MatchAll);
  AlternatingSink sink;
  hub.Subscribe(/*session_id=*/9, /*filter=*/0, sink.Sink());
  constexpr int kChunks = 10;
  for (int i = 0; i < kChunks; ++i) {
    Frame chunk = TelemetryChunk(i);
    hub.FanOut(&chunk, /*key=*/0, /*weight=*/1);
  }

  const std::vector<Frame> frames = DecodeAll(sink.delivered);
  ASSERT_EQ(frames.size(), kChunks / 2u);
  for (size_t k = 0; k < frames.size(); ++k) {
    EXPECT_EQ(frames[k].session_id, 9u);
    EXPECT_EQ(frames[k].telemetry_seq, k + 1);
    EXPECT_EQ(frames[k].telemetry_dropped, k);  // One refusal per gap.
    EXPECT_EQ(frames[k].text, "{\"chunk\":" + std::to_string(2 * k) + "}");
  }
  const SubscriptionHub::Counters c = hub.counters();
  EXPECT_EQ(c.subscribers, 1u);
  EXPECT_EQ(c.subscribers_shed, 0u);
  EXPECT_EQ(c.fan_outs, static_cast<uint64_t>(kChunks));
  EXPECT_EQ(c.chunks_sent, kChunks / 2u);
  EXPECT_EQ(c.chunks_dropped, kChunks / 2u);
}

// The same schedule with record-weighted drops: the next delivered
// result chunk carries the records (not chunks) refused so far.
TEST(SubscriptionHubTest, AlternatingRefusalsDropsCountRecords) {
  SubscriptionHub hub(/*shed_after_drops=*/2, MatchAll);
  AlternatingSink sink;
  hub.Subscribe(/*session_id=*/4, /*filter=*/0, sink.Sink());
  constexpr int kChunks = 8;
  uint64_t records_refused = 0;
  std::vector<uint64_t> want_dropped;
  for (int i = 0; i < kChunks; ++i) {
    Frame chunk = ResultChunk(i);
    const uint64_t records = chunk.events.size();
    if (i % 2 == 0) want_dropped.push_back(records_refused);
    if (i % 2 == 1) records_refused += records;
    hub.FanOut(&chunk, /*key=*/0, /*weight=*/records);
  }

  const std::vector<Frame> frames = DecodeAll(sink.delivered);
  ASSERT_EQ(frames.size(), want_dropped.size());
  for (size_t k = 0; k < frames.size(); ++k) {
    EXPECT_EQ(frames[k].session_id, 4u);
    EXPECT_EQ(frames[k].result_seq, k + 1);
    EXPECT_EQ(frames[k].result_dropped, want_dropped[k]);
    EXPECT_EQ(frames[k].events.size(), 2 * k + 1);
  }
  const SubscriptionHub::Counters c = hub.counters();
  EXPECT_EQ(c.subscribers_shed, 0u);
  EXPECT_EQ(c.weight_dropped, records_refused);
  EXPECT_EQ(c.weight_sent + c.weight_dropped,
            static_cast<uint64_t>(kChunks * (kChunks + 1) / 2));
}

// Consecutive refusals do shed: the subscriber is gone after the second
// one and is never offered another chunk, while a matching healthy
// subscriber and a non-matching one are unaffected.
TEST(SubscriptionHubTest, ConsecutiveRefusalsShedOnlyTheStalledSubscriber) {
  SubscriptionHub hub(/*shed_after_drops=*/2,
                      [](uint64_t filter, uint64_t key) {
                        return filter == key;
                      });
  uint64_t stalled_offers = 0;
  hub.Subscribe(1, /*filter=*/7, [&stalled_offers](std::string) {
    ++stalled_offers;
    return false;
  });
  std::vector<std::string> healthy;
  hub.Subscribe(2, /*filter=*/7, [&healthy](std::string bytes) {
    healthy.push_back(std::move(bytes));
    return true;
  });
  uint64_t other_offers = 0;
  hub.Subscribe(3, /*filter=*/8, [&other_offers](std::string) {
    ++other_offers;
    return true;
  });
  EXPECT_FALSE(hub.empty());
  EXPECT_TRUE(hub.AnyMatch(8));
  EXPECT_FALSE(hub.AnyMatch(9));

  for (int i = 0; i < 5; ++i) {
    Frame chunk = TelemetryChunk(i);
    hub.FanOut(&chunk, /*key=*/7, /*weight=*/1);
  }
  EXPECT_EQ(stalled_offers, 2u);
  EXPECT_EQ(other_offers, 0u);
  const std::vector<Frame> frames = DecodeAll(healthy);
  ASSERT_EQ(frames.size(), 5u);
  for (size_t k = 0; k < frames.size(); ++k) {
    EXPECT_EQ(frames[k].session_id, 2u);
    EXPECT_EQ(frames[k].telemetry_seq, k + 1);
    EXPECT_EQ(frames[k].telemetry_dropped, 0u);
  }
  const SubscriptionHub::Counters c = hub.counters();
  EXPECT_EQ(c.subscribers, 2u);
  EXPECT_EQ(c.subscribers_shed, 1u);
  EXPECT_EQ(c.chunks_dropped, 2u);
}

TEST(SubscriptionHubTest, UnsubscribeStopsDelivery) {
  SubscriptionHub hub(/*shed_after_drops=*/2, MatchAll);
  int offers = 0;
  const uint64_t id = hub.Subscribe(1, 0, [&offers](std::string) {
    ++offers;
    return true;
  });
  EXPECT_NE(id, 0u);
  hub.Unsubscribe(id);
  hub.Unsubscribe(id);  // Unknown ids are ignored.
  EXPECT_TRUE(hub.empty());
  Frame chunk = TelemetryChunk(0);
  hub.FanOut(&chunk, 0, 1);
  EXPECT_EQ(offers, 0);
  EXPECT_EQ(hub.counters().fan_outs, 1u);
}

// The result exporter weights drops by records: a refused sealed chunk
// of three records shows up as dropped = 3 on the next delivered chunk.
TEST(SubscriptionHubTest, ResultExporterDropsCountRecords) {
  ResultStreamOptions options;
  options.shed_after_drops = 2;
  ResultExporter exporter(options, /*num_shards=*/1);
  AlternatingSink sink;
  exporter.Subscribe(5, kResultFilterAll, ResultExporter::kAllShards,
                     sink.Sink());
  Timestamp t = 0;
  for (int chunk = 0; chunk < 3; ++chunk) {
    for (int r = 0; r < 3; ++r) {
      Event e;
      e.sync_time = t++;
      exporter.OnResult(/*shard=*/0, /*stream=*/0, e);
    }
    exporter.OnShardProgress(/*shard=*/0, /*watermark=*/t);
  }
  const std::vector<Frame> frames = DecodeAll(sink.delivered);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].result_dropped, 0u);
  EXPECT_EQ(frames[1].result_seq, 2u);
  EXPECT_EQ(frames[1].result_dropped, 3u);
  const ResultStreamMetrics m = exporter.Counters();
  EXPECT_EQ(m.chunks_built, 3u);
  EXPECT_EQ(m.records_streamed, 6u);
  EXPECT_EQ(m.records_dropped, 3u);
  EXPECT_EQ(m.subscribers_shed, 0u);
}

// Streamed result and telemetry chunks leave through the connection's
// counted send path: frames_out grows by exactly the chunks the client
// received (plus the one flush ack), and bytes_out by their size.
TEST(SubscriptionHubLoopbackTest, StreamedChunksCountInFramesAndBytesOut) {
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.framework.reorder_latencies = {100};
  options.telemetry.start_thread = false;
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));
  ASSERT_TRUE(client.Subscribe(7, kTelemetryMetrics));
  ASSERT_TRUE(client.SubscribeResults(7, kResultFilterAll));
  const ServerMetrics before = service.Snapshot();

  for (int b = 0; b < 4; ++b) {
    std::vector<Event> events(50);
    for (size_t i = 0; i < events.size(); ++i) {
      events[i].sync_time = 1000 + b * 200 + static_cast<Timestamp>(i);
    }
    ASSERT_TRUE(client.SendEvents(7, events));
    ASSERT_TRUE(client.SendPunctuation(7, 1000 + b * 200 + 150));
  }
  ASSERT_TRUE(client.FlushSession(7));
  service.Shutdown();  // Drain-and-flush: every result chunk is sent.
  service.telemetry().Tick(/*force_metrics=*/true);
  service.telemetry().Tick(/*force_metrics=*/true);

  uint64_t chunks = 0;
  uint64_t chunk_bytes = 0;
  uint64_t result_chunks = 0;
  Frame f;
  while (client.PollResults(&f)) {
    ++chunks;
    ++result_chunks;
    chunk_bytes += EncodeFrame(f).size();
  }
  while (client.PollTelemetry(&f)) {
    ++chunks;
    chunk_bytes += EncodeFrame(f).size();
  }
  EXPECT_GT(result_chunks, 0u);
  EXPECT_EQ(chunks, result_chunks + 2);

  const ServerMetrics after = service.Snapshot();
  Frame ack;
  ack.type = FrameType::kFlushAck;
  const uint64_t ack_bytes = EncodeFrame(ack).size();
  EXPECT_EQ(after.frames_out - before.frames_out, chunks + 1);
  EXPECT_EQ(after.bytes_out - before.bytes_out, chunk_bytes + ack_bytes);
  EXPECT_EQ(after.results.chunks_sent, result_chunks);
  EXPECT_EQ(after.telemetry.chunks_sent, 2u);
}

}  // namespace
}  // namespace server
}  // namespace impatience
