// Result-stream subscription tests: live kResultChunk delivery with
// per-subscriber backpressure, driven deterministically — the loopback
// cases use real shard workers and compare the delivered stream against
// the server-side on_result reference after a drain-and-flush shutdown,
// and the event-loop cases run over the scripted FaultyTransport/
// FaultyPoller so byte-split writes, subscriber stalls, mid-chunk kills,
// and readiness shuffles replay from IMPATIENCE_FAULT_SEED.
//
// The contracts under test:
//   - Delivered chunks carry consecutive sequence numbers (1, 2, 3, ...)
//     and per-shard non-decreasing watermarks; records a subscriber's
//     bounded write budget refused surface only as a rising cumulative
//     `dropped` record count.
//   - A subscriber that is never shed receives, per (shard, stream), the
//     exact record sequence the server-side on_result emission produced —
//     byte-identical, gap-free, duplicate-free — across merge policies,
//     forced-spill budgets, and seeded fault sweeps.
//   - A stalled subscriber is shed after bounded consecutive drops
//     without closing its connection, stalling ingest, or moving any
//     other session's watermark lag; and shedding one of a connection's
//     subscriptions (telemetry vs results) does not touch the other.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/event.h"
#include "common/random.h"
#include "server/client.h"
#include "server/event_loop.h"
#include "server/ingest_service.h"
#include "server/wire_format.h"
#include "sort/merge.h"
#include "tests/testing/faulty_transport.h"

namespace impatience {
namespace server {
namespace {

namespace ft = impatience::testing;

using StreamKey = std::pair<uint32_t, uint32_t>;  // (shard, stream)
using StreamMap = std::map<StreamKey, std::vector<Event>>;

// Server-side reference: every record the pipelines emit, in emission
// order per (shard, stream), captured through ServiceOptions::on_result
// (the exact emission point the exporter hooks). Filled on shard worker
// threads.
struct ResultReference {
  std::mutex mu;
  StreamMap streams;
  size_t total = 0;

  ResultFn Tap() {
    return [this](size_t shard, size_t stream, const Event& e) {
      std::lock_guard<std::mutex> lock(mu);
      streams[{static_cast<uint32_t>(shard), static_cast<uint32_t>(stream)}]
          .push_back(e);
      ++total;
    };
  }
  StreamMap Snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return streams;
  }
  size_t Total() {
    std::lock_guard<std::mutex> lock(mu);
    return total;
  }
};

// Accumulates one subscriber's kResultChunk frames while asserting the
// wire contracts: consecutive seqs, non-empty chunks, per-shard
// watermark monotonicity, and a non-decreasing cumulative drop count.
struct DeliveredStream {
  StreamMap streams;
  uint64_t chunks = 0;
  uint64_t final_dropped = 0;
  size_t records = 0;
};

void AccumulateChunks(const std::vector<Frame>& frames,
                      DeliveredStream* out) {
  uint64_t expect_seq = 1;
  std::map<uint32_t, Timestamp> last_watermark;
  for (const Frame& f : frames) {
    if (f.type != FrameType::kResultChunk) continue;
    EXPECT_EQ(f.result_seq, expect_seq++)
        << "gap or duplicate in delivered result stream";
    EXPECT_FALSE(f.events.empty()) << "exporter sealed an empty chunk";
    auto [it, inserted] =
        last_watermark.emplace(f.result_shard, f.result_watermark);
    if (!inserted) {
      EXPECT_GE(f.result_watermark, it->second)
          << "watermark regressed on shard " << f.result_shard;
      it->second = f.result_watermark;
    }
    EXPECT_GE(f.result_dropped, out->final_dropped);
    out->final_dropped = f.result_dropped;
    auto& v = out->streams[{f.result_shard, f.result_stream}];
    v.insert(v.end(), f.events.begin(), f.events.end());
    out->records += f.events.size();
    ++out->chunks;
  }
}

// True if `sub` can be produced from `full` by deleting elements only —
// order preserved, no reordering, no invention. The shed contract: a
// sometimes-stalled subscriber sees an ordered subsequence of the
// reference, never a permutation of it.
bool IsOrderedSubsequence(const std::vector<Event>& sub,
                          const std::vector<Event>& full) {
  size_t j = 0;
  for (const Event& e : sub) {
    while (j < full.size() && !(full[j] == e)) ++j;
    if (j == full.size()) return false;
    ++j;
  }
  return true;
}

ServiceOptions ManualResultOptions() {
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.queue_capacity = 4096;
  options.shards.manual_drain = true;
  options.shards.backpressure = BackpressurePolicy::kRejectFrame;
  // One band: the subscribed (final) stream releases events 100 time
  // units behind the forced punctuation frontier, so every kPunctuation
  // frame a burst carries surfaces the previous burst's records.
  options.shards.framework.reorder_latencies = {100};
  // Emission is driven by explicit punctuation frames and the final
  // flush, never by the count cadence — keeps runs comparable across
  // merge policies and spill budgets.
  options.shards.framework.punctuation_period = 1u << 20;
  options.telemetry.start_thread = false;
  return options;
}

template <typename Pred>
bool PumpUntil(EventLoop* loop, Pred pred, int iters = 500) {
  for (int i = 0; i < iters; ++i) {
    if (pred()) return true;
    loop->PollOnce(/*timeout_ms=*/5);
  }
  return pred();
}

std::vector<Event> MakeEvents(size_t n, Timestamp base) {
  std::vector<Event> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.sync_time = base + static_cast<Timestamp>(i);
    e.other_time = e.sync_time + 1;
    e.key = static_cast<int32_t>(i);
    e.hash = HashKey(e.key);
    e.payload = {static_cast<int32_t>(base), static_cast<int32_t>(i), -7, 9};
    events.push_back(e);
  }
  return events;
}

// Disordered batch: timestamps base..base+n-1 in a seeded shuffle, the
// input shape that makes the sorter's run structure (and thus the merge
// policy) matter.
std::vector<Event> MakeDisordered(size_t n, Timestamp base, Rng* rng) {
  std::vector<Event> events = MakeEvents(n, base);
  for (size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[rng->NextBelow(i)]);
  }
  return events;
}

std::vector<uint8_t> ResultSubscribeBytes(uint64_t session_id,
                                          uint8_t filter) {
  Frame f;
  f.type = FrameType::kResultSubscribeRequest;
  f.session_id = session_id;
  f.result_filter = filter;
  return EncodeFrame(f);
}

std::vector<uint8_t> EventsBytes(uint64_t session_id,
                                 std::vector<Event> events) {
  Frame f;
  f.type = FrameType::kEvents;
  f.session_id = session_id;
  f.events = std::move(events);
  return EncodeFrame(f);
}

std::vector<uint8_t> PunctuationBytes(uint64_t session_id, Timestamp t) {
  Frame f;
  f.type = FrameType::kPunctuation;
  f.session_id = session_id;
  f.punctuation = t;
  return EncodeFrame(f);
}

std::vector<Frame> DecodeAll(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Feed(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::vector<Frame> frames;
  Frame f;
  while (decoder.Next(&f) == DecodeStatus::kOk) {
    frames.push_back(std::move(f));
    f = Frame{};
  }
  return frames;
}

size_t CountResultRecords(const std::vector<Frame>& frames) {
  size_t n = 0;
  for (const Frame& f : frames) {
    if (f.type == FrameType::kResultChunk) n += f.events.size();
  }
  return n;
}

int64_t SessionLag(IngestService* service, uint64_t session_id) {
  for (const ShardMetrics& s : service->manager().SnapshotShards()) {
    for (const SessionWatermark& w : s.watermarks) {
      if (w.session_id == session_id) return w.lag;
    }
  }
  return -1;
}

std::vector<Frame> DrainLoopbackResults(IngestClient* client) {
  std::vector<Frame> frames;
  Frame f;
  while (client->PollResults(&f)) {
    frames.push_back(std::move(f));
    f = Frame{};
  }
  return frames;
}

// Loopback happy path with real shard workers and both output streams
// subscribed: after a drain-and-flush shutdown, the delivered stream is
// gap-free, watermark-monotone, and per (shard, stream) byte-identical
// to the server-side on_result reference.
TEST(ResultStreamTest, LoopbackDeliveryMatchesOnResultReference) {
  ResultReference ref;
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.framework.reorder_latencies = {100, 10000};
  options.shards.subscribe_all_streams = true;  // Streams 0 and 1.
  options.telemetry.start_thread = false;
  options.on_result = ref.Tap();
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  uint64_t sub_id = 0;
  ASSERT_TRUE(client.SubscribeResults(7, kResultFilterAll, &sub_id));
  EXPECT_NE(sub_id, 0u);
  EXPECT_EQ(service.Snapshot().results.subscribers, 1u);

  for (int b = 0; b < 8; ++b) {
    ASSERT_TRUE(client.SendEvents(7, MakeEvents(100, 1000 + b * 200)));
    ASSERT_TRUE(client.SendPunctuation(7, 1000 + b * 200 + 150));
  }
  ASSERT_TRUE(client.FlushSession(7));
  ASSERT_TRUE(client.Shutdown());  // Drain-and-flush: all results emitted.

  DeliveredStream delivered;
  AccumulateChunks(DrainLoopbackResults(&client), &delivered);
  EXPECT_GT(delivered.chunks, 1u);
  EXPECT_EQ(delivered.final_dropped, 0u);
  EXPECT_EQ(delivered.records, ref.Total());
  EXPECT_EQ(delivered.streams, ref.Snapshot());
  // Both output streams reached the subscriber.
  EXPECT_EQ(delivered.streams.size(), 2u);

  const ServerMetrics m = service.Snapshot();
  EXPECT_EQ(m.results.subscribers, 1u);
  EXPECT_EQ(m.results.chunks_sent, delivered.chunks);
  EXPECT_EQ(m.results.chunks_dropped, 0u);
  EXPECT_EQ(m.results.records_streamed, ref.Total());
  EXPECT_EQ(m.results.records_dropped, 0u);
  EXPECT_EQ(m.results.subscribers_shed, 0u);
}

// A per-session subscription resolves to the shard serving that session:
// the subscriber sees exactly that shard's output and nothing else,
// while a wildcard subscriber on the same service sees every shard's.
TEST(ResultStreamTest, SessionFilterScopesDeliveryToOwnShard) {
  ResultReference ref;
  ServiceOptions options;
  options.shards.num_shards = 4;
  options.telemetry.start_thread = false;
  options.on_result = ref.Tap();
  IngestService service(options);

  const uint64_t session_a = 1;
  uint64_t session_b = 2;
  while (service.manager().ShardOf(session_b) ==
         service.manager().ShardOf(session_a)) {
    ++session_b;
  }
  const uint32_t shard_a =
      static_cast<uint32_t>(service.manager().ShardOf(session_a));

  IngestClient scoped(std::make_unique<LoopbackChannel>(&service));
  IngestClient wildcard(std::make_unique<LoopbackChannel>(&service));
  ASSERT_TRUE(scoped.SubscribeResults(session_a, kResultFilterSession));
  ASSERT_TRUE(wildcard.SubscribeResults(session_b, kResultFilterAll));
  EXPECT_EQ(service.Snapshot().results.subscribers, 2u);

  IngestClient ingest(std::make_unique<LoopbackChannel>(&service));
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(ingest.SendEvents(session_a, MakeEvents(80, 1000 + b * 200)));
    ASSERT_TRUE(ingest.SendEvents(session_b, MakeEvents(80, 5000 + b * 200)));
  }
  ASSERT_TRUE(ingest.Shutdown());

  DeliveredStream scoped_got;
  AccumulateChunks(DrainLoopbackResults(&scoped), &scoped_got);
  DeliveredStream wildcard_got;
  AccumulateChunks(DrainLoopbackResults(&wildcard), &wildcard_got);

  const StreamMap reference = ref.Snapshot();
  StreamMap shard_a_only;
  for (const auto& [key, records] : reference) {
    if (key.first == shard_a) shard_a_only[key] = records;
  }
  ASSERT_FALSE(shard_a_only.empty());
  ASSERT_GT(reference.size(), shard_a_only.size());
  EXPECT_EQ(scoped_got.streams, shard_a_only);
  EXPECT_EQ(wildcard_got.streams, reference);
}

using ConfigRun = std::pair<StreamMap, size_t>;  // (delivered, chunks)

// One deterministic manual-drain run: disordered bursts with forced
// punctuations, drain-and-flush, then delivered-vs-reference equality.
ConfigRun RunConfig(bool huffman_merge, size_t memory_budget,
                    size_t max_chunk_bytes) {
  ResultReference ref;
  ServiceOptions options = ManualResultOptions();
  options.on_result = ref.Tap();
  options.shards.framework.sorter_config.huffman_merge = huffman_merge;
  options.shards.memory_budget = memory_budget;
  options.results.max_chunk_bytes = max_chunk_bytes;
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));
  EXPECT_TRUE(client.SubscribeResults(5, kResultFilterAll));

  Rng rng(20260807);
  for (int b = 0; b < 6; ++b) {
    const Timestamp base = 1000 + b * 500;
    EXPECT_TRUE(client.SendEvents(5, MakeDisordered(300, base, &rng)));
    EXPECT_TRUE(client.SendPunctuation(5, base + 450));
    service.manager().DrainShardForTest(0);
  }
  service.Shutdown();

  DeliveredStream delivered;
  AccumulateChunks(DrainLoopbackResults(&client), &delivered);
  EXPECT_EQ(delivered.final_dropped, 0u);
  EXPECT_EQ(delivered.records, ref.Total());
  EXPECT_EQ(delivered.streams, ref.Snapshot());
  return {delivered.streams, delivered.chunks};
}

// The delivered stream is invariant across merge orders and a
// forced-spill budget: Huffman, the balanced "w/o HM" ablation, and a
// 64 KiB budget that pushes runs through the spill tier all deliver
// byte-identical record sequences (each also identical to its own run's
// reference). The session's timestamps are distinct, so the balanced
// order's different tie-breaking cannot show.
TEST(ResultStreamTest, MergePoliciesAndSpillBudgetDeliverIdenticalStreams) {
  const ConfigRun huffman =
      RunConfig(/*huffman_merge=*/true, /*memory_budget=*/0, 256u * 1024);
  const ConfigRun balanced =
      RunConfig(/*huffman_merge=*/false, /*memory_budget=*/0, 256u * 1024);
  const ConfigRun spilled =
      RunConfig(/*huffman_merge=*/true, /*memory_budget=*/64 * 1024,
                256u * 1024);
  ASSERT_FALSE(huffman.first.empty());
  EXPECT_EQ(huffman.first, balanced.first);
  EXPECT_EQ(huffman.first, spilled.first);
}

// --result-chunk-bytes bounds every chunk: a 1 KiB cap packs at most
// (1024 - 36) / 44 = 22 records per chunk, forces many chunks for the
// same data, and changes nothing about the delivered record sequence.
TEST(ResultStreamTest, ChunkBytesKnobBoundsChunkSizeNotContent) {
  const size_t kCap = 1024;
  const size_t kMaxRecords = (kCap - kResultChunkHeaderBytes) / kWireEventBytes;
  ResultReference ref;
  ServiceOptions options = ManualResultOptions();
  options.on_result = ref.Tap();
  options.results.max_chunk_bytes = kCap;
  IngestService service(options);
  EXPECT_EQ(service.results().options().max_chunk_bytes, kCap);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));
  ASSERT_TRUE(client.SubscribeResults(5, kResultFilterAll));

  ASSERT_TRUE(client.SendEvents(5, MakeEvents(100, 1000)));
  ASSERT_TRUE(client.SendPunctuation(5, 2000));
  service.manager().DrainShardForTest(0);
  service.Shutdown();

  const std::vector<Frame> frames = DrainLoopbackResults(&client);
  DeliveredStream delivered;
  AccumulateChunks(frames, &delivered);
  EXPECT_GE(delivered.chunks, (100 + kMaxRecords - 1) / kMaxRecords);
  for (const Frame& f : frames) {
    EXPECT_LE(f.events.size(), kMaxRecords);
    EXPECT_LE(kResultChunkHeaderBytes + f.events.size() * kWireEventBytes,
              kCap);
  }
  EXPECT_EQ(delivered.streams, ref.Snapshot());
}

// Over the event loop with writes sliced at scripted boundaries (plus
// EINTR/EAGAIN noise), chunks reassemble into intact CRC-checked frames:
// gap-free seqs, zero drops, reference-identical records.
TEST(ResultStreamTest, SlicedWritesReassembleGapFreeResultStream) {
  ResultReference ref;
  ServiceOptions options = ManualResultOptions();
  options.on_result = ref.Tap();
  IngestService service(options);
  EventLoop loop(&service, std::make_unique<ft::FaultyPoller>(ft::FaultSeed()),
                 EventLoopOptions{});

  auto t = std::make_unique<ft::FaultyTransport>();
  auto h = t->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(t)), 0u);

  std::vector<ft::FaultAction> script;
  for (int i = 0; i < 20000; ++i) {
    script.push_back(ft::FaultAction::Limit(1 + (i % 13)));
    if (i % 9 == 4) script.push_back(ft::FaultAction::Eintr());
    if (i % 17 == 8) script.push_back(ft::FaultAction::Eagain());
  }
  h->ScriptWrite(std::move(script));
  h->InjectInbound(ResultSubscribeBytes(5, kResultFilterAll));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));

  for (int b = 0; b < 5; ++b) {
    const Timestamp base = 1000 + b * 200;
    h->InjectInbound(EventsBytes(5, MakeEvents(60, base)));
    h->InjectInbound(PunctuationBytes(5, base + 150));
    ASSERT_TRUE(PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));
    service.manager().DrainShardForTest(0);
    for (int j = 0; j < 10; ++j) loop.PollOnce(/*timeout_ms=*/5);
  }
  service.Shutdown();  // Manual-drain flush: the rest of the records.

  std::string out;
  ASSERT_TRUE(PumpUntil(
      &loop,
      [&] {
        out += h->TakeOutput();
        return CountResultRecords(DecodeAll(out)) == ref.Total();
      },
      3000));
  const std::vector<Frame> frames = DecodeAll(out);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames[0].type, FrameType::kResultSubscribeAck);
  EXPECT_EQ(frames[0].result_filter, kResultFilterAll);
  EXPECT_NE(frames[0].subscription_id, 0u);
  DeliveredStream delivered;
  AccumulateChunks(frames, &delivered);
  EXPECT_EQ(delivered.final_dropped, 0u);
  EXPECT_EQ(delivered.streams, ref.Snapshot());
  EXPECT_EQ(service.Snapshot().decode_errors, 0u);
}

// Seeded sweep across fault schedules, merge orders, and spill
// budgets: every record the pipeline emitted is delivered exactly once,
// in order, through randomized write slicing and readiness shuffles.
TEST(ResultStreamTest, SeededFaultSweepDeliversExactlyOnce) {
  const uint64_t base_seed = ft::FaultSeed();
  for (uint64_t seed = base_seed; seed < base_seed + 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ResultReference ref;
    ServiceOptions options = ManualResultOptions();
    options.on_result = ref.Tap();
    options.shards.framework.sorter_config.huffman_merge = seed % 2 == 0;
    if (seed % 3 == 0) options.shards.memory_budget = 64 * 1024;
    IngestService service(options);
    EventLoop loop(&service, std::make_unique<ft::FaultyPoller>(seed),
                   EventLoopOptions{});

    auto t = std::make_unique<ft::FaultyTransport>();
    auto h = t->NewHandle();
    ASSERT_NE(loop.AddConnection(std::move(t)), 0u);

    Rng rng(seed * 7919 + 17);
    std::vector<ft::FaultAction> script;
    for (int i = 0; i < 30000; ++i) {
      const uint64_t pick = rng.NextBelow(10);
      if (pick == 0) {
        script.push_back(ft::FaultAction::Eagain());
      } else if (pick == 1) {
        script.push_back(ft::FaultAction::Eintr());
      } else {
        script.push_back(ft::FaultAction::Limit(
            1 + static_cast<size_t>(rng.NextBelow(29))));
      }
    }
    h->ScriptWrite(std::move(script));
    h->InjectInbound(ResultSubscribeBytes(seed, kResultFilterAll));
    ASSERT_TRUE(PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));

    Rng data_rng(seed * 104729 + 7);
    for (int b = 0; b < 6; ++b) {
      const Timestamp base = 1000 + b * 500;
      h->InjectInbound(
          EventsBytes(seed, MakeDisordered(300, base, &data_rng)));
      h->InjectInbound(PunctuationBytes(seed, base + 450));
      ASSERT_TRUE(
          PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));
      service.manager().DrainShardForTest(0);
      for (int j = 0; j < 5; ++j) loop.PollOnce(/*timeout_ms=*/5);
    }
    service.Shutdown();

    std::string out;
    ASSERT_TRUE(PumpUntil(
        &loop,
        [&] {
          out += h->TakeOutput();
          return CountResultRecords(DecodeAll(out)) == ref.Total();
        },
        5000));
    const std::vector<Frame> frames = DecodeAll(out);
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames[0].type, FrameType::kResultSubscribeAck);
    DeliveredStream delivered;
    AccumulateChunks(frames, &delivered);
    EXPECT_EQ(delivered.final_dropped, 0u);
    EXPECT_EQ(delivered.records, ref.Total());
    EXPECT_EQ(delivered.streams, ref.Snapshot());
    EXPECT_EQ(service.Snapshot().decode_errors, 0u);

    h->CloseInbound();
    ASSERT_TRUE(
        PumpUntil(&loop, [&] { return loop.connection_count() == 0; }));
    EXPECT_EQ(service.Snapshot().results.subscribers, 0u);
  }
}

// A scripted stall window (SubscriberStallSchedule): chunks sealed while
// the subscriber's bounded budget is full are counted-dropped, delivered
// seqs stay consecutive through the gap, and what is delivered is an
// ordered subsequence of the reference — dropped records never reorder
// the survivors.
TEST(ResultStreamTest, StallWindowCountsDropsKeepsStreamOrdered) {
  ResultReference ref;
  ServiceOptions options = ManualResultOptions();
  options.on_result = ref.Tap();
  options.results.shed_after_drops = 1000;  // Never shed in this test.
  IngestService service(options);
  EventLoopOptions opts;
  opts.telemetry_write_queue_bytes = 1200;  // Roughly one 20-record chunk.
  EventLoop loop(&service, std::make_unique<ft::FaultyPoller>(ft::FaultSeed()),
                 opts);

  auto t = std::make_unique<ft::FaultyTransport>();
  auto h = t->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(t)), 0u);
  h->InjectInbound(ResultSubscribeBytes(5, kResultFilterAll));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));

  ft::SubscriberStallSchedule sched(
      h.get(), {{/*stall_at_seq=*/2, /*resume_after_ticks=*/4}});

  std::string out;
  uint64_t max_seq = 0;
  auto pump_burst = [&](int b) {
    const Timestamp base = 1000 + b * 200;
    h->InjectInbound(EventsBytes(5, MakeEvents(20, base)));
    h->InjectInbound(PunctuationBytes(5, base + 150));
    ASSERT_TRUE(PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));
    service.manager().DrainShardForTest(0);
    for (int j = 0; j < 10; ++j) loop.PollOnce(/*timeout_ms=*/5);
    out += h->TakeOutput();
    for (const Frame& f : DecodeAll(out)) {
      if (f.type == FrameType::kResultChunk) {
        max_seq = std::max(max_seq, f.result_seq);
      }
    }
    sched.Observe(max_seq);
    sched.Tick();
  };
  int burst = 0;
  // Run bursts until the stall window has engaged and released, plus a
  // recovery tail so post-stall chunks flow again.
  while (!sched.done() || burst < 6) {
    ASSERT_LT(burst, 60) << "stall schedule never completed";
    pump_burst(burst++);
  }
  for (int i = 0; i < 4; ++i) pump_burst(burst++);
  EXPECT_EQ(sched.windows_completed(), 1u);

  const ServerMetrics mid = service.Snapshot();
  EXPECT_GT(mid.results.chunks_dropped, 0u);
  EXPECT_GT(mid.results.records_dropped, 0u);
  EXPECT_EQ(mid.results.subscribers, 1u);  // Not shed.
  EXPECT_EQ(mid.results.subscribers_shed, 0u);

  service.Shutdown();
  ASSERT_TRUE(PumpUntil(&loop, [&] {
    out += h->TakeOutput();
    const ServerMetrics m = service.Snapshot();
    return CountResultRecords(DecodeAll(out)) + m.results.records_dropped ==
           ref.Total();
  }));

  const std::vector<Frame> frames = DecodeAll(out);
  DeliveredStream delivered;
  AccumulateChunks(frames, &delivered);
  EXPECT_GT(delivered.final_dropped, 0u);
  EXPECT_EQ(delivered.final_dropped,
            service.Snapshot().results.records_dropped);
  const StreamMap reference = ref.Snapshot();
  ASSERT_EQ(delivered.streams.size(), 1u);
  for (const auto& [key, records] : delivered.streams) {
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_LT(records.size(), it->second.size());  // Something was shed...
    EXPECT_TRUE(IsOrderedSubsequence(records, it->second))
        << "delivered records reordered relative to the reference";
  }
}

// A subscriber that never drains is shed from the exporter after the
// configured consecutive drops — without closing its connection, and
// without moving a healthy session's ingest or watermark lag.
TEST(ResultStreamTest, StalledSubscriberShedOthersUnaffected) {
  ServiceOptions options = ManualResultOptions();
  options.results.shed_after_drops = 3;
  IngestService service(options);
  EventLoopOptions opts;
  opts.telemetry_write_queue_bytes = 1200;
  EventLoop loop(&service, std::make_unique<ft::FaultyPoller>(ft::FaultSeed()),
                 opts);

  // Healthy ingest session; its bursts are what the subscriber streams.
  auto fast_t = std::make_unique<ft::FaultyTransport>();
  auto fast = fast_t->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(fast_t)), 0u);
  std::string fast_replies;
  auto send_batch = [&](Timestamp base) {
    fast->InjectInbound(EventsBytes(9, MakeEvents(100, base)));
    fast->InjectInbound(PunctuationBytes(9, base + 150));
    Frame flush;
    flush.type = FrameType::kFlushSession;
    flush.session_id = 9;
    fast->InjectInbound(EncodeFrame(flush));
  };
  auto pump_ack = [&](size_t want_acks) -> size_t {
    EXPECT_TRUE(
        PumpUntil(&loop, [&] { return fast->pending_inbound() == 0; }));
    service.manager().DrainShardForTest(0);
    size_t acks = 0;
    PumpUntil(&loop, [&] {
      fast_replies += fast->TakeOutput();
      acks = 0;
      for (const Frame& f : DecodeAll(fast_replies)) {
        if (f.type == FrameType::kFlushAck) ++acks;
      }
      return acks >= want_acks;
    });
    return acks;
  };
  send_batch(1000);
  ASSERT_EQ(pump_ack(1), 1u);
  const int64_t lag_before = SessionLag(&service, 9);
  ASSERT_GE(lag_before, 0);

  // Subscriber that accepts the ack, then stops draining forever.
  auto slow_t = std::make_unique<ft::FaultyTransport>();
  auto slow = slow_t->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(slow_t)), 0u);
  slow->InjectInbound(ResultSubscribeBytes(5, kResultFilterAll));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return slow->pending_inbound() == 0; }));
  ASSERT_EQ(service.Snapshot().results.subscribers, 1u);
  slow->SetWriteBlocked(true);

  for (int i = 0; i < 8; ++i) {
    send_batch(2000 + i * 1000);
    ASSERT_EQ(pump_ack(2 + static_cast<size_t>(i)),
              2 + static_cast<size_t>(i));
  }

  const ServerMetrics m = service.Snapshot();
  EXPECT_EQ(m.results.subscribers, 0u);  // Shed from the exporter...
  EXPECT_EQ(m.results.subscribers_shed, 1u);
  EXPECT_GE(m.results.chunks_dropped, options.results.shed_after_drops);
  EXPECT_GT(m.results.records_dropped, 0u);
  EXPECT_EQ(loop.connection_count(), 2u);  // ...but its connection lives.
  EXPECT_FALSE(slow->shut_down());
  EXPECT_EQ(loop.SnapshotMetrics().closed_slow, 0u);

  // The healthy session never felt it: ingest complete, lag flat.
  const int64_t lag_after = SessionLag(&service, 9);
  ASSERT_GE(lag_after, 0);
  EXPECT_LE(lag_after, lag_before);
  EXPECT_EQ(service.manager().SnapshotShards()[0].events_in, 900u);

  // Chunks sealed with no subscribers left are discarded, not queued.
  const uint64_t sent_before = m.results.chunks_sent;
  send_batch(20000);
  ASSERT_EQ(pump_ack(10), 10u);
  EXPECT_EQ(service.Snapshot().results.chunks_sent, sent_before);
}

// A subscriber killed mid-chunk (partial write, then reset) is fully
// unsubscribed by connection teardown; the exporter keeps serving the
// next subscriber with a fresh gap-free stream.
TEST(ResultStreamTest, MidChunkKillCleansUpSubscription) {
  ServiceOptions options = ManualResultOptions();
  IngestService service(options);
  EventLoop loop(&service, std::make_unique<ft::FaultyPoller>(ft::FaultSeed()),
                 EventLoopOptions{});

  auto t = std::make_unique<ft::FaultyTransport>();
  auto h = t->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(t)), 0u);
  h->InjectInbound(ResultSubscribeBytes(5, kResultFilterAll));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));
  ASSERT_EQ(service.Snapshot().results.subscribers, 1u);

  // Let one chunk start onto the wire, sliced small, then kill the peer
  // with bytes of the frame still queued.
  h->ScriptWrite({ft::FaultAction::Limit(10), ft::FaultAction::Eagain()});
  h->InjectInbound(EventsBytes(5, MakeEvents(50, 1000)));
  h->InjectInbound(PunctuationBytes(5, 1200));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return h->pending_inbound() == 0; }));
  service.manager().DrainShardForTest(0);
  loop.PollOnce(/*timeout_ms=*/5);
  h->KillNow();

  ASSERT_TRUE(PumpUntil(&loop, [&] { return loop.connection_count() == 0; }));
  EXPECT_EQ(service.Snapshot().results.subscribers, 0u);

  // Exporter is still healthy for the next subscriber.
  auto t2 = std::make_unique<ft::FaultyTransport>();
  auto h2 = t2->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(t2)), 0u);
  h2->InjectInbound(ResultSubscribeBytes(6, kResultFilterAll));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return h2->pending_inbound() == 0; }));
  EXPECT_EQ(service.Snapshot().results.subscribers, 1u);
  h2->InjectInbound(EventsBytes(6, MakeEvents(50, 5000)));
  h2->InjectInbound(PunctuationBytes(6, 5200));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return h2->pending_inbound() == 0; }));
  service.manager().DrainShardForTest(0);
  std::string out;
  ASSERT_TRUE(PumpUntil(&loop, [&] {
    out += h2->TakeOutput();
    return CountResultRecords(DecodeAll(out)) > 0;
  }));
  DeliveredStream delivered;
  AccumulateChunks(DecodeAll(out), &delivered);  // Seqs restart at 1.
  EXPECT_EQ(delivered.final_dropped, 0u);
}

// Cross-subscription isolation: one connection holds a telemetry AND a
// result subscription. A stall sheds the (low-threshold) telemetry
// subscription; the result stream on the same connection survives,
// resumes gap-free, and stays an ordered subsequence of the reference —
// and a healthy session's watermark lag never moves.
TEST(ResultStreamTest, SheddingTelemetryLeavesResultStreamIntact) {
  ResultReference ref;
  ServiceOptions options = ManualResultOptions();
  options.on_result = ref.Tap();
  options.telemetry.shed_after_drops = 2;    // Telemetry sheds fast.
  options.results.shed_after_drops = 1000;   // Results never shed here.
  IngestService service(options);
  EventLoopOptions opts;
  opts.telemetry_write_queue_bytes = 1000;
  EventLoop loop(&service, std::make_unique<ft::FaultyPoller>(ft::FaultSeed()),
                 opts);

  // Healthy ingest session (also the producer of the streamed results).
  auto fast_t = std::make_unique<ft::FaultyTransport>();
  auto fast = fast_t->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(fast_t)), 0u);
  std::string fast_replies;
  size_t batches = 0;
  auto send_batch = [&] {
    const Timestamp base = 1000 + static_cast<Timestamp>(batches) * 200;
    fast->InjectInbound(EventsBytes(9, MakeEvents(20, base)));
    fast->InjectInbound(PunctuationBytes(9, base + 150));
    Frame flush;
    flush.type = FrameType::kFlushSession;
    flush.session_id = 9;
    fast->InjectInbound(EncodeFrame(flush));
    ++batches;
    EXPECT_TRUE(
        PumpUntil(&loop, [&] { return fast->pending_inbound() == 0; }));
    service.manager().DrainShardForTest(0);
    size_t acks = 0;
    EXPECT_TRUE(PumpUntil(&loop, [&] {
      fast_replies += fast->TakeOutput();
      acks = 0;
      for (const Frame& f : DecodeAll(fast_replies)) {
        if (f.type == FrameType::kFlushAck) ++acks;
      }
      return acks >= batches;
    }));
  };
  send_batch();
  const int64_t lag_before = SessionLag(&service, 9);
  ASSERT_GE(lag_before, 0);

  // One connection, both subscriptions.
  auto sub_t = std::make_unique<ft::FaultyTransport>();
  auto sub = sub_t->NewHandle();
  ASSERT_NE(loop.AddConnection(std::move(sub_t)), 0u);
  {
    Frame f;
    f.type = FrameType::kSubscribeRequest;
    f.session_id = 5;
    f.telemetry_streams = kTelemetryMetrics;
    sub->InjectInbound(EncodeFrame(f));
  }
  sub->InjectInbound(ResultSubscribeBytes(5, kResultFilterAll));
  ASSERT_TRUE(PumpUntil(&loop, [&] { return sub->pending_inbound() == 0; }));
  ASSERT_EQ(service.Snapshot().telemetry.subscribers, 1u);
  ASSERT_EQ(service.Snapshot().results.subscribers, 1u);

  ft::SubscriberStallSchedule sched(
      sub.get(), {{/*stall_at_seq=*/1, /*resume_after_ticks=*/3}});
  std::string out;
  uint64_t max_seq = 0;
  auto observe = [&] {
    out += sub->TakeOutput();
    for (const Frame& f : DecodeAll(out)) {
      if (f.type == FrameType::kResultChunk) {
        max_seq = std::max(max_seq, f.result_seq);
      }
    }
    sched.Observe(max_seq);
  };

  int rounds = 0;
  while (!sched.done()) {
    ASSERT_LT(rounds++, 60) << "stall schedule never completed";
    send_batch();
    // Telemetry keeps ticking through the stall; its refusals at the
    // shared budget shed it while the result subscription rides out the
    // same window.
    service.telemetry().Tick(/*force_metrics=*/true);
    for (int j = 0; j < 10; ++j) loop.PollOnce(/*timeout_ms=*/5);
    observe();
    sched.Tick();
  }
  for (int i = 0; i < 4; ++i) {
    send_batch();
    for (int j = 0; j < 10; ++j) loop.PollOnce(/*timeout_ms=*/5);
    observe();
  }

  const ServerMetrics m = service.Snapshot();
  EXPECT_EQ(m.telemetry.subscribers, 0u);  // Telemetry was shed...
  EXPECT_EQ(m.telemetry.subscribers_shed, 1u);
  EXPECT_EQ(m.results.subscribers, 1u);  // ...results were not.
  EXPECT_EQ(m.results.subscribers_shed, 0u);
  EXPECT_EQ(loop.connection_count(), 2u);
  EXPECT_EQ(loop.SnapshotMetrics().closed_slow, 0u);

  service.Shutdown();
  ASSERT_TRUE(PumpUntil(&loop, [&] {
    out += sub->TakeOutput();
    const ServerMetrics snap = service.Snapshot();
    return CountResultRecords(DecodeAll(out)) +
               snap.results.records_dropped ==
           ref.Total();
  }));
  DeliveredStream delivered;
  AccumulateChunks(DecodeAll(out), &delivered);
  EXPECT_GT(delivered.chunks, 0u);
  const StreamMap reference = ref.Snapshot();
  for (const auto& [key, records] : delivered.streams) {
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_TRUE(IsOrderedSubsequence(records, it->second))
        << "result stream reordered while telemetry was being shed";
  }

  // The healthy session never felt any of it.
  const int64_t lag_after = SessionLag(&service, 9);
  ASSERT_GE(lag_after, 0);
  EXPECT_LE(lag_after, lag_before);
}

// Concurrency smoke (exercised under TSan by tools/check.sh): real shard
// workers stream to a live subscriber while two producer sessions ingest
// concurrently — after shutdown the delivered stream equals the
// reference exactly, per (shard, stream).
TEST(ResultStreamTest, WorkerThreadsStreamExactlyUnderConcurrentLoad) {
  ResultReference ref;
  ServiceOptions options;
  options.shards.num_shards = 2;
  options.telemetry.start_thread = false;
  options.on_result = ref.Tap();
  IngestService service(options);

  IngestClient sub(std::make_unique<LoopbackChannel>(&service));
  ASSERT_TRUE(sub.SubscribeResults(1, kResultFilterAll));

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (uint64_t session = 2; session <= 3; ++session) {
    producers.emplace_back([&, session] {
      IngestClient ingest(std::make_unique<LoopbackChannel>(&service));
      Timestamp base = 1000;
      while (!stop.load(std::memory_order_relaxed)) {
        ingest.SendEvents(session, MakeEvents(64, base));
        ingest.SendPunctuation(session, base + 200);
        base += 64;
      }
      ingest.FlushSession(session);
    });
  }

  // Poll the subscriber live while the producers run, then drain-and-
  // flush and collect the tail.
  std::vector<Frame> frames;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  Frame chunk;
  while (std::chrono::steady_clock::now() < deadline) {
    if (sub.PollResults(&chunk)) {
      frames.push_back(std::move(chunk));
      chunk = Frame{};
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& p : producers) p.join();
  ASSERT_TRUE(sub.Shutdown());
  for (Frame& f : DrainLoopbackResults(&sub)) frames.push_back(std::move(f));

  DeliveredStream delivered;
  AccumulateChunks(frames, &delivered);
  EXPECT_GT(delivered.chunks, 0u);
  EXPECT_EQ(delivered.final_dropped, 0u);
  EXPECT_EQ(delivered.records, ref.Total());
  EXPECT_EQ(delivered.streams, ref.Snapshot());
  const ServerMetrics m = service.Snapshot();
  EXPECT_EQ(m.results.chunks_dropped, 0u);
  EXPECT_EQ(m.results.records_streamed, ref.Total());
}

}  // namespace
}  // namespace server
}  // namespace impatience
