// Snapshot-and-reset conservation under live shard workers: metrics
// sampled with reset_sorter_counters=true while producers and shard
// pipelines run concurrently must, summed across all snapshots, equal the
// totals — no sample lost in a read-then-reset window, none double
// counted. This is the race ISSUE 4's single-op snapshot closes; the TSan
// pass of tools/check.sh runs this test multi-threaded.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/timestamp.h"
#include "server/session_shard_manager.h"

namespace impatience {
namespace server {
namespace {

Event MakeEvent(Timestamp sync, int32_t key) {
  Event e;
  e.sync_time = sync;
  e.other_time = sync;
  e.key = key;
  e.hash = HashKey(key);
  return e;
}

ShardManagerOptions TestOptions(size_t shards) {
  ShardManagerOptions options;
  options.num_shards = shards;
  options.queue_capacity = 64;
  options.backpressure = BackpressurePolicy::kBlock;  // Lossless.
  // The last band's latency must exceed any event-time skew between the
  // producer threads (scheduling-dependent), or the partition drops the
  // laggard's events as late and conservation can't be asserted exactly.
  options.framework.reorder_latencies = {100, 1 << 30};
  options.framework.punctuation_period = 256;
  return options;
}

TEST(ShardSnapshotResetTest, ConcurrentResettingSnapshotsConserveCounts) {
  constexpr size_t kShards = 2;
  constexpr uint64_t kSessions = 4;
  constexpr size_t kFrames = 200;
  constexpr size_t kEventsPerFrame = 64;

  SessionShardManager manager(TestOptions(kShards));

  std::atomic<bool> done{false};
  ImpatienceCounters drained;
  HistogramSnapshot queue_wait;
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (ShardMetrics& m : manager.SnapshotShards(true)) {
        drained += m.sorter;
        queue_wait += m.queue_wait;
      }
      std::this_thread::yield();
    }
  });

  // Two producers, disjoint session sets, in-order per session (so no
  // event is ever dropped late: every push must surface in the counters).
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&manager, p] {
      for (size_t f = 0; f < kFrames; ++f) {
        Frame frame;
        frame.type = FrameType::kEvents;
        frame.session_id =
            static_cast<uint64_t>(p) * (kSessions / 2) + f % (kSessions / 2);
        const Timestamp base = static_cast<Timestamp>(f * kEventsPerFrame);
        for (size_t i = 0; i < kEventsPerFrame; ++i) {
          frame.events.push_back(MakeEvent(base + static_cast<Timestamp>(i),
                                           static_cast<int32_t>(i)));
        }
        // kBlocked is a successful (lossless) enqueue that had to wait.
        const QueuePush push = manager.Submit(std::move(frame)).push;
        ASSERT_TRUE(push == QueuePush::kOk || push == QueuePush::kBlocked);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  manager.Shutdown();  // Drain-and-flush: every frame fully applied.
  done.store(true, std::memory_order_release);
  sampler.join();

  // Whatever landed after the sampler's last pass.
  uint64_t dropped_late = 0;  // Cumulative, never reset by snapshots.
  for (ShardMetrics& m : manager.SnapshotShards(true)) {
    drained += m.sorter;
    queue_wait += m.queue_wait;
    dropped_late += m.dropped_late;
  }

  const uint64_t total_events = 2 * kFrames * kEventsPerFrame;
  // Every event was either dropped late by the partition (none, given the
  // wide last band — but account for it so the invariant is exact) or
  // pushed into exactly one band sorter.
  EXPECT_EQ(drained.pushes + dropped_late, total_events);
  // Every processed data frame waited in a queue exactly once.
  EXPECT_EQ(queue_wait.count(), 2 * kFrames);
  EXPECT_GT(drained.punct_to_emit.count(), 0u);

  // Fully drained: one more resetting snapshot sees zeros.
  for (ShardMetrics& m : manager.SnapshotShards(true)) {
    EXPECT_EQ(m.sorter.pushes, 0u);
    EXPECT_EQ(m.sorter.punct_to_emit.count(), 0u);
    EXPECT_EQ(m.queue_wait.count(), 0u);
  }
}

TEST(ShardSnapshotResetTest, WatermarksTrackSessionsAndFrontier) {
  SessionShardManager manager(TestOptions(1));

  // Two sessions on the one shard; session 1 runs far ahead of session 2.
  for (uint64_t session = 1; session <= 2; ++session) {
    Frame frame;
    frame.type = FrameType::kEvents;
    frame.session_id = session;
    const Timestamp top = session == 1 ? 100000 : 50000;
    for (Timestamp t = 0; t <= top; t += 1000) {
      frame.events.push_back(MakeEvent(t, 1));
    }
    const QueuePush push = manager.Submit(std::move(frame)).push;
    ASSERT_TRUE(push == QueuePush::kOk || push == QueuePush::kBlocked);
  }
  manager.Shutdown();

  const std::vector<ShardMetrics> shards = manager.SnapshotShards();
  ASSERT_EQ(shards.size(), 1u);
  const ShardMetrics& m = shards[0];
  ASSERT_EQ(m.watermarks.size(), 2u);
  // Sorted worst-lag first; session 1 sent later data, so it lags more
  // (same shard frontier for both).
  EXPECT_EQ(m.watermarks[0].session_id, 1u);
  EXPECT_EQ(m.watermarks[0].max_sync_time, 100000);
  EXPECT_GE(m.watermarks[0].lag, m.watermarks[1].lag);
  EXPECT_EQ(m.max_watermark_lag, m.watermarks[0].lag);
  for (const SessionWatermark& w : m.watermarks) {
    EXPECT_GE(w.lag, 0);
    EXPECT_EQ(w.label, std::to_string(w.session_id));
  }
}

TEST(ShardSnapshotResetTest, BurstBoundaryFlushIsTimedAsDrainStall) {
  // One sub-batch frame and then an idle queue: the worker applies the
  // frame, finds nothing else queued, and flushes the half-filled batch.
  // That flush is shard busy time too, so drain_stall holds two samples.
  SessionShardManager manager(TestOptions(1));
  Frame frame;
  frame.type = FrameType::kEvents;
  frame.session_id = 1;
  for (Timestamp t = 0; t < 10; ++t) frame.events.push_back(MakeEvent(t, 1));
  const QueuePush push = manager.Submit(std::move(frame)).push;
  ASSERT_TRUE(push == QueuePush::kOk || push == QueuePush::kBlocked);
  manager.Shutdown();

  const std::vector<ShardMetrics> shards = manager.SnapshotShards();
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].queue_wait.count(), 1u);
  EXPECT_EQ(shards[0].drain_stall.count(), 2u);
}

// Runs one session's disordered events through a fresh single-shard
// manager, optionally preceded by a kFlushSession, and returns the
// (sync_time, key) sequence the pipeline emitted.
std::vector<std::pair<Timestamp, int32_t>> RunSession(bool flush_first,
                                                      uint64_t* dropped) {
  std::vector<std::pair<Timestamp, int32_t>> out;
  ShardManagerOptions options = TestOptions(1);
  options.manual_drain = true;
  SessionShardManager manager(options,
                              [&out](size_t, size_t, const Event& e) {
                                out.emplace_back(e.sync_time, e.key);
                              });
  auto submit = [&manager](Frame frame) {
    frame.session_id = 7;
    ASSERT_EQ(manager.Submit(std::move(frame)).push, QueuePush::kOk);
  };
  if (flush_first) {
    Frame flush;
    flush.type = FrameType::kFlushSession;
    submit(std::move(flush));
  }
  Frame events;
  events.type = FrameType::kEvents;
  for (Timestamp t = 0; t < 2000; ++t) {
    const Timestamp sync = t % 10 == 0 ? std::max<Timestamp>(0, t - 50) : t;
    events.events.push_back(MakeEvent(sync, static_cast<int32_t>(t)));
  }
  submit(std::move(events));
  manager.DrainShardForTest(0);
  manager.Shutdown();
  *dropped = manager.SnapshotShards()[0].dropped_late;
  return out;
}

TEST(ShardSnapshotResetTest, FlushBeforeFirstEventMatchesFreshShard) {
  // A kFlushSession that reaches a shard before any event forces a
  // punctuation round with no watermark yet; it must leave the shard
  // exactly as a fresh one, not late-drop everything that follows.
  uint64_t fresh_dropped = 0;
  uint64_t flushed_dropped = 0;
  const auto fresh = RunSession(/*flush_first=*/false, &fresh_dropped);
  const auto flushed = RunSession(/*flush_first=*/true, &flushed_dropped);
  EXPECT_EQ(fresh_dropped, 0u);
  EXPECT_EQ(flushed_dropped, 0u);
  EXPECT_EQ(fresh.size(), 2000u);
  EXPECT_EQ(flushed, fresh);
}

}  // namespace
}  // namespace server
}  // namespace impatience
