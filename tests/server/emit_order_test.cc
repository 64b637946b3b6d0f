// Ordering across a shard's two stages. The shard thread sorts; the emit
// strand runs the union chain, on_result, progress reports and flush acks.
// A kFlushAck must follow every record its flush's punctuation released,
// and a progress report must follow every record its burst released, even
// when the strand drains on pool workers.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/timestamp.h"
#include "framework/impatience_framework.h"
#include "server/client.h"
#include "server/ingest_service.h"
#include "server/session_shard_manager.h"

namespace impatience {
namespace server {
namespace {

constexpr Timestamp kLatencySmall = 10;
constexpr Timestamp kLatencyLarge = 1000;

FrameworkOptions OrderFramework(ThreadPool* pool) {
  FrameworkOptions options;
  options.reorder_latencies = {kLatencySmall, kLatencyLarge};
  options.punctuation_period = 300;
  options.sorter_config.thread_pool = pool;
  return options;
}

// In-order events with sync times [begin, end): none is late, so after a
// band punctuates at p it has released exactly the events at or below p.
std::vector<Event> InOrder(Timestamp begin, Timestamp end) {
  std::vector<Event> events;
  for (Timestamp t = begin; t < end; ++t) {
    Event e;
    e.sync_time = t;
    e.other_time = t;
    e.key = static_cast<int32_t>(t % 7);
    e.hash = HashKey(e.key);
    events.push_back(e);
  }
  return events;
}

// Records released at or below `frontier` when sync times start at 0.
uint64_t ReleasedUpTo(Timestamp frontier) {
  return frontier < 0 ? 0 : static_cast<uint64_t>(frontier) + 1;
}

TEST(EmitOrderTest, FlushAckFollowsTheRecordsItsPunctuationReleased) {
  ThreadPool pool(4);
  std::mutex mu;
  uint64_t records = 0;
  ServiceOptions options;
  options.shards.num_shards = 1;
  options.shards.queue_capacity = 16;
  options.shards.framework = OrderFramework(&pool);
  options.on_result = [&](size_t, size_t, const Event&) {
    std::lock_guard<std::mutex> lock(mu);
    ++records;
  };
  IngestService service(options);
  IngestClient client(std::make_unique<LoopbackChannel>(&service));

  constexpr uint64_t kSession = 3;
  constexpr Timestamp kRound = 1000;
  for (Timestamp round = 0; round < 40; ++round) {
    for (Timestamp t = round * kRound; t < (round + 1) * kRound; t += 250) {
      ASSERT_TRUE(client.SendEvents(kSession, InOrder(t, t + 250)));
    }
    // The flush punctuates the final stream at H - kLatencyLarge, where H
    // is the largest sync time sent; its ack returns only after the
    // records that punctuation released reached on_result.
    ASSERT_TRUE(client.FlushSession(kSession));
    const Timestamp high = (round + 1) * kRound - 1;
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(records, ReleasedUpTo(high - kLatencyLarge))
        << "round " << round;
  }
  ASSERT_TRUE(client.Shutdown());
  EXPECT_EQ(records, static_cast<uint64_t>(40 * kRound));
}

// Per-shard log of what the emit stage delivered, checked as it happens.
struct ShardLog {
  std::atomic<int> in_callback{0};
  std::atomic<int> overlaps{0};
  uint64_t band0_records = 0;  // Stream 0: band 0's sorted output.
  uint64_t progress_reports = 0;
  uint64_t progress_mismatches = 0;

  void Enter() {
    if (in_callback.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlaps.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Leave() { in_callback.fetch_sub(1, std::memory_order_acq_rel); }
};

TEST(EmitOrderTest, ProgressNeverOvertakesTheResultsOfItsBurst) {
  ThreadPool pool(4);
  constexpr size_t kShards = 2;
  ShardLog logs[kShards];
  ShardManagerOptions options;
  options.num_shards = kShards;
  options.queue_capacity = 8;
  options.framework = OrderFramework(&pool);
  options.subscribe_all_streams = true;
  SessionShardManager manager(
      options,
      [&](size_t shard, size_t stream, const Event&) {
        ShardLog& log = logs[shard];
        log.Enter();
        if (stream == 0) ++log.band0_records;
        log.Leave();
      },
      {},
      [&](size_t shard, Timestamp frontier) {
        // The frontier is band 0's punctuation: every band-0 record at or
        // below it was posted before this report. (The shutdown flush
        // releases the rest without moving the frontier, hence "at least".)
        ShardLog& log = logs[shard];
        log.Enter();
        ++log.progress_reports;
        if (frontier != kMinTimestamp &&
            log.band0_records < ReleasedUpTo(frontier)) {
          ++log.progress_mismatches;
        }
        log.Leave();
      });

  // One session per shard, each fed by its own producer thread.
  std::vector<uint64_t> sessions;
  for (uint64_t id = 1; sessions.size() < kShards; ++id) {
    if (manager.ShardOf(id) == sessions.size()) sessions.push_back(id);
  }
  constexpr Timestamp kEvents = 60000;
  std::vector<std::thread> producers;
  for (uint64_t session : sessions) {
    producers.emplace_back([&manager, session] {
      for (Timestamp t = 0; t < kEvents; t += 100) {
        Frame frame;
        frame.session_id = session;
        frame.events = InOrder(t, t + 100);
        manager.Submit(std::move(frame));
        if (t % 1700 == 0) {
          Frame punct;
          punct.type = FrameType::kPunctuation;
          punct.session_id = session;
          punct.punctuation = t;
          manager.Submit(std::move(punct));
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  manager.Shutdown();

  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(logs[s].overlaps.load(), 0) << "shard " << s;
    EXPECT_GT(logs[s].progress_reports, 0u) << "shard " << s;
    EXPECT_EQ(logs[s].progress_mismatches, 0u) << "shard " << s;
    EXPECT_EQ(logs[s].band0_records, static_cast<uint64_t>(kEvents))
        << "shard " << s;
  }
}

}  // namespace
}  // namespace server
}  // namespace impatience
