#include "common/bounded_queue.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace impatience {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedMpscQueue<int> q(4);
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(2), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(3), QueuePush::kOk);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(q.TryPop(&v));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
}

TEST(BoundedQueueTest, TryPushRejectsWhenFull) {
  BoundedMpscQueue<int> q(2);
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(2), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(3), QueuePush::kRejected);
  EXPECT_EQ(q.size(), 2u);  // The rejected item was not enqueued.
}

TEST(BoundedQueueTest, ShedEvictsOldest) {
  BoundedMpscQueue<int> q(2);
  std::optional<int> shed;
  EXPECT_EQ(q.PushShedOldest(1, &shed), QueuePush::kOk);
  EXPECT_EQ(q.PushShedOldest(2, &shed), QueuePush::kOk);
  EXPECT_FALSE(shed.has_value());
  EXPECT_EQ(q.PushShedOldest(3, &shed), QueuePush::kShed);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(*shed, 1);  // Oldest out; freshest data wins.
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 3);
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedMpscQueue<int> q(4);
  EXPECT_EQ(q.TryPush(1), QueuePush::kOk);
  EXPECT_EQ(q.TryPush(2), QueuePush::kOk);
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.TryPush(3), QueuePush::kClosed);
  EXPECT_EQ(q.PushBlock(3), QueuePush::kClosed);
  std::optional<int> shed;
  EXPECT_EQ(q.PushShedOldest(3, &shed), QueuePush::kClosed);
  // Close never discards: both queued items drain before Pop fails.
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));
}

TEST(BoundedQueueTest, PopForTimesOutThenPopsThenReportsClosed) {
  BoundedMpscQueue<int> q(2);
  int v = 0;
  EXPECT_EQ(q.PopFor(&v, std::chrono::milliseconds(1)), QueuePop::kTimedOut);
  EXPECT_EQ(q.TryPush(7), QueuePush::kOk);
  q.Close();
  // Close never discards: the queued item still pops, then kClosed.
  EXPECT_EQ(q.PopFor(&v, std::chrono::milliseconds(1)), QueuePop::kItem);
  EXPECT_EQ(v, 7);
  EXPECT_EQ(q.PopFor(&v, std::chrono::hours(1)), QueuePop::kClosed);
}

TEST(BoundedQueueTest, PopForWakesOnPush) {
  BoundedMpscQueue<int> q(2);
  std::thread producer([&q] { EXPECT_EQ(q.PushBlock(5), QueuePush::kOk); });
  int v = 0;
  EXPECT_EQ(q.PopFor(&v, std::chrono::hours(1)), QueuePop::kItem);
  EXPECT_EQ(v, 5);
  producer.join();
}

TEST(BoundedQueueTest, BlockedProducerResumesWhenConsumerDrains) {
  BoundedMpscQueue<int> q(1);
  ASSERT_EQ(q.PushBlock(1), QueuePush::kOk);
  QueuePush second = QueuePush::kOk;
  std::thread producer([&q, &second] { second = q.PushBlock(2); });
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // Frees the slot the producer is waiting on.
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));  // Blocks until the producer lands item 2.
  EXPECT_EQ(v, 2);
  producer.join();
  // kBlocked if the producer hit the full queue before our first Pop,
  // kOk if it was scheduled after; either way the item was delivered.
  EXPECT_TRUE(second == QueuePush::kBlocked || second == QueuePush::kOk);
}

TEST(BoundedQueueTest, BlockedProducerReleasedByClose) {
  BoundedMpscQueue<int> q(1);
  ASSERT_EQ(q.PushBlock(1), QueuePush::kOk);
  QueuePush second = QueuePush::kOk;
  std::thread producer([&q, &second] { second = q.PushBlock(2); });
  q.Close();
  producer.join();
  EXPECT_EQ(second, QueuePush::kClosed);
}

TEST(BoundedQueueTest, ManyProducersOneConsumer) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  BoundedMpscQueue<int> q(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_NE(q.PushBlock(p * kPerProducer + i), QueuePush::kClosed);
      }
    });
  }
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  std::thread consumer([&q, &seen] {
    int v = 0;
    while (q.Pop(&v)) seen.push_back(v);
  });
  for (std::thread& t : producers) t.join();
  q.Close();
  consumer.join();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
  // Every item arrives exactly once; per-producer order is preserved.
  std::vector<int> last(kProducers, -1);
  for (const int v : seen) {
    const int p = v / kPerProducer;
    EXPECT_GT(v % kPerProducer, last[p]);
    last[p] = v % kPerProducer;
  }
}

}  // namespace
}  // namespace impatience
