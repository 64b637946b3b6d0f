// SpillFlusher pool contracts: per-channel FIFO execution (the per-run
// ordering guarantee), cross-channel concurrency, the Wait durability
// barrier, bounded in-flight bytes with blocking backpressure (including
// the single-oversized-job admission that keeps progress possible), and
// channel poisoning — one failed job skips everything later on that
// channel while other channels keep flowing — and the zero-thread inline
// mode.

#include "storage/spill_flusher.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace impatience {
namespace storage {
namespace {

TEST(SpillFlusherTest, SingleChannelRunsJobsInFifoOrder) {
  SpillFlusher::Options options;
  options.threads = 4;  // Many workers; one channel must still serialize.
  SpillFlusher flusher(options);
  auto channel = flusher.NewChannel();

  // Jobs on one channel run one at a time in enqueue order, so the vector
  // needs no lock — the pool's internal handoff orders the writes.
  std::vector<int> order;
  constexpr int kJobs = 200;
  for (int i = 0; i < kJobs; ++i) {
    channel->Enqueue(
        [&order, i]() {
          order.push_back(i);
          return true;
        },
        /*bytes=*/64);
  }
  channel->Wait();

  ASSERT_EQ(order.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(order[i], i);
  EXPECT_FALSE(channel->failed());

  const SpillFlusher::Stats stats = flusher.stats();
  EXPECT_EQ(stats.jobs_run, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.async_flushes, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(stats.inflight_bytes, 0u);  // Every byte was released.
}

TEST(SpillFlusherTest, ChannelsInterleaveButEachStaysOrdered) {
  SpillFlusher::Options options;
  options.threads = 3;
  SpillFlusher flusher(options);

  constexpr int kChannels = 4;
  constexpr int kJobsPer = 64;
  std::vector<std::shared_ptr<SpillFlusher::Channel>> channels;
  std::vector<std::vector<int>> orders(kChannels);
  for (int c = 0; c < kChannels; ++c) channels.push_back(flusher.NewChannel());
  for (int i = 0; i < kJobsPer; ++i) {
    for (int c = 0; c < kChannels; ++c) {
      channels[c]->Enqueue(
          [&orders, c, i]() {
            orders[c].push_back(i);
            return true;
          },
          /*bytes=*/16);
    }
  }
  for (auto& ch : channels) ch->Wait();

  for (int c = 0; c < kChannels; ++c) {
    ASSERT_EQ(orders[c].size(), static_cast<size_t>(kJobsPer)) << "ch " << c;
    for (int i = 0; i < kJobsPer; ++i) {
      ASSERT_EQ(orders[c][i], i) << "ch " << c;
    }
  }
}

TEST(SpillFlusherTest, WaitIsACompletionBarrier) {
  SpillFlusher::Options options;
  options.threads = 2;
  SpillFlusher flusher(options);
  auto channel = flusher.NewChannel();

  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    channel->Enqueue(
        [&done]() {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          done.fetch_add(1, std::memory_order_relaxed);
          return true;
        },
        /*bytes=*/8);
  }
  channel->Wait();
  EXPECT_EQ(done.load(), 32);
}

TEST(SpillFlusherTest, EnqueueBlocksWhileInflightCapExceeded) {
  SpillFlusher::Options options;
  options.threads = 1;
  options.max_inflight_bytes = 1000;
  SpillFlusher flusher(options);
  auto channel = flusher.NewChannel();

  // Job 1 parks on a gate while holding 800 in-flight bytes; enqueueing a
  // second 800-byte job must block until job 1 releases its bytes.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  channel->Enqueue(
      [&]() {
        std::unique_lock<std::mutex> lock(gate_mu);
        gate_cv.wait(lock, [&]() { return gate_open; });
        return true;
      },
      /*bytes=*/800);

  std::atomic<bool> second_enqueued{false};
  std::thread producer([&]() {
    channel->Enqueue([]() { return true; }, /*bytes=*/800);
    second_enqueued.store(true, std::memory_order_release);
  });

  // The producer must still be parked in Enqueue — the cap is exceeded
  // and the first job cannot finish until the gate opens.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_enqueued.load(std::memory_order_acquire));

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  producer.join();
  EXPECT_TRUE(second_enqueued.load());
  channel->Wait();

  EXPECT_GE(flusher.stats().backpressure_waits, 1u);
  EXPECT_EQ(flusher.stats().inflight_bytes, 0u);
}

TEST(SpillFlusherTest, OversizedJobIsAdmittedWhenPoolIsEmpty) {
  SpillFlusher::Options options;
  options.threads = 1;
  options.max_inflight_bytes = 16;  // Far smaller than the job below.
  SpillFlusher flusher(options);
  auto channel = flusher.NewChannel();

  // A single job larger than the whole cap must not deadlock: when
  // nothing is in flight the pool admits it so progress is always
  // possible (the block already exists; refusing it helps no one).
  std::atomic<bool> ran{false};
  channel->Enqueue(
      [&ran]() {
        ran.store(true, std::memory_order_release);
        return true;
      },
      /*bytes=*/1 << 20);
  channel->Wait();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(flusher.stats().inflight_bytes, 0u);
}

TEST(SpillFlusherTest, FailedJobPoisonsItsChannelOnly) {
  SpillFlusher::Options options;
  options.threads = 2;
  SpillFlusher flusher(options);
  auto poisoned = flusher.NewChannel();
  auto healthy = flusher.NewChannel();

  std::atomic<int> poisoned_ran{0};
  std::atomic<int> healthy_ran{0};
  poisoned->Enqueue(
      [&poisoned_ran]() {
        poisoned_ran.fetch_add(1);
        return true;
      },
      8);
  poisoned->Enqueue([]() { return false; }, 8);  // The I/O failure.
  for (int i = 0; i < 5; ++i) {
    // Enqueued after the failure: must be skipped, never run — a torn
    // append may not be followed by writes at wrong offsets.
    poisoned->Enqueue(
        [&poisoned_ran]() {
          poisoned_ran.fetch_add(1);
          return true;
        },
        8);
    healthy->Enqueue(
        [&healthy_ran]() {
          healthy_ran.fetch_add(1);
          return true;
        },
        8);
  }
  poisoned->Wait();  // Wait covers skipped jobs too.
  healthy->Wait();

  EXPECT_TRUE(poisoned->failed());
  EXPECT_FALSE(healthy->failed());
  EXPECT_EQ(poisoned_ran.load(), 1);  // Only the pre-failure job ran.
  EXPECT_EQ(healthy_ran.load(), 5);

  const SpillFlusher::Stats stats = flusher.stats();
  // jobs_run counts skipped jobs; async_flushes only successes: 1 run
  // pre-poison + 5 healthy = 6 successes of 12 total jobs.
  EXPECT_EQ(stats.jobs_run, 12u);
  EXPECT_EQ(stats.async_flushes, 6u);
  EXPECT_EQ(stats.inflight_bytes, 0u);  // Skipped bytes released too.
}

TEST(SpillFlusherTest, DestructorDrainsQueuedJobs) {
  std::atomic<int> ran{0};
  {
    SpillFlusher::Options options;
    options.threads = 2;
    SpillFlusher flusher(options);
    auto a = flusher.NewChannel();
    auto b = flusher.NewChannel();
    for (int i = 0; i < 50; ++i) {
      a->Enqueue(
          [&ran]() {
            ran.fetch_add(1);
            return true;
          },
          4);
      b->Enqueue(
          [&ran]() {
            ran.fetch_add(1);
            return true;
          },
          4);
    }
    // No Wait: the destructor must finish every queued job before joining
    // (spill blocks whose writes it carries are not optional).
  }
  EXPECT_EQ(ran.load(), 100);
}

// Zero threads is the inline flusher: each job runs on the enqueuing
// thread before Enqueue returns, Wait has nothing to wait for, and the
// poison rule is the pool's — a failed job skips the later jobs of its
// own channel only.
TEST(SpillFlusherTest, ZeroThreadsRunsJobsInlineOnTheCaller) {
  SpillFlusher::Options options;
  options.threads = 0;
  SpillFlusher flusher(options);
  EXPECT_EQ(flusher.threads(), 0u);
  auto poisoned = flusher.NewChannel();
  auto healthy = flusher.NewChannel();

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  const auto job = [&ran_on]() {
    ran_on.push_back(std::this_thread::get_id());
    return true;
  };
  poisoned->Enqueue(job, 8);
  ASSERT_EQ(ran_on.size(), 1u);  // Ran before Enqueue returned.
  EXPECT_EQ(ran_on[0], caller);
  poisoned->Wait();  // Returns at once: nothing is queued.

  poisoned->Enqueue([]() { return false; }, 8);  // The I/O failure.
  EXPECT_TRUE(poisoned->failed());
  for (int i = 0; i < 3; ++i) {
    poisoned->Enqueue(job, 8);  // Skipped, never run.
    healthy->Enqueue(job, 8);
  }
  poisoned->Wait();
  healthy->Wait();
  EXPECT_EQ(ran_on.size(), 4u);  // 1 pre-failure + 3 healthy.
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
  EXPECT_FALSE(healthy->failed());

  const SpillFlusher::Stats stats = flusher.stats();
  EXPECT_EQ(stats.jobs_run, 8u);  // Skipped jobs count, as with threads.
  EXPECT_EQ(stats.async_flushes, 4u);
  EXPECT_EQ(stats.inflight_bytes, 0u);
}

}  // namespace
}  // namespace storage
}  // namespace impatience
