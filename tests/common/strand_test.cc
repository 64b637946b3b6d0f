// Strand semantics: jobs run in posting order and never overlap, a serial
// pool runs them inline at Post, a full queue with no drain running is
// drained by the poster (caller-runs), and Wait returns only after every
// posted job has run.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/thread_pool.h"

namespace impatience {
namespace {

// A latch the test opens once; tasks parked on it hold their worker.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(StrandTest, RunsJobsInPostingOrder) {
  ThreadPool pool(4);
  Strand strand(&pool);
  EXPECT_FALSE(strand.runs_inline());
  std::vector<int> order;  // Touched only by jobs: the strand serializes.
  constexpr int kJobs = 2000;
  for (int i = 0; i < kJobs; ++i) {
    strand.Post([&order, i] { order.push_back(i); });
  }
  strand.Wait();
  ASSERT_EQ(order.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(order[i], i);
}

TEST(StrandTest, JobsNeverOverlap) {
  ThreadPool pool(8);
  Strand strand(&pool);
  std::atomic<int> active{0};
  std::atomic<int> overlaps{0};
  uint64_t unguarded = 0;  // A race here is what TSan would report.
  constexpr int kProducers = 4;
  constexpr int kJobsEach = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kJobsEach; ++i) {
        strand.Post([&, i] {
          if (active.fetch_add(1, std::memory_order_acq_rel) != 0) {
            overlaps.fetch_add(1, std::memory_order_relaxed);
          }
          ++unguarded;
          if (i % 64 == 0) std::this_thread::yield();
          active.fetch_sub(1, std::memory_order_acq_rel);
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  strand.Wait();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(unguarded, static_cast<uint64_t>(kProducers * kJobsEach));
}

TEST(StrandTest, SerialPoolRunsInlineAtPost) {
  ThreadPool pool(1);
  LatencyHistogram job_ns;
  Strand strand(&pool, &job_ns);
  EXPECT_TRUE(strand.runs_inline());
  const std::thread::id self = std::this_thread::get_id();
  int ran = 0;
  for (int i = 0; i < 3 * static_cast<int>(Strand::kMaxQueued); ++i) {
    strand.Post([&] {
      EXPECT_EQ(std::this_thread::get_id(), self);
      ++ran;
    });
    ASSERT_EQ(ran, i + 1);  // Already ran when Post returned.
  }
  strand.Wait();
  EXPECT_EQ(job_ns.count(), static_cast<uint64_t>(ran));

  Strand no_pool(nullptr);
  EXPECT_TRUE(no_pool.runs_inline());
  bool done = false;
  no_pool.Post([&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(StrandTest, FullQueueRunsOnCallerWhileWorkersAreParked) {
  ThreadPool pool(3);  // Two workers.
  Gate gate;
  std::atomic<int> parked{0};
  TaskGroup group(&pool);
  for (size_t i = 0; i + 1 < pool.thread_count(); ++i) {
    group.Run([&] {
      parked.fetch_add(1, std::memory_order_acq_rel);
      gate.Pass();
    });
  }
  while (parked.load(std::memory_order_acquire) <
         static_cast<int>(pool.thread_count() - 1)) {
    std::this_thread::yield();
  }

  // Every worker is parked, so the drain task the first Post schedules
  // cannot start: the first kMaxQueued jobs stay queued.
  Strand strand(&pool);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  for (size_t i = 0; i < Strand::kMaxQueued; ++i) {
    strand.Post([&] { ran_on.push_back(std::this_thread::get_id()); });
  }
  EXPECT_TRUE(ran_on.empty());
  // The queue is full and no drain is running: this Post runs the backlog
  // on the calling thread before queueing its own job.
  strand.Post([&] { ran_on.push_back(std::this_thread::get_id()); });
  ASSERT_EQ(ran_on.size(), Strand::kMaxQueued);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, self);

  gate.Open();
  group.Wait();
  strand.Wait();
  EXPECT_EQ(ran_on.size(), Strand::kMaxQueued + 1);
}

TEST(StrandTest, WaitReturnsAfterEveryPostedJob) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> done{0};
    LatencyHistogram job_ns;
    {
      Strand strand(&pool, &job_ns);
      const int jobs = 1 + round % 20;
      for (int i = 0; i < jobs; ++i) {
        strand.Post([&done, i] {
          if (i % 4 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      strand.Wait();
      EXPECT_EQ(done.load(), jobs);
      EXPECT_EQ(job_ns.count(), static_cast<uint64_t>(jobs));
      // Posts after a Wait run too; the destructor waits for them, and
      // destroying the strand right after must be safe.
      strand.Post([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(done.load(), 2 + round % 20);
  }
}

}  // namespace
}  // namespace impatience
