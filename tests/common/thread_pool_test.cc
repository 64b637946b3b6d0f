// Thread pool semantics: serial pools run inline in submission order,
// ParallelFor covers its range exactly once with disjoint chunks, TaskGroup
// joins everything including nested fork/join, and the whole machinery
// survives a randomized stress run; thread counts from flags and the
// environment parse and clamp by one rule.

#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace impatience {
namespace {

// The one parse-and-clamp rule for every thread count taken from a flag
// or the environment. Parsing starts no threads.
TEST(ParseThreadCountTest, ClampsAndRejects) {
  EXPECT_EQ(ParseThreadCount("0"), std::optional<size_t>(0));
  EXPECT_EQ(ParseThreadCount("4"), std::optional<size_t>(4));
  EXPECT_EQ(ParseThreadCount("100000"), std::optional<size_t>(kMaxThreads));
  EXPECT_EQ(ParseThreadCount("99999999999999999999999"),
            std::optional<size_t>(kMaxThreads));
  EXPECT_EQ(ParseThreadCount("-3"), std::nullopt);
  EXPECT_EQ(ParseThreadCount("abc"), std::nullopt);
  EXPECT_EQ(ParseThreadCount("4x"), std::nullopt);
  EXPECT_EQ(ParseThreadCount(""), std::nullopt);
  EXPECT_EQ(ParseThreadCount(nullptr), std::nullopt);
}

TEST(ThreadPoolTest, SerialPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> order;
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([&order, i] { order.push_back(i); });
    // Inline execution: the task has already run when Run returns.
    ASSERT_EQ(order.size(), static_cast<size_t>(i + 1));
  }
  group.Wait();
  std::vector<int> want(8);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(ThreadPoolTest, TaskGroupJoinsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 200; ++i) {
      group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
    EXPECT_EQ(count.load(), 200);
  }
}

TEST(ThreadPoolTest, DestructorWaits) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 50; ++i) {
      group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No explicit Wait: ~TaskGroup must join.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, TasksCanSpawnTasksIntoTheSameGroup) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Run([&group, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, NestedForkJoin) {
  // Tasks that fork and join groups of their own (a merge task splitting
  // its subtree): inner groups must join without starving the pool even
  // when every worker is inside a Wait.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.Run([&pool, &count] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.Run([&count] {
          count.fetch_add(1, std::memory_order_relaxed);
        });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(10000, 0);
  // Chunks are disjoint, so unsynchronized increments are race-free.
  ParallelFor(
      0, hits.size(), 64,
      [&hits](size_t lo, size_t hi) {
        ASSERT_LE(lo, hi);
        for (size_t i = lo; i < hi; ++i) ++hits[i];
      },
      &pool);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEdgeCases) {
  ThreadPool pool(2);
  int calls = 0;
  // Empty range: fn never called.
  ParallelFor(5, 5, 1, [&calls](size_t, size_t) { ++calls; }, &pool);
  EXPECT_EQ(calls, 0);
  // Range within one grain: a single inline call with the exact bounds.
  ParallelFor(
      3, 7, 10,
      [&calls](size_t lo, size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 3u);
        EXPECT_EQ(hi, 7u);
      },
      &pool);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, GlobalPoolExists) {
  ThreadPool& pool = ThreadPool::Global();
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  group.Run([&count] { count.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SetGlobalThreadsResizes) {
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().thread_count(), 3u);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::Global().thread_count(), 1u);
}

TEST(ThreadPoolTest, StressManyGroups) {
  ThreadPool pool(8);
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    const int n = 1 + static_cast<int>(rng.NextBelow(64));
    std::atomic<uint64_t> sum{0};
    TaskGroup group(&pool);
    uint64_t want = 0;
    for (int i = 0; i < n; ++i) {
      const uint64_t v = rng.NextBelow(1000);
      want += v;
      group.Run([&sum, v] { sum.fetch_add(v, std::memory_order_relaxed); });
    }
    group.Wait();
    ASSERT_EQ(sum.load(), want) << "round " << round;
  }
}

}  // namespace
}  // namespace impatience
