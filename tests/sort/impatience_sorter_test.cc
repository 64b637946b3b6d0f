// ImpatienceSorter semantics: the punctuation contract, run cleanup
// (Figure 5's behaviour), the SRS fast path, late-event handling, and
// memory accounting.

#include "sort/impatience_sorter.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/testing/sequences.h"
#include "workload/generators.h"

namespace impatience {
namespace {

using Sorter = ImpatienceSorter<Timestamp, IdentityTimeOf>;

TEST(ImpatienceSorterTest, PaperRunningExample) {
  // The stream from §III-A: 2 6 5 1 [2*] 4 3 [4*] 7 8 [inf*].
  Sorter sorter;
  std::vector<Timestamp> out;

  for (Timestamp t : {2, 6, 5, 1}) sorter.Push(t);
  sorter.OnPunctuation(2, &out);
  EXPECT_EQ(out, std::vector<Timestamp>({1, 2}));

  for (Timestamp t : {4, 3}) sorter.Push(t);
  out.clear();
  sorter.OnPunctuation(4, &out);
  EXPECT_EQ(out, std::vector<Timestamp>({3, 4}));
  // §III-D: after the second punctuation Impatience maintains 2 runs where
  // plain Patience would have 4.
  EXPECT_EQ(sorter.run_count(), 2u);

  for (Timestamp t : {7, 8}) sorter.Push(t);
  out.clear();
  sorter.Flush(&out);
  EXPECT_EQ(out, std::vector<Timestamp>({5, 6, 7, 8}));
  EXPECT_EQ(sorter.buffered_count(), 0u);
  EXPECT_EQ(sorter.run_count(), 0u);
}

TEST(ImpatienceSorterTest, EmitsOnlyUpToPunctuation) {
  Sorter sorter;
  for (Timestamp t : {10, 5, 20, 15, 1}) sorter.Push(t);
  std::vector<Timestamp> out;
  sorter.OnPunctuation(10, &out);
  EXPECT_EQ(out, std::vector<Timestamp>({1, 5, 10}));
  EXPECT_EQ(sorter.buffered_count(), 2u);
  out.clear();
  sorter.Flush(&out);
  EXPECT_EQ(out, std::vector<Timestamp>({15, 20}));
}

TEST(ImpatienceSorterTest, PunctuationWithNothingToEmit) {
  Sorter sorter;
  sorter.Push(100);
  std::vector<Timestamp> out;
  sorter.OnPunctuation(50, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(sorter.buffered_count(), 1u);
}

TEST(ImpatienceSorterTest, RepeatedEqualPunctuationsAreIdempotent) {
  Sorter sorter;
  sorter.Push(5);
  sorter.Push(10);
  std::vector<Timestamp> out;
  sorter.OnPunctuation(7, &out);
  EXPECT_EQ(out, std::vector<Timestamp>({5}));
  out.clear();
  sorter.OnPunctuation(7, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ImpatienceSorterTest, DropsEventsAtOrBeforePunctuation) {
  Sorter sorter;
  sorter.Push(10);
  std::vector<Timestamp> out;
  sorter.OnPunctuation(10, &out);
  ASSERT_EQ(out.size(), 1u);

  sorter.Push(9);   // Before the punctuation: dropped.
  sorter.Push(10);  // At the punctuation: dropped.
  sorter.Push(11);  // After: accepted.
  EXPECT_EQ(sorter.late_drops(), 2u);
  EXPECT_EQ(sorter.buffered_count(), 1u);
  out.clear();
  sorter.Flush(&out);
  EXPECT_EQ(out, std::vector<Timestamp>({11}));
}

TEST(ImpatienceSorterTest, DuplicateTimestampsAllEmitted) {
  Sorter sorter;
  for (Timestamp t : {3, 3, 3, 1, 1, 2}) sorter.Push(t);
  std::vector<Timestamp> out;
  sorter.Flush(&out);
  EXPECT_EQ(out, std::vector<Timestamp>({1, 1, 2, 3, 3, 3}));
}

TEST(ImpatienceSorterTest, RunCleanupAfterBurstOfLateEvents) {
  // A burst of severely delayed events inflates the run count; punctuations
  // past the burst must clean the runs back up (the Figure 5 effect).
  Sorter sorter;
  Timestamp t = 1000;
  for (int i = 0; i < 100; ++i) sorter.Push(t + i);
  // Burst: strictly decreasing late events, each forcing a new run.
  for (int i = 0; i < 50; ++i) sorter.Push(500 - i * 2);
  const size_t runs_during_burst = sorter.run_count();
  EXPECT_GT(runs_during_burst, 40u);

  std::vector<Timestamp> out;
  sorter.OnPunctuation(999, &out);  // Clears the burst (all <= 500).
  EXPECT_EQ(out.size(), 50u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_LE(sorter.run_count(), 2u);  // Back to "healthy".
}

TEST(ImpatienceSorterTest, SpeculativeRunSelectionHitsOnSortedStream) {
  ImpatienceConfig config;
  config.speculative_run_selection = true;
  Sorter sorter(config);
  for (Timestamp t = 0; t < 1000; ++t) sorter.Push(t);
  // After the first insertion every element extends run 0 via SRS.
  EXPECT_EQ(sorter.counters().srs_hits, 999u);
  EXPECT_EQ(sorter.run_count(), 1u);
}

TEST(ImpatienceSorterTest, SrsDisabledStillCorrect) {
  ImpatienceConfig config;
  config.speculative_run_selection = false;
  Sorter sorter(config);
  auto input = testing::NearlySortedSequence(5000, 30, 64, /*seed=*/3);
  for (Timestamp t : input) sorter.Push(t);
  std::vector<Timestamp> out;
  sorter.Flush(&out);
  std::sort(input.begin(), input.end());
  EXPECT_EQ(out, input);
  EXPECT_EQ(sorter.counters().srs_hits, 0u);
}

TEST(ImpatienceSorterTest, TailsInvariantViaInterleavedBound) {
  // Proposition 3.1: on an interleaving of d sorted runs, Impatience sort
  // creates at most d runs.
  for (size_t d : {1u, 2u, 4u, 16u, 64u}) {
    Sorter sorter;
    auto input = testing::InterleavedSequence(20000, d, /*seed=*/d);
    for (Timestamp t : input) sorter.Push(t);
    EXPECT_LE(sorter.run_count(), d) << "d=" << d;
    std::vector<Timestamp> out;
    sorter.Flush(&out);
    std::sort(input.begin(), input.end());
    EXPECT_EQ(out, input);
  }
}

TEST(ImpatienceSorterTest, DistinctTimestampBound) {
  // Proposition 3.2: run count <= number of distinct timestamps.
  Sorter sorter;
  Rng rng(81);
  for (int i = 0; i < 10000; ++i) {
    sorter.Push(static_cast<Timestamp>(rng.NextBelow(5)));
  }
  EXPECT_LE(sorter.run_count(), 5u);
}

TEST(ImpatienceSorterTest, MemoryShrinksAfterEmission) {
  // This test pins in-RAM residency growth/shrink; a process-wide
  // IMPATIENCE_MEMORY_BUDGET would (correctly) cap `before`. The spill
  // tier's own residency bound is covered in tests/storage/.
  ImpatienceConfig config;
  config.spill.use_env_default = false;
  Sorter sorter(config);
  auto input = testing::NearlySortedSequence(100000, 30, 64, /*seed=*/5);
  for (Timestamp t : input) sorter.Push(t);
  const size_t before = sorter.MemoryBytes();
  EXPECT_GT(before, 100000 * sizeof(Timestamp) / 2);
  std::vector<Timestamp> out;
  sorter.Flush(&out);
  EXPECT_LT(sorter.MemoryBytes(), before / 10);
  EXPECT_EQ(sorter.buffered_count(), 0u);
}

// Run storage follows the events still buffered: after every punctuation
// the sorter holds at most twice its live bytes, plus kRunDeadFloorBytes
// per run and the merge buffers its pool retains, however small the cut
// prefixes and growth slack of its many small runs.
TEST(ImpatienceSorterTest, RunCapacityTracksLiveEvents) {
  CloudLogConfig cloud;
  cloud.num_events = 200000;
  cloud.seed = 7;
  const std::vector<Event> events = GenerateCloudLog(cloud).events;
  ImpatienceConfig config;
  config.spill.use_env_default = false;  // RAM runs only.
  ImpatienceSorter<Event> sorter(config);
  std::vector<Event> out;
  Timestamp high_watermark = kMinTimestamp;
  Timestamp last_punct = kMinTimestamp;
  size_t punctuations = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    sorter.Push(events[i]);
    high_watermark = std::max(high_watermark, events[i].sync_time);
    if ((i + 1) % 10000 != 0 || high_watermark - kSecond <= last_punct) {
      continue;
    }
    last_punct = high_watermark - kSecond;
    out.clear();
    sorter.OnPunctuation(last_punct, &out);
    ++punctuations;
    const size_t live = sorter.buffered_count() * sizeof(Event);
    const size_t pool_retain = std::max(kMergePoolRetainBytes, live / 2);
    EXPECT_LE(sorter.MemoryBytes(),
              2 * live + sorter.run_count() * kRunDeadFloorBytes + pool_retain)
        << "after " << i + 1 << " events, " << sorter.run_count() << " runs";
  }
  EXPECT_EQ(punctuations, events.size() / 10000);
}

TEST(ImpatienceSorterTest, IncrementalEqualsOfflineAcrossFrequencies) {
  // Sorting with punctuations every f events must equal one big sort.
  auto input = testing::NearlySortedSequence(30000, 30, 256, /*seed=*/7);
  std::vector<Timestamp> want = input;
  std::sort(want.begin(), want.end());

  for (size_t freq : {1u, 7u, 100u, 5000u, 100000u}) {
    Sorter sorter;
    std::vector<Timestamp> out;
    Timestamp high_watermark = kMinTimestamp;
    Timestamp last_punct = kMinTimestamp;
    size_t late = 0;
    for (size_t i = 0; i < input.size(); ++i) {
      if (input[i] <= last_punct) {
        ++late;  // The generator can produce genuinely too-late events.
      }
      sorter.Push(input[i]);
      high_watermark = std::max(high_watermark, input[i]);
      if ((i + 1) % freq == 0) {
        // Reorder latency 600 tolerates the d=256 delays in this input.
        const Timestamp p = high_watermark - 600;
        if (p > last_punct) {
          sorter.OnPunctuation(p, &out);
          last_punct = p;
        }
      }
    }
    sorter.Flush(&out);
    EXPECT_EQ(sorter.late_drops(), late);
    EXPECT_EQ(out.size(), want.size() - late);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << "freq=" << freq;
    if (late == 0) {
      EXPECT_EQ(out, want) << "freq=" << freq;
    }
  }
}

TEST(ImpatienceSorterTest, CountersTrackWork) {
  Sorter sorter;
  for (Timestamp t : {5, 3, 8, 1}) sorter.Push(t);
  EXPECT_EQ(sorter.counters().pushes, 4u);
  EXPECT_EQ(sorter.counters().new_runs, 3u);  // 5 starts; 3 and 1 new runs.
  std::vector<Timestamp> out;
  sorter.Flush(&out);
  EXPECT_EQ(sorter.counters().removed_runs, 3u);
}

TEST(ImpatienceCountersTest, ResetZeroesEveryField) {
  ImpatienceCounters c;
  c.pushes = 1;
  c.srs_hits = 2;
  c.new_runs = 3;
  c.removed_runs = 4;
  c.compactions = 5;
  c.parallel_merges = 6;
  c.merge_tasks = 7;
  c.kernel_level = 2;
  c.merge.elements_moved = 8;
  c.merge.binary_merges = 9;
  c.merge.disjoint_concats = 10;
  c.Reset();
  EXPECT_EQ(c.pushes, 0u);
  EXPECT_EQ(c.srs_hits, 0u);
  EXPECT_EQ(c.new_runs, 0u);
  EXPECT_EQ(c.removed_runs, 0u);
  EXPECT_EQ(c.compactions, 0u);
  EXPECT_EQ(c.parallel_merges, 0u);
  EXPECT_EQ(c.merge_tasks, 0u);
  EXPECT_EQ(c.kernel_level, 0u);
  EXPECT_EQ(c.merge.elements_moved, 0u);
  EXPECT_EQ(c.merge.binary_merges, 0u);
  EXPECT_EQ(c.merge.disjoint_concats, 0u);
}

TEST(ImpatienceCountersTest, PlusEqualsSumsElementwise) {
  ImpatienceCounters a;
  a.pushes = 10;
  a.new_runs = 2;
  a.merge.elements_moved = 100;
  ImpatienceCounters b;
  b.pushes = 5;
  b.srs_hits = 7;
  b.merge.elements_moved = 50;
  b.merge.binary_merges = 3;
  b.merge.disjoint_concats = 2;
  a += b;
  EXPECT_EQ(a.pushes, 15u);
  EXPECT_EQ(a.srs_hits, 7u);
  EXPECT_EQ(a.new_runs, 2u);
  EXPECT_EQ(a.merge.elements_moved, 150u);
  EXPECT_EQ(a.merge.binary_merges, 3u);
  EXPECT_EQ(a.merge.disjoint_concats, 2u);
}

TEST(ImpatienceCountersTest, KernelLevelIsAGaugeNotASum) {
  // Aggregating shards must not add dispatch levels together; the merged
  // view reports the highest level seen.
  ImpatienceCounters a;
  a.kernel_level = 2;
  ImpatienceCounters b;
  b.kernel_level = 1;
  a += b;
  EXPECT_EQ(a.kernel_level, 2u);
  b += a;
  EXPECT_EQ(b.kernel_level, 2u);
}

TEST(ImpatienceSorterTest, StampsKernelLevelAtConstructionAndReset) {
  Sorter sorter;
  const uint64_t level = static_cast<uint64_t>(ActiveKernelLevel());
  EXPECT_EQ(sorter.counters().kernel_level, level);
  sorter.ResetCounters();
  EXPECT_EQ(sorter.counters().kernel_level, level);
}

TEST(ImpatienceSorterTest, ResetCountersRestartsStatisticsWindow) {
  Sorter sorter;
  for (Timestamp t : {5, 3, 8, 1}) sorter.Push(t);
  std::vector<Timestamp> out;
  sorter.OnPunctuation(5, &out);  // Emits and removes runs -> merge stats.
  EXPECT_GT(sorter.counters().pushes, 0u);
  EXPECT_GT(sorter.counters().new_runs, 0u);
  sorter.Push(2);  // Late: dropped, not counted as a push.
  ASSERT_EQ(sorter.late_drops(), 1u);

  sorter.ResetCounters();
  EXPECT_EQ(sorter.counters().pushes, 0u);
  EXPECT_EQ(sorter.counters().new_runs, 0u);
  EXPECT_EQ(sorter.counters().removed_runs, 0u);
  EXPECT_EQ(sorter.counters().merge.elements_moved, 0u);
  // late_drops() is contract state, not a statistics counter: it survives.
  EXPECT_EQ(sorter.late_drops(), 1u);

  // The sorter still works after a reset and counts only new work.
  for (Timestamp t : {9, 7}) sorter.Push(t);
  EXPECT_EQ(sorter.counters().pushes, 2u);
  out.clear();
  sorter.Flush(&out);
  EXPECT_EQ(out, std::vector<Timestamp>({7, 8, 9}));  // 8 buffered earlier.
}

TEST(ImpatienceSorterTest, EventsSortedBySyncTime) {
  ImpatienceSorter<Event> sorter;
  Rng rng(91);
  for (int i = 0; i < 1000; ++i) {
    Event e;
    e.sync_time = static_cast<Timestamp>(rng.NextBelow(10000));
    e.key = i;
    sorter.Push(e);
  }
  std::vector<Event> out;
  sorter.Flush(&out);
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].sync_time, out[i].sync_time);
  }
}

}  // namespace
}  // namespace impatience
