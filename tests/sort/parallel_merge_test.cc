// The parallel Huffman merge must be byte-identical to the sequential
// HuffmanMergeInto — same elements, same order on ties, same MergeStats —
// at every thread count, and ImpatienceSorter's parallel punctuation path
// must match a sequential oracle under stress.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "sort/impatience_sorter.h"
#include "sort/merge.h"
#include "tests/testing/run_spans.h"
#include "tests/testing/sequences.h"

namespace impatience {
namespace {

using testing::RunSpans;

std::less<int> IntLess() { return std::less<int>(); }

std::vector<std::vector<int>> MakeRuns(const std::vector<size_t>& lengths,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> runs;
  for (const size_t len : lengths) {
    std::vector<int> run(len);
    int v = static_cast<int>(rng.NextBelow(10));
    for (size_t i = 0; i < len; ++i) {
      v += static_cast<int>(rng.NextBelow(5));
      run[i] = v;
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

// Lengths of k runs of `elem_bytes`-byte elements totalling at least 1.5x
// the parallel merge's byte threshold, so the task DAG runs for k >=
// kParallelMergeMinRuns on a multi-threaded pool.
std::vector<size_t> AboveThresholdLengths(size_t k, size_t elem_bytes,
                                          Rng* rng) {
  const size_t avg = 3 * kParallelMergeMinBytes / elem_bytes / k;
  std::vector<size_t> lengths;
  for (size_t i = 0; i < k; ++i) {
    lengths.push_back(avg / 2 + rng->NextBelow(avg));
  }
  return lengths;
}

TEST(ParallelMergeTest, IdenticalToSequentialAcrossThreadCounts) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                               size_t{16}}) {
    ThreadPool pool(threads);
    for (uint64_t seed = 0; seed < 8; ++seed) {
      Rng rng(2000 + seed);
      const size_t k = 2 + rng.NextBelow(40);
      const auto runs =
          MakeRuns(AboveThresholdLengths(k, sizeof(int), &rng), seed);

      std::vector<int> want;
      MergeStats want_stats;
      HuffmanMergeInto(RunSpans(runs), IntLess(), &want, &want_stats);

      std::vector<int> got;
      MergeStats got_stats;
      const size_t tasks = ParallelMergeRunsInto(
          RunSpans(runs), IntLess(), &got, &got_stats, nullptr, &pool);
      ASSERT_EQ(got, want) << "threads " << threads << " seed " << seed;
      EXPECT_EQ(got_stats.elements_moved, want_stats.elements_moved);
      EXPECT_EQ(got_stats.binary_merges, want_stats.binary_merges);
      if (threads == 1 || k < kParallelMergeMinRuns) {
        EXPECT_EQ(tasks, 0u);  // Sequential fallback.
      } else {
        EXPECT_GT(tasks, 0u);
      }
    }
  }
}

TEST(ParallelMergeTest, SkewedRunSizes) {
  // One huge run plus many tiny ones exercises the deepest Huffman tree.
  ThreadPool pool(4);
  std::vector<size_t> lengths = {kParallelMergeMinBytes / sizeof(int)};
  for (int i = 0; i < 24; ++i) lengths.push_back(1 + (i % 7));
  const auto runs = MakeRuns(lengths, /*seed=*/11);

  std::vector<int> want;
  HuffmanMergeInto(RunSpans(runs), IntLess(), &want);
  std::vector<int> got;
  const size_t tasks = ParallelMergeRunsInto(RunSpans(runs), IntLess(), &got,
                                             nullptr, nullptr, &pool);
  EXPECT_EQ(got, want);
  EXPECT_GT(tasks, 0u);
}

TEST(ParallelMergeTest, StableOnTies) {
  // Massive tie blocks: the split of the final merge and every interior
  // merge must keep left-run elements before equal right-run elements,
  // exactly as the sequential merge does.
  ThreadPool pool(4);
  Rng rng(7);
  std::vector<std::vector<std::pair<int, int>>> runs;
  int tag = 0;
  for (int r = 0; r < 12; ++r) {
    std::vector<std::pair<int, int>> run;
    int v = 0;
    // At least 1.9 MB of pairs across 12 runs: above the parallel
    // thresholds.
    const size_t len = (200 + rng.NextBelow(800)) * 100;
    for (size_t i = 0; i < len; ++i) {
      if (rng.NextBool(0.2)) v += static_cast<int>(rng.NextBelow(3));
      run.emplace_back(v, tag++);
    }
    runs.push_back(std::move(run));
  }
  auto less = [](const std::pair<int, int>& a, const std::pair<int, int>& b) {
    return a.first < b.first;
  };

  std::vector<std::pair<int, int>> want;
  HuffmanMergeInto(RunSpans(runs), less, &want);
  std::vector<std::pair<int, int>> got;
  EXPECT_GT(ParallelMergeRunsInto(RunSpans(runs), less, &got, nullptr,
                                  nullptr, &pool),
            0u);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);  // Tags included: order of ties must match.
}

// Modelled on LoserTreeTest.PoolAccountingBoundsPeakAndLeaksNothing: the
// sorter hands its pool to every merge, so each interior buffer the
// parallel executor takes from it must come back — otherwise the pool
// reallocates on every merge and the sorter's MemoryBytes() loses track
// of the buffers. Once one merge has returned them, an identical second
// merge finds every buffer it needs in the pool and allocates nothing.
TEST(ParallelMergeTest, PoolAccountingLeaksNothing) {
  ThreadPool tp(4);
  MergeBufferPool<int> pool;
  // 16 runs x 32k ints = 2 MiB: above the parallel thresholds.
  const auto runs =
      MakeRuns(std::vector<size_t>(16, size_t{1} << 15), /*seed=*/5);
  std::vector<int> out;
  ASSERT_GT(
      ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, nullptr, &pool,
                            &tp),
      0u);  // The task DAG ran, not the sequential fallback.
  const size_t held = pool.MemoryBytes();
  EXPECT_GT(held, 0u);  // The interior buffers came back.
  std::vector<int> again;
  ParallelMergeRunsInto(RunSpans(runs), IntLess(), &again, nullptr, &pool,
                        &tp);
  EXPECT_EQ(pool.MemoryBytes(), held);
  EXPECT_EQ(again, out);
  EXPECT_EQ(out.size(), size_t{16} << 15);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(ParallelMergeTest, AppendsAfterExistingOutput) {
  ThreadPool pool(2);
  Rng rng(13);
  const auto runs =
      MakeRuns(AboveThresholdLengths(6, sizeof(int), &rng), 13);
  std::vector<int> want = {-2, -1};
  HuffmanMergeInto(RunSpans(runs), IntLess(), &want);
  std::vector<int> out = {-2, -1};
  EXPECT_GT(ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, nullptr,
                                  nullptr, &pool),
            0u);
  EXPECT_EQ(out, want);
}

TEST(ParallelMergeTest, SkipsEmptyRunsAndHandlesSmallSets) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> runs = {{}, {5}, {}, {1, 9}, {}};
  std::vector<int> out;
  ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, nullptr, nullptr,
                        &pool);
  EXPECT_EQ(out, std::vector<int>({1, 5, 9}));

  runs = {{1, 2, 3}};
  out.clear();
  const size_t tasks = ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out,
                                             nullptr, nullptr, &pool);
  EXPECT_EQ(out, std::vector<int>({1, 2, 3}));
  EXPECT_EQ(tasks, 0u);  // Single run: nothing to parallelize.

  runs = {};
  out.clear();
  ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, nullptr, nullptr,
                        &pool);
  EXPECT_TRUE(out.empty());
}

TEST(ParallelMergeTest, ThresholdsFallBackToSequential) {
  ThreadPool pool(4);
  auto runs = MakeRuns({100, 100, 100, 100}, /*seed=*/3);
  std::vector<int> want;
  HuffmanMergeInto(RunSpans(runs), IntLess(), &want);

  // Below the byte threshold.
  std::vector<int> out;
  EXPECT_EQ(ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, nullptr,
                                  nullptr, &pool),
            0u);
  EXPECT_EQ(out, want);

  // Below the run-count threshold: plenty of bytes in too few runs.
  const size_t len = kParallelMergeMinBytes / sizeof(int);
  runs = MakeRuns(std::vector<size_t>(kParallelMergeMinRuns - 1, len), 4);
  want.clear();
  HuffmanMergeInto(RunSpans(runs), IntLess(), &want);
  out.clear();
  EXPECT_EQ(ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, nullptr,
                                  nullptr, &pool),
            0u);
  EXPECT_EQ(out, want);
}

TEST(ParallelMergeTest, PunctuationStressMatchesSequentialOracle) {
  // The full ImpatienceSorter pipeline under Figure-8-style punctuation,
  // with punctuations releasing enough head runs and bytes for the
  // parallel merge, must emit exactly the sequential (1-thread pool)
  // sorter's output.
  ThreadPool pool(4);
  ThreadPool serial(1);
  auto input = testing::BatchUploadSequence(1200000, 40000, /*seed=*/41);

  ImpatienceConfig parallel_config;
  parallel_config.thread_pool = &pool;
  // A process-wide memory budget would route punctuation merges through
  // the spill cursor path and starve the parallel-merge counter this
  // test asserts on (spill + pool composition is covered in
  // tests/storage/spill_determinism_test.cc).
  parallel_config.spill.use_env_default = false;

  ImpatienceConfig sequential_config;
  sequential_config.thread_pool = &serial;
  sequential_config.spill.use_env_default = false;

  std::vector<std::vector<Timestamp>> results;
  uint64_t parallel_merges = 0;
  uint64_t merge_tasks = 0;
  for (const ImpatienceConfig& config :
       {parallel_config, sequential_config}) {
    ImpatienceSorter<Timestamp, IdentityTimeOf> sorter(config);
    std::vector<Timestamp> out;
    Timestamp hw = kMinTimestamp;
    Timestamp last = kMinTimestamp;
    for (size_t i = 0; i < input.size(); ++i) {
      sorter.Push(input[i]);
      hw = std::max(hw, input[i]);
      if ((i + 1) % 14000 == 0 && hw - 600000 > last) {
        last = hw - 600000;
        sorter.OnPunctuation(last, &out);
      }
    }
    sorter.Flush(&out);
    if (config.thread_pool == &pool) {
      parallel_merges = sorter.counters().parallel_merges;
      merge_tasks = sorter.counters().merge_tasks;
    }
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_TRUE(std::is_sorted(results[0].begin(), results[0].end()));
  EXPECT_GT(parallel_merges, 0u);
  EXPECT_GE(merge_tasks, parallel_merges);
}

}  // namespace
}  // namespace impatience
