// The parallel Huffman merge (the offline sort's key merge) must be
// byte-identical to the sequential HuffmanMergeInto — same elements, same
// order on ties — at every thread count.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "sort/merge.h"
#include "tests/testing/run_spans.h"

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
      HuffmanMergeInto(RunSpans(runs), IntLess(), &want);

      std::vector<int> got;
      const size_t tasks =
          ParallelMergeRunsInto(RunSpans(runs), IntLess(), &got, &pool);
      ASSERT_EQ(got, want) << "threads " << threads << " seed " << seed;
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
  const size_t tasks =
      ParallelMergeRunsInto(RunSpans(runs), IntLess(), &got, &pool);
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
  EXPECT_GT(ParallelMergeRunsInto(RunSpans(runs), less, &got, &pool), 0u);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);  // Tags included: order of ties must match.
}

TEST(ParallelMergeTest, AppendsAfterExistingOutput) {
  ThreadPool pool(2);
  Rng rng(13);
  const auto runs =
      MakeRuns(AboveThresholdLengths(6, sizeof(int), &rng), 13);
  std::vector<int> want = {-2, -1};
  HuffmanMergeInto(RunSpans(runs), IntLess(), &want);
  std::vector<int> out = {-2, -1};
  EXPECT_GT(ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, &pool),
            0u);
  EXPECT_EQ(out, want);
}

TEST(ParallelMergeTest, SkipsEmptyRunsAndHandlesSmallSets) {
  ThreadPool pool(4);
  std::vector<std::vector<int>> runs = {{}, {5}, {}, {1, 9}, {}};
  std::vector<int> out;
  ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, &pool);
  EXPECT_EQ(out, std::vector<int>({1, 5, 9}));

  runs = {{1, 2, 3}};
  out.clear();
  const size_t tasks =
      ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, &pool);
  EXPECT_EQ(out, std::vector<int>({1, 2, 3}));
  EXPECT_EQ(tasks, 0u);  // Single run: nothing to parallelize.

  runs = {};
  out.clear();
  ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, &pool);
  EXPECT_TRUE(out.empty());
}

TEST(ParallelMergeTest, ThresholdsFallBackToSequential) {
  ThreadPool pool(4);
  auto runs = MakeRuns({100, 100, 100, 100}, /*seed=*/3);
  std::vector<int> want;
  HuffmanMergeInto(RunSpans(runs), IntLess(), &want);

  // Below the byte threshold.
  std::vector<int> out;
  EXPECT_EQ(ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, &pool),
            0u);
  EXPECT_EQ(out, want);

  // Below the run-count threshold: plenty of bytes in too few runs.
  const size_t len = kParallelMergeMinBytes / sizeof(int);
  runs = MakeRuns(std::vector<size_t>(kParallelMergeMinRuns - 1, len), 4);
  want.clear();
  HuffmanMergeInto(RunSpans(runs), IntLess(), &want);
  out.clear();
  EXPECT_EQ(ParallelMergeRunsInto(RunSpans(runs), IntLess(), &out, &pool),
            0u);
  EXPECT_EQ(out, want);
}

}  // namespace
}  // namespace impatience
