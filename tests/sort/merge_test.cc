// Merge kernels: every merge entry point against the merge contract, plus
// the Huffman order's optimality property (it moves fewer elements than
// the balanced order on skewed run-size distributions).

#include "sort/merge.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
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

std::vector<int> FlattenSorted(const std::vector<std::vector<int>>& runs) {
  std::vector<int> all;
  for (const auto& r : runs) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  return all;
}

// The two-way kernel every binary merge of a cascade runs.
template <typename T, typename Less>
void BinaryMerge(const std::vector<T>& a, const std::vector<T>& b, Less less,
                 std::vector<T>* out) {
  kernels::MergeIntoVector(a.data(), a.data() + a.size(), b.data(),
                           b.data() + b.size(), less, out);
}

TEST(MergeTest, BinaryMergeBasic) {
  std::vector<int> a = {1, 3, 5};
  std::vector<int> b = {2, 4, 6};
  std::vector<int> out;
  BinaryMerge(a, b, IntLess(), &out);
  EXPECT_EQ(out, std::vector<int>({1, 2, 3, 4, 5, 6}));
}

TEST(MergeTest, BinaryMergeStableOnTies) {
  // Elements of `a` must precede equal elements of `b`.
  std::vector<std::pair<int, char>> a = {{1, 'a'}, {2, 'a'}};
  std::vector<std::pair<int, char>> b = {{1, 'b'}, {2, 'b'}};
  std::vector<std::pair<int, char>> out;
  BinaryMerge(a, b,
              [](const auto& x, const auto& y) { return x.first < y.first; },
              &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].second, 'a');
  EXPECT_EQ(out[1].second, 'b');
  EXPECT_EQ(out[2].second, 'a');
  EXPECT_EQ(out[3].second, 'b');
}

TEST(MergeTest, BinaryMergeEmptySides) {
  std::vector<int> a;
  std::vector<int> b = {1, 2};
  std::vector<int> out;
  BinaryMerge(a, b, IntLess(), &out);
  EXPECT_EQ(out, b);
  out.clear();
  BinaryMerge(b, a, IntLess(), &out);
  EXPECT_EQ(out, b);
}

// Every merge entry point the sorters and the spill tier use. LoserTree
// is HuffmanCursorMergeInto over VectorRunCursors: the single
// LoserTreePass the spilled merge and the parallel merge's k-way leaves
// run. The two Parallel arms call ParallelMergeRunsInto on a 1-thread
// pool (always the sequential cascade) and a 4-thread pool (the task DAG
// once a run set passes the size gate).
enum class EntryPoint {
  kHuffman,
  kBalanced,
  kParallelOneThread,
  kLoserTree,
  kParallelFourThreads,
};

// Merges `runs` into `out` (appended) through `entry`. Every entry point
// reads the runs in place.
template <typename T, typename Less>
void MergeVia(EntryPoint entry, const std::vector<std::span<const T>>& runs,
              Less less, std::vector<T>* out) {
  static ThreadPool one_thread(1);
  static ThreadPool four_threads(4);
  switch (entry) {
    case EntryPoint::kHuffman:
      HuffmanMergeInto(runs, less, out);
      return;
    case EntryPoint::kBalanced:
      BalancedMergeInto(runs, less, out);
      return;
    case EntryPoint::kLoserTree: {
      std::vector<VectorRunCursor<T>> owned;
      owned.reserve(runs.size());
      std::vector<RunCursor<T>*> cursors;
      for (const std::span<const T> r : runs) {
        owned.emplace_back(r.data(), r.data() + r.size());
        cursors.push_back(&owned.back());
      }
      HuffmanCursorMergeInto(&cursors, less, out);
      return;
    }
    case EntryPoint::kParallelOneThread:
      ParallelMergeRunsInto(runs, less, out, nullptr, nullptr, &one_thread);
      return;
    case EntryPoint::kParallelFourThreads:
      ParallelMergeRunsInto(runs, less, out, nullptr, nullptr,
                            &four_threads);
      return;
  }
}

class MergePolicyTest : public ::testing::TestWithParam<EntryPoint> {};

TEST_P(MergePolicyTest, MergesManyRunsCorrectly) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(1000 + seed);
    std::vector<size_t> lengths;
    const size_t k = 1 + rng.NextBelow(30);
    for (size_t i = 0; i < k; ++i) lengths.push_back(rng.NextBelow(100));
    auto runs = MakeRuns(lengths, seed);
    const std::vector<int> want = FlattenSorted(runs);

    const auto input = runs;
    std::vector<int> out;
    MergeVia(GetParam(), RunSpans(runs), IntLess(), &out);
    EXPECT_EQ(out, want) << "seed " << seed;
    EXPECT_EQ(runs, input);  // Read in place, left as they were.
  }
}

TEST_P(MergePolicyTest, HandlesEmptyAndSingleRun) {
  std::vector<std::vector<int>> runs;
  std::vector<int> out;
  MergeVia(GetParam(), RunSpans(runs), IntLess(), &out);
  EXPECT_TRUE(out.empty());

  runs = {{1, 2, 3}};
  MergeVia(GetParam(), RunSpans(runs), IntLess(), &out);
  EXPECT_EQ(out, std::vector<int>({1, 2, 3}));
}

TEST_P(MergePolicyTest, SkipsEmptyRuns) {
  std::vector<std::vector<int>> runs = {{}, {5}, {}, {1, 9}, {}};
  std::vector<int> out;
  MergeVia(GetParam(), RunSpans(runs), IntLess(), &out);
  EXPECT_EQ(out, std::vector<int>({1, 5, 9}));
}

TEST_P(MergePolicyTest, AppendsAfterExistingOutput) {
  std::vector<std::vector<int>> runs = {{3, 4}, {1, 2}};
  std::vector<int> out = {-1, 0};
  MergeVia(GetParam(), RunSpans(runs), IntLess(), &out);
  EXPECT_EQ(out, std::vector<int>({-1, 0, 1, 2, 3, 4}));
}

// Timestamp plus the element's position in the flattened input (run 0
// first). The comparator sees `time` only, so the tag shows where each
// element came from and in what order ties left the merge.
struct Tagged {
  int64_t time;
  uint32_t tag;
};

struct TimeLess {
  bool operator()(const Tagged& a, const Tagged& b) const {
    return a.time < b.time;
  }
};

// One run set of `k` runs totalling about 1.5 MiB, above the parallel
// merge's size gate. `time_step` bounds the per-element time increment:
// 0 makes every element a tie, small steps give heavy cross-run ties.
// `skewed` makes run 0 hold half the elements.
std::vector<std::vector<Tagged>> MakeTaggedRuns(size_t k, int64_t time_step,
                                                bool skewed, uint64_t seed) {
  Rng rng(seed);
  const size_t total = 3 * kParallelMergeMinBytes / 2 / sizeof(Tagged);
  std::vector<std::vector<Tagged>> runs(k);
  uint32_t tag = 0;
  for (size_t r = 0; r < k; ++r) {
    const size_t len =
        skewed ? (r == 0 ? total / 2 : total / 2 / (k - 1))
               : total / k / 2 + rng.NextBelow(total / k);
    int64_t t = static_cast<int64_t>(rng.NextBelow(16));
    for (size_t j = 0; j < len; ++j) {
      if (time_step > 0) {
        t += static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(time_step) + 1));
      }
      runs[r].push_back(Tagged{t, tag++});
    }
  }
  return runs;
}

// The merge contract, checked against the input rather than against
// another executor: the output is sorted by time, holds exactly the input
// elements, and keeps every run's elements in their original relative
// order.
void ExpectMergeSpec(const std::vector<std::vector<Tagged>>& input,
                     const std::vector<Tagged>& out) {
  std::vector<uint32_t> run_of;  // Indexed by tag.
  for (size_t r = 0; r < input.size(); ++r) {
    run_of.insert(run_of.end(), input[r].size(), static_cast<uint32_t>(r));
  }
  ASSERT_EQ(out.size(), run_of.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), TimeLess{}));
  std::vector<bool> seen(run_of.size(), false);
  std::vector<int64_t> last_tag(input.size(), -1);
  for (const Tagged& e : out) {
    ASSERT_LT(e.tag, seen.size());
    ASSERT_FALSE(seen[e.tag]) << "tag " << e.tag << " emitted twice";
    seen[e.tag] = true;
    const uint32_t r = run_of[e.tag];
    // Tags rise along each input run, so they must rise along the run's
    // elements in the output too.
    ASSERT_GT(static_cast<int64_t>(e.tag), last_tag[r]) << "run " << r;
    last_tag[r] = e.tag;
  }
}

struct SpecCase {
  size_t k;
  int64_t time_step;
  bool skewed;
};
// Fan-ins below, at and above one loser tree's cap, with and without
// ties, plus one huge run among small ones.
constexpr SpecCase kSpecCases[] = {{3, 2, false},   {9, 2, false},
                                   {40, 0, false},  {64, 4, false},
                                   {130, 2, false}, {17, 2, true}};

TEST_P(MergePolicyTest, MatchesSpecAboveParallelGate) {
  for (const SpecCase& c : kSpecCases) {
    const auto input = MakeTaggedRuns(c.k, c.time_step, c.skewed, 70 + c.k);
    std::vector<Tagged> out;
    MergeVia(GetParam(), RunSpans(input), TimeLess{}, &out);
    SCOPED_TRACE("k=" + std::to_string(c.k));
    ExpectMergeSpec(input, out);
  }
}

// Tag of the elements around a cut, which no merge may read.
constexpr uint32_t kOutsideCut = UINT32_MAX;

// `input` laid out the way a punctuation sees its runs: each run is a cut
// from the middle of a longer sorted run (`*longer`), behind an already
// emitted prefix and ahead of a suffix the punctuation does not release.
std::vector<std::span<const Tagged>> CutsOfLongerRuns(
    const std::vector<std::vector<Tagged>>& input,
    std::vector<std::vector<Tagged>>* longer) {
  longer->assign(input.size(), {});
  std::vector<std::span<const Tagged>> cuts;
  for (size_t r = 0; r < input.size(); ++r) {
    const std::vector<Tagged>& run = input[r];
    std::vector<Tagged>& whole = (*longer)[r];
    const size_t prefix = 1 + r % 5;
    const int64_t first = run.empty() ? 0 : run.front().time;
    const int64_t last = run.empty() ? 0 : run.back().time;
    whole.assign(prefix, Tagged{first - 1, kOutsideCut});
    whole.insert(whole.end(), run.begin(), run.end());
    whole.insert(whole.end(), 1 + r % 3, Tagged{last + 1, kOutsideCut});
    cuts.emplace_back(whole.data() + prefix, run.size());
  }
  return cuts;
}

TEST_P(MergePolicyTest, MatchesSpecOnCutsOfLongerRuns) {
  for (const SpecCase& c : kSpecCases) {
    const auto input = MakeTaggedRuns(c.k, c.time_step, c.skewed, 90 + c.k);
    std::vector<std::vector<Tagged>> longer;
    const std::vector<std::span<const Tagged>> cuts =
        CutsOfLongerRuns(input, &longer);
    std::vector<Tagged> out;
    MergeVia(GetParam(), cuts, TimeLess{}, &out);
    SCOPED_TRACE("k=" + std::to_string(c.k));
    ExpectMergeSpec(input, out);
  }
  // Below the parallel gate too, with empty cuts among them.
  const std::vector<std::vector<Tagged>> small = {
      {{1, 0}, {4, 1}}, {}, {{2, 2}}, {{1, 3}, {3, 4}, {3, 5}}, {}};
  std::vector<std::vector<Tagged>> longer;
  std::vector<Tagged> out;
  MergeVia(GetParam(), CutsOfLongerRuns(small, &longer), TimeLess{}, &out);
  ExpectMergeSpec(small, out);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MergePolicyTest,
                         ::testing::Values(EntryPoint::kHuffman,
                                           EntryPoint::kBalanced,
                                           EntryPoint::kParallelOneThread,
                                           EntryPoint::kLoserTree,
                                           EntryPoint::kParallelFourThreads),
                         [](const auto& info) {
                           switch (info.param) {
                             case EntryPoint::kHuffman:
                               return "Huffman";
                             case EntryPoint::kBalanced:
                               return "Balanced";
                             case EntryPoint::kLoserTree:
                               return "LoserTree";
                             case EntryPoint::kParallelOneThread:
                               return "ParallelOneThread";
                             case EntryPoint::kParallelFourThreads:
                               return "ParallelFourThreads";
                           }
                           return "?";
                         });

TEST(MergeStatsTest, HuffmanMovesNoMoreThanBalancedOnSkewedRuns) {
  // One huge run plus many tiny runs: Huffman merges the tiny ones first,
  // touching the huge run only once; the balanced order drags the huge run
  // through several rounds.
  std::vector<size_t> lengths = {100000};
  for (int i = 0; i < 16; ++i) lengths.push_back(10);

  const auto runs = MakeRuns(lengths, /*seed=*/5);

  std::vector<int> out;
  MergeStats huffman_stats;
  HuffmanMergeInto(RunSpans(runs), IntLess(), &out, &huffman_stats);
  out.clear();
  MergeStats balanced_stats;
  BalancedMergeInto(RunSpans(runs), IntLess(), &out, &balanced_stats);

  EXPECT_LT(huffman_stats.elements_moved, balanced_stats.elements_moved);
  // Huffman should touch the big run exactly once: total moves are close to
  // (tiny merges) + one pass over everything.
  EXPECT_LT(huffman_stats.elements_moved, 110000u);
}

TEST(MergeStatsTest, MergeCountsAreConsistent) {
  const auto runs = MakeRuns({4, 4, 4, 4}, /*seed=*/9);
  std::vector<int> out;
  MergeStats stats;
  HuffmanMergeInto(RunSpans(runs), IntLess(), &out, &stats);
  // k runs need exactly k-1 binary merges.
  EXPECT_EQ(stats.binary_merges, 3u);
}

// A lone run is copied out, one move per element and no merge, by both
// orders: a punctuation that releases one run counts its elements once.
TEST(MergeStatsTest, LoneRunCountsOneMovePerElement) {
  const std::vector<std::vector<int>> runs = {{}, {1, 2, 3}, {}};
  for (const bool huffman : {true, false}) {
    std::vector<int> out;
    MergeStats stats;
    if (huffman) {
      HuffmanMergeInto(RunSpans(runs), IntLess(), &out, &stats);
    } else {
      BalancedMergeInto(RunSpans(runs), IntLess(), &out, &stats);
    }
    EXPECT_EQ(out, runs[1]);
    EXPECT_EQ(stats.elements_moved, 3u);
    EXPECT_EQ(stats.binary_merges, 0u);
  }
}

}  // namespace
}  // namespace impatience
