// Loser-tree k-way merge properties, through the entry points that run
// LoserTreePass: the cursor merge (HuffmanCursorMergeInto) over RAM and
// chunked runs, and the parallel merge's k-way leaves. Reference
// equivalence against a flatten-and-sort of the input, byte-identity with
// the pairwise Huffman cascade across adversarial run shapes and fan-ins
// past one tree's leaf cap, the parallel k-way leaf collapse at several
// thread counts and fan-ins, and the memory accounting contract (scratch
// bytes, sorter MemoryBytes). KernelLevel
// coverage comes from tools/check.sh, which re-runs this suite under
// forced IMPATIENCE_KERNEL_LEVEL settings.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "sort/impatience_sorter.h"
#include "sort/merge.h"
#include "tests/testing/run_spans.h"

namespace impatience {
namespace {

using testing::RunSpans;

// Timestamp plus a globally unique tag. The comparator looks at `time`
// only, so cross-run ties are invisible to it — the tag then pins down the
// exact tie order a merge produced, which is what byte-identity means.
struct Tagged {
  int64_t time;
  uint32_t tag;
  bool operator==(const Tagged&) const = default;
};

struct TimeLess {
  bool operator()(const Tagged& a, const Tagged& b) const {
    return a.time < b.time;
  }
};

// Adversarial run-shape families. Every generator assigns tags in
// flattened order (run 0 first), so two merges of copies of the same run
// set are comparable element-for-element.
enum class Shape {
  kRandomTies,    // Small time domain: heavy cross-run ties.
  kAllTies,       // Every element equal: order is pure tie-breaking.
  kDisjoint,      // Run i entirely precedes run i+1: bulk-copy paradise.
  kInterleaved,   // Element j of run i has time j*k+i: worst-case ping-pong.
  kSkewed,        // One huge run plus tiny ones: the Huffman motivation.
  kWithEmpties,   // Random with every third run empty.
};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kRandomTies: return "random_ties";
    case Shape::kAllTies: return "all_ties";
    case Shape::kDisjoint: return "disjoint";
    case Shape::kInterleaved: return "interleaved";
    case Shape::kSkewed: return "skewed";
    case Shape::kWithEmpties: return "with_empties";
  }
  return "?";
}

std::vector<std::vector<Tagged>> MakeRuns(Shape shape, size_t k,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Tagged>> runs(k);
  uint32_t tag = 0;
  for (size_t r = 0; r < k; ++r) {
    size_t len;
    switch (shape) {
      case Shape::kSkewed:
        len = r == 0 ? 2000 : 1 + rng.NextBelow(8);
        break;
      case Shape::kWithEmpties:
        len = r % 3 == 0 ? 0 : rng.NextBelow(60);
        break;
      case Shape::kInterleaved:
        len = 50;
        break;
      default:
        len = rng.NextBelow(120);
        break;
    }
    std::vector<Tagged>& run = runs[r];
    run.reserve(len);
    int64_t t = 0;
    for (size_t j = 0; j < len; ++j) {
      switch (shape) {
        case Shape::kAllTies:
          t = 42;
          break;
        case Shape::kDisjoint:
          t = static_cast<int64_t>(r) * 100000 + static_cast<int64_t>(j);
          break;
        case Shape::kInterleaved:
          t = static_cast<int64_t>(j) * static_cast<int64_t>(k) +
              static_cast<int64_t>(r);
          break;
        default:
          // Non-decreasing steps drawn from a tiny alphabet: plenty of
          // intra-run AND cross-run ties.
          t += static_cast<int64_t>(rng.NextBelow(3));
          break;
      }
      run.push_back(Tagged{t, tag++});
    }
  }
  return runs;
}

const Shape kAllShapes[] = {Shape::kRandomTies, Shape::kAllTies,
                            Shape::kDisjoint,   Shape::kInterleaved,
                            Shape::kSkewed,     Shape::kWithEmpties};

// Merges `runs` with one LoserTreePass through HuffmanCursorMergeInto over
// single-chunk cursors.
void CursorMerge(const std::vector<std::vector<Tagged>>& runs,
                 std::vector<Tagged>* out, MergeStats* stats = nullptr,
                 LoserTreeScratch<Tagged>* scratch = nullptr) {
  std::vector<VectorRunCursor<Tagged>> owned;
  owned.reserve(runs.size());
  std::vector<RunCursor<Tagged>*> cursors;
  for (const std::vector<Tagged>& r : runs) {
    owned.emplace_back(r.data(), r.data() + r.size());
    cursors.push_back(&owned.back());
  }
  HuffmanCursorMergeInto(&cursors, TimeLess{}, out, stats, scratch);
}

// The loser tree must order values exactly like a stable reference sort of
// the flattened input — std::stable_sort over (time) with runs laid out in
// Huffman-rank order is NOT that reference (ranks permute runs), so this
// test checks the weaker multiset+sortedness property at every fan-in;
// byte-identity is pinned against HuffmanMergeInto below.
TEST(LoserTreeTest, SortedPermutationAtEveryFanIn) {
  for (const Shape shape : kAllShapes) {
    for (size_t k = 1; k <= 64; ++k) {
      auto runs = MakeRuns(shape, k, /*seed=*/k);
      std::vector<Tagged> all;
      for (const auto& r : runs) all.insert(all.end(), r.begin(), r.end());
      std::vector<Tagged> out;
      CursorMerge(runs, &out);
      ASSERT_EQ(out.size(), all.size())
          << ShapeName(shape) << " k=" << k;
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                                 [](const Tagged& a, const Tagged& b) {
                                   return a.time < b.time;
                                 }))
          << ShapeName(shape) << " k=" << k;
      // Same multiset: tags are unique, so sorting by tag must reproduce
      // the flattened input exactly.
      auto by_tag = [](const Tagged& a, const Tagged& b) {
        return a.tag < b.tag;
      };
      std::sort(out.begin(), out.end(), by_tag);
      std::sort(all.begin(), all.end(), by_tag);
      EXPECT_EQ(out, all) << ShapeName(shape) << " k=" << k;
    }
  }
}

// The headline contract: one loser-tree pass in the plan's leaf order is
// byte-identical to the pairwise HuffmanMergeInto cascade — same elements,
// same order on every cross-run tie — including fan-ins past the 64-run
// cap of the parallel merge's k-way leaves.
TEST(LoserTreeTest, ByteIdenticalToHuffmanCascade) {
  const size_t kFanIns[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32,
                            33, 48, 64, 65, 100, 150, 200};
  for (const Shape shape : kAllShapes) {
    for (const size_t k : kFanIns) {
      const auto runs = MakeRuns(shape, k, /*seed=*/1000 + k);

      std::vector<Tagged> want;
      HuffmanMergeInto(RunSpans(runs), TimeLess{}, &want);
      std::vector<Tagged> got;
      CursorMerge(runs, &got);

      ASSERT_EQ(got, want) << ShapeName(shape) << " k=" << k;
    }
  }
}

// A fan-in far past one tree's leaf cap still merges in a single pass:
// every element moves once, and the call counts as one merge step.
TEST(LoserTreeTest, WideFanInRunsOnePass) {
  auto runs = MakeRuns(Shape::kRandomTies, 150, /*seed=*/3);
  size_t total = 0;
  for (const auto& r : runs) total += r.size();
  std::vector<Tagged> out;
  MergeStats stats;
  CursorMerge(runs, &out, &stats);
  EXPECT_EQ(stats.binary_merges, 1u);
  EXPECT_EQ(stats.elements_moved, total);
  EXPECT_EQ(out.size(), total);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), TimeLess{}));
}

// Scratch reuse: a second merge through the same scratch must not grow it
// (same fan-in), and its MemoryBytes must be visible to the owner.
TEST(LoserTreeTest, ScratchReportsBytesAndIsReusable) {
  LoserTreeScratch<Tagged> scratch;
  EXPECT_EQ(scratch.MemoryBytes(), 0u);
  const auto runs = MakeRuns(Shape::kRandomTies, 32, /*seed=*/5);
  std::vector<Tagged> out;
  CursorMerge(runs, &out, nullptr, &scratch);
  const size_t after_first = scratch.MemoryBytes();
  EXPECT_GT(after_first, 0u);
  std::vector<Tagged> out2;
  CursorMerge(runs, &out2, nullptr, &scratch);
  EXPECT_EQ(scratch.MemoryBytes(), after_first);
  EXPECT_EQ(out, out2);
}

// Heavy-tie runs (kRandomTies steps) totalling 1.5x the parallel merge's
// byte threshold, so the task DAG runs on a multi-threaded pool.
std::vector<std::vector<Tagged>> MakeLargeRuns(size_t k, uint64_t seed) {
  Rng rng(seed);
  const size_t avg = 3 * kParallelMergeMinBytes / sizeof(Tagged) / k;
  std::vector<std::vector<Tagged>> runs(k);
  uint32_t tag = 0;
  for (std::vector<Tagged>& run : runs) {
    const size_t len = avg / 2 + rng.NextBelow(avg);
    int64_t t = 0;
    for (size_t j = 0; j < len; ++j) {
      t += static_cast<int64_t>(rng.NextBelow(3));
      run.push_back(Tagged{t, tag++});
    }
  }
  return runs;
}

// The parallel task-DAG merge with k-way leaf collapse must stay
// byte-identical to the sequential cascade at every thread count, from
// fan-ins where both halves of the final merge are k-way leaves to fan-ins
// wide enough to leave binary merges above the collapsed leaves.
TEST(LoserTreeTest, ParallelKwayLeavesByteIdenticalAcrossThreadCounts) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    for (const size_t k : {size_t{4}, size_t{9}, size_t{40}, size_t{130},
                           size_t{300}}) {
      const auto runs = MakeLargeRuns(k, 500 + k);

      std::vector<Tagged> want;
      HuffmanMergeInto(RunSpans(runs), TimeLess{}, &want);

      std::vector<Tagged> got;
      const size_t tasks =
          ParallelMergeRunsInto(RunSpans(runs), TimeLess{}, &got, &pool);
      ASSERT_EQ(got, want) << "threads=" << threads << " k=" << k;
      EXPECT_EQ(tasks > 0, threads > 1) << "threads=" << threads;
    }
  }
}

// A run served in random-length chunks with empty chunks mixed in — the
// shape a spilled run's block stream takes.
class ChunkedCursor final : public RunCursor<Tagged> {
 public:
  ChunkedCursor(const std::vector<Tagged>& run, Rng* rng) : run_(run) {
    size_t pos = 0;
    while (pos < run_.size()) {
      if (rng->NextBelow(4) == 0) ends_.push_back(pos);  // Empty chunk.
      pos = std::min(run_.size(), pos + 1 + rng->NextBelow(16));
      ends_.push_back(pos);
    }
  }
  size_t total() const override { return run_.size(); }
  std::pair<const Tagged*, const Tagged*> NextChunk() override {
    if (next_ == ends_.size()) return {nullptr, nullptr};
    const size_t lo = next_ == 0 ? 0 : ends_[next_ - 1];
    const size_t hi = ends_[next_++];
    return {run_.data() + lo, run_.data() + hi};
  }

 private:
  const std::vector<Tagged>& run_;
  std::vector<size_t> ends_;  // One past each chunk.
  size_t next_ = 0;
};

// The spill tier's streaming merge must be byte-identical to the pairwise
// cascade over the same runs, whatever the chunking: multi-chunk cursors,
// empty chunks, empty runs, cross-cursor ties, and more cursors than one
// loser tree's fan-in cap.
TEST(HuffmanCursorMergeTest, ByteIdenticalToHuffmanCascade) {
  const Shape kShapes[] = {Shape::kRandomTies, Shape::kAllTies,
                           Shape::kSkewed, Shape::kWithEmpties};
  const size_t kFanIns[] = {1, 2, 3, 8, 33, 64, 65, 100, 150};
  for (const Shape shape : kShapes) {
    for (const size_t k : kFanIns) {
      const auto runs = MakeRuns(shape, k, /*seed=*/3000 + k);
      std::vector<Tagged> want;
      HuffmanMergeInto(RunSpans(runs), TimeLess{}, &want);

      Rng rng(k);
      std::vector<ChunkedCursor> owned;
      owned.reserve(k);
      std::vector<RunCursor<Tagged>*> cursors;
      size_t total = 0;
      for (const auto& r : runs) {
        owned.emplace_back(r, &rng);
        cursors.push_back(&owned.back());
        total += r.size();
      }
      std::vector<Tagged> got;
      MergeStats stats;
      HuffmanCursorMergeInto(&cursors, TimeLess{}, &got, &stats);
      ASSERT_EQ(got, want) << ShapeName(shape) << " k=" << k;
      EXPECT_EQ(stats.elements_moved, total);
    }
  }
}

using LoserSorter = ImpatienceSorter<Timestamp, IdentityTimeOf>;

// Budget 1, checked at every push: every run moves to disk, so every
// multi-run punctuation merge streams through the cursor merge and its
// loser-tree scratch.
ImpatienceConfig ForcedSpillConfig() {
  ImpatienceConfig config;
  config.spill.use_env_default = false;
  config.spill.memory_budget = 1;
  config.spill.check_period = 1;
  config.spill.min_spill_bytes = 0;
  config.spill.block_bytes = 1024;
  return config;
}

// The sorter's MemoryBytes must cover the merge pool and the loser-tree
// scratch the cursor merges keep warm across punctuations.
TEST(LoserTreeSorterTest, MemoryBytesCoversPoolAndScratch) {
  LoserSorter sorter(ForcedSpillConfig());
  Rng rng(77);
  Timestamp now = 0;
  std::vector<Timestamp> out;
  for (int step = 0; step < 5000; ++step) {
    sorter.Push(now + static_cast<Timestamp>(rng.NextBelow(200)));
    ++now;
    if (step % 400 == 399) sorter.OnPunctuation(now - 150, &out);
  }
  // The stress actually hit the cursor path with several runs.
  ASSERT_GT(sorter.counters().spill_merge_fanin.count(), 0u);
  ASSERT_GT(sorter.counters().spill_merge_fanin.max(), 1u);
  EXPECT_GT(sorter.MemoryBytes(), 0u);
  sorter.Flush(&out);
  // After a flush the runs are gone but the scratch stays warm; the
  // accounting must still see it rather than reporting zero.
  EXPECT_GT(sorter.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace impatience
