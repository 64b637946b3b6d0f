// Loser-tree k-way merge properties: reference equivalence against
// std::merge semantics (flatten + stable reference), byte-identity with the
// pairwise Huffman cascade across adversarial run shapes, multi-pass
// ping-pong behaviour past the fan-in cap, the parallel k-way leaf
// collapse at several thread counts and fan-ins, the chunked cursor merge,
// and the memory accounting contract (pool outstanding/peak bytes, scratch
// bytes, sorter MemoryBytes). KernelLevel coverage comes from tools/check.sh, which
// re-runs this suite under forced IMPATIENCE_KERNEL_LEVEL settings.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "sort/impatience_sorter.h"
#include "sort/merge.h"

namespace impatience {
namespace {

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
      LoserTreeMergeInto(&runs, TimeLess{}, &out);
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

// The headline contract: LoserTreeMergeInto is byte-identical to the
// pairwise HuffmanMergeInto cascade — same elements, same order on every
// cross-run tie — including past the fan-in cap where the merge runs as
// multiple ping-pong passes.
TEST(LoserTreeTest, ByteIdenticalToHuffmanCascade) {
  const size_t kFanIns[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32,
                            33, 48, 64, 65, 100, 150, 200};
  for (const Shape shape : kAllShapes) {
    for (const size_t k : kFanIns) {
      auto runs_tree = MakeRuns(shape, k, /*seed=*/1000 + k);
      auto runs_huffman = runs_tree;

      std::vector<Tagged> want;
      HuffmanMergeInto(&runs_huffman, TimeLess{}, &want);
      std::vector<Tagged> got;
      LoserTreeMergeInto(&runs_tree, TimeLess{}, &got);

      ASSERT_EQ(got, want) << ShapeName(shape) << " k=" << k;
      EXPECT_TRUE(runs_tree.empty());  // Consumed, like the cascade.
    }
  }
}

// Dispatch through MergeRunsInto must reach the same code path.
TEST(LoserTreeTest, MergePolicyDispatchMatchesDirectCall) {
  auto runs_policy = MakeRuns(Shape::kRandomTies, 12, /*seed=*/7);
  auto runs_direct = runs_policy;
  std::vector<Tagged> want;
  LoserTreeMergeInto(&runs_direct, TimeLess{}, &want);
  std::vector<Tagged> got;
  MergeRunsInto(MergePolicy::kLoserTree, &runs_policy, TimeLess{}, &got);
  EXPECT_EQ(got, want);
}

// Multi-pass stats: k runs above the cap need ceil-log_64 passes; every
// element moves once per pass, and binary_merges counts tree passes.
TEST(LoserTreeTest, MultiPassStatsAndPingPong) {
  auto runs = MakeRuns(Shape::kRandomTies, 150, /*seed=*/3);
  size_t total = 0;
  for (const auto& r : runs)
    if (!r.empty()) total += r.size();
  std::vector<Tagged> out;
  MergeStats stats;
  MergeBufferPool<Tagged> pool;
  LoserTreeMergeInto(&runs, TimeLess{}, &out, &stats, &pool);
  // 150 runs -> pass 1 leaves ceil(150/64)=3 runs -> pass 2 is final.
  EXPECT_EQ(stats.binary_merges, 4u);  // 3 group merges + the final pass.
  // Pass 1 moves the two full groups (<= total), the final pass moves
  // everything: strictly fewer than the pairwise cascade's O(total log k).
  EXPECT_GE(stats.elements_moved, total);
  EXPECT_LE(stats.elements_moved, 2 * total);
  EXPECT_EQ(out.size(), total);
}

// Satellite: the pool's accounting must bound the merge's actual buffer
// peak, and every acquired buffer must come back — a leak here silently
// inflates the server's per-shard memory numbers forever.
TEST(LoserTreeTest, PoolAccountingBoundsPeakAndLeaksNothing) {
  auto runs = MakeRuns(Shape::kRandomTies, 150, /*seed=*/11);
  size_t group_bytes = 0;  // Bytes of the first pass's intermediates.
  for (const auto& r : runs) group_bytes += r.size() * sizeof(Tagged);
  std::vector<Tagged> out;
  MergeBufferPool<Tagged> pool;
  LoserTreeMergeInto(&runs, TimeLess{}, &out, nullptr, &pool);

  // Everything acquired was released.
  EXPECT_EQ(pool.OutstandingBytes(), 0u);
  // During pass 1 the whole input (minus ragged-tail carries) lives in
  // pool buffers at once; the high-water mark must have seen that. The
  // 150-run shape has a 22-run tail group that IS merged via the pool, so
  // the true peak is the full merged byte count.
  EXPECT_GE(pool.PeakBytes(), group_bytes);
  // And MemoryBytes (free + outstanding) never under-reports what the
  // pool still caches.
  EXPECT_GE(pool.MemoryBytes(), pool.OutstandingBytes());
  EXPECT_LE(pool.MemoryBytes(), pool.PeakBytes());
}

// Scratch reuse: a second merge through the same scratch must not grow it
// (same fan-in), and its MemoryBytes must be visible to the owner.
TEST(LoserTreeTest, ScratchReportsBytesAndIsReusable) {
  LoserTreeScratch<Tagged> scratch;
  EXPECT_EQ(scratch.MemoryBytes(), 0u);
  auto runs = MakeRuns(Shape::kRandomTies, 32, /*seed=*/5);
  auto runs2 = runs;
  std::vector<Tagged> out;
  LoserTreeMergeInto(&runs, TimeLess{}, &out, nullptr, nullptr, &scratch);
  const size_t after_first = scratch.MemoryBytes();
  EXPECT_GT(after_first, 0u);
  std::vector<Tagged> out2;
  LoserTreeMergeInto(&runs2, TimeLess{}, &out2, nullptr, nullptr, &scratch);
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
      auto runs = MakeLargeRuns(k, 500 + k);
      auto runs_seq = runs;

      std::vector<Tagged> want;
      HuffmanMergeInto(&runs_seq, TimeLess{}, &want);

      std::vector<Tagged> got;
      const size_t tasks = ParallelMergeRunsInto(&runs, TimeLess{}, &got,
                                                 nullptr, nullptr, &pool);
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
      auto runs_huffman = runs;
      std::vector<Tagged> want;
      HuffmanMergeInto(&runs_huffman, TimeLess{}, &want);

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

ImpatienceConfig LoserTreeConfig() {
  ImpatienceConfig config;
  config.merge_policy = MergePolicy::kLoserTree;
  return config;
}

// End-to-end: a kLoserTree sorter must emit exactly what a kHuffman sorter
// emits under punctuation stress, and its counters must record the k-way
// merges it ran.
TEST(LoserTreeSorterTest, MatchesHuffmanSorterUnderPunctuationStress) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    LoserSorter tree_sorter(LoserTreeConfig());
    LoserSorter huffman_sorter;  // Default config: kHuffman.
    Rng rng(100 + seed);
    Timestamp now = 0;
    std::vector<Timestamp> tree_out;
    std::vector<Timestamp> huffman_out;
    for (int step = 0; step < 2000; ++step) {
      const Timestamp t =
          now + static_cast<Timestamp>(rng.NextBelow(64)) - 20;
      tree_sorter.Push(t);
      huffman_sorter.Push(t);
      ++now;
      if (rng.NextBelow(50) == 0) {
        const Timestamp punct = now - 30;
        tree_sorter.OnPunctuation(punct, &tree_out);
        huffman_sorter.OnPunctuation(punct, &huffman_out);
      }
    }
    tree_sorter.Flush(&tree_out);
    huffman_sorter.Flush(&huffman_out);
    ASSERT_EQ(tree_out, huffman_out) << "seed " << seed;

    const ImpatienceCounters& counters = tree_sorter.counters();
    EXPECT_EQ(huffman_sorter.counters().loser_tree_merges, 0u);
    if (counters.loser_tree_merges > 0) {
      // One fan-in sample per k-way merge.
      EXPECT_EQ(counters.kway_fanin.count(), counters.loser_tree_merges);
    }
  }
}

// Satellite: the sorter's MemoryBytes must cover the ping-pong pool and
// the loser-tree scratch — tracked bytes bound the merge path's actual
// retained allocations (runs + pool cache + tree state).
TEST(LoserTreeSorterTest, MemoryBytesCoversPoolAndScratch) {
  LoserSorter sorter(LoserTreeConfig());
  Rng rng(77);
  Timestamp now = 0;
  std::vector<Timestamp> out;
  uint64_t merges = 0;
  for (int step = 0; step < 5000; ++step) {
    sorter.Push(now + static_cast<Timestamp>(rng.NextBelow(200)));
    ++now;
    if (step % 400 == 399) {
      sorter.OnPunctuation(now - 150, &out);
      merges = sorter.counters().loser_tree_merges;
    }
  }
  ASSERT_GT(merges, 0u);  // The stress actually hit the k-way path.
  // Retained bytes the sorter must account for: at minimum the buffered
  // elements it still holds.
  EXPECT_GE(sorter.MemoryBytes(),
            sorter.buffered_count() * sizeof(Timestamp));
  sorter.Flush(&out);
  // After a flush the runs are gone but pool + scratch stay warm; the
  // accounting must still see them rather than reporting zero.
  EXPECT_GT(sorter.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace impatience
