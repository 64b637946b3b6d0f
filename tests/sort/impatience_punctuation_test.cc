// Focused tests for ImpatienceSorter's punctuation fast paths: the
// head-time skip array, the single-head-run fast path, pool trimming, and
// randomized equivalence against a reference model under adversarial
// punctuation schedules.

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sort/impatience_sorter.h"
#include "tests/testing/sequences.h"

namespace impatience {
namespace {

using Sorter = ImpatienceSorter<Timestamp, IdentityTimeOf>;

TEST(ImpatiencePunctuationTest, SingleHeadRunFastPath) {
  // In-order stream: exactly one run, every punctuation takes the fast
  // path; results must still be exact.
  Sorter sorter;
  std::vector<Timestamp> out;
  for (Timestamp t = 1; t <= 1000; ++t) {
    sorter.Push(t);
    if (t % 10 == 0) sorter.OnPunctuation(t - 3, &out);
  }
  sorter.Flush(&out);
  ASSERT_EQ(out.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(sorter.run_count(), 0u);
}

TEST(ImpatiencePunctuationTest, SkippedRunsStillReleaseLater) {
  Sorter sorter;
  std::vector<Timestamp> out;
  // Run 0: 100..109; run 1 (late events): 50..54.
  for (Timestamp t = 100; t < 110; ++t) sorter.Push(t);
  for (Timestamp t = 50; t < 55; ++t) sorter.Push(t + 0);
  // First punctuation releases only the late run's span.
  sorter.OnPunctuation(60, &out);
  EXPECT_EQ(out.size(), 5u);
  // Second punctuation must still see run 0 (skip array updated).
  sorter.OnPunctuation(105, &out);
  EXPECT_EQ(out.size(), 11u);  // 50..54 plus 100..105.
  sorter.Flush(&out);
  EXPECT_EQ(out.size(), 15u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(ImpatiencePunctuationTest, ManyTinyPunctuationsStayExact) {
  // Punctuation after every single push — the highest-frequency regime of
  // Figure 8 — across a disordered stream.
  auto input = testing::NearlySortedSequence(20000, 30, 32, /*seed=*/17);
  Sorter sorter;
  std::vector<Timestamp> out;
  Timestamp hw = kMinTimestamp;
  Timestamp last_punct = kMinTimestamp;
  size_t late = 0;
  for (const Timestamp t : input) {
    if (t <= last_punct) ++late;
    sorter.Push(t);
    hw = std::max(hw, t);
    const Timestamp p = hw - 100;
    if (p > last_punct) {
      sorter.OnPunctuation(p, &out);
      last_punct = p;
    }
  }
  sorter.Flush(&out);
  EXPECT_EQ(out.size() + late, input.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(sorter.late_drops(), late);
}

TEST(ImpatiencePunctuationTest, PoolDoesNotDominateMemory) {
  // After a large burst is flushed, the retained scratch pool must not
  // keep the sorter's footprint at burst size.
  Sorter sorter;
  for (Timestamp t = 0; t < 200000; ++t) {
    // Two interleaved runs so punctuation merges (and thus pools buffers).
    sorter.Push(t * 2);
    sorter.Push(t * 2 + 1);
  }
  std::vector<Timestamp> out;
  sorter.Flush(&out);
  EXPECT_EQ(out.size(), 400000u);
  // 64 KiB of retained scratch is the configured floor.
  EXPECT_LE(sorter.MemoryBytes(), (size_t{1} << 20));
}

TEST(ImpatiencePunctuationTest, RandomizedAgainstReferenceModel) {
  // Reference: a multiset of pending timestamps; punctuation removes and
  // returns everything <= t in sorted order.
  Rng rng(19);
  for (int round = 0; round < 30; ++round) {
    Sorter sorter;
    std::multiset<Timestamp> pending;
    std::vector<Timestamp> got;
    std::vector<Timestamp> want;
    Timestamp last_punct = kMinTimestamp;

    const size_t ops = 2000;
    for (size_t i = 0; i < ops; ++i) {
      if (rng.NextBool(0.8)) {
        const Timestamp t = rng.NextInRange(0, 5000);
        sorter.Push(t);
        if (t > last_punct) pending.insert(t);
      } else {
        const Timestamp t = std::max(last_punct,
                                     rng.NextInRange(0, 6000));
        sorter.OnPunctuation(t, &got);
        auto end = pending.upper_bound(t);
        want.insert(want.end(), pending.begin(), end);
        pending.erase(pending.begin(), end);
        last_punct = t;
        ASSERT_EQ(got, want) << "round " << round << " op " << i;
      }
    }
    sorter.Flush(&got);
    want.insert(want.end(), pending.begin(), pending.end());
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST(ImpatiencePunctuationTest, MergePolicyDoesNotChangeResults) {
  auto input = testing::BatchUploadSequence(30000, 3000, /*seed=*/23);
  std::vector<std::vector<Timestamp>> results;
  for (const bool huffman_merge : {true, false}) {
    ImpatienceConfig config;
    config.huffman_merge = huffman_merge;
    Sorter sorter(config);
    std::vector<Timestamp> out;
    Timestamp hw = kMinTimestamp;
    Timestamp last = kMinTimestamp;
    for (size_t i = 0; i < input.size(); ++i) {
      sorter.Push(input[i]);
      hw = std::max(hw, input[i]);
      if ((i + 1) % 500 == 0 && hw - 50000 > last) {
        last = hw - 50000;
        sorter.OnPunctuation(last, &out);
      }
    }
    sorter.Flush(&out);
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
}

}  // namespace
}  // namespace impatience
