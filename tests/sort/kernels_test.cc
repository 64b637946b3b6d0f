// Equivalence property tests for the dispatched hot-path kernels.
//
// The kernel contract is byte-identity: every dispatch level must return
// exactly what the portable scalar reference (and the standard library)
// returns, including equal-timestamp tie order in the merge. These tests
// force every level the CPU supports through every kernel against
// reference implementations, over random, adversarial-tie, ascending,
// descending, and empty/singleton inputs. IMPATIENCE_KERNEL_LEVEL covers
// the process-wide override path in CI (tools/check.sh runs the suite
// with the scalar level forced).

#include "sort/kernels.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/cpu_features.h"
#include "common/random.h"
#include "common/timestamp.h"
#include "sort/merge.h"

namespace impatience {
namespace {

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  const KernelLevel best = DetectKernelLevel();
  if (best >= KernelLevel::kAVX2) levels.push_back(KernelLevel::kAVX2);
  if (best >= KernelLevel::kAVX512) levels.push_back(KernelLevel::kAVX512);
  return levels;
}

// Reference for FindFirstLEDesc: linear scan of a strictly-descending
// array.
size_t RefFirstLEDesc(const std::vector<Timestamp>& data, Timestamp t) {
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i] <= t) return i;
  }
  return data.size();
}

// Strictly descending array of n distinct values with gaps, so queries can
// hit values exactly, between values, and outside the range.
std::vector<Timestamp> MakeDescending(size_t n, Rng* rng) {
  std::vector<Timestamp> data(n);
  Timestamp v = static_cast<Timestamp>(10 * n + 100);
  for (size_t i = 0; i < n; ++i) {
    v -= static_cast<Timestamp>(1 + rng->NextBelow(5));
    data[i] = v;
  }
  return data;
}

TEST(FindFirstLEDescTest, MatchesReferenceAtEveryLevel) {
  Rng rng(301);
  for (const KernelLevel level : SupportedLevels()) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{7}, size_t{8}, size_t{15}, size_t{16},
                           size_t{17}, size_t{31}, size_t{100},
                           size_t{1000}}) {
      const std::vector<Timestamp> data = MakeDescending(n, &rng);
      std::vector<Timestamp> queries;
      for (const Timestamp v : data) {
        queries.push_back(v);
        queries.push_back(v - 1);
        queries.push_back(v + 1);
      }
      queries.push_back(kMinTimestamp + 1);
      queries.push_back(kMaxTimestamp - 1);
      queries.push_back(0);
      for (const Timestamp t : queries) {
        EXPECT_EQ(kernels::FindFirstLEDesc(data.data(), n, t, level),
                  RefFirstLEDesc(data, t))
            << "level=" << KernelLevelName(level) << " n=" << n
            << " t=" << t;
      }
    }
  }
}

TEST(FindFirstLEDescTest, NegativeTimestampsAtEveryLevel) {
  // Values straddling 0 and the 32-bit boundaries catch any level that
  // compares 64-bit timestamps unsigned or in 32-bit pieces.
  std::vector<Timestamp> data = {
      Timestamp{1} << 40, (Timestamp{1} << 32) + 5, Timestamp{1} << 32,
      (Timestamp{1} << 32) - 1, Timestamp{1} << 31, 65536, 3, 0, -2,
      -65536, -(Timestamp{1} << 31), -(Timestamp{1} << 32),
      -(Timestamp{1} << 40)};
  ASSERT_TRUE(std::is_sorted(data.rbegin(), data.rend()));
  for (const KernelLevel level : SupportedLevels()) {
    for (const Timestamp v : data) {
      for (const Timestamp t : {v - 1, v, v + 1}) {
        EXPECT_EQ(kernels::FindFirstLEDesc(data.data(), data.size(), t,
                                           level),
                  RefFirstLEDesc(data, t))
            << "level=" << KernelLevelName(level) << " t=" << t;
      }
    }
  }
}

TEST(UpperBoundAscGTTest, MatchesStdUpperBoundAtEveryLevel) {
  Rng rng(303);
  for (const KernelLevel level : SupportedLevels()) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                           size_t{16}, size_t{17}, size_t{64}, size_t{100},
                           size_t{1000}}) {
      // Ascending with heavy ties: the cut lands inside tie blocks.
      std::vector<Timestamp> data(n);
      Timestamp v = 0;
      for (size_t i = 0; i < n; ++i) {
        v += static_cast<Timestamp>(rng.NextBelow(3));  // 0 = tie.
        data[i] = v;
      }
      for (size_t q = 0; q < 2 * n + 3; ++q) {
        const Timestamp t =
            static_cast<Timestamp>(
                rng.NextBelow(static_cast<uint64_t>(v) + 3)) -
            1;
        // Sub-range bounds exercise the lo/hi interface the sorter uses
        // (cutting from a run's head, not index 0).
        const size_t lo = n == 0 ? 0 : rng.NextBelow(n);
        const auto want = std::upper_bound(data.begin() +
                                               static_cast<ptrdiff_t>(lo),
                                           data.end(), t);
        EXPECT_EQ(kernels::UpperBoundAscGT(data.data(), lo, n, t, level),
                  static_cast<size_t>(want - data.begin()))
            << "level=" << KernelLevelName(level) << " n=" << n
            << " lo=" << lo << " t=" << t;
      }
    }
  }
}

TEST(NextIndexLETest, MatchesLinearScanAtEveryLevel) {
  Rng rng(307);
  for (const KernelLevel level : SupportedLevels()) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{4}, size_t{5}, size_t{8}, size_t{33},
                           size_t{257}}) {
      // Unsorted head-times-like array.
      std::vector<Timestamp> data(n);
      for (size_t i = 0; i < n; ++i) {
        data[i] = static_cast<Timestamp>(rng.NextBelow(50));
      }
      for (size_t begin = 0; begin <= n; ++begin) {
        for (const Timestamp t : {Timestamp{0}, Timestamp{10},
                                  Timestamp{25}, Timestamp{49},
                                  Timestamp{100}, Timestamp{-1}}) {
          size_t want = n;
          for (size_t i = begin; i < n; ++i) {
            if (data[i] <= t) {
              want = i;
              break;
            }
          }
          EXPECT_EQ(kernels::NextIndexLE(data.data(), begin, n, t, level),
                    want)
              << "level=" << KernelLevelName(level) << " n=" << n
              << " begin=" << begin << " t=" << t;
        }
      }
    }
  }
}

// Merge tests run on (timestamp, tag) pairs where only the timestamp is
// compared: any stability violation changes the tag sequence and fails
// the byte-identity check against std::merge.
using Tagged = std::pair<Timestamp, uint32_t>;

struct TimeLess {
  bool operator()(const Tagged& a, const Tagged& b) const {
    return a.first < b.first;
  }
};

std::vector<Tagged> Tag(const std::vector<Timestamp>& times,
                        uint32_t side) {
  std::vector<Tagged> out;
  out.reserve(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    out.push_back({times[i], (side << 24) | static_cast<uint32_t>(i)});
  }
  return out;
}

void ExpectMergeMatchesStd(const std::vector<Timestamp>& ta,
                           const std::vector<Timestamp>& tb,
                           const std::string& label) {
  const std::vector<Tagged> a = Tag(ta, 1);
  const std::vector<Tagged> b = Tag(tb, 2);
  std::vector<Tagged> want;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(want), TimeLess{});

  // Appending vector merge (the MergeRunsInto path), on top of existing
  // output content.
  std::vector<Tagged> got = {{-999, 0}};
  const bool disjoint = kernels::MergeIntoVector(
      a.data(), a.data() + a.size(), b.data(), b.data() + b.size(),
      TimeLess{}, &got);
  ASSERT_EQ(got.size(), want.size() + 1) << label;
  EXPECT_EQ(got[0], (Tagged{-999, 0})) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i + 1], want[i]) << label << " at " << i;
  }
  if (disjoint) {
    // The flag may only fire when concatenation IS the stable merge.
    const bool ab_ok = a.empty() || b.empty() ||
                       !TimeLess{}(b.front(), a.back());
    const bool ba_ok = a.empty() || b.empty() ||
                       TimeLess{}(b.back(), a.front());
    EXPECT_TRUE(ab_ok || ba_ok) << label;
  }

  // Pre-sized pointer merge (the parallel-merge leaf path).
  std::vector<Tagged> dst(want.size());
  bool ptr_disjoint = false;
  Tagged* end = kernels::MergeToPtr(a.data(), a.data() + a.size(),
                                    b.data(), b.data() + b.size(),
                                    TimeLess{}, dst.data(), &ptr_disjoint);
  ASSERT_EQ(static_cast<size_t>(end - dst.data()), want.size()) << label;
  EXPECT_EQ(dst, want) << label;
}

TEST(MergeKernelTest, MatchesStdMergeAcrossInputShapes) {
  Rng rng(311);
  // Empty / singleton shapes.
  ExpectMergeMatchesStd({}, {}, "both empty");
  ExpectMergeMatchesStd({5}, {}, "b empty");
  ExpectMergeMatchesStd({}, {5}, "a empty");
  ExpectMergeMatchesStd({5}, {5}, "singleton tie");
  ExpectMergeMatchesStd({5}, {7}, "singleton disjoint");
  ExpectMergeMatchesStd({7}, {5}, "singleton disjoint swapped");

  // Fully disjoint (concat fast paths, both directions), with tie at the
  // boundary.
  ExpectMergeMatchesStd({1, 2, 3}, {3, 4, 5}, "boundary tie ab");
  ExpectMergeMatchesStd({3, 4, 5}, {1, 2, 3}, "boundary tie ba");
  ExpectMergeMatchesStd({1, 2, 3}, {4, 5, 6}, "disjoint ab");
  ExpectMergeMatchesStd({4, 5, 6}, {1, 2, 3}, "disjoint ba");

  // Adversarial ties: all-equal and block-equal inputs.
  ExpectMergeMatchesStd(std::vector<Timestamp>(100, 7),
                        std::vector<Timestamp>(37, 7), "all equal");
  ExpectMergeMatchesStd({1, 1, 1, 2, 2, 3}, {1, 2, 2, 2, 3, 3},
                        "tie blocks");

  // Random interleavings at sizes around the gallop threshold and above.
  for (int round = 0; round < 50; ++round) {
    const size_t na = rng.NextBelow(200);
    const size_t nb = rng.NextBelow(200);
    std::vector<Timestamp> ta(na);
    std::vector<Timestamp> tb(nb);
    // Small value range forces ties; occasional rounds use a wide range
    // to force long gallop stretches.
    const uint64_t range = round % 5 == 0 ? 10 : 1000;
    for (auto& t : ta) t = static_cast<Timestamp>(rng.NextBelow(range));
    for (auto& t : tb) t = static_cast<Timestamp>(rng.NextBelow(range));
    std::sort(ta.begin(), ta.end());
    std::sort(tb.begin(), tb.end());
    ExpectMergeMatchesStd(ta, tb, "random round " + std::to_string(round));
  }

  // One side ascending far below the other (pure gallop).
  std::vector<Timestamp> low(500);
  std::vector<Timestamp> high(500);
  for (size_t i = 0; i < 500; ++i) {
    low[i] = static_cast<Timestamp>(i);
    high[i] = static_cast<Timestamp>(10000 + i);
  }
  ExpectMergeMatchesStd(low, high, "separated ascending");
  ExpectMergeMatchesStd(high, low, "separated ascending swapped");
}

TEST(MergeKernelTest, DisjointFlagFiresOnConcatenation) {
  const std::vector<Tagged> a = Tag({1, 2, 3}, 1);
  const std::vector<Tagged> b = Tag({4, 5}, 2);
  std::vector<Tagged> out;
  EXPECT_TRUE(kernels::MergeIntoVector(a.data(), a.data() + a.size(),
                                       b.data(), b.data() + b.size(),
                                       TimeLess{}, &out));
  out.clear();
  // Overlapping ranges must not report the fast path.
  const std::vector<Tagged> c = Tag({2, 6}, 2);
  EXPECT_FALSE(kernels::MergeIntoVector(a.data(), a.data() + a.size(),
                                        c.data(), c.data() + c.size(),
                                        TimeLess{}, &out));
}

TEST(GallopBoundsTest, MatchStdBounds) {
  Rng rng(313);
  for (int round = 0; round < 20; ++round) {
    std::vector<Timestamp> data(1 + rng.NextBelow(300));
    for (auto& t : data) t = static_cast<Timestamp>(rng.NextBelow(40));
    std::sort(data.begin(), data.end());
    auto less = [](Timestamp a, Timestamp b) { return a < b; };
    for (Timestamp key = -1; key <= 41; ++key) {
      const Timestamp* lb = kernels::GallopLowerBound(
          data.data(), data.data() + data.size(), key, less);
      const Timestamp* ub = kernels::GallopUpperBound(
          data.data(), data.data() + data.size(), key, less);
      EXPECT_EQ(lb - data.data(),
                std::lower_bound(data.begin(), data.end(), key) -
                    data.begin());
      EXPECT_EQ(ub - data.data(),
                std::upper_bound(data.begin(), data.end(), key) -
                    data.begin());
    }
  }
}

TEST(CpuFeaturesTest, ParseKernelLevelRoundTrips) {
  for (const KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kAVX2, KernelLevel::kAVX512}) {
    KernelLevel parsed;
    ASSERT_TRUE(ParseKernelLevel(KernelLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  KernelLevel parsed = KernelLevel::kAVX2;
  EXPECT_FALSE(ParseKernelLevel("avx999", &parsed));
  EXPECT_FALSE(ParseKernelLevel("sse2", &parsed));  // Tier dropped.
  EXPECT_FALSE(ParseKernelLevel("", &parsed));
  EXPECT_EQ(parsed, KernelLevel::kAVX2);  // Untouched on failure.
}

TEST(CpuFeaturesTest, ActiveLevelNeverExceedsCpu) {
  // Whatever IMPATIENCE_KERNEL_LEVEL says (check.sh forces "scalar"), the
  // active level must be executable on this machine.
  EXPECT_LE(static_cast<int>(ActiveKernelLevel()),
            static_cast<int>(DetectKernelLevel()));
}

TEST(CpuFeaturesTest, ResolveClampsRequestsAboveDetected) {
  // The fallback seam: a deployment forcing kAVX512 on a machine that
  // detects only kAVX2 (or lower) must degrade to the detected level, not
  // dispatch an ISA the CPU lacks.
  for (const KernelLevel detected :
       {KernelLevel::kScalar, KernelLevel::kAVX2, KernelLevel::kAVX512}) {
    for (const KernelLevel requested :
         {KernelLevel::kScalar, KernelLevel::kAVX2, KernelLevel::kAVX512}) {
      const KernelLevel resolved =
          ResolveKernelLevel(KernelLevelName(requested), detected);
      if (requested <= detected) {
        EXPECT_EQ(resolved, requested)
            << KernelLevelName(requested) << " on "
            << KernelLevelName(detected);
      } else {
        EXPECT_EQ(resolved, detected)
            << KernelLevelName(requested) << " on "
            << KernelLevelName(detected);
      }
    }
  }
}

TEST(CpuFeaturesTest, ResolveIgnoresUnsetAndUnknownOverrides) {
  EXPECT_EQ(ResolveKernelLevel(nullptr, KernelLevel::kAVX2),
            KernelLevel::kAVX2);
  EXPECT_EQ(ResolveKernelLevel("", KernelLevel::kScalar),
            KernelLevel::kScalar);
  EXPECT_EQ(ResolveKernelLevel("avx999", KernelLevel::kAVX512),
            KernelLevel::kAVX512);
}

TEST(GatherByIndexTest, MatchesScalarPermutationAtEveryLevel) {
  Rng rng(317);
  for (const KernelLevel level : SupportedLevels()) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                           size_t{9}, size_t{64}, size_t{1000}}) {
      std::vector<int64_t> in(n);
      for (auto& v : in) {
        v = static_cast<int64_t>(rng.NextBelow(1u << 30)) - (1 << 29);
      }
      // Random permutation with repeats allowed is fine for the gather
      // contract (out[i] = in[keys[i].index]); use a true shuffle half the
      // time to mirror the sorter's use.
      std::vector<kernels::SortKey> keys(n);
      for (size_t i = 0; i < n; ++i) {
        keys[i].time = static_cast<Timestamp>(i);
        keys[i].index = static_cast<uint32_t>(rng.NextBelow(n == 0 ? 1 : n));
      }
      std::vector<int64_t> want(n);
      for (size_t i = 0; i < n; ++i) want[i] = in[keys[i].index];
      std::vector<int64_t> got(n);
      kernels::GatherByIndex(in.data(), keys.data(), n, got.data(), level);
      EXPECT_EQ(got, want)
          << "level=" << KernelLevelName(level) << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace impatience
