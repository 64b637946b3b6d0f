// MergeBufferPool, gallop search bounds, and run-selection helpers.

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sort/merge.h"
#include "sort/run_select.h"

namespace impatience {
namespace {

TEST(MergeBufferPoolTest, AcquireReturnsEmptyWithCapacity) {
  MergeBufferPool<int> pool;
  std::vector<int> buf = pool.Acquire(100);
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), 100u);
}

TEST(MergeBufferPoolTest, ReleasedBuffersAreReused) {
  MergeBufferPool<int> pool;
  std::vector<int> buf = pool.Acquire(100);
  buf.resize(50);
  const int* data = buf.data();
  pool.Release(std::move(buf));
  std::vector<int> again = pool.Acquire(80);  // Fits in the 100-capacity.
  EXPECT_EQ(again.data(), data);
  EXPECT_TRUE(again.empty());
}

TEST(MergeBufferPoolTest, MemoryBytesTracksFreeBuffers) {
  MergeBufferPool<int> pool;
  EXPECT_EQ(pool.MemoryBytes(), 0u);
  pool.Release(std::vector<int>(100));
  EXPECT_GE(pool.MemoryBytes(), 100 * sizeof(int));
}

TEST(MergeBufferPoolTest, TrimDropsBuffers) {
  MergeBufferPool<int> pool;
  pool.Release(std::vector<int>(1000));
  pool.Release(std::vector<int>(1000));
  EXPECT_GE(pool.MemoryBytes(), 2000 * sizeof(int));
  pool.Trim(1000 * sizeof(int));
  EXPECT_LE(pool.MemoryBytes(), 1000 * sizeof(int));
  pool.Trim(0);
  EXPECT_EQ(pool.MemoryBytes(), 0u);
}

TEST(MergeBufferPoolTest, EmptyReleaseIsIgnored) {
  MergeBufferPool<int> pool;
  pool.Release(std::vector<int>());
  EXPECT_EQ(pool.MemoryBytes(), 0u);
}

// --- Gallop bounds -------------------------------------------------------

TEST(GallopBoundsTest, LowerBoundMatchesStdOnRandomInputs) {
  Rng rng(201);
  for (int round = 0; round < 200; ++round) {
    const size_t n = 1 + rng.NextBelow(200);
    std::vector<int> v(n);
    int x = 0;
    for (size_t i = 0; i < n; ++i) {
      x += static_cast<int>(rng.NextBelow(4));
      v[i] = x;
    }
    const int key = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(x + 2)));
    const int* got = kernels::GallopLowerBound(
        v.data(), v.data() + n, key, std::less<int>());
    const auto want = std::lower_bound(v.begin(), v.end(), key);
    EXPECT_EQ(got - v.data(), want - v.begin()) << "round " << round;
  }
}

TEST(GallopBoundsTest, UpperBoundMatchesStdOnRandomInputs) {
  Rng rng(203);
  for (int round = 0; round < 200; ++round) {
    const size_t n = 1 + rng.NextBelow(200);
    std::vector<int> v(n);
    int x = 0;
    for (size_t i = 0; i < n; ++i) {
      x += static_cast<int>(rng.NextBelow(4));
      v[i] = x;
    }
    const int key = static_cast<int>(rng.NextBelow(
        static_cast<uint64_t>(x + 2)));
    const int* got = kernels::GallopUpperBound(
        v.data(), v.data() + n, key, std::less<int>());
    const auto want = std::upper_bound(v.begin(), v.end(), key);
    EXPECT_EQ(got - v.data(), want - v.begin()) << "round " << round;
  }
}

TEST(GallopBoundsTest, KeyBeyondEnds) {
  const std::vector<int> v = {2, 4, 6};
  EXPECT_EQ(kernels::GallopLowerBound(v.data(), v.data() + 3, 1,
                                      std::less<int>()),
            v.data());
  EXPECT_EQ(kernels::GallopLowerBound(v.data(), v.data() + 3, 7,
                                      std::less<int>()),
            v.data() + 3);
  EXPECT_EQ(kernels::GallopUpperBound(v.data(), v.data() + 3, 6,
                                      std::less<int>()),
            v.data() + 3);
}

// --- Run selection -------------------------------------------------------

size_t ReferenceFindRun(const std::vector<Timestamp>& tails, Timestamp t) {
  for (size_t i = 0; i < tails.size(); ++i) {
    if (tails[i] <= t) return i;
  }
  return tails.size();
}

TEST(FindRunIndexTest, MatchesLinearReference) {
  Rng rng(205);
  for (int round = 0; round < 300; ++round) {
    // Strictly descending tails of random length (crosses the linear-probe
    // threshold in both directions).
    const size_t k = 1 + rng.NextBelow(40);
    std::vector<Timestamp> tails(k);
    Timestamp v = 1000000;
    for (size_t i = 0; i < k; ++i) {
      v -= static_cast<Timestamp>(1 + rng.NextBelow(50));
      tails[i] = v;
    }
    for (int probe = 0; probe < 20; ++probe) {
      const Timestamp t = rng.NextInRange(v - 100, 1000100);
      EXPECT_EQ(FindRunIndex(tails, t), ReferenceFindRun(tails, t))
          << "round " << round;
    }
  }
}

TEST(FindRunIndexTest, EmptyTails) {
  EXPECT_EQ(FindRunIndex({}, 5), 0u);
}

TEST(FindRunIndexTest, ExactTailMatches) {
  const std::vector<Timestamp> tails = {50, 40, 30, 20, 10, 9, 8, 7, 6, 5};
  for (size_t i = 0; i < tails.size(); ++i) {
    EXPECT_EQ(FindRunIndex(tails, tails[i]), i);
  }
  EXPECT_EQ(FindRunIndex(tails, 4), tails.size());
  EXPECT_EQ(FindRunIndex(tails, 100), 0u);
}

}  // namespace
}  // namespace impatience
