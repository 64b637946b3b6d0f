// CRC32 kernels against a bytewise reference: every kernel level this CPU
// supports must return the reference value for every length and
// alignment, since the wire protocol and the run files both depend on it.

#include "common/crc32.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"

namespace impatience {
namespace {

// The textbook one-bit-at-a-time CRC: no tables, nothing shared with the
// kernels under test. Advances the raw (pre-inverted) state by one byte.
uint32_t ReferenceStep(uint32_t crc, uint8_t byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k) {
    crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc;
}

uint32_t ReferenceCrc32(const uint8_t* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) crc = ReferenceStep(crc, data[i]);
  return crc ^ 0xFFFFFFFFu;
}

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels;
  for (int l = 0; l <= static_cast<int>(DetectKernelLevel()); ++l) {
    levels.push_back(static_cast<KernelLevel>(l));
  }
  return levels;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(Crc32Test, CheckValueAndEmptyAtEveryLevel) {
  const std::string check = "123456789";
  const auto* p = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32(p, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  for (const KernelLevel level : SupportedLevels()) {
    SCOPED_TRACE(KernelLevelName(level));
    EXPECT_EQ(Crc32(p, check.size(), level), 0xCBF43926u);
    EXPECT_EQ(Crc32(nullptr, 0, level), 0u);
  }
}

TEST(Crc32Test, EveryLengthAndOffsetMatchesReference) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kMaxOffset = 63;
  const std::vector<uint8_t> bytes = RandomBytes(kMaxLen + kMaxOffset, 7);
  const std::vector<KernelLevel> levels = SupportedLevels();
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    const uint8_t* base = bytes.data() + offset;
    uint32_t state = 0xFFFFFFFFu;  // Reference state over base[0, len).
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) state = ReferenceStep(state, base[len - 1]);
      const uint32_t want = state ^ 0xFFFFFFFFu;
      for (const KernelLevel level : levels) {
        const uint32_t got = Crc32(base, len, level);
        if (got != want) {
          // One failure names the case; the rest would repeat it.
          FAIL() << KernelLevelName(level) << " offset=" << offset
                 << " len=" << len << " got=" << got << " want=" << want;
        }
      }
    }
  }
}

TEST(Crc32Test, LargeBuffersMatchReference) {
  // One 1024-event frame payload and one 64 KiB spill block, plus ragged
  // sizes around them, exercise the fold's 64-byte main loop at length.
  for (const size_t n : {size_t{45080}, size_t{45084}, size_t{65536},
                         size_t{65536 + 15}, size_t{1 << 20}}) {
    const std::vector<uint8_t> bytes = RandomBytes(n, n);
    const uint32_t want = ReferenceCrc32(bytes.data(), n);
    EXPECT_EQ(Crc32(bytes.data(), n), want) << n;
    for (const KernelLevel level : SupportedLevels()) {
      EXPECT_EQ(Crc32(bytes.data(), n, level), want)
          << KernelLevelName(level) << " n=" << n;
    }
  }
}

TEST(Crc32Test, DefaultEntryPointUsesTheActiveLevel) {
  const std::vector<uint8_t> bytes = RandomBytes(1000, 3);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            Crc32(bytes.data(), bytes.size(), ActiveKernelLevel()));
}

TEST(Crc32Test, LevelsAboveTheCpuDegradeSafely) {
  // Forcing a level the CPU lacks must not trap: the fold checks the CPU
  // itself and otherwise falls back to the portable loop.
  const std::vector<uint8_t> bytes = RandomBytes(256, 5);
  const uint32_t want = ReferenceCrc32(bytes.data(), bytes.size());
  EXPECT_EQ(Crc32(bytes.data(), bytes.size(), KernelLevel::kAVX512), want);
}

}  // namespace
}  // namespace impatience
