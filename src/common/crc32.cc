#include "common/crc32.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define IMPATIENCE_HAVE_CLMUL_CRC 1
#include <immintrin.h>
#endif

namespace impatience {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] advances kTables[k-1][b] by one more zero byte, so eight
// lookups retire eight input bytes with no dependency between them.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kTables = MakeTables();

// Little-endian load, byte by byte so the kernel is endian-independent;
// compilers fold it into one load on little-endian hosts.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Advances the raw (pre-inverted) CRC state over `n` bytes.
uint32_t UpdateSlicing8(uint32_t crc, const uint8_t* p, size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLE32(p) ^ crc;
    const uint32_t hi = LoadLE32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if IMPATIENCE_HAVE_CLMUL_CRC

// Below this the fold's setup and reduction cost more than the table loop.
constexpr size_t kFoldMinBytes = 64;

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Multiplies the accumulator's two 64-bit halves by the fold constants
// (x^k mod P for the two distances) and adds the block they land on.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i acc,
                                                              __m128i k,
                                                              __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances the raw CRC state over `n` bytes, n >= 64 and a multiple of 16,
// by carry-less multiplication (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009). Four
// 128-bit accumulators fold 64 bytes per step; they collapse to one, which
// folds 16 bytes per step, then 128 -> 64 -> 32 bits by Barrett reduction.
// The constants are x^k mod P for the bit-reflected polynomial.
__attribute__((target("pclmul,sse4.1"))) uint32_t UpdateFold(
    uint32_t crc, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // IMPATIENCE_HAVE_CLMUL_CRC

bool UseFold(KernelLevel level) {
#if IMPATIENCE_HAVE_CLMUL_CRC
  return level >= KernelLevel::kAVX2 && __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("sse4.1");
#else
  (void)level;
  return false;
#endif
}

uint32_t Compute(const uint8_t* data, size_t n, bool fold) {
  uint32_t crc = 0xFFFFFFFFu;
#if IMPATIENCE_HAVE_CLMUL_CRC
  if (fold && n >= kFoldMinBytes) {
    const size_t folded = n & ~size_t{15};
    crc = UpdateFold(crc, data, folded);
    data += folded;
    n -= folded;
  }
#else
  (void)fold;
#endif
  return UpdateSlicing8(crc, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n, KernelLevel level) {
  return Compute(data, n, UseFold(level));
}

uint32_t Crc32(const uint8_t* data, size_t n) {
  static const bool fold = UseFold(ActiveKernelLevel());
  return Compute(data, n, fold);
}

}  // namespace impatience
