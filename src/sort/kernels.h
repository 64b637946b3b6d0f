// Branchless / SIMD hot-path kernels with runtime dispatch.
//
// Every event the system ingests crosses exactly two inner loops: the
// tails search in the patience/impatience partition phase and the two-way
// merge at punctuation time. This header owns those loops (plus the
// punctuation-time run-boundary scans and the offline permutation gather)
// as standalone kernels, each in up to three implementations — portable
// scalar, AVX2, AVX-512 — selected by a KernelLevel (see
// common/cpu_features.h). Every binary search among them is one routine,
// PartitionPoint.
//
// Contract: every level computes byte-identical results, including the
// order of equal timestamps. Searches return exact indices (the predicates
// are monotone, so the answer is unique); the merge kernels emit the same
// stable element order at every level. The equivalence property tests in
// tests/sort/kernels_test.cc force every level against scalar references.

#ifndef IMPATIENCE_SORT_KERNELS_H_
#define IMPATIENCE_SORT_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/cpu_features.h"
#include "common/event.h"
#include "common/timestamp.h"

#if defined(__x86_64__) || defined(__i386__)
#define IMPATIENCE_HAVE_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace impatience {
namespace kernels {

// ---------------------------------------------------------------------------
// Scalar building blocks (shared by every dispatch level).

// A search range [lo, lo + len).
struct SearchRange {
  size_t lo;
  size_t len;
};

// The one branchless partition-point loop. `before(i)` must hold on a
// prefix of [lo, lo + len) and fail on the rest; the loop narrows the
// range by binary search until at most `leave` candidates remain and
// returns it, so with `leave` = 0 the result's `lo` is the partition
// point. Conditional-move shape: the probe's outcome steers two selects
// instead of a branch, so the essentially random result of a
// binary-search probe never hits the branch predictor. As in pmergesort's
// single insertion-point routine, the predicate alone picks the bound:
// `data[i] > t` over a descending array finds the first element <= t,
// `data[i] <= t` over an ascending one the first element > t.
template <typename Before>
inline SearchRange PartitionPoint(size_t lo, size_t len, Before before,
                                  size_t leave = 0) {
  while (len > leave) {
    const size_t half = len >> 1;
    const bool b = before(lo + half);
    lo = b ? lo + half + 1 : lo;
    len = b ? len - half - 1 : half;
  }
  return {lo, len};
}

namespace detail {

// The run-size distribution on log data is heavily skewed toward the
// first few runs, so the tails search probes a short prefix linearly
// before the binary search. 16 covers the SIMD probe at every level.
inline constexpr size_t kTailsProbe = 16;

// First index in [kTailsProbe, n) with data[i] <= t, where data is
// strictly descending and n > kTailsProbe: the binary search behind every
// level's linear probe.
inline size_t FindFirstLEDescPastProbe(const Timestamp* data, size_t n,
                                       Timestamp t) {
  return PartitionPoint(kTailsProbe, n - kTailsProbe,
                        [data, t](size_t i) { return data[i] > t; })
      .lo;
}

inline size_t FindFirstLEDescScalar(const Timestamp* data, size_t n,
                                    Timestamp t) {
  const size_t probe = n < kTailsProbe ? n : kTailsProbe;
  for (size_t i = 0; i < probe; ++i) {
    if (data[i] <= t) return i;
  }
  if (probe == n) return n;
  return FindFirstLEDescPastProbe(data, n, t);
}

inline size_t UpperBoundAscGTScalar(const Timestamp* data, size_t lo,
                                    size_t hi, Timestamp t) {
  return PartitionPoint(lo, hi - lo,
                        [data, t](size_t i) { return data[i] <= t; })
      .lo;
}

inline size_t NextIndexLEScalar(const Timestamp* data, size_t begin,
                                size_t n, Timestamp t) {
  for (size_t i = begin; i < n; ++i) {
    if (data[i] <= t) return i;
  }
  return n;
}

#if IMPATIENCE_HAVE_X86_KERNELS

// 4-bit mask, bit i set iff data[i] > t.
__attribute__((target("avx2"))) inline unsigned MaskGt4(
    const Timestamp* data, __m256i vt) {
  const __m256i v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data));
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, vt))));
}

__attribute__((target("avx2"))) inline size_t FindFirstLEDescAvx2(
    const Timestamp* data, size_t n, Timestamp t) {
  const __m256i vt = _mm256_set1_epi64x(t);
  const size_t vec = (n < kTailsProbe ? n : kTailsProbe) & ~size_t{3};
  for (size_t i = 0; i < vec; i += 4) {
    const unsigned gt = MaskGt4(data + i, vt);
    if (gt != 0xFu) {
      return i + static_cast<size_t>(__builtin_ctz(~gt & 0xFu));
    }
  }
  if (n <= kTailsProbe) {
    for (size_t i = vec; i < n; ++i) {
      if (data[i] <= t) return i;
    }
    return n;
  }
  return FindFirstLEDescPastProbe(data, n, t);
}

__attribute__((target("avx2"))) inline size_t UpperBoundAscGTAvx2(
    const Timestamp* data, size_t lo, size_t hi, Timestamp t) {
  const SearchRange r = PartitionPoint(
      lo, hi - lo, [data, t](size_t i) { return data[i] <= t; }, 32);
  // The range is sorted, so the elements <= t form a prefix: counting
  // them yields the first index with data[i] > t.
  const __m256i vt = _mm256_set1_epi64x(t);
  size_t count = 0;
  size_t i = r.lo;
  for (; i + 4 <= r.lo + r.len; i += 4) {
    const unsigned gt = MaskGt4(data + i, vt);
    count += static_cast<size_t>(__builtin_popcount(~gt & 0xFu));
  }
  for (; i < r.lo + r.len; ++i) count += data[i] <= t ? 1 : 0;
  return r.lo + count;
}

__attribute__((target("avx2"))) inline size_t NextIndexLEAvx2(
    const Timestamp* data, size_t begin, size_t n, Timestamp t) {
  const __m256i vt = _mm256_set1_epi64x(t);
  size_t i = begin;
  for (; i + 4 <= n; i += 4) {
    const unsigned le = ~MaskGt4(data + i, vt) & 0xFu;
    if (le != 0) return i + static_cast<size_t>(__builtin_ctz(le));
  }
  for (; i < n; ++i) {
    if (data[i] <= t) return i;
  }
  return n;
}

// 8-bit mask, bit i set iff data[i] > t. AVX-512 compares produce mask
// registers directly — no movemask round trip through a vector lane.
__attribute__((target("avx512f"))) inline unsigned MaskGt8(
    const Timestamp* data, __m512i vt) {
  const __m512i v = _mm512_loadu_si512(data);
  return static_cast<unsigned>(_mm512_cmpgt_epi64_mask(v, vt));
}

__attribute__((target("avx512f"))) inline size_t FindFirstLEDescAvx512(
    const Timestamp* data, size_t n, Timestamp t) {
  const __m512i vt = _mm512_set1_epi64(t);
  const size_t vec = (n < kTailsProbe ? n : kTailsProbe) & ~size_t{7};
  for (size_t i = 0; i < vec; i += 8) {
    const unsigned gt = MaskGt8(data + i, vt);
    if (gt != 0xFFu) {
      return i + static_cast<size_t>(__builtin_ctz(~gt & 0xFFu));
    }
  }
  if (n <= kTailsProbe) {
    for (size_t i = vec; i < n; ++i) {
      if (data[i] <= t) return i;
    }
    return n;
  }
  return FindFirstLEDescPastProbe(data, n, t);
}

__attribute__((target("avx512f"))) inline size_t UpperBoundAscGTAvx512(
    const Timestamp* data, size_t lo, size_t hi, Timestamp t) {
  const SearchRange r = PartitionPoint(
      lo, hi - lo, [data, t](size_t i) { return data[i] <= t; }, 64);
  const __m512i vt = _mm512_set1_epi64(t);
  size_t count = 0;
  size_t i = r.lo;
  for (; i + 8 <= r.lo + r.len; i += 8) {
    const unsigned gt = MaskGt8(data + i, vt);
    count += static_cast<size_t>(__builtin_popcount(~gt & 0xFFu));
  }
  for (; i < r.lo + r.len; ++i) count += data[i] <= t ? 1 : 0;
  return r.lo + count;
}

__attribute__((target("avx512f"))) inline size_t NextIndexLEAvx512(
    const Timestamp* data, size_t begin, size_t n, Timestamp t) {
  const __m512i vt = _mm512_set1_epi64(t);
  size_t i = begin;
  for (; i + 8 <= n; i += 8) {
    const unsigned le = ~MaskGt8(data + i, vt) & 0xFFu;
    if (le != 0) return i + static_cast<size_t>(__builtin_ctz(le));
  }
  for (; i < n; ++i) {
    if (data[i] <= t) return i;
  }
  return n;
}

#endif  // IMPATIENCE_HAVE_X86_KERNELS

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatched search kernels over the timestamp column.

// Partition search: first index in the strictly-descending `data[0, n)`
// with data[i] <= t, or n. This is the loop every insertion crosses.
inline size_t FindFirstLEDesc(const Timestamp* data, size_t n, Timestamp t,
                              KernelLevel level) {
#if IMPATIENCE_HAVE_X86_KERNELS
  if (level == KernelLevel::kAVX512) {
    return detail::FindFirstLEDescAvx512(data, n, t);
  }
  if (level == KernelLevel::kAVX2) {
    return detail::FindFirstLEDescAvx2(data, n, t);
  }
#else
  (void)level;
#endif
  return detail::FindFirstLEDescScalar(data, n, t);
}

// Run-boundary cut: first index in the ascending `data[lo, hi)` with
// data[i] > t, or hi. SIMD levels narrow with PartitionPoint, then count
// the <= t prefix of the final block vector-wide.
inline size_t UpperBoundAscGT(const Timestamp* data, size_t lo, size_t hi,
                              Timestamp t, KernelLevel level) {
#if IMPATIENCE_HAVE_X86_KERNELS
  if (level == KernelLevel::kAVX512) {
    return detail::UpperBoundAscGTAvx512(data, lo, hi, t);
  }
  if (level == KernelLevel::kAVX2) {
    return detail::UpperBoundAscGTAvx2(data, lo, hi, t);
  }
#else
  (void)level;
#endif
  return detail::UpperBoundAscGTScalar(data, lo, hi, t);
}

// Head-run scan: next index in [begin, n) with data[i] <= t, or n. The
// array is unsorted (per-run head times); punctuation handling walks the
// matching runs via repeated calls.
inline size_t NextIndexLE(const Timestamp* data, size_t begin, size_t n,
                          Timestamp t, KernelLevel level) {
#if IMPATIENCE_HAVE_X86_KERNELS
  if (level == KernelLevel::kAVX512) {
    return detail::NextIndexLEAvx512(data, begin, n, t);
  }
  if (level == KernelLevel::kAVX2) {
    return detail::NextIndexLEAvx2(data, begin, n, t);
  }
#else
  (void)level;
#endif
  return detail::NextIndexLEScalar(data, begin, n, t);
}

// Run-boundary cut over elements of any type: first index in
// [lo, hi) with time_of(data[i]) > t. Bare timestamp columns take the
// SIMD kernel; everything else takes the branchless scalar loop.
template <typename T, typename TimeOf>
inline size_t UpperBoundByTime(const T* data, size_t lo, size_t hi,
                               Timestamp t, TimeOf time_of,
                               KernelLevel level) {
  if constexpr (std::is_same_v<T, Timestamp> &&
                std::is_same_v<TimeOf, IdentityTimeOf>) {
    (void)time_of;
    return UpperBoundAscGT(data, lo, hi, t, level);
  } else {
    (void)level;
    return PartitionPoint(lo, hi - lo, [data, t, &time_of](size_t i) {
             return time_of(data[i]) <= t;
           }).lo;
  }
}

// ---------------------------------------------------------------------------
// Offline permutation gather.

// The sort key the offline patience/impatience paths merge: a timestamp
// plus the record's original position. Lives here so the gather kernel can
// see its layout (16 bytes, index at byte offset 8).
struct SortKey {
  Timestamp time;
  uint32_t index;
};
static_assert(sizeof(SortKey) == 16, "gather kernel assumes 16-byte keys");

namespace detail {

template <typename T>
inline void GatherByIndexScalar(const T* in, const SortKey* keys, size_t n,
                                T* out) {
  for (size_t i = 0; i < n; ++i) out[i] = in[keys[i].index];
}

#if IMPATIENCE_HAVE_X86_KERNELS

// GCC's avx512fintrin.h seeds _mm512_i32gather_epi64's masked-out lanes
// with _mm512_undefined_epi32(), which -Wmaybe-uninitialized flags; the
// mask is all-ones here so no undefined lane survives.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Gathers 8 records per iteration: two 512-bit loads pull 8 SortKeys, a
// cross-register dword permute packs their index fields into one ymm, and
// a hardware gather fetches the records. Only valid for 8-byte records
// with indices below 2^31 (the gather's index lanes are signed 32-bit).
// Returns the number of records gathered (the largest multiple of 8 ≤ n);
// the caller finishes the ragged tail with typed scalar copies.
__attribute__((target("avx512f"))) inline size_t GatherByIndexAvx512(
    const void* in, const SortKey* keys, size_t n, void* out) {
  // Dword positions of the 8 index fields across two consecutive zmm
  // loads: each SortKey spans 4 dwords with the index in dword 2; lanes
  // 16+ select from the second register.
  const __m512i pick = _mm512_setr_epi32(2, 6, 10, 14, 18, 22, 26, 30, 0,
                                         0, 0, 0, 0, 0, 0, 0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i k0 = _mm512_loadu_si512(keys + i);
    const __m512i k1 = _mm512_loadu_si512(keys + i + 4);
    const __m256i idx =
        _mm512_castsi512_si256(_mm512_permutex2var_epi32(k0, pick, k1));
    const __m512i v = _mm512_i32gather_epi64(idx, in, 8);
    _mm512_storeu_si512(static_cast<char*>(out) + i * 8, v);
  }
  return i;
}

#pragma GCC diagnostic pop

#endif  // IMPATIENCE_HAVE_X86_KERNELS

}  // namespace detail

// Permutation gather: out[i] = in[keys[i].index] for i in [0, n). The
// offline sorts' final pass — runs are built and merged over SortKeys and
// the records move exactly once, here. AVX-512 vectorizes the gather for
// 8-byte trivially-copyable records; other shapes take the scalar loop.
// `in` and `out` must not alias.
template <typename T>
inline void GatherByIndex(const T* in, const SortKey* keys, size_t n,
                          T* out, KernelLevel level) {
#if IMPATIENCE_HAVE_X86_KERNELS
  if constexpr (sizeof(T) == 8 && std::is_trivially_copyable_v<T>) {
    // Signed 32-bit index lanes: fall back when offsets could overflow.
    if (level == KernelLevel::kAVX512 &&
        n <= static_cast<size_t>(INT32_MAX)) {
      const size_t done = detail::GatherByIndexAvx512(in, keys, n, out);
      for (size_t i = done; i < n; ++i) out[i] = in[keys[i].index];
      return;
    }
  }
#else
  (void)level;
#endif
  detail::GatherByIndexScalar(in, keys, n, out);
}

// ---------------------------------------------------------------------------
// Two-way merge kernel.

// After this many consecutive wins by one side the merge switches to
// galloping (exponential search + bulk copy), as in Timsort;
// log-structured inputs produce long disjoint stretches where this
// approaches memcpy speed.
inline constexpr int kGallopThreshold = 7;

// First position in [first, last) with !less(*pos, key) (lower bound),
// found by exponential probing from `first` then binary search — O(log
// distance) instead of O(log n).
template <typename T, typename Less>
const T* GallopLowerBound(const T* first, const T* last, const T& key,
                          Less less) {
  size_t step = 1;
  const T* probe = first;
  while (probe + step <= last - 1 && less(*(probe + step), key)) {
    probe += step;
    step <<= 1;
  }
  const T* hi = (probe + step < last) ? probe + step + 1 : last;
  // Invariant: [first, probe] all < key (probe itself checked or == first).
  const T* lo = less(*probe, key) ? probe + 1 : probe;
  while (lo < hi) {
    const T* mid = lo + (hi - lo) / 2;
    if (less(*mid, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// First position in [first, last) with less(key, *pos) (upper bound).
template <typename T, typename Less>
const T* GallopUpperBound(const T* first, const T* last, const T& key,
                          Less less) {
  size_t step = 1;
  const T* probe = first;
  while (probe + step <= last - 1 && !less(key, *(probe + step))) {
    probe += step;
    step <<= 1;
  }
  const T* hi = (probe + step < last) ? probe + step + 1 : last;
  const T* lo = !less(key, *probe) ? probe + 1 : probe;
  while (lo < hi) {
    const T* mid = lo + (hi - lo) / 2;
    if (!less(key, *mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Relationship of two non-empty sorted ranges at merge time.
enum class MergeFastPath {
  kNone,      // The ranges overlap: run the select loop.
  kConcatAB,  // a.last <= b.first (ties keep a first): out = a ++ b.
  kConcatBA,  // b.last < a.first (strict):             out = b ++ a.
};

// Classifies whether a stable merge of [pa, ea) then [pb, eb) degenerates
// to concatenation. Exactly one compare per side; at low disorder the
// head runs released by a punctuation partition the timeline almost
// disjointly, making this the common case. Both ranges must be non-empty.
template <typename T, typename Less>
MergeFastPath ClassifyDisjoint(const T* pa, const T* ea, const T* pb,
                               const T* eb, Less less) {
  if (!less(*pb, *(ea - 1))) return MergeFastPath::kConcatAB;
  if (less(*(eb - 1), *pa)) return MergeFastPath::kConcatBA;
  return MergeFastPath::kNone;
}

namespace detail {

// Where the two-way merge loop writes: appended to a vector, or through a
// pointer into pre-sized storage.
template <typename T>
struct VectorSink {
  std::vector<T>* out;
  void Put(const T& x) { out->push_back(x); }
  void Append(const T* first, const T* last) {
    out->insert(out->end(), first, last);
  }
};

template <typename T>
struct PointerSink {
  T* dst;
  void Put(const T& x) { *dst++ = x; }
  void Append(const T* first, const T* last) {
    dst = std::copy(first, last, dst);
  }
};

// The two-way merge loop behind MergeIntoVector and MergeToPtr. Stable:
// on ties, elements of the `a` range precede elements of the `b` range.
// Disjoint ranges concatenate with two bulk copies; overlapping ranges run
// a branchless (cmov) select loop that switches to galloping bulk copies
// when one side wins repeatedly. Returns true when the disjoint fast path
// ran (for the disjoint_concats statistic).
template <typename T, typename Less, typename Sink>
bool MergeRanges(const T* pa, const T* ea, const T* pb, const T* eb,
                 Less less, Sink& sink) {
  bool disjoint = false;
  if (pa != ea && pb != eb) {
    switch (ClassifyDisjoint(pa, ea, pb, eb, less)) {
      case MergeFastPath::kConcatAB:
        disjoint = true;
        break;
      case MergeFastPath::kConcatBA:
        sink.Append(pb, eb);
        sink.Append(pa, ea);
        return true;
      case MergeFastPath::kNone: {
        int streak_a = 0;
        int streak_b = 0;
        // Branch-light loop: the taken/not-taken pattern of a merge is
        // essentially random, so select the source with a conditional
        // move; on a long winning streak, gallop.
        while (pa != ea && pb != eb) {
          const bool take_b = less(*pb, *pa);
          const T* src = take_b ? pb : pa;
          sink.Put(*src);
          pb += take_b ? 1 : 0;
          pa += take_b ? 0 : 1;
          streak_b = take_b ? streak_b + 1 : 0;
          streak_a = take_b ? 0 : streak_a + 1;
          if (streak_b >= kGallopThreshold && pb != eb) {
            // Everything in b strictly below *pa comes next, in one block.
            const T* end = GallopLowerBound(pb, eb, *pa, less);
            sink.Append(pb, end);
            pb = end;
            streak_b = 0;
          } else if (streak_a >= kGallopThreshold && pa != ea) {
            // Everything in a at or below *pb comes next (ties prefer a).
            const T* end = GallopUpperBound(pa, ea, *pb, less);
            sink.Append(pa, end);
            pa = end;
            streak_a = 0;
          }
        }
        break;
      }
    }
  }
  sink.Append(pa, ea);
  sink.Append(pb, eb);
  return disjoint;
}

}  // namespace detail

// Merges the sorted ranges [pa, ea) and [pb, eb) into `out` (appended)
// with the loop above. Returns true when the disjoint fast path ran.
template <typename T, typename Less>
bool MergeIntoVector(const T* pa, const T* ea, const T* pb, const T* eb,
                     Less less, std::vector<T>* out) {
  out->reserve(out->size() + static_cast<size_t>(ea - pa) +
               static_cast<size_t>(eb - pb));
  detail::VectorSink<T> sink{out};
  return detail::MergeRanges(pa, ea, pb, eb, less, sink);
}

// Merges [pa, ea) and [pb, eb) into the pre-sized destination starting at
// `dst` (the caller guarantees room for both ranges), in the same element
// order as MergeIntoVector; the parallel merge uses it to let two tasks
// write disjoint halves of one output. Returns one past the last element
// written; sets *disjoint (if non-null) when the concat fast path ran.
template <typename T, typename Less>
T* MergeToPtr(const T* pa, const T* ea, const T* pb, const T* eb, Less less,
              T* dst, bool* disjoint = nullptr) {
  detail::PointerSink<T> sink{dst};
  const bool concat = detail::MergeRanges(pa, ea, pb, eb, less, sink);
  if (disjoint != nullptr) *disjoint = concat;
  return sink.dst;
}

}  // namespace kernels
}  // namespace impatience

#endif  // IMPATIENCE_SORT_KERNELS_H_
