// Runtime CPU-feature dispatch for the hot-path kernels.
//
// The kernels in sort/kernels.h come in up to three implementations —
// portable scalar, AVX2, and AVX-512 — selected once per process.
// Every level computes byte-identical results; the dispatch only picks how
// fast. The active level is min(what the CPU supports,
// IMPATIENCE_KERNEL_LEVEL if set), so tests and sanitizer builds can force
// the portable path and CI can exercise every level on one machine.

#ifndef IMPATIENCE_COMMON_CPU_FEATURES_H_
#define IMPATIENCE_COMMON_CPU_FEATURES_H_

namespace impatience {

// Kernel implementation tiers, ordered: a CPU that supports level L
// supports every level below it. The values are what the kernel_level
// gauge reports; 1 was an SSE2 tier, dropped because it measured slower
// than scalar (results/micro_kernels.json).
enum class KernelLevel : int {
  kScalar = 0,  // Portable C++; the reference implementation.
  kAVX2 = 2,    // 256-bit vectors.
  kAVX512 = 3,  // 512-bit vectors + mask registers (needs avx512f).
};

// Best level this CPU supports (kScalar on non-x86 builds).
KernelLevel DetectKernelLevel();

// The level the process runs at: DetectKernelLevel() clamped by the
// IMPATIENCE_KERNEL_LEVEL environment variable ("scalar", "avx2",
// "avx512") if present. Computed once on first call, then cached; unknown
// values are ignored with a warning to stderr.
KernelLevel ActiveKernelLevel();

// The pure resolution rule behind ActiveKernelLevel(), exposed so the
// clamp-don't-crash behavior is unit-testable without a process restart:
// given the env override string (nullptr/empty = unset) and the detected
// CPU level, returns the level the process must dispatch at. Requesting a
// level above `detected` degrades to `detected` (never dispatch an ISA the
// CPU lacks — the AVX-512 → AVX2 fallback seam); unknown names are
// ignored. When `warn` is true the degradation paths log to stderr.
KernelLevel ResolveKernelLevel(const char* env, KernelLevel detected,
                               bool warn = false);

// "scalar" / "avx2" / "avx512".
const char* KernelLevelName(KernelLevel level);

// Parses a level name as accepted by IMPATIENCE_KERNEL_LEVEL. Returns
// false (leaving `out` untouched) on unknown names.
bool ParseKernelLevel(const char* name, KernelLevel* out);

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_CPU_FEATURES_H_
