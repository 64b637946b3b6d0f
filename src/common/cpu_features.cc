#include "common/cpu_features.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace impatience {

KernelLevel DetectKernelLevel() {
#if defined(__x86_64__) || defined(__i386__)
  // The AVX-512 kernels use foundation ops only (cmp_epi64_mask, i32gather)
  // so avx512f is the single gate; every avx512f machine to date also has
  // the subsets we'd otherwise probe.
  if (__builtin_cpu_supports("avx512f")) return KernelLevel::kAVX512;
  if (__builtin_cpu_supports("avx2")) return KernelLevel::kAVX2;
#endif
  return KernelLevel::kScalar;
}

KernelLevel ResolveKernelLevel(const char* env, KernelLevel detected,
                               bool warn) {
  if (env == nullptr || *env == '\0') return detected;
  KernelLevel requested;
  if (!ParseKernelLevel(env, &requested)) {
    if (warn) {
      std::fprintf(stderr, "ignoring unknown IMPATIENCE_KERNEL_LEVEL=%s\n",
                   env);
    }
    return detected;
  }
  if (requested > detected) {
    // Never dispatch above what the CPU can execute: a binary deployed
    // with IMPATIENCE_KERNEL_LEVEL=avx512 on an AVX2-only machine must
    // degrade, not trap.
    if (warn) {
      std::fprintf(stderr,
                   "IMPATIENCE_KERNEL_LEVEL=%s unsupported on this CPU; "
                   "using %s\n",
                   env, KernelLevelName(detected));
    }
    return detected;
  }
  return requested;
}

KernelLevel ActiveKernelLevel() {
  static const KernelLevel active =
      ResolveKernelLevel(std::getenv("IMPATIENCE_KERNEL_LEVEL"),
                         DetectKernelLevel(), /*warn=*/true);
  return active;
}

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kAVX2:
      return "avx2";
    case KernelLevel::kAVX512:
      return "avx512";
  }
  return "unknown";
}

bool ParseKernelLevel(const char* name, KernelLevel* out) {
  if (std::strcmp(name, "scalar") == 0) {
    *out = KernelLevel::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = KernelLevel::kAVX2;
    return true;
  }
  if (std::strcmp(name, "avx512") == 0) {
    *out = KernelLevel::kAVX512;
    return true;
  }
  return false;
}

}  // namespace impatience
