// Shared benchmark-harness utilities: dataset sizing via environment
// variables, wall-clock throughput measurement, and paper-style table
// printing.
//
// Every bench binary prints the rows/series of one table or figure from the
// paper (see EXPERIMENTS.md for the index and the paper-vs-measured
// comparison). Absolute numbers differ from the paper's 2015-era Xeon; the
// *shapes* are what the harness is expected to reproduce.

#ifndef IMPATIENCE_BENCH_HARNESS_H_
#define IMPATIENCE_BENCH_HARNESS_H_

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "workload/generators.h"

namespace impatience::bench {

// Process-wide benchmark setup: route large allocations through the brk
// heap so freed pages are reused across measurement runs instead of being
// returned to the kernel and faulted back in (page-fault time would
// otherwise dominate the allocation-heavy sorters and distort comparisons
// with the in-place ones).
inline void InitBenchProcess() {
#ifdef M_MMAP_THRESHOLD
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

// Number of events per dataset: $IMPATIENCE_BENCH_EVENTS, default 2M
// (the paper uses 20M; shapes are scale-invariant, runtime is not).
inline size_t EventCount(size_t default_count = 2000000) {
  const char* env = std::getenv("IMPATIENCE_BENCH_EVENTS");
  if (env != nullptr) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<size_t>(n);
  }
  return default_count;
}

// Wall-clock seconds for `fn()`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// Minor page faults the process took while `fn()` ran (the getrusage
// ru_minflt delta). Wrapped around a timed call, it tells apart the runs
// that reuse already-mapped heap pages from the runs that fault fresh ones
// in, which is what splits some cells into two throughput modes.
template <typename Fn>
uint64_t MinorFaultsDuring(Fn&& fn) {
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  fn();
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  return static_cast<uint64_t>(after.ru_minflt - before.ru_minflt);
}

// Million events per second.
inline double Throughput(size_t events, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(events) / seconds / 1e6;
}

// One explicit RNG seed for every bench workload: $IMPATIENCE_BENCH_SEED,
// default 42. The same seed reproduces byte-identical datasets (and thus
// run-to-run comparable numbers); varying it checks that a result is not
// an artifact of one particular input.
inline uint64_t BenchSeed() {
  const char* env = std::getenv("IMPATIENCE_BENCH_SEED");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<uint64_t>(seed);
    std::fprintf(stderr, "ignoring non-numeric IMPATIENCE_BENCH_SEED=%s\n",
                 env);
  }
  return 42;
}

// Name of the kernel dispatch level the process runs at ("scalar", "avx2",
// "avx512"). Every bench stamps this plus BenchSeed() into its JSON so that
// BENCH_*.json trajectories stay comparable across machines — a throughput
// shift that coincides with a level change is dispatch, not regression.
inline const char* BenchKernelLevel() {
  return KernelLevelName(ActiveKernelLevel());
}

// The paper's three workloads at bench scale, deterministic given the seed.
inline Dataset BenchSynthetic(size_t n, double percent = 30,
                              double stddev = 64) {
  SyntheticConfig config;
  config.num_events = n;
  config.percent_disorder = percent;
  config.disorder_stddev = stddev;
  config.seed = BenchSeed();
  return GenerateSynthetic(config);
}

inline Dataset BenchCloudLog(size_t n) {
  CloudLogConfig config;
  config.num_events = n;
  config.seed = BenchSeed();
  return GenerateCloudLog(config);
}

inline Dataset BenchAndroidLog(size_t n) {
  AndroidLogConfig config;
  config.num_events = n;
  config.seed = BenchSeed();
  return GenerateAndroidLog(config);
}

// ---------------------------------------------------------------------------
// Fixed-width table printing.

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const std::string& h : headers_) {
      widths_.push_back(h.size() < 12 ? 12 : h.size() + 2);
    }
    PrintRowStrings(headers_);
    std::string rule;
    for (size_t w : widths_) rule += std::string(w, '-') + "  ";
    std::printf("%s\n", rule.c_str());
  }

  void PrintRow(const std::vector<std::string>& cells) {
    PrintRowStrings(cells);
  }

  static std::string Num(double v, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
  }
  static std::string Int(uint64_t v) { return std::to_string(v); }

 private:
  void PrintRowStrings(const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      const size_t w = i < widths_.size() ? widths_[i] : 12;
      std::printf("%-*s  ", static_cast<int>(w), cells[i].c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
};

inline void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::fflush(stdout);
}

}  // namespace impatience::bench

#endif  // IMPATIENCE_BENCH_HARNESS_H_
