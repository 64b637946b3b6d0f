// Google-benchmark microbenchmarks for the kernels underlying the paper's
// results: binary vs heap k-way merges (reference [9]'s observation),
// partition-phase insertion with and without speculative run selection,
// the offline sorts on canonical distributions, and the dispatched
// hot-path kernels (sort/kernels.h) and the CRC32 kernels
// (common/crc32.h) at every level this CPU supports, each against the
// pre-kernel scalar baseline kept here as legacy_*.
//
// The report context carries kernel_level (process dispatch level) and
// bench_seed, so JSON output (--benchmark_format=json) stays comparable
// across machines and runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/cpu_features.h"
#include "common/crc32.h"
#include "common/random.h"
#include "sort/impatience_sorter.h"
#include "sort/kernels.h"
#include "sort/merge.h"
#include "sort/sort_algorithms.h"
#include "tests/testing/run_spans.h"
#include "tests/testing/sequences.h"

namespace impatience {
namespace {

using bench::BenchSeed;

std::vector<std::vector<int64_t>> MakeRuns(size_t k, size_t run_len,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> runs(k);
  for (auto& run : runs) {
    int64_t v = static_cast<int64_t>(rng.NextBelow(100));
    run.reserve(run_len);
    for (size_t i = 0; i < run_len; ++i) {
      v += static_cast<int64_t>(rng.NextBelow(8));
      run.push_back(v);
    }
  }
  return runs;
}

// Fan-in sweep k in {2,4,8,16,64} (+256 for the tail) over the two merge
// orders a sorter can run: the Huffman cascade and the balanced "w/o HM"
// rounds, each called directly.
template <typename Merge>
void BM_MergePolicy(benchmark::State& state, Merge merge) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t run_len = 100000 / k;
  const auto source = MakeRuns(k, run_len, /*seed=*/1);
  const auto runs = testing::RunSpans(source);
  for (auto _ : state) {
    std::vector<int64_t> out;
    merge(runs, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k * run_len));
}
const auto kHuffmanMerge =
    [](const std::vector<std::span<const int64_t>>& runs,
       std::vector<int64_t>* out) {
      HuffmanMergeInto(runs, std::less<int64_t>(), out);
    };
const auto kBalancedMerge =
    [](const std::vector<std::span<const int64_t>>& runs,
       std::vector<int64_t>* out) {
      BalancedMergeInto(runs, std::less<int64_t>(), out);
    };
#define MERGE_FANIN_ARGS \
  ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)->Arg(256)
BENCHMARK_CAPTURE(BM_MergePolicy, huffman, kHuffmanMerge) MERGE_FANIN_ARGS;
BENCHMARK_CAPTURE(BM_MergePolicy, balanced, kBalancedMerge) MERGE_FANIN_ARGS;
#undef MERGE_FANIN_ARGS

void BM_PartitionPhase(benchmark::State& state, bool srs) {
  const auto input = testing::BatchUploadSequence(
      100000, /*batch=*/1000, /*seed=*/3);  // Long runs: SRS's best case.
  for (auto _ : state) {
    ImpatienceConfig config;
    config.speculative_run_selection = srs;
    ImpatienceSorter<Timestamp, IdentityTimeOf> sorter(config);
    for (const Timestamp t : input) sorter.Push(t);
    benchmark::DoNotOptimize(sorter.run_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_PartitionPhase, with_srs, true);
BENCHMARK_CAPTURE(BM_PartitionPhase, without_srs, false);

void BM_OfflineSort(benchmark::State& state, OfflineAlgorithm algorithm) {
  const auto input =
      testing::NearlySortedSequence(100000, 30, 64, /*seed=*/5);
  for (auto _ : state) {
    std::vector<Timestamp> copy = input;
    OfflineSort<Timestamp, IdentityTimeOf>(algorithm, &copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_OfflineSort, impatience, OfflineAlgorithm::kImpatience);
BENCHMARK_CAPTURE(BM_OfflineSort, quicksort, OfflineAlgorithm::kQuicksort);
BENCHMARK_CAPTURE(BM_OfflineSort, timsort, OfflineAlgorithm::kTimsort);
BENCHMARK_CAPTURE(BM_OfflineSort, heapsort, OfflineAlgorithm::kHeapsort);

void BM_HeapSorterOnline(benchmark::State& state) {
  const auto input =
      testing::NearlySortedSequence(100000, 30, 64, /*seed=*/7);
  for (auto _ : state) {
    HeapSorter<Timestamp, IdentityTimeOf> sorter;
    std::vector<Timestamp> out;
    Timestamp high_watermark = kMinTimestamp;
    Timestamp last_punct = kMinTimestamp;
    for (size_t i = 0; i < input.size(); ++i) {
      sorter.Push(input[i]);
      if (input[i] > high_watermark) high_watermark = input[i];
      if ((i + 1) % 1000 == 0 && high_watermark - 600 > last_punct) {
        out.clear();
        last_punct = high_watermark - 600;
        sorter.OnPunctuation(last_punct, &out);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_HeapSorterOnline);

// ---------------------------------------------------------------------------
// Dispatched kernel benchmarks (sort/kernels.h), per level, against the
// pre-kernel scalar baselines below.

// The partition search as it was before the kernel layer: 8-element
// linear probe, then a branchless binary search.
size_t LegacyFindRunIndex(const std::vector<Timestamp>& tails,
                          Timestamp t) {
  constexpr size_t kLinearProbe = 8;
  const size_t k = tails.size();
  const size_t linear_end = k < kLinearProbe ? k : kLinearProbe;
  for (size_t i = 0; i < linear_end; ++i) {
    if (tails[i] <= t) return i;
  }
  if (linear_end == k) return k;
  const Timestamp* data = tails.data();
  size_t lo = kLinearProbe;
  size_t len = k - kLinearProbe;
  while (len > 0) {
    const size_t half = len >> 1;
    const bool gt = data[lo + half] > t;
    lo = gt ? lo + half + 1 : lo;
    len = gt ? len - half - 1 : half;
  }
  return lo;
}

// The two-way merge as it was before the kernel layer: branchless select
// loop with galloping, but no disjoint-concat classification.
template <typename T, typename Less>
void LegacyMergeInto(const T* pa, const T* ea, const T* pb, const T* eb,
                     Less less, std::vector<T>* out) {
  out->reserve(out->size() + static_cast<size_t>(ea - pa) +
               static_cast<size_t>(eb - pb));
  int streak_a = 0;
  int streak_b = 0;
  while (pa != ea && pb != eb) {
    const bool take_b = less(*pb, *pa);
    const T* src = take_b ? pb : pa;
    out->push_back(*src);
    pb += take_b ? 1 : 0;
    pa += take_b ? 0 : 1;
    streak_b = take_b ? streak_b + 1 : 0;
    streak_a = take_b ? 0 : streak_a + 1;
    if (streak_b >= kernels::kGallopThreshold && pb != eb) {
      const T* end = kernels::GallopLowerBound(pb, eb, *pa, less);
      out->insert(out->end(), pb, end);
      pb = end;
      streak_b = 0;
    } else if (streak_a >= kernels::kGallopThreshold && pa != ea) {
      const T* end = kernels::GallopUpperBound(pa, ea, *pb, less);
      out->insert(out->end(), pa, end);
      pa = end;
      streak_a = 0;
    }
  }
  out->insert(out->end(), pa, ea);
  out->insert(out->end(), pb, eb);
}

// A tails array and query stream shaped like a real partition phase:
// strictly-descending tails, queries mostly answered in the skewed front
// with a tail of deep probes.
struct SearchWorkload {
  std::vector<Timestamp> tails;
  std::vector<Timestamp> queries;
};

SearchWorkload MakeSearchWorkload(size_t k, size_t num_queries,
                                  uint64_t seed) {
  Rng rng(seed);
  SearchWorkload w;
  w.tails.resize(k);
  Timestamp v = static_cast<Timestamp>(100 * k);
  for (size_t i = 0; i < k; ++i) {
    v -= static_cast<Timestamp>(1 + rng.NextBelow(50));
    w.tails[i] = v;
  }
  w.queries.resize(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    // 80% of queries land in the front quarter of the tails range (the
    // run-size skew the linear probe exploits), the rest anywhere.
    const bool front = rng.NextBool(0.8);
    const size_t r = front ? rng.NextBelow((k + 3) / 4) : rng.NextBelow(k);
    w.queries[i] = w.tails[r] + static_cast<Timestamp>(rng.NextBelow(3));
  }
  return w;
}

void BM_SearchKernel(benchmark::State& state, KernelLevel level,
                     bool legacy) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto w = MakeSearchWorkload(k, /*num_queries=*/1 << 14, BenchSeed());
  for (auto _ : state) {
    size_t acc = 0;
    for (const Timestamp t : w.queries) {
      acc += legacy
                 ? LegacyFindRunIndex(w.tails, t)
                 : kernels::FindFirstLEDesc(w.tails.data(), k, t, level);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.queries.size()));
}

// An ascending run of `len` timestamps starting at `start`.
std::vector<Timestamp> MakeAscRun(size_t len, Timestamp start, Rng* rng) {
  std::vector<Timestamp> run;
  run.reserve(len);
  Timestamp v = start;
  for (size_t i = 0; i < len; ++i) {
    v += static_cast<Timestamp>(rng->NextBelow(4));
    run.push_back(v);
  }
  return run;
}

// The two-way merge kernel in isolation: one pair of runs, either
// time-disjoint (A entirely before B — the concat fast path) or fully
// overlapping (the branchless select loop). The disjoint gap at small
// lengths is the per-merge overhead the classification removes; at large
// lengths both arms converge to memcpy speed.
void BM_TwoWayMerge(benchmark::State& state, bool disjoint, bool legacy) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(BenchSeed());
  const std::vector<Timestamp> a = MakeAscRun(len, 0, &rng);
  const std::vector<Timestamp> b =
      MakeAscRun(len, disjoint ? a.back() + 1 : 0, &rng);
  auto less = [](Timestamp x, Timestamp y) { return x < y; };
  std::vector<Timestamp> out;
  out.reserve(2 * len);
  for (auto _ : state) {
    out.clear();
    if (legacy) {
      LegacyMergeInto(a.data(), a.data() + len, b.data(), b.data() + len,
                      less, &out);
    } else {
      kernels::MergeIntoVector(a.data(), a.data() + len, b.data(),
                               b.data() + len, less, &out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * len));
}

// The low-disorder punctuation shape: one old head run that dominates and
// progressively smaller fresh cut runs, all disjoint in time. Doubling
// sizes are superincreasing, so the Huffman heap degenerates to a chain
// that always merges time-adjacent blocks — every merge is a pure
// concatenation for the kernel arm.
std::vector<std::vector<Timestamp>> MakePunctuationRuns(size_t k,
                                                        size_t smallest,
                                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Timestamp>> runs;
  runs.reserve(k);
  Timestamp start = 0;
  size_t len = smallest << (k - 1);  // Oldest head run is the biggest.
  for (size_t r = 0; r < k; ++r) {
    runs.push_back(MakeAscRun(len, start, &rng));
    start = runs.back().back() + 1;
    len /= 2;  // Sizes S, S/2, ..., 2s, s: the heap walks a chain.
  }
  return runs;
}

// HuffmanMergeInto as it was before the kernel layer: same heap, same
// buffer pool, but the pre-kernel two-way merge with no disjoint
// classification.
void LegacyHuffmanMergeInto(std::vector<std::vector<Timestamp>>* runs,
                            std::vector<Timestamp>* out) {
  std::vector<std::vector<Timestamp>>& rs = *runs;
  auto less = [](Timestamp x, Timestamp y) { return x < y; };
  MergeBufferPool<Timestamp> pool;
  auto size_greater = [&rs](size_t a, size_t b) {
    return rs[a].size() > rs[b].size();
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(size_greater)>
      heap(size_greater);
  for (size_t i = 0; i < rs.size(); ++i) heap.push(i);
  while (true) {
    const size_t a = heap.top();
    heap.pop();
    const size_t b = heap.top();
    heap.pop();
    if (heap.empty()) {
      LegacyMergeInto(rs[a].data(), rs[a].data() + rs[a].size(),
                      rs[b].data(), rs[b].data() + rs[b].size(), less, out);
      break;
    }
    std::vector<Timestamp> merged =
        pool.Acquire(rs[a].size() + rs[b].size());
    LegacyMergeInto(rs[a].data(), rs[a].data() + rs[a].size(), rs[b].data(),
                    rs[b].data() + rs[b].size(), less, &merged);
    pool.Release(std::move(rs[a]));
    pool.Release(std::move(rs[b]));
    rs[a] = std::move(merged);
    heap.push(a);
  }
  rs.clear();
}

void BM_PunctuationMerge(benchmark::State& state, bool legacy) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t smallest = static_cast<size_t>(state.range(1));
  const auto source = MakePunctuationRuns(k, smallest, BenchSeed());
  size_t total = 0;
  for (const auto& r : source) total += r.size();
  auto less = [](Timestamp x, Timestamp y) { return x < y; };
  for (auto _ : state) {
    auto runs = source;
    std::vector<Timestamp> out;
    out.reserve(total);
    if (legacy) {
      LegacyHuffmanMergeInto(&runs, &out);
    } else {
      HuffmanMergeInto(testing::RunSpans(runs), less, &out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total));
}

void BM_RunBoundaryScan(benchmark::State& state, KernelLevel level) {
  // The punctuation-time cut: an upper bound over a long ascending run.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(BenchSeed());
  std::vector<Timestamp> run(n);
  Timestamp v = 0;
  for (size_t i = 0; i < n; ++i) {
    v += static_cast<Timestamp>(rng.NextBelow(4));
    run[i] = v;
  }
  std::vector<Timestamp> cuts(1024);
  for (auto& t : cuts) {
    t = static_cast<Timestamp>(rng.NextBelow(static_cast<uint64_t>(v) + 1));
  }
  for (auto _ : state) {
    size_t acc = 0;
    for (const Timestamp t : cuts) {
      acc += kernels::UpperBoundAscGT(run.data(), 0, n, t, level);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cuts.size()));
}

void BM_HeadTimesScan(benchmark::State& state, KernelLevel level) {
  // The punctuation-time skip scan over per-run head times: most runs
  // release nothing, so the scan is usually a full pass with no hit.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(BenchSeed());
  std::vector<Timestamp> head_times(n);
  for (auto& t : head_times) {
    t = static_cast<Timestamp>(1000 + rng.NextBelow(1000000));
  }
  for (auto _ : state) {
    size_t hits = 0;
    for (size_t r = kernels::NextIndexLE(head_times.data(), 0, n, 999,
                                         level);
         r < n;
         r = kernels::NextIndexLE(head_times.data(), r + 1, n, 999,
                                  level)) {
      ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

// The offline permutation gather: 8-byte records gathered through the
// (time, index) key column, near-sequential like a nearly sorted input.
void BM_GatherByIndex(benchmark::State& state, KernelLevel level) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(BenchSeed());
  std::vector<int64_t> in(n);
  for (auto& v : in) v = static_cast<int64_t>(rng.NextBelow(1u << 30));
  std::vector<kernels::SortKey> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = kernels::SortKey{0, static_cast<uint32_t>(i)};
  }
  // Light disorder: ~10% of positions swapped, like a p=30 d=64 stream
  // after the partition phase.
  for (size_t s = 0; s < n / 10; ++s) {
    std::swap(keys[rng.NextBelow(n)].index, keys[rng.NextBelow(n)].index);
  }
  std::vector<int64_t> out(n);
  for (auto _ : state) {
    kernels::GatherByIndex(in.data(), keys.data(), n, out.data(), level);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

// CRC32 as it was before the kernel layer: one dependent table lookup per
// byte.
uint32_t LegacyCrc32(const uint8_t* data, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// The checksum behind every wire frame and run-file block, over random
// bytes at the sizes those carry.
void BM_Crc32(benchmark::State& state, KernelLevel level, bool legacy) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(BenchSeed());
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  for (auto _ : state) {
    const uint32_t crc = legacy ? LegacyCrc32(bytes.data(), n)
                                : Crc32(bytes.data(), n, level);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void RegisterKernelBenchmarks() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  const KernelLevel best = DetectKernelLevel();
  if (best >= KernelLevel::kAVX2) levels.push_back(KernelLevel::kAVX2);
  if (best >= KernelLevel::kAVX512) levels.push_back(KernelLevel::kAVX512);

  for (const size_t k : {size_t{8}, size_t{64}, size_t{1024}}) {
    benchmark::RegisterBenchmark(
        ("BM_SearchKernel/legacy/k:" + std::to_string(k)).c_str(),
        [](benchmark::State& s) {
          BM_SearchKernel(s, KernelLevel::kScalar, /*legacy=*/true);
        })
        ->Arg(static_cast<int64_t>(k));
    for (const KernelLevel level : levels) {
      benchmark::RegisterBenchmark(
          (std::string("BM_SearchKernel/") + KernelLevelName(level) +
           "/k:" + std::to_string(k))
              .c_str(),
          [level](benchmark::State& s) {
            BM_SearchKernel(s, level, /*legacy=*/false);
          })
          ->Arg(static_cast<int64_t>(k));
    }
  }

  for (const bool disjoint : {false, true}) {
    const char* shape = disjoint ? "disjoint" : "overlap";
    for (const size_t len :
         {size_t{128}, size_t{1024}, size_t{16384}}) {
      for (const bool legacy : {true, false}) {
        benchmark::RegisterBenchmark(
            (std::string("BM_TwoWayMerge/") +
             (legacy ? "legacy/" : "kernel/") + shape +
             "/len:" + std::to_string(len))
                .c_str(),
            [disjoint, legacy](benchmark::State& s) {
              BM_TwoWayMerge(s, disjoint, legacy);
            })
            ->Arg(static_cast<int64_t>(len));
      }
    }
  }

  for (const size_t smallest : {size_t{64}, size_t{512}}) {
    for (const bool legacy : {true, false}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_PunctuationMerge/") +
           (legacy ? "legacy" : "kernel") +
           "/smallest:" + std::to_string(smallest))
              .c_str(),
          [legacy](benchmark::State& s) { BM_PunctuationMerge(s, legacy); })
          ->Args({8, static_cast<int64_t>(smallest)});
    }
  }

  for (const KernelLevel level : levels) {
    benchmark::RegisterBenchmark(
        (std::string("BM_RunBoundaryScan/") + KernelLevelName(level))
            .c_str(),
        [level](benchmark::State& s) { BM_RunBoundaryScan(s, level); })
        ->Arg(1 << 20);
    benchmark::RegisterBenchmark(
        (std::string("BM_HeadTimesScan/") + KernelLevelName(level)).c_str(),
        [level](benchmark::State& s) { BM_HeadTimesScan(s, level); })
        ->Arg(4096);
    benchmark::RegisterBenchmark(
        (std::string("BM_GatherByIndex/") + KernelLevelName(level)).c_str(),
        [level](benchmark::State& s) { BM_GatherByIndex(s, level); })
        ->Arg(1 << 20);
  }

  // Legacy bytewise vs the portable slicing-by-8 (scalar level) vs the
  // PCLMULQDQ fold (avx2 level and up), at one 44-byte event, 4 KiB, one
  // 1024-event frame payload, and one 64 KiB spill block.
  std::vector<std::pair<const char*, KernelLevel>> crc_arms = {
      {"portable", KernelLevel::kScalar}};
  if (best >= KernelLevel::kAVX2) {
    crc_arms.emplace_back("fold", KernelLevel::kAVX2);
  }
  for (const size_t n : {size_t{44}, size_t{4096}, size_t{45080},
                         size_t{65536}}) {
    benchmark::RegisterBenchmark(
        ("BM_Crc32/legacy/bytes:" + std::to_string(n)).c_str(),
        [](benchmark::State& s) {
          BM_Crc32(s, KernelLevel::kScalar, /*legacy=*/true);
        })
        ->Arg(static_cast<int64_t>(n));
    for (const auto& [arm, level] : crc_arms) {
      benchmark::RegisterBenchmark(
          (std::string("BM_Crc32/") + arm + "/bytes:" + std::to_string(n))
              .c_str(),
          [level = level](benchmark::State& s) {
            BM_Crc32(s, level, /*legacy=*/false);
          })
          ->Arg(static_cast<int64_t>(n));
    }
  }
}

}  // namespace
}  // namespace impatience

int main(int argc, char** argv) {
  impatience::bench::InitBenchProcess();
  benchmark::AddCustomContext("kernel_level",
                              impatience::bench::BenchKernelLevel());
  benchmark::AddCustomContext(
      "bench_seed", std::to_string(impatience::bench::BenchSeed()));
  impatience::RegisterKernelBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
