// Ablation: the design choices inside Impatience sort, beyond the
// Figure 7 toggles.
//
//  (1) Merge order for head runs — Huffman (smallest-two-first) vs
//      balanced pairwise (the paper's "w/o HM"): element moves and
//      throughput. The paper's §III-E1 claims up to 30% from the Huffman
//      order.
//  (2) Speculative run selection — hit rate per workload (§III-E2 is most
//      valuable on AndroidLog's long natural runs).
//  (3) Run compaction — peak sorter bytes, and peak RAM run capacity
//      against the live events it holds, under the one byte rule that
//      compacts a run once its dead bytes exceed its live bytes plus
//      kRunDeadFloorBytes. CHECKs that run capacity stays within that
//      rule's bound after every punctuation.
//  (4) Merge fan-in sweep — the pairwise Huffman cascade vs the k-way
//      loser tree (HuffmanCursorMergeInto over RAM run cursors, the pass
//      the parallel merge's leaves and the spilled merge run) on k equal
//      runs, k in {2, 4, 8, 16, 64}, in two shapes: "bursty" (runs
//      carved from one timeline in ~64-element
//      bursts — the temporal-locality shape punctuation merges actually
//      see, where the tree's single output pass beats the cascade's
//      level-by-level memory traffic) and "interleaved" (every element
//      individually compared — the tree's worst case, where the
//      cascade's branchless two-way kernel wins per pass).
//
// Emits one JSON document between BEGIN_JSON/END_JSON markers with the
// kernel level, seed, and merge order ("merge_policy") stamped per
// sample.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "sort/impatience_sorter.h"
#include "tests/testing/run_spans.h"
#include "workload/generators.h"

namespace impatience::bench {
namespace {

struct DatasetRef {
  std::string name;
  std::vector<Event> events;
  Timestamp reorder_latency;
};

std::vector<DatasetRef> Datasets(size_t n) {
  std::vector<DatasetRef> d;
  d.push_back({"Synthetic", BenchSynthetic(n, 30, 64).events, 600});
  d.push_back({"CloudLog", BenchCloudLog(n).events, 25 * kMinute});
  d.push_back({"AndroidLog", BenchAndroidLog(n).events, 3 * kDay});
  return d;
}

struct SortOutcome {
  double throughput_meps = 0;
  uint64_t elements_moved = 0;
  uint64_t srs_hits = 0;
  uint64_t pushes = 0;
  size_t peak_memory = 0;
  // RAM run capacity at its peak, and the live bytes at that punctuation.
  size_t peak_run_bytes = 0;
  size_t live_at_peak = 0;
  // Largest run capacity seen, as a share of the rule's bound
  // (2 x live bytes + runs x kRunDeadFloorBytes); at most 1.
  double max_bound_share = 0;
};

// One measurement for the JSON dump: either a dataset/policy ablation row
// or a fan-in sweep row (dataset "fanin_sweep", fanin > 0).
struct JsonSample {
  std::string dataset;
  std::string merge_policy;
  size_t fanin = 0;
  double throughput_meps = 0;
  uint64_t elements_moved = 0;
};

std::vector<JsonSample>& Samples() {
  static std::vector<JsonSample> samples;
  return samples;
}

// The fan-in sweep's merge executors.
enum class FanInMerge { kHuffman, kBalanced, kLoserTree };

const char* FanInMergeLabel(FanInMerge merge) {
  switch (merge) {
    case FanInMerge::kHuffman: return "huffman";
    case FanInMerge::kBalanced: return "balanced";
    case FanInMerge::kLoserTree: return "loser_tree";
  }
  return "?";
}

// k equal-size runs of non-decreasing timestamps, fully interleaved in
// time — the shape where every element is compared, not bulk-copied.
std::vector<std::vector<Timestamp>> MakeEqualRuns(size_t k, size_t total,
                                                  uint64_t seed) {
  Rng rng(seed);
  const size_t len = total / k;
  std::vector<std::vector<Timestamp>> runs(k);
  for (auto& run : runs) {
    Timestamp v = static_cast<Timestamp>(rng.NextBelow(16));
    run.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      v += static_cast<Timestamp>(rng.NextBelow(8));
      run.push_back(v);
    }
  }
  return runs;
}

// k runs carved from one non-decreasing timeline in bursts of mean ~64
// elements: the shape punctuation merges actually see — each head run
// holds mostly-contiguous slices of event-time with bursty overlap at
// the seams — so the merged output moves in chunks, not single elements.
std::vector<std::vector<Timestamp>> MakeBurstyRuns(size_t k, size_t total,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Timestamp>> runs(k);
  for (auto& run : runs) run.reserve(2 * total / k);
  Timestamp v = 0;
  size_t produced = 0;
  while (produced < total) {
    auto& run = runs[rng.NextBelow(k)];
    const size_t burst =
        std::min<size_t>(1 + rng.NextBelow(127), total - produced);
    for (size_t i = 0; i < burst; ++i) {
      v += static_cast<Timestamp>(rng.NextBelow(4));
      run.push_back(v);
    }
    produced += burst;
  }
  return runs;
}

// Best-of-reps merge throughput for one executor at one fan-in, pool and
// scratch kept warm across reps the way a sorter keeps them across
// punctuations.
SortOutcome RunFanInMerge(FanInMerge merge, size_t k, size_t total,
                          bool bursty) {
  const auto source = bursty ? MakeBurstyRuns(k, total, BenchSeed())
                             : MakeEqualRuns(k, total, BenchSeed());
  size_t n = 0;
  for (const auto& r : source) n += r.size();
  auto less = [](Timestamp x, Timestamp y) { return x < y; };
  MergeBufferPool<Timestamp> pool;
  LoserTreeScratch<Timestamp> scratch;
  MergeStats stats;
  const auto runs = testing::RunSpans(source);
  double best = 1e100;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<Timestamp> out;
    out.reserve(n);
    stats = MergeStats{};
    const double secs = TimeSeconds([&]() {
      switch (merge) {
        case FanInMerge::kHuffman:
          HuffmanMergeInto(runs, less, &out, &stats, &pool);
          break;
        case FanInMerge::kBalanced:
          BalancedMergeInto(runs, less, &out, &stats, &pool);
          break;
        case FanInMerge::kLoserTree: {
          std::vector<VectorRunCursor<Timestamp>> owned;
          owned.reserve(runs.size());
          std::vector<RunCursor<Timestamp>*> cursors;
          for (const auto& r : runs) {
            owned.emplace_back(r.data(), r.data() + r.size());
            cursors.push_back(&owned.back());
          }
          HuffmanCursorMergeInto(&cursors, less, &out, &stats, &scratch);
          break;
        }
      }
    });
    best = std::min(best, secs);
  }
  SortOutcome r;
  r.throughput_meps = Throughput(n, best);
  r.elements_moved = stats.elements_moved;
  return r;
}

SortOutcome RunSorter(const DatasetRef& d, ImpatienceConfig config,
                      size_t punctuation_period) {
  ImpatienceSorter<Event> sorter(config);
  std::vector<Event> out;
  SortOutcome r;
  const double secs = TimeSeconds([&]() {
    Timestamp high_watermark = kMinTimestamp;
    Timestamp last_punct = kMinTimestamp;
    for (size_t i = 0; i < d.events.size(); ++i) {
      sorter.Push(d.events[i]);
      if (d.events[i].sync_time > high_watermark) {
        high_watermark = d.events[i].sync_time;
      }
      if ((i + 1) % punctuation_period == 0) {
        const Timestamp p = high_watermark - d.reorder_latency;
        if (p > last_punct) {
          out.clear();
          sorter.OnPunctuation(p, &out);
          last_punct = p;
          r.peak_memory = std::max(r.peak_memory, sorter.MemoryBytes());
          const size_t run_bytes = sorter.RunCapacityBytes();
          const size_t live = sorter.buffered_count() * sizeof(Event);
          if (run_bytes > r.peak_run_bytes) {
            r.peak_run_bytes = run_bytes;
            r.live_at_peak = live;
          }
          const size_t bound =
              2 * live + sorter.run_count() * kRunDeadFloorBytes;
          if (bound > 0) {
            r.max_bound_share =
                std::max(r.max_bound_share, static_cast<double>(run_bytes) /
                                                static_cast<double>(bound));
          }
        }
      }
    }
    out.clear();
    sorter.Flush(&out);
  });
  r.throughput_meps = Throughput(d.events.size(), secs);
  r.elements_moved = sorter.counters().merge.elements_moved;
  r.srs_hits = sorter.counters().srs_hits;
  r.pushes = sorter.counters().pushes;
  return r;
}

void Run() {
  const size_t n = EventCount();
  const std::vector<DatasetRef> datasets = Datasets(n);
  constexpr size_t kPeriod = 10000;

  Section("Ablation 1: head-run merge order (punctuation every 10k)");
  {
    TablePrinter table({"dataset", "policy", "throughput_Me/s",
                        "elements_moved"});
    for (const DatasetRef& d : datasets) {
      for (const bool huffman_merge : {true, false}) {
        ImpatienceConfig config;
        config.huffman_merge = huffman_merge;
        const SortOutcome r = RunSorter(d, config, kPeriod);
        table.PrintRow({d.name, huffman_merge ? "Huffman" : "Balanced",
                        TablePrinter::Num(r.throughput_meps),
                        TablePrinter::Int(r.elements_moved)});
        Samples().push_back({d.name, huffman_merge ? "huffman" : "balanced",
                             0, r.throughput_meps, r.elements_moved});
      }
    }
  }

  Section("Ablation 2: speculative run selection hit rate");
  {
    TablePrinter table({"dataset", "srs_hits", "pushes", "hit_rate"});
    for (const DatasetRef& d : datasets) {
      const SortOutcome r = RunSorter(d, ImpatienceConfig{}, kPeriod);
      const double rate = r.pushes == 0
                              ? 0
                              : 100.0 * static_cast<double>(r.srs_hits) /
                                    static_cast<double>(r.pushes);
      table.PrintRow({d.name, TablePrinter::Int(r.srs_hits),
                      TablePrinter::Int(r.pushes),
                      TablePrinter::Num(rate, 1) + "%"});
    }
  }

  Section("Ablation 3: run compaction (peak sorter and run bytes, "
          "punctuation every 10k)");
  {
    TablePrinter table({"dataset", "sorter_peak_MB", "run_peak_MB",
                        "live_at_peak_MB", "run/live", "max_bound_share"});
    auto mb = [](size_t bytes) {
      return TablePrinter::Num(static_cast<double>(bytes) / (1 << 20));
    };
    for (const DatasetRef& d : datasets) {
      ImpatienceConfig config;
      config.spill.use_env_default = false;  // RAM runs only.
      const SortOutcome r = RunSorter(d, config, kPeriod);
      table.PrintRow(
          {d.name, mb(r.peak_memory), mb(r.peak_run_bytes),
           mb(r.live_at_peak),
           TablePrinter::Num(static_cast<double>(r.peak_run_bytes) /
                             static_cast<double>(std::max<size_t>(
                                 r.live_at_peak, 1))),
           TablePrinter::Num(r.max_bound_share, 3)});
      // The byte rule bounds every run at twice its live bytes plus the
      // floor, after every punctuation.
      IMPATIENCE_CHECK(r.max_bound_share <= 1.0);
    }
  }

  Section("Ablation 4: merge fan-in sweep, k equal runs "
          "(pairwise cascade vs k-way loser tree)");
  {
    const size_t total = std::min<size_t>(n, 4 << 20);
    TablePrinter table({"shape", "fanin", "policy", "throughput_Me/s",
                        "elements_moved"});
    for (const bool bursty : {true, false}) {
      const std::string shape = bursty ? "bursty" : "interleaved";
      for (const size_t k : {size_t{2}, size_t{4}, size_t{8}, size_t{16},
                             size_t{64}}) {
        for (const FanInMerge merge :
             {FanInMerge::kHuffman, FanInMerge::kBalanced,
              FanInMerge::kLoserTree}) {
          const SortOutcome r = RunFanInMerge(merge, k, total, bursty);
          table.PrintRow({shape, TablePrinter::Int(k),
                          FanInMergeLabel(merge),
                          TablePrinter::Num(r.throughput_meps),
                          TablePrinter::Int(r.elements_moved)});
          Samples().push_back({"fanin_sweep_" + shape,
                               FanInMergeLabel(merge), k,
                               r.throughput_meps, r.elements_moved});
        }
      }
    }
  }

  std::printf(
      "\nBEGIN_JSON\n{\"kernel_level\": \"%s\", \"bench_seed\": %llu,\n"
      "\"ablation_merge\": [\n",
      BenchKernelLevel(), static_cast<unsigned long long>(BenchSeed()));
  const std::vector<JsonSample>& samples = Samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    const JsonSample& s = samples[i];
    std::printf(
        "  {\"dataset\": \"%s\", \"merge_policy\": \"%s\", \"fanin\": %zu, "
        "\"throughput_meps\": %.4f, \"elements_moved\": %llu}%s\n",
        s.dataset.c_str(), s.merge_policy.c_str(), s.fanin,
        s.throughput_meps,
        static_cast<unsigned long long>(s.elements_moved),
        i + 1 < samples.size() ? "," : "");
  }
  std::printf("]}\nEND_JSON\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace impatience::bench

int main() {
  impatience::bench::InitBenchProcess();
  impatience::bench::Run();
  return 0;
}
