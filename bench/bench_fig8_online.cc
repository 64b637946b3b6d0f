// Figure 8: online (incremental) sorting throughput vs punctuation
// frequency, for Impatience sort, adapter-wrapped Patience / Quicksort /
// Timsort, and the natively incremental Heapsort.
//
// Paper shape: on the synthetic dataset (small reorder buffer) the adapter
// baselines stay competitive; on the real datasets (large reorder buffers
// to tolerate severely late events) they collapse as punctuations become
// frequent, because every punctuation rewrites the whole sorted buffer,
// while Impatience sort's cost depends only on the events a punctuation
// releases — its curve stays nearly flat (1.3x-7.9x over the best
// competitor in the paper).
//
// The "punctuation frequency" x-axis is the number of events between two
// punctuations (10 means a punctuation every 10 events). Each throughput
// row is followed by the minor page faults of its runs ("minflt", also in
// the JSON), which tells a cell's fast and slow modes apart.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/histogram.h"
#include "sort/impatience_sorter.h"
#include "sort/sort_algorithms.h"
#include "storage/spill.h"
#include "workload/generators.h"

namespace impatience::bench {
namespace {

struct OnlineRun {
  double throughput_meps = 0;
  // Minor page faults during the timed run (see MinorFaultsDuring).
  uint64_t minor_faults = 0;
  uint64_t late_drops = 0;
  // Punctuation-to-emit latency quantiles, when the sorter instruments
  // them (Impatience sort and the adapter baselines); 0 otherwise.
  bool has_latency = false;
  uint64_t punct_to_emit_p50_ns = 0;
  uint64_t punct_to_emit_p99_ns = 0;
  // Spill-tier activity (Impatience arms only; nonzero only when a memory
  // budget — typically IMPATIENCE_MEMORY_BUDGET — forces the disk tier).
  bool has_spill = false;
  uint64_t runs_spilled = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_read_bytes = 0;
};

struct JsonSample {
  std::string dataset;
  size_t punct_freq = 0;
  std::string algorithm;
  OnlineRun run;
};

std::vector<JsonSample>& Samples() {
  static std::vector<JsonSample> samples;
  return samples;
}

OnlineRun MeasureOnline(OnlineAlgorithm algorithm,
                        const std::vector<Event>& events, size_t frequency,
                        Timestamp reorder_latency) {
  auto sorter = MakeOnlineSorter<Event>(algorithm);
  std::vector<Event> out;
  out.reserve(std::min<size_t>(events.size(), 1 << 20));
  size_t emitted = 0;

  auto feed = [&]() {
    Timestamp high_watermark = kMinTimestamp;
    Timestamp last_punct = kMinTimestamp;
    for (size_t i = 0; i < events.size(); ++i) {
      sorter->Push(events[i]);
      if (events[i].sync_time > high_watermark) {
        high_watermark = events[i].sync_time;
      }
      if ((i + 1) % frequency == 0) {
        const Timestamp p = high_watermark - reorder_latency;
        if (p > last_punct) {
          sorter->OnPunctuation(p, &out);
          last_punct = p;
          emitted += out.size();
          out.clear();  // Keep the output buffer from growing unbounded.
        }
      }
    }
    sorter->Flush(&out);
    emitted += out.size();
    out.clear();
  };
  double secs = 0;
  const uint64_t faults =
      MinorFaultsDuring([&]() { secs = TimeSeconds(feed); });
  IMPATIENCE_CHECK(emitted + sorter->late_drops() == events.size());
  OnlineRun run;
  run.throughput_meps = Throughput(events.size(), secs);
  run.minor_faults = faults;
  run.late_drops = sorter->late_drops();
  if (const HistogramSnapshot* h = sorter->punctuation_latency();
      h != nullptr && h->count() > 0) {
    run.has_latency = true;
    run.punct_to_emit_p50_ns = h->P50();
    run.punct_to_emit_p99_ns = h->P99();
  }
  if (const auto* impatience =
          dynamic_cast<const ImpatienceSorter<Event>*>(sorter.get())) {
    run.has_spill = true;
    run.runs_spilled = impatience->counters().runs_spilled;
    run.spill_bytes_written = impatience->counters().spill_bytes_written;
    run.spill_read_bytes = impatience->counters().spill_read_bytes;
  }
  return run;
}

void Sweep(const std::string& title, const std::string& dataset,
           const std::vector<Event>& events, Timestamp reorder_latency) {
  Section(title);
  std::vector<std::string> headers = {"punct_freq"};
  for (const OnlineAlgorithm algorithm : kAllOnlineAlgorithms) {
    headers.push_back(OnlineAlgorithmName(algorithm));
  }
  headers.push_back("drop_rate");
  TablePrinter table(headers);

  // Each throughput row is followed by the runs' minor page faults.
  for (const size_t freq : {10u, 100u, 1000u, 10000u, 100000u, 1000000u}) {
    std::vector<std::string> row = {TablePrinter::Int(freq)};
    std::vector<std::string> faults = {"  minflt"};
    uint64_t drops = 0;
    for (const OnlineAlgorithm algorithm : kAllOnlineAlgorithms) {
      const OnlineRun result =
          MeasureOnline(algorithm, events, freq, reorder_latency);
      row.push_back(TablePrinter::Num(result.throughput_meps));
      faults.push_back(TablePrinter::Int(result.minor_faults));
      drops = result.late_drops;  // Identical across algorithms.
      Samples().push_back(
          {dataset, freq, OnlineAlgorithmName(algorithm), result});
    }
    row.push_back(TablePrinter::Num(
        100.0 * static_cast<double>(drops) /
            static_cast<double>(events.size()),
        2) + "%");
    table.PrintRow(row);
    table.PrintRow(faults);
  }
}

void Run() {
  const size_t n = EventCount();

  // Reorder latencies tuned per dataset (paper §VI-B2): tolerate the
  // majority of late events, drop only the noticeably late tail.
  Sweep("Figure 8(a): online throughput (M events/s), synthetic p=30% "
        "d=64, reorder latency 600ms",
        "synthetic", BenchSynthetic(n, 30, 64).events, 600);
  Sweep("Figure 8(b): online throughput (M events/s), CloudLog, reorder "
        "latency 60s (jitter fully covered, failure bursts dropped)",
        "cloudlog", BenchCloudLog(n).events, 60 * kSecond);
  Sweep("Figure 8(c): online throughput (M events/s), AndroidLog, reorder "
        "latency 12h (majority of batch uploads covered)",
        "androidlog", BenchAndroidLog(n).events, 12 * kHour);

  std::printf(
      "\nBEGIN_JSON\n{\"kernel_level\": \"%s\", \"bench_seed\": %llu, "
      "\"memory_budget\": %zu,\n\"fig8_online\": [\n",
      BenchKernelLevel(), static_cast<unsigned long long>(BenchSeed()),
      storage::MemoryBudgetFromEnv());
  const std::vector<JsonSample>& samples = Samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    const JsonSample& s = samples[i];
    std::printf(
        "  {\"dataset\": \"%s\", \"punct_freq\": %zu, \"algorithm\": "
        "\"%s\", \"throughput_meps\": %.4f, \"minor_faults\": %llu, "
        "\"late_drops\": %llu",
        s.dataset.c_str(), s.punct_freq, s.algorithm.c_str(),
        s.run.throughput_meps,
        static_cast<unsigned long long>(s.run.minor_faults),
        static_cast<unsigned long long>(s.run.late_drops));
    if (s.run.has_latency) {
      std::printf(
          ", \"punct_to_emit_p50_ns\": %llu, \"punct_to_emit_p99_ns\": %llu",
          static_cast<unsigned long long>(s.run.punct_to_emit_p50_ns),
          static_cast<unsigned long long>(s.run.punct_to_emit_p99_ns));
    }
    if (s.run.has_spill) {
      std::printf(
          ", \"runs_spilled\": %llu, \"spill_bytes_written\": %llu, "
          "\"spill_read_bytes\": %llu",
          static_cast<unsigned long long>(s.run.runs_spilled),
          static_cast<unsigned long long>(s.run.spill_bytes_written),
          static_cast<unsigned long long>(s.run.spill_read_bytes));
    }
    std::printf("}%s\n", i + 1 < samples.size() ? "," : "");
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
