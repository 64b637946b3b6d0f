// Figure 7: offline sorting throughput (no punctuations; sort after
// receiving all events).
//
//  (a) real datasets — paper: Impatience wins on both, 36.2% (CloudLog) /
//      24.6% (AndroidLog) over the best competitor; Heapsort worst.
//  (b) synthetic, amount of disorder d in {1024..4} at p=30% — paper:
//      Impatience pulls ahead as d shrinks.
//  (c) synthetic, percent of disorder p in {100..1} at d=64 — paper: at
//      p=1% Timsort closes the gap (both scan-dominated); Heapsort flat.
//
// Events are full 44-byte records (two 64-bit timestamps, 32-bit key,
// 64-bit hash, four 32-bit payload columns), as in the paper's setup.
//
// Each throughput row is followed by the minor page faults of the measured
// runs ("minflt", also in the JSON): cells that swing between two
// throughput modes differ in how many merge-buffer pages they fault in.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "sort/sort_algorithms.h"
#include "workload/generators.h"

namespace impatience::bench {
namespace {

struct OfflineRun {
  double throughput_meps = 0;
  uint64_t minor_faults = 0;
};

struct JsonSample {
  std::string workload;
  const char* algorithm;
  OfflineRun run;
};

std::vector<JsonSample>& Samples() {
  static std::vector<JsonSample> samples;
  return samples;
}

OfflineRun MeasureOffline(OfflineAlgorithm algorithm,
                          const std::vector<Event>& events) {
  // Two runs; report the second (warm caches, warm allocator arena).
  double secs = 0;
  uint64_t faults = 0;
  for (int run = 0; run < 2; ++run) {
    std::vector<Event> copy = events;
    faults = MinorFaultsDuring([&]() {
      secs = TimeSeconds([&copy, algorithm]() {
        OfflineSort<Event>(algorithm, &copy);
      });
    });
    // Guard against the sort being optimized away / failing silently.
    IMPATIENCE_CHECK(copy.size() == events.size());
  }
  return {Throughput(events.size(), secs), faults};
}

void ReportDataset(TablePrinter* table, const std::string& label,
                   const std::vector<Event>& events) {
  std::vector<std::string> row = {label};
  std::vector<std::string> faults = {"  minflt"};
  for (const OfflineAlgorithm algorithm : kAllOfflineAlgorithms) {
    const OfflineRun r = MeasureOffline(algorithm, events);
    row.push_back(TablePrinter::Num(r.throughput_meps));
    faults.push_back(TablePrinter::Int(r.minor_faults));
    Samples().push_back({label, OfflineAlgorithmName(algorithm), r});
  }
  table->PrintRow(row);
  table->PrintRow(faults);
}

std::vector<std::string> Headers() {
  std::vector<std::string> headers = {"workload"};
  for (const OfflineAlgorithm algorithm : kAllOfflineAlgorithms) {
    headers.push_back(OfflineAlgorithmName(algorithm));
  }
  return headers;
}

void Run() {
  // Offline sorting is cache-regime sensitive: the paper's 20M events were
  // ~90x its machine's LLC. Default to 8M events (~350 MB, beyond this
  // machine's LLC) rather than the suite-wide 2M.
  const size_t n = EventCount(8000000);

  Section("Figure 7(a): offline throughput on real datasets "
          "(M events/s; paper: Impatience best on both)");
  {
    TablePrinter table(Headers());
    ReportDataset(&table, "CloudLog", BenchCloudLog(n).events);
    ReportDataset(&table, "AndroidLog", BenchAndroidLog(n).events);
  }

  Section("Figure 7(b): synthetic, amount of disorder (stddev d, p=30%)");
  {
    TablePrinter table(Headers());
    for (const double d : {1024.0, 256.0, 64.0, 16.0, 4.0}) {
      ReportDataset(&table, "d=" + TablePrinter::Num(d, 0),
                    BenchSynthetic(n, 30, d).events);
    }
  }

  Section("Figure 7(c): synthetic, percent of disorder (p, d=64)");
  {
    TablePrinter table(Headers());
    for (const double p : {100.0, 30.0, 10.0, 3.0, 1.0}) {
      ReportDataset(&table, "p=" + TablePrinter::Num(p, 0) + "%",
                    BenchSynthetic(n, p, 64).events);
    }
  }

  std::printf(
      "\nBEGIN_JSON\n{\"kernel_level\": \"%s\", \"bench_seed\": %llu, "
      "\"events\": %zu,\n\"fig7_offline\": [\n",
      BenchKernelLevel(), static_cast<unsigned long long>(BenchSeed()), n);
  const std::vector<JsonSample>& samples = Samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    const JsonSample& s = samples[i];
    std::printf(
        "  {\"workload\": \"%s\", \"algorithm\": \"%s\", "
        "\"throughput_meps\": %.4f, \"minor_faults\": %llu}%s\n",
        s.workload.c_str(), s.algorithm, s.run.throughput_meps,
        static_cast<unsigned long long>(s.run.minor_faults),
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
