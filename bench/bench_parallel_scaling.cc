// Beyond the paper: multi-core scaling of the offline sort.
//
// The paper evaluates everything single-threaded; this bench sweeps the
// thread-pool size over {1, 2, 4, 8, #cores} and reports the throughput of
// the offline Impatience sort of CloudLog events, whose timestamp column,
// Huffman key merge and record gather run on the pool. Online sorters
// merge each punctuation on their own thread, so nothing else is left to
// sweep. The threads=1 row reproduces the sequential sort exactly; outputs
// are identical at every thread count, only the wall clock moves.
//
// Alongside the table the bench emits one JSON document on stdout
// (between BEGIN_JSON/END_JSON markers) for machine consumption.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/thread_pool.h"
#include "sort/sort_algorithms.h"
#include "workload/generators.h"

namespace impatience::bench {
namespace {

std::vector<size_t> ThreadCounts() {
  const unsigned hc = std::thread::hardware_concurrency();
  std::vector<size_t> counts = {1, 2, 4, 8};
  if (hc > 0) counts.push_back(hc);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// One measurement for the JSON dump.
struct Sample {
  std::string experiment;
  std::string config;
  size_t threads = 0;
  double throughput_meps = 0;
};

std::vector<Sample>& Samples() {
  static std::vector<Sample> samples;
  return samples;
}

void Record(const std::string& experiment, const std::string& config,
            size_t threads, double meps) {
  Samples().push_back(Sample{experiment, config, threads, meps});
}

// The offline sort's pool work reads the global pool, so the sweep swaps
// the global pool between runs.
void RunOffline(const std::vector<Event>& events) {
  Section("Parallel scaling: offline Impatience sort, CloudLog, " +
          std::to_string(events.size()) + " events");
  TablePrinter table({"threads", "throughput_Me/s", "speedup"});
  double base = 0;
  for (const size_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<Event> copy = events;
    const double secs = TimeSeconds(
        [&copy]() { OfflineSort<Event>(OfflineAlgorithm::kImpatience, &copy); });
    const double meps = Throughput(events.size(), secs);
    if (base == 0) base = meps;
    table.PrintRow({TablePrinter::Int(threads), TablePrinter::Num(meps),
                    TablePrinter::Num(meps / base) + "x"});
    Record("offline_impatience", "cloudlog", threads, meps);
  }
}

void PrintJson() {
  std::printf(
      "\nBEGIN_JSON\n{\"kernel_level\": \"%s\", \"bench_seed\": %llu,\n"
      "\"parallel_scaling\": [\n",
      BenchKernelLevel(), static_cast<unsigned long long>(BenchSeed()));
  const std::vector<Sample>& samples = Samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    std::printf(
        "  {\"experiment\": \"%s\", \"config\": \"%s\", \"threads\": %zu, "
        "\"throughput_meps\": %.4f}%s\n",
        samples[i].experiment.c_str(), samples[i].config.c_str(),
        samples[i].threads, samples[i].throughput_meps,
        i + 1 < samples.size() ? "," : "");
  }
  std::printf("]}\nEND_JSON\n");
  std::fflush(stdout);
}

void Run() {
  // The paper's Figure 7 scale is 20M; default to 8M here (the sweep sorts
  // once per thread count).
  RunOffline(BenchCloudLog(EventCount(8000000)).events);
  PrintJson();
}

}  // namespace
}  // namespace impatience::bench

int main() {
  impatience::bench::InitBenchProcess();
  impatience::bench::Run();
  return 0;
}
