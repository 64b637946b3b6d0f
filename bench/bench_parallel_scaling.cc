// Beyond the paper: multi-core scaling of the execution layer.
//
// The paper evaluates everything single-threaded; this bench sweeps the
// thread-pool size over {1, 2, 4, 8, #cores} and reports throughput for
// three workloads that exercise the three parallel code paths:
//   (a) offline Impatience sort of CloudLog events (parallel Huffman key
//       merge + parallel record gather);
//   (b) online Impatience sort at the Figure-8 punctuation frequencies
//       (parallel punctuation merge);
//   (c) the Figure-10 advanced framework query Q2 (its band sorters'
//       parallel punctuation merges; the partition, PIQ and union chain
//       run on the calling thread).
// IMPATIENCE_THREADS=1 (or the threads=1 row) reproduces the sequential
// engine exactly; outputs are identical at every thread count, only the
// wall clock moves.
//
// Alongside the tables the bench emits one JSON document on stdout
// (between BEGIN_JSON/END_JSON markers) for machine consumption.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/thread_pool.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
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

// (a) Offline sort. The parallel paths (key-run merge, gather) read the
// global pool, so the sweep swaps the global pool between runs.
void RunOffline(const std::vector<Event>& events) {
  Section("Parallel scaling (a): offline Impatience sort, CloudLog, " +
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

// (b) Online sort under punctuation, Figure-8 style.
void RunOnline(const std::vector<Event>& events) {
  Section("Parallel scaling (b): online Impatience sort, CloudLog, "
          "reorder latency 60s");
  std::vector<std::string> headers = {"threads"};
  const std::vector<size_t> frequencies = {10000, 100000, 1000000};
  for (const size_t freq : frequencies) {
    headers.push_back("freq=" + std::to_string(freq));
  }
  TablePrinter table(headers);
  for (const size_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<std::string> row = {TablePrinter::Int(threads)};
    for (const size_t freq : frequencies) {
      ImpatienceSorter<Event> sorter;
      std::vector<Event> out;
      size_t emitted = 0;
      const double secs = TimeSeconds([&]() {
        Timestamp high_watermark = kMinTimestamp;
        Timestamp last_punct = kMinTimestamp;
        for (size_t i = 0; i < events.size(); ++i) {
          sorter.Push(events[i]);
          if (events[i].sync_time > high_watermark) {
            high_watermark = events[i].sync_time;
          }
          if ((i + 1) % freq == 0) {
            const Timestamp p = high_watermark - 60 * kSecond;
            if (p > last_punct) {
              sorter.OnPunctuation(p, &out);
              last_punct = p;
              emitted += out.size();
              out.clear();
            }
          }
        }
        sorter.Flush(&out);
        emitted += out.size();
        out.clear();
      });
      IMPATIENCE_CHECK(emitted + sorter.late_drops() == events.size());
      const double meps = Throughput(events.size(), secs);
      row.push_back(TablePrinter::Num(meps));
      Record("online_impatience", "freq=" + std::to_string(freq), threads,
             meps);
    }
    table.PrintRow(row);
  }
}

// (c) The Figure-10 advanced framework, Q2 (windowed group count). Only
// the band sorters' punctuation merges use the pool.
void RunFramework(const std::vector<Event>& events) {
  Section("Parallel scaling (c): advanced framework Q2, CloudLog, "
          "latencies {1s, 1m, 1h}");
  TablePrinter table({"threads", "throughput_Me/s", "speedup"});
  double base = 0;
  for (const size_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    MemoryTracker tracker;
    typename Ingress<4>::Options ingress;
    ingress.punctuation_period = SIZE_MAX;  // The partition punctuates.
    QueryPipeline<4> q(ingress, &tracker);
    FrameworkOptions options;
    options.reorder_latencies = {kSecond, kMinute, kHour};
    options.punctuation_period = 10000;
    StageFn<4> piq = [](Streamable<4> s) { return s.GroupCount(); };
    StageFn<4> merge = [](Streamable<4> s) { return s.CombinePartials(); };
    Streamables<4> streams = ToStreamables<4>(
        q.disordered().TumblingWindow(kSecond), options, piq, merge);
    for (size_t i = 0; i < streams.size(); ++i) {
      streams.stream(i).ToCounting();
    }
    const double secs = TimeSeconds([&]() { q.Run(events); });
    const double meps = Throughput(events.size(), secs);
    if (base == 0) base = meps;
    table.PrintRow({TablePrinter::Int(threads), TablePrinter::Num(meps),
                    TablePrinter::Num(meps / base) + "x"});
    Record("framework_q2_advanced", "cloudlog", threads, meps);
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
  // The paper's Figure 7/8 scale is 20M; default to 8M here (the sweep
  // runs every workload once per thread count).
  const size_t n = EventCount(8000000);
  const Dataset cloudlog = BenchCloudLog(n);

  RunOffline(cloudlog.events);
  RunOnline(cloudlog.events);

  const size_t framework_n = EventCount(1000000);
  if (framework_n == n) {
    RunFramework(cloudlog.events);
  } else {
    RunFramework(BenchCloudLog(framework_n).events);
  }
  PrintJson();
}

}  // namespace
}  // namespace impatience::bench

int main() {
  impatience::bench::InitBenchProcess();
  impatience::bench::Run();
  return 0;
}
