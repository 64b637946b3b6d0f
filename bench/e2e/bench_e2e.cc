// bench_e2e: the repository's end-to-end and per-layer benchmark.
//
//   bench_e2e [--workload NAME|all] [--seed N] [--seconds S] [--scale X]
//             [--trace 0|1|PATH]
//
// Runs each workload against the real service (IngestService + TcpServer,
// 2 shards, 1 I/O thread, queue 256 (16 in hot_cold_mix), block
// backpressure) over loopback TCP
// and prints every metric by name with its unit: one table per workload,
// a JSON document between BEGIN_JSON/END_JSON, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace
// the metrics are the per-layer ones, and a Chrome trace of the
// benchmark's own spans is written to PATH with the workload name inserted
// before ".json" (default bench_e2e.trace.json). Exits 1 if any output
// check fails, 2 on bad usage or a refused environment.
//
// See README.md in this directory for the metric definitions.

#include <malloc.h>
#include <sys/utsname.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"

namespace impatience::bench::e2e {
namespace {

// Knobs that change what the service does behind the benchmark's back.
constexpr const char* kRefusedEnv[] = {
    "IMPATIENCE_MEMORY_BUDGET", "IMPATIENCE_TRACE",
    "IMPATIENCE_SPILL_FLUSHER_THREADS", "IMPATIENCE_KERNEL_LEVEL",
    "IMPATIENCE_THREADS"};

struct Args {
  std::string workload = "all";
  RunConfig config;
  std::string trace_path = "bench_e2e.trace.json";
};

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload NAME|all] [--seed N] "
               "[--seconds S] [--scale X] [--trace 0|1|PATH]\nworkloads:");
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->config.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds" || flag == "--scale") {
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(v > 0) || v > 3600) return false;
      (flag == "--seconds" ? args->config.seconds : args->config.scale) = v;
    } else if (flag == "--trace") {
      args->config.trace = value != "0";
      if (value != "0" && value != "1") args->trace_path = value;
    } else {
      return false;
    }
  }
  return true;
}

// The checkout's git sha, or "unknown". Only asks git when the working
// directory is itself a repository root, so git never searches the
// directories above it.
std::string GitSha() {
  std::string out;
  if (!std::filesystem::exists(".git")) return "unknown";
  if (std::FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) out = buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Throughput of 4 threads running a fixed CPU-bound loop relative to one
// thread running it: ~4 when four real CPUs are available.
double ScalingProbe() {
  auto spin = [] {
    uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1;
    volatile uint64_t sink = x;
    (void)sink;
  };
  auto time = [&](int threads) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) pool.emplace_back(spin);
    for (std::thread& t : pool) t.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double one = time(1);
  const double four = time(4);
  return 4 * one / four;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string StringsJson(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(items[i]);
  }
  return out + "]";
}

void PrintTable(const WorkloadResult& r, const std::vector<Metric>& gated) {
  std::printf("\n=== %s ===\n%-42s %18s  %s\n", r.name.c_str(), "metric",
              "value", "unit");
  auto rows = [](const std::vector<Metric>& metrics, const char* tag) {
    for (const Metric& m : metrics) {
      std::printf("%-42s %18.6f  %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), tag);
    }
  };
  rows(gated, "");
  rows(r.details, "  (not gated)");
  std::printf("checks: %s\n", r.correct ? "ok" : "FAILED");
  for (const std::string& f : r.failures) std::printf("  FAIL %s\n", f.c_str());
  std::printf("valid: %s\n", r.valid ? "yes" : "NO");
  for (const std::string& w : r.invalid_reasons) {
    std::printf("  INVALID %s\n", w.c_str());
  }
  std::fflush(stdout);
}

std::string TracePath(const std::string& base, const std::string& workload) {
  const std::string suffix = ".json";
  if (base.size() > suffix.size() &&
      base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return base.substr(0, base.size() - suffix.size()) + "." + workload +
           suffix;
  }
  return base + "." + workload + suffix;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "bench_e2e: refusing to run with %s set\n", name);
      return 2;
    }
  }
  // As in the repository's other benchmarks (bench/harness.h): keep large
  // allocations on the heap so freed pages are reused rather than returned
  // to the kernel and faulted back in — page faults are costly and erratic
  // on a virtual machine.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::vector<const WorkloadSpec*> selected;
  if (args.workload == "all") {
    for (const WorkloadSpec& w : Workloads()) selected.push_back(&w);
  } else if (const WorkloadSpec* w = FindWorkload(args.workload)) {
    selected.push_back(w);
  } else {
    Usage();
    return 2;
  }

  utsname uts{};
  uname(&uts);
  const std::string env_json =
      "{\"git_sha\": " +
      JsonString(GitSha()) +
      ", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"os_kernel\": " + JsonString(uts.release) + ", \"kernel_level\": " +
      JsonString(KernelLevelName(ActiveKernelLevel())) +
      ", \"pool_threads\": " +
      std::to_string(ThreadPool::Global().thread_count()) +
      ", \"seed\": " + std::to_string(args.config.seed) +
      ", \"seconds\": " + JsonNumber(args.config.seconds) +
      ", \"scale\": " + JsonNumber(args.config.scale) +
      ", \"scaling_4_threads\": " + JsonNumber(ScalingProbe()) + "}";
  std::printf("environment: %s\n", env_json.c_str());

  std::vector<WorkloadResult> results;
  for (const WorkloadSpec* spec : selected) {
    RunConfig config = args.config;
    if (config.trace) config.trace_out = TracePath(args.trace_path, spec->name);
    std::fprintf(stderr, "bench_e2e: running %s\n", spec->name);
    results.push_back(RunWorkload(*spec, config));
    WorkloadResult& r = results.back();
    for (const std::vector<Metric>* set : {&r.end_to_end, &r.per_layer}) {
      for (const Metric& m : *set) {
        if (!std::isfinite(m.value)) {
          r.correct = false;
          r.failures.push_back("metric " + m.name + " is not finite");
        }
      }
    }
    PrintTable(r, config.trace ? r.per_layer : r.end_to_end);
    if (config.trace && r.correct) {
      std::printf("trace: %s\n", config.trace_out.c_str());
    }
  }

  std::printf("\nBEGIN_JSON\n{\"environment\": %s,\n\"workloads\": [",
              env_json.c_str());
  for (size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::printf(
        "%s\n{\"name\": %s, \"correct\": %s, \"valid\": %s, "
        "\"attempted\": %llu, \"failed\": %llu,\n \"end_to_end\": %s,\n "
        "\"per_layer\": %s,\n \"details\": %s,\n \"failures\": %s, "
        "\"invalid_reasons\": %s}",
        i == 0 ? "" : ",", JsonString(r.name).c_str(),
        r.correct ? "true" : "false", r.valid ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed),
        MetricsJson(r.end_to_end).c_str(),
        MetricsJson(r.per_layer).c_str(),
        MetricsJson(r.details).c_str(), StringsJson(r.failures).c_str(),
        StringsJson(r.invalid_reasons).c_str());
  }
  std::printf("\n]}\nEND_JSON\n");

  // The summary line: one workload's metrics by bare name, several
  // workloads' metrics as "workload/metric".
  bool correct = true;
  unsigned long long attempted = 0;
  unsigned long long failed = 0;
  std::vector<Metric> metrics;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = results.size() > 1 ? r.name + "/" : "";
    for (const Metric& m : args.config.trace ? r.per_layer : r.end_to_end) {
      metrics.push_back(Metric{prefix + m.name, m.value, m.unit});
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace impatience::bench::e2e

int main(int argc, char** argv) {
  return impatience::bench::e2e::Main(argc, argv);
}
