// Standalone ingestion server: the sharded Impatience service over TCP.
//
//   impatience_serve [--port N] [--shards N] [--queue-capacity N]
//                    [--backpressure block|reject|shed]
//                    [--latencies ms,ms,...] [--punctuation-period N]
//                    [--io-threads N]
//
// --io-threads sizes the epoll I/O pool that multiplexes all accepted
// connections (0 = the IMPATIENCE_IO_THREADS environment variable,
// defaulting to 2). Connection count is independent of thread count.
// --shards, --io-threads and --spill-flusher-threads are clamped to
// kMaxThreads (1024), like the IMPATIENCE_*THREADS environment variables.
//
// Listens on 127.0.0.1:port for wire-protocol clients (see
// src/server/wire_format.h). Runs until SIGINT/SIGTERM or until a client
// sends kShutdown; either way every shard pipeline is drained and
// flushed, and the final metrics (text rendering) are printed to stdout.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/timestamp.h"
#include "server/ingest_service.h"
#include "server/tcp_transport.h"
#include "storage/spill.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

// Parses "1000,60000" into timestamps; empty/invalid lists are fatal.
std::vector<impatience::Timestamp> ParseLatencies(const std::string& arg) {
  std::vector<impatience::Timestamp> out;
  size_t pos = 0;
  while (pos < arg.size()) {
    size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(pos, comma - pos);
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || v <= 0) {
      std::fprintf(stderr, "bad latency value: '%s'\n", token.c_str());
      std::exit(2);
    }
    out.push_back(static_cast<impatience::Timestamp>(v));
    pos = comma + 1;
  }
  return out;
}

[[noreturn]] void Usage() {
  std::fprintf(
      stderr,
      "usage: impatience_serve [--port N] [--shards N] "
      "[--queue-capacity N]\n"
      "                        [--backpressure block|reject|shed]\n"
      "                        [--latencies ms,ms,...] "
      "[--punctuation-period N]\n"
      "                        [--io-threads N]   (0 = "
      "IMPATIENCE_IO_THREADS, default 2)\n"
      "                        [--spill-dir PATH] [--memory-budget BYTES]\n"
      "                        [--spill-flusher-threads N] "
      "[--spill-flusher-inflight BYTES]\n"
      "--spill-dir enables the durable disk spill tier (one run store per\n"
      "shard under PATH; runs left by a crash are replayed on startup).\n"
      "--memory-budget caps pipeline buffering (k/m/g suffixes accepted;\n"
      "default: the IMPATIENCE_MEMORY_BUDGET environment variable).\n"
      "--spill-flusher-threads starts the write-behind flusher pool: spill\n"
      "blocks are written (and merge read-ahead served) off the shard\n"
      "threads (0 = inline: each shard writes its own blocks, the default).\n"
      "--spill-flusher-inflight bounds bytes queued in the pool before\n"
      "spilling sorters block (k/m/g suffixes; default 8m).\n"
      "--telemetry-chunk-bytes bounds one streaming telemetry chunk body\n"
      "(k/m suffixes; clamped to [1k, 4m], default 256k).\n"
      "--telemetry-span-interval / --telemetry-metrics-interval set the\n"
      "live-export cadences in milliseconds (defaults 50 / 500).\n"
      "--telemetry-write-budget bounds bytes of telemetry queued per\n"
      "connection before chunks are dropped (default 1m).\n"
      "--result-chunk-bytes bounds one streamed result chunk payload\n"
      "(k/m suffixes; clamped to [1k, 4m], default 256k).\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace impatience;
  using namespace impatience::server;

  uint16_t port = 7071;
  TcpServerOptions tcp_options;
  ServiceOptions options;
  options.shards.num_shards = 4;
  options.shards.queue_capacity = 256;
  options.shards.framework.reorder_latencies = {1 * kSecond, 1 * kMinute};
  options.shards.framework.punctuation_period = 10000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next().c_str()));
    } else if (arg == "--shards") {
      const std::optional<size_t> v = ParseThreadCount(next().c_str());
      if (v.value_or(0) == 0) Usage();
      options.shards.num_shards = *v;
    } else if (arg == "--queue-capacity") {
      const int v = std::atoi(next().c_str());
      if (v <= 0) Usage();
      options.shards.queue_capacity = static_cast<size_t>(v);
    } else if (arg == "--backpressure") {
      if (!ParseBackpressurePolicy(next(), &options.shards.backpressure)) {
        Usage();
      }
    } else if (arg == "--latencies") {
      options.shards.framework.reorder_latencies = ParseLatencies(next());
    } else if (arg == "--punctuation-period") {
      const int v = std::atoi(next().c_str());
      if (v <= 0) Usage();
      options.shards.framework.punctuation_period = static_cast<size_t>(v);
    } else if (arg == "--io-threads") {
      const std::optional<size_t> v = ParseThreadCount(next().c_str());
      if (!v.has_value()) Usage();
      tcp_options.io_threads = *v;
    } else if (arg == "--spill-dir") {
      options.shards.spill_dir = next();
    } else if (arg == "--memory-budget") {
      const std::string v = next();
      options.shards.memory_budget = storage::ParseByteSize(v.c_str());
      if (options.shards.memory_budget == 0) Usage();
    } else if (arg == "--spill-flusher-threads") {
      const std::optional<size_t> v = ParseThreadCount(next().c_str());
      if (!v.has_value()) Usage();
      options.shards.spill_flusher_threads = *v;
    } else if (arg == "--spill-flusher-inflight") {
      const std::string v = next();
      options.shards.spill_flusher_inflight_bytes =
          storage::ParseByteSize(v.c_str());
      if (options.shards.spill_flusher_inflight_bytes == 0) Usage();
    } else if (arg == "--telemetry-chunk-bytes") {
      options.telemetry.max_chunk_bytes = storage::ParseByteSize(next().c_str());
      if (options.telemetry.max_chunk_bytes == 0) Usage();
    } else if (arg == "--result-chunk-bytes") {
      options.results.max_chunk_bytes = storage::ParseByteSize(next().c_str());
      if (options.results.max_chunk_bytes == 0) Usage();
    } else if (arg == "--telemetry-span-interval") {
      const int v = std::atoi(next().c_str());
      if (v <= 0) Usage();
      options.telemetry.span_interval_ms = v;
    } else if (arg == "--telemetry-metrics-interval") {
      const int v = std::atoi(next().c_str());
      if (v <= 0) Usage();
      options.telemetry.metrics_interval_ms = v;
    } else if (arg == "--telemetry-write-budget") {
      tcp_options.telemetry_write_queue_bytes =
          storage::ParseByteSize(next().c_str());
      if (tcp_options.telemetry_write_queue_bytes == 0) Usage();
    } else {
      Usage();
    }
  }
  if (options.shards.memory_budget == 0) {
    options.shards.memory_budget = storage::MemoryBudgetFromEnv();
  }

  IngestService service(options);
  TcpServer tcp(&service, port, tcp_options);
  std::string error;
  if (!tcp.Start(&error)) {
    std::fprintf(stderr, "failed to listen on port %u: %s\n", port,
                 error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "impatience_serve: listening on 127.0.0.1:%u "
               "(%zu shards, queue %zu, policy %s, %zu io threads)\n",
               tcp.port(), options.shards.num_shards,
               options.shards.queue_capacity,
               BackpressurePolicyName(options.shards.backpressure),
               tcp.io_threads());
  if (!options.shards.spill_dir.empty() ||
      options.shards.memory_budget != 0) {
    std::fprintf(stderr,
                 "impatience_serve: spill tier %s (dir '%s', budget %zu "
                 "bytes)\n",
                 options.shards.spill_dir.empty() ? "temp-dir" : "durable",
                 options.shards.spill_dir.c_str(),
                 options.shards.memory_budget);
  }
  if (options.shards.spill_flusher_threads > 0) {
    std::fprintf(stderr,
                 "impatience_serve: write-behind flusher pool (%zu threads, "
                 "%zu bytes in flight)\n",
                 options.shards.spill_flusher_threads,
                 options.shards.spill_flusher_inflight_bytes);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0 && !service.shutting_down()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "impatience_serve: draining...\n");
  tcp.Stop();
  service.Shutdown();
  std::fputs(RenderMetricsText(service.Snapshot()).c_str(), stdout);
  return 0;
}
