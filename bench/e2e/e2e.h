// Shared declarations of bench_e2e, the end-to-end and per-layer benchmark
// (README.md in this directory has the metric definitions).
//
// The benchmark hosts the real service in-process through its public API
// (IngestService + TcpServer) and drives it over loopback TCP from its own
// threads. Each workload yields a WorkloadResult: the end-to-end metrics,
// the output checks, and — in trace mode — the per-layer metrics.

#ifndef IMPATIENCE_BENCH_E2E_E2E_H_
#define IMPATIENCE_BENCH_E2E_E2E_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/timestamp.h"

namespace impatience::bench::e2e {

// Settings shared by every workload of one invocation.
struct RunConfig {
  uint64_t seed = 42;
  double seconds = 10;  // Measured time per workload, over its phases.
  // Multiplies every event count, paced rate and memory budget; the smoke
  // test runs at 0.02 so all four workloads finish in a few seconds.
  double scale = 1.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path written in trace mode.
};

enum class Source { kCloudLog, kAndroidLog };

// How the load generator drives one shard's connection. Both send a stream
// encoded before timing starts, so they measure the server, not the
// client's encoder.
enum class Drive {
  // Back to back (closed loop): the next frame goes out as soon as the
  // socket took the previous one.
  kClosed,
  // On a fixed schedule (open loop).
  kPaced,
};

struct ShardLoad {
  Drive drive = Drive::kClosed;
  Source source = Source::kCloudLog;
  // kClosed: events per phase. kPaced: events per second.
  size_t events = 0;
  size_t frame_events = 1024;
  size_t sessions = 1;  // Session ids the connection rotates through.
  // kPaced: frames sent back to back at each scheduled slot.
  size_t burst_frames = 1;
};

struct WorkloadSpec {
  const char* name;
  std::vector<Timestamp> latencies;
  size_t punctuation_period = 10000;
  size_t memory_budget = 0;  // Bytes across both shards; 0 = unbounded.
  size_t queue_capacity = 256;  // Frames per shard ingress queue.
  // Seconds a paced shard sends per phase (a closed-loop shard sends its
  // whole stream). Phases repeat on a fresh service until the run's
  // measured time is used up.
  double phase_seconds = 0;
  ShardLoad shards[2];
  // Closed-loop workloads only: result lag is timed in paced phases that
  // alternate with the closed-loop ones and send the same stream at this
  // many events per second per shard. A closed loop's lag is only the
  // bytes in flight divided by throughput (README.md).
  double lag_rate = 0;
  // Result subscriber: 0 = none, else kResultFilterAll or
  // kResultFilterSession (which watches shard 1 only).
  uint8_t result_filter = 0;
  bool telemetry_subscriber = false;
  // Result lag ends when the subscriber receives a record; otherwise when
  // the record leaves the pipeline (the on_result tap).
  bool lag_at_subscriber = false;
  // Scrape every 100 ms during each phase, as part of the load. Every
  // workload also scrapes after each phase (scrape_p50_ms).
  bool scrape_under_load = false;
};

// The four workloads, in their default order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  std::string name;
  bool correct = true;
  std::vector<std::string> failures;  // Output checks that failed.
  bool valid = true;  // No validity rule fired (README.md).
  std::vector<std::string> invalid_reasons;
  uint64_t attempted = 0;  // Events offered.
  uint64_t failed = 0;     // Events lost or refused anywhere.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> details;  // Printed, never gated.
};

// Runs one workload untraced and fills the end-to-end metrics; in trace
// mode it then runs the workload again with spans recorded and replays
// its input layer by layer to fill the per-layer metrics.
WorkloadResult RunWorkload(const WorkloadSpec& spec, const RunConfig& config);

// ---------------------------------------------------------------------------
// Helpers shared by the workload runner and the layer replays.

// Order-independent fingerprint of a record (summed over a stream, it
// identifies the multiset of records delivered).
uint64_t RecordHash(const Event& e);

// Exact quantile with linear interpolation between closest ranks (the
// same rule as Python's statistics.quantiles(method="inclusive")).
// Returns 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// The framework partition's routing rule, replayed outside the server: an
// event joins the first band whose reorder latency covers its lateness
// (high watermark minus event time), or is dropped when none does; every
// `period` routed events all bands punctuate at (high watermark - band
// latency). The reference model and the sorter replay both build on it.
class BandRouter {
 public:
  BandRouter(std::vector<Timestamp> latencies, size_t period)
      : latencies_(std::move(latencies)), period_(period) {}

  size_t bands() const { return latencies_.size(); }

  // The event's band, or bands() when it is later than every latency.
  // Sets *round when this event completes a punctuation round.
  size_t Route(const Event& e, bool* round) {
    if (e.sync_time > high_watermark_) high_watermark_ = e.sync_time;
    const Timestamp lateness = high_watermark_ - e.sync_time;
    size_t band = latencies_.size();
    for (size_t i = 0; i < latencies_.size(); ++i) {
      if (lateness <= latencies_[i]) {
        band = i;
        break;
      }
    }
    *round = ++since_round_ >= period_;
    if (*round) since_round_ = 0;
    return band;
  }

  // The punctuation band `i` takes at the round just completed.
  Timestamp RoundPunctuation(size_t i) const {
    return high_watermark_ - latencies_[i];
  }

 private:
  std::vector<Timestamp> latencies_;
  size_t period_;
  Timestamp high_watermark_ = kMinTimestamp;
  size_t since_round_ = 0;
};

}  // namespace impatience::bench::e2e

#endif  // IMPATIENCE_BENCH_E2E_E2E_H_
