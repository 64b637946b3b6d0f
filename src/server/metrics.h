// The server's metrics surface: a point-in-time snapshot of service and
// per-shard state, renderable as Prometheus-style text or JSON. Clients
// fetch either rendering over the wire protocol itself (kMetricsRequest
// with the format in the aux byte) — no separate HTTP endpoint to secure
// or keep alive.

#ifndef IMPATIENCE_SERVER_METRICS_H_
#define IMPATIENCE_SERVER_METRICS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/timestamp.h"
#include "engine/ops_union.h"
#include "sort/impatience_sorter.h"

namespace impatience {
namespace server {

// Event-time progress of one client session on its shard: how far the
// session's data has advanced versus how far the shard pipeline has
// punctuated. `lag` is max_sync_time - last_punctuation clamped to >= 0 —
// the event-time span still buffered (unreleasable) for this session.
struct SessionWatermark {
  std::string label;  // Session id rendered for metric labels.
  uint64_t session_id = 0;
  Timestamp max_sync_time = 0;    // Largest event time the session sent.
  Timestamp last_punctuation = 0; // Shard output frontier (band 0).
  int64_t lag = 0;
};

// One shard's view. Queue/backpressure counters are maintained by the
// shard itself; sorter counters are aggregated across the shard
// pipeline's bands, union spill counters across its union chain.
struct ShardMetrics {
  size_t shard = 0;
  size_t queue_depth = 0;        // Frames waiting in the ingress queue.
  size_t queue_capacity = 0;
  uint64_t frames_in = 0;        // Data frames accepted into the queue.
  uint64_t events_in = 0;        // Events inside those frames.
  uint64_t punctuations_in = 0;  // Client punctuation frames.
  uint64_t sessions = 0;         // Distinct sessions seen.
  uint64_t blocked_pushes = 0;   // kBlock: enqueues that had to wait.
  uint64_t rejected_frames = 0;  // kRejectFrame: frames turned away.
  uint64_t rejected_events = 0;
  uint64_t shed_frames = 0;      // kShedOldest: frames evicted.
  uint64_t shed_events = 0;
  uint64_t events_out = 0;       // Rows emitted on the final stream.
  uint64_t dropped_late = 0;     // Partition + sorter late drops.
  // Byte-accurate buffering footprint of the shard pipeline (sorter runs,
  // union buffers, ingress) from the shard's MemoryTracker. The peak is
  // the high-water mark since the last resetting snapshot.
  uint64_t memory_current_bytes = 0;
  uint64_t memory_peak_bytes = 0;
  // Crash recovery (spill-dir restart): spilled runs replayed into the
  // pipeline and the events they carried. Stamped once at startup.
  uint64_t runs_recovered = 0;
  uint64_t events_recovered = 0;
  ImpatienceCounters sorter;     // Aggregated across the shard's bands.
  UnionSpillCounters unions;     // Aggregated across the shard's unions.
  // Wall-clock nanoseconds a frame waited in the ingress queue before the
  // drain loop popped it.
  HistogramSnapshot queue_wait;
  // Wall-clock nanoseconds the drain loop spent applying one frame to the
  // pipeline (time the queue could not drain — the stall the frame caused),
  // plus one per spill upkeep pass at a burst boundary or that compacted.
  HistogramSnapshot drain_stall;
  // Wall-clock nanoseconds of one emit-strand job: a union-chain message
  // with its result fan-out, a burst-end progress report, or a flush ack.
  HistogramSnapshot emit;
  // Event-time lag per session, worst session first.
  std::vector<SessionWatermark> watermarks;
  int64_t max_watermark_lag = 0;  // Largest per-session lag (0 if none).
};

// One event loop's view of its connections (epoll front end). Gauges are
// point-in-time; counters are cumulative since the loop started.
struct IoLoopMetrics {
  size_t loop = 0;
  size_t connections = 0;       // Connections currently owned by the loop.
  size_t epollout_waiting = 0;  // Connections with write interest armed
                                // (queued bytes a slow peer has not taken).
  uint64_t accepted = 0;        // Connections ever assigned to the loop.
  uint64_t closed = 0;          // All closes, any cause.
  uint64_t closed_slow = 0;     // Shed: write queue exceeded its bound.
  uint64_t closed_error = 0;    // Read/write error or peer reset.
  uint64_t epollout_stalls = 0; // Writes that could not complete and had
                                // to arm EPOLLOUT.
};

// Streaming telemetry exporter counters (telemetry_exporter.h).
// `subscribers` is a point-in-time gauge; the rest are cumulative.
struct TelemetryMetrics {
  uint64_t subscribers = 0;       // Live subscriptions.
  uint64_t chunks_sent = 0;       // Chunks accepted toward a subscriber.
  uint64_t chunks_dropped = 0;    // Chunks dropped at a full write budget.
  uint64_t subscribers_shed = 0;  // Subscriptions removed for stalling.
  uint64_t spans_exported = 0;    // Span records put into live chunks.
  uint64_t span_ring_drops = 0;   // Ring overwrites seen while harvesting.
  uint64_t metrics_deltas = 0;    // Metrics-delta chunks built.
  uint64_t dump_chunks = 0;       // One-shot dump chunks delivered.
  uint64_t dump_truncated = 0;    // Dumps that could not queue every chunk.
};

// Result-stream exporter counters (result_exporter.h). `subscribers` is
// a point-in-time gauge; the rest are cumulative. Drops are counted in
// both chunks (delivery attempts refused) and records (rows inside those
// chunks), mirroring the per-subscriber wire accounting.
struct ResultStreamMetrics {
  uint64_t subscribers = 0;       // Live subscriptions.
  uint64_t chunks_built = 0;      // Chunks sealed from pipeline output.
  uint64_t chunks_sent = 0;       // Chunks accepted toward a subscriber.
  uint64_t chunks_dropped = 0;    // Chunks dropped at a full write budget.
  uint64_t records_streamed = 0;  // Records inside accepted chunks.
  uint64_t records_dropped = 0;   // Records inside dropped chunks.
  uint64_t subscribers_shed = 0;  // Subscriptions removed for stalling.
};

// Front-end totals: the acceptor plus every I/O loop. Empty when the
// service runs without a socket front end (loopback tests).
struct TransportMetrics {
  uint64_t accepted = 0;       // accept() successes.
  uint64_t accept_errors = 0;  // accept() failures (EMFILE, ...).
  std::vector<IoLoopMetrics> loops;
};

// Whole-service view: transport totals plus every shard.
struct ServerMetrics {
  uint64_t connections_opened = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_in = 0;   // All decoded frames, any type.
  uint64_t frames_out = 0;  // All frames sent (acks, rejects, metrics).
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t decode_errors = 0;  // Poisoned connections (bad CRC/magic/...).
  bool shutting_down = false;
  TransportMetrics transport;
  TelemetryMetrics telemetry;
  ResultStreamMetrics results;
  std::vector<ShardMetrics> shards;
};

// The metric schema: every exported metric is one row of a descriptor
// table (MetricTable()), and the text, JSON and Prometheus renderers and
// the telemetry metrics delta all walk it — adding a metric is adding a
// row. A row's scope follows from its name (impatience_io_loop_*,
// impatience_shard_*, impatience_session_*, else service-wide) and picks
// its series labels: none, loop, shard, or shard plus session.
enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };
enum class MetricScope : uint8_t { kService, kIoLoop, kShard, kSession };
// Histogram units print as "_ns" in text and JSON, "_nanoseconds" in
// Prometheus.
enum class MetricUnit : uint8_t { kNone, kNanoseconds };
// How a counter or gauge value prints where the formats differ.
enum class MetricStyle : uint8_t {
  kUnsigned,
  kSigned,       // Event-time lags.
  kBool,         // 0/1 in text and Prometheus, false/true in JSON.
  kKernelLevel,  // The level number; its name (a string) in JSON.
  kCount,        // A collection size; JSON carries it as the array itself.
};

// The objects a getter may read; a renderer fills those in scope.
struct MetricSource {
  const ServerMetrics* service = nullptr;
  const IoLoopMetrics* loop = nullptr;
  const ShardMetrics* shard = nullptr;
  const SessionWatermark* session = nullptr;
};

struct MetricDef {
  const char* name;  // Family name; histograms leave off the unit suffix.
  MetricType type;
  MetricScope scope;
  const char* help;
  // Counters and gauges read `value`; histograms read `histogram`.
  uint64_t (*value)(const MetricSource&);
  const HistogramSnapshot& (*histogram)(const MetricSource&);
  MetricStyle style;
  MetricUnit unit;
};

// Every exported metric, in rendering order.
std::span<const MetricDef> MetricTable();

// A row's JSON key: its name without "impatience_" and the prefix its
// JSON nesting implies ("io_loop_", "shard_", "session_watermark_",
// "telemetry_", "results_"); a histogram's unit suffix is not included.
std::string_view MetricJsonKey(const MetricDef& def);

// Prometheus-style exposition: "# HELP"-less "name{shard=\"i\"} value"
// lines, one block per counter family. Includes latency quantiles and
// watermark lag.
std::string RenderMetricsText(const ServerMetrics& m);

// Single JSON object with a "shards" array. Stable key order; no
// dependency on a JSON library. All string values (session labels,
// kernel level) are JSON-escaped.
std::string RenderMetricsJson(const ServerMetrics& m);

// Full Prometheus exposition format: # HELP / # TYPE headers, summary
// families with quantile labels for the latency histograms, per-session
// watermark-lag gauges. Label values are escaped per the Prometheus text
// format (backslash, double quote, newline).
std::string RenderMetricsPrometheus(const ServerMetrics& m);

// The telemetry metrics-delta body: one JSON object of shard rows rolled
// up across `shards` — counters as differences from `prev` (the previous
// round's snapshot, nullptr on the first round, clamped at zero), gauges
// as current values, the queue-wait histogram as count/sum differences
// plus its current p99 — then the exporter's cumulative span-ring drops
// and a per-shard breakdown.
std::string RenderMetricsDelta(const std::vector<ShardMetrics>& shards,
                               const std::vector<ShardMetrics>* prev,
                               uint64_t span_ring_drops);

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_METRICS_H_
