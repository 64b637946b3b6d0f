#include "server/metrics.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/check.h"
#include "common/cpu_features.h"

namespace impatience {
namespace server {

namespace {

using enum MetricType;
using enum MetricScope;
using enum MetricStyle;
using enum MetricUnit;

using ValueFn = uint64_t (*)(const MetricSource&);
using HistogramFn = const HistogramSnapshot& (*)(const MetricSource&);

constexpr std::string_view kNamePrefix = "impatience_";

// A row's scope follows from its name: impatience_io_loop_*,
// impatience_shard_*, impatience_session_*, or a service-wide name.
constexpr MetricScope ScopeOf(std::string_view name) {
  name.remove_prefix(kNamePrefix.size());
  if (name.starts_with("io_loop_")) return kIoLoop;
  if (name.starts_with("shard_")) return kShard;
  if (name.starts_with("session_")) return kSession;
  return kService;
}

constexpr MetricDef Metric(const char* name, MetricType type, ValueFn value,
                           const char* help, MetricStyle style = kUnsigned) {
  return {name, type, ScopeOf(name), help, value, nullptr, style, kNone};
}

constexpr MetricDef Histogram(const char* name, MetricUnit unit,
                              HistogramFn get, const char* help) {
  return {name, kHistogram, ScopeOf(name), help, nullptr, get, kUnsigned,
          unit};
}

// Getter shorthands for the table: V reads a counter or gauge, H a
// histogram, through the row's MetricSource.
#define V(expr) \
  [](const MetricSource& src) -> uint64_t { return src.expr; }
#define H(expr) \
  [](const MetricSource& src) -> const HistogramSnapshot& { return src.expr; }

// The metric-descriptor table. Row order is rendering order in every
// format. Service rows print once (JSON: top-level keys, the
// impatience_telemetry_* and impatience_results_* rows nested under
// "telemetry" and "results"); io-loop rows once per loop (JSON: the
// "io_loops" array); shard rows once per shard (JSON: the "shards"
// array); session rows once per session of each shard (JSON: each shard's
// "watermarks" array; text omits them). Prometheus follows a run of
// histogram summaries with the run's cumulative-bucket "_hist" siblings.
constexpr MetricDef kMetrics[] = {
    Metric("impatience_connections_opened", kCounter,
           V(service->connections_opened), "Client connections accepted."),
    Metric("impatience_connections_closed", kCounter,
           V(service->connections_closed), "Client connections closed."),
    Metric("impatience_frames_in", kCounter, V(service->frames_in),
           "Frames decoded from clients."),
    Metric("impatience_frames_out", kCounter, V(service->frames_out),
           "Frames sent to clients."),
    Metric("impatience_bytes_in", kCounter, V(service->bytes_in),
           "Bytes received from clients."),
    Metric("impatience_bytes_out", kCounter, V(service->bytes_out),
           "Bytes sent to clients."),
    Metric("impatience_decode_errors", kCounter, V(service->decode_errors),
           "Connections poisoned by undecodable bytes."),
    Metric("impatience_shutting_down", kGauge, V(service->shutting_down),
           "1 while drain-and-flush shutdown is in progress.", kBool),
    Metric("impatience_shards", kGauge, V(service->shards.size()),
           "Number of shards.", kCount),
    Metric("impatience_kernel_level", kGauge,
           [](const MetricSource&) -> uint64_t {
             return static_cast<uint64_t>(ActiveKernelLevel());
           }, "Active SIMD kernel dispatch level.", kKernelLevel),
    Metric("impatience_io_accepted", kCounter, V(service->transport.accepted),
           "Sockets accepted by the TCP front end."),
    Metric("impatience_io_accept_errors", kCounter,
           V(service->transport.accept_errors),
           "Transient accept() failures (EMFILE, aborts)."),
    Metric("impatience_io_loops", kGauge, V(service->transport.loops.size()),
           "Number of epoll I/O event loops.", kCount),

    Metric("impatience_telemetry_subscribers", kGauge,
           V(service->telemetry.subscribers),
           "Live streaming telemetry subscriptions."),
    Metric("impatience_telemetry_chunks_sent", kCounter,
           V(service->telemetry.chunks_sent),
           "Telemetry chunks accepted toward a subscriber."),
    Metric("impatience_telemetry_chunks_dropped", kCounter,
           V(service->telemetry.chunks_dropped),
           "Telemetry chunks dropped at a full write budget."),
    Metric("impatience_telemetry_subscribers_shed", kCounter,
           V(service->telemetry.subscribers_shed),
           "Subscriptions removed after persistent stalling."),
    Metric("impatience_telemetry_spans_exported", kCounter,
           V(service->telemetry.spans_exported),
           "Span records exported into live telemetry chunks."),
    Metric("impatience_telemetry_span_ring_drops", kCounter,
           V(service->telemetry.span_ring_drops),
           "Span-ring overwrites observed while harvesting."),
    Metric("impatience_telemetry_metrics_deltas", kCounter,
           V(service->telemetry.metrics_deltas),
           "Metrics-delta telemetry chunks built."),
    Metric("impatience_telemetry_dump_chunks", kCounter,
           V(service->telemetry.dump_chunks),
           "One-shot trace dump chunks delivered."),
    Metric("impatience_telemetry_dump_truncated", kCounter,
           V(service->telemetry.dump_truncated),
           "Trace dumps that could not queue every chunk."),

    Metric("impatience_results_subscribers", kGauge,
           V(service->results.subscribers),
           "Live result-stream subscriptions."),
    Metric("impatience_results_chunks_built", kCounter,
           V(service->results.chunks_built),
           "Result chunks sealed from pipeline output."),
    Metric("impatience_results_chunks_sent", kCounter,
           V(service->results.chunks_sent),
           "Result chunks accepted toward a subscriber."),
    Metric("impatience_results_chunks_dropped", kCounter,
           V(service->results.chunks_dropped),
           "Result chunks dropped at a full write budget."),
    Metric("impatience_results_records_streamed", kCounter,
           V(service->results.records_streamed),
           "Records inside accepted result chunks."),
    Metric("impatience_results_records_dropped", kCounter,
           V(service->results.records_dropped),
           "Records inside dropped result chunks."),
    Metric("impatience_results_subscribers_shed", kCounter,
           V(service->results.subscribers_shed),
           "Result subscriptions removed after persistent stalling."),

    Metric("impatience_io_loop_connections", kGauge, V(loop->connections),
           "Connections currently owned by the event loop."),
    Metric("impatience_io_loop_epollout_waiting", kGauge,
           V(loop->epollout_waiting),
           "Connections with write interest armed (queued replies a slow peer "
           "has not drained)."),
    Metric("impatience_io_loop_accepted", kCounter, V(loop->accepted),
           "Connections ever assigned to the loop."),
    Metric("impatience_io_loop_closed", kCounter, V(loop->closed),
           "Connections closed, any cause."),
    Metric("impatience_io_loop_closed_slow", kCounter, V(loop->closed_slow),
           "Connections shed because the reply queue hit its bound."),
    Metric("impatience_io_loop_closed_error", kCounter, V(loop->closed_error),
           "Connections closed on read/write error or peer reset."),
    Metric("impatience_io_loop_epollout_stalls", kCounter,
           V(loop->epollout_stalls),
           "Writes that could not complete and armed EPOLLOUT."),

    Metric("impatience_shard_queue_depth", kGauge, V(shard->queue_depth),
           "Frames waiting in the shard ingress queue."),
    Metric("impatience_shard_queue_capacity", kGauge, V(shard->queue_capacity),
           "Shard ingress queue capacity in frames."),
    Metric("impatience_shard_frames_in", kCounter, V(shard->frames_in),
           "Data frames accepted into the shard queue."),
    Metric("impatience_shard_events_in", kCounter, V(shard->events_in),
           "Events inside accepted frames."),
    Metric("impatience_shard_punctuations_in", kCounter,
           V(shard->punctuations_in), "Client punctuation frames."),
    Metric("impatience_shard_sessions", kGauge, V(shard->sessions),
           "Distinct sessions seen by the shard."),
    Metric("impatience_shard_blocked_pushes", kCounter,
           V(shard->blocked_pushes),
           "Enqueues that had to wait (block policy)."),
    Metric("impatience_shard_rejected_frames", kCounter,
           V(shard->rejected_frames),
           "Frames refused under the reject policy."),
    Metric("impatience_shard_rejected_events", kCounter,
           V(shard->rejected_events), "Events inside refused frames."),
    Metric("impatience_shard_shed_frames", kCounter, V(shard->shed_frames),
           "Frames evicted under the shed policy."),
    Metric("impatience_shard_shed_events", kCounter, V(shard->shed_events),
           "Events inside evicted frames."),
    Metric("impatience_shard_events_out", kCounter, V(shard->events_out),
           "Rows emitted on the subscribed output stream."),
    Metric("impatience_shard_dropped_late", kCounter, V(shard->dropped_late),
           "Events dropped as too late (partition + sorters)."),
    Metric("impatience_shard_sorter_pushes", kCounter, V(shard->sorter.pushes),
           "Elements accepted by the shard's Impatience sorters."),
    Metric("impatience_shard_sorter_srs_hits", kCounter,
           V(shard->sorter.srs_hits),
           "Insertions resolved by speculative run selection."),
    Metric("impatience_shard_sorter_new_runs", kCounter,
           V(shard->sorter.new_runs), "Sorted runs created."),
    Metric("impatience_shard_sorter_removed_runs", kCounter,
           V(shard->sorter.removed_runs),
           "Sorted runs removed after punctuations."),
    Metric("impatience_shard_sorter_elements_moved", kCounter,
           V(shard->sorter.merge.elements_moved),
           "Elements moved by punctuation merges."),
    Metric("impatience_shard_sorter_disjoint_concats", kCounter,
           V(shard->sorter.merge.disjoint_concats),
           "Merge steps resolved as bulk copies of disjoint runs."),
    Metric("impatience_shard_memory_current_bytes", kGauge,
           V(shard->memory_current_bytes),
           "Bytes buffered across the shard pipeline right now."),
    Metric("impatience_shard_memory_peak_bytes", kGauge,
           V(shard->memory_peak_bytes),
           "High-water mark of shard pipeline buffering since the last "
           "resetting scrape."),
    Metric("impatience_shard_runs_recovered", kCounter,
           V(shard->runs_recovered),
           "Spilled runs replayed from disk at startup."),
    Metric("impatience_shard_events_recovered", kCounter,
           V(shard->events_recovered),
           "Events replayed from recovered runs at startup."),
    Metric("impatience_shard_sorter_runs_spilled", kCounter,
           V(shard->sorter.runs_spilled),
           "Sorter runs evicted to the disk spill tier."),
    Metric("impatience_shard_sorter_spill_bytes_written", kCounter,
           V(shard->sorter.spill_bytes_written),
           "Bytes written to spilled run files."),
    Metric("impatience_shard_sorter_spill_read_bytes", kCounter,
           V(shard->sorter.spill_read_bytes),
           "Bytes read back from spilled run files."),
    Metric("impatience_shard_sorter_async_flushes", kCounter,
           V(shard->sorter.async_flushes),
           "Sealed blocks handed to the spill flusher (inline or pool)."),
    Metric("impatience_shard_sorter_readahead_hits", kCounter,
           V(shard->sorter.readahead_hits),
           "Merge-cursor block prefetches that were ready in time."),
    Metric("impatience_shard_sorter_readahead_misses", kCounter,
           V(shard->sorter.readahead_misses),
           "Merge-cursor blocks loaded synchronously (prefetch late or "
           "absent)."),
    Metric("impatience_shard_sorter_idle_flushes", kCounter,
           V(shard->sorter.idle_flushes),
           "Idle-deadline flushes of quiescent tail blocks."),
    Metric("impatience_shard_sorter_spill_compactions", kCounter,
           V(shard->sorter.spill_compactions),
           "Spilled run files rewritten to reclaim disk."),
    Metric("impatience_shard_sorter_flush_queue_bytes", kGauge,
           V(shard->sorter.flush_queue_bytes),
           "Bytes queued in the flusher pool at the last observation."),
    Metric("impatience_shard_union_sides_spilled", kCounter,
           V(shard->unions.sides_spilled),
           "Union input buffers moved to a disk tail."),
    Metric("impatience_shard_union_spill_bytes_written", kCounter,
           V(shard->unions.bytes_written),
           "Bytes written to union tail files."),
    Metric("impatience_shard_union_spill_read_bytes", kCounter,
           V(shard->unions.bytes_read),
           "Bytes read back from union tail files."),

    Histogram("impatience_shard_punct_to_emit", kNanoseconds,
              H(shard->sorter.punct_to_emit),
              "Punctuation arrival to emit completion, per call."),
    Histogram("impatience_shard_ingest_to_emit", kNanoseconds,
              H(shard->sorter.ingest_to_emit),
              "Oldest buffered push to emit, per emitting punctuation."),
    Histogram("impatience_shard_queue_wait", kNanoseconds, H(shard->queue_wait),
              "Frame wait in the shard ingress queue."),
    Histogram("impatience_shard_drain_stall", kNanoseconds,
              H(shard->drain_stall),
              "Drain-loop stall applying one frame to the pipeline."),
    Histogram("impatience_shard_emit", kNanoseconds, H(shard->emit),
              "Emit-strand job: union chain and result fan-out of one band "
              "message, or a progress report or flush ack."),
    Histogram("impatience_shard_spill_merge_fanin", kNone,
              H(shard->sorter.spill_merge_fanin),
              "Fan-in of punctuation merges touching spilled runs."),

    Metric("impatience_session_watermark_lag", kGauge, V(session->lag),
           "Event-time lag of a session: max sync time minus the shard's last "
           "punctuation.", kSigned),
    Metric("impatience_shard_max_watermark_lag", kGauge,
           V(shard->max_watermark_lag),
           "Largest per-session event-time watermark lag.", kSigned),
};

#undef V
#undef H

// Name prefixes (after "impatience_") that JSON keys drop: the nested
// scopes' and the nested service groups'.
constexpr std::string_view kJsonPrefixes[] = {
    "io_loop_", "shard_", "session_watermark_", "telemetry_", "results_"};

std::string_view JsonPrefix(const MetricDef& def) {
  const std::string_view key =
      std::string_view(def.name).substr(kNamePrefix.size());
  for (const std::string_view prefix : kJsonPrefixes) {
    if (key.starts_with(prefix)) return prefix;
  }
  return {};
}

const char* UnitSuffix(const MetricDef& def, bool prometheus) {
  if (def.unit == kNone) return "";
  return prometheus ? "_nanoseconds" : "_ns";
}

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
}

// Escapes `s` for embedding inside a JSON string literal: quotes,
// backslashes, and control characters (the characters RFC 8259 forbids
// raw inside strings).
void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          Appendf(out, "\\u%04x", c);
        } else {
          out->push_back(ch);
        }
    }
  }
}

// Escapes `s` for a Prometheus label value: backslash, double quote, and
// newline (the three characters the text exposition format escapes).
void AppendPromLabelEscaped(const std::string& s, std::string* out) {
  for (const char ch : s) {
    switch (ch) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(ch);
    }
  }
}

// The quantiles every latency family exposes, shared by all renderings.
struct QuantilePoint {
  const char* text_label;  // bare-text q="..." label
  const char* prom_label;  // Prometheus quantile="..." label
  double q;
};

constexpr QuantilePoint kQuantiles[] = {
    {"p50", "0.5", 0.50},
    {"p90", "0.9", 0.90},
    {"p99", "0.99", 0.99},
    {"p999", "0.999", 0.999},
};

// --- Text and Prometheus ---------------------------------------------

// A counter or gauge value as a decimal number (signed for kSigned).
void AppendNumber(std::string* out, const MetricDef& def, uint64_t v) {
  char buf[24];
  const std::to_chars_result r =
      def.style == kSigned
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v))
          : std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

void AppendValue(std::string* out, const MetricDef& def, uint64_t v) {
  out->push_back(' ');
  AppendNumber(out, def, v);
  out->push_back('\n');
}

// Every series of a counter or gauge row as `name{labels} value` lines.
void AppendSeries(std::string* out, const ServerMetrics& m,
                  const MetricDef& def) {
  switch (def.scope) {
    case kService:
      *out += def.name;
      AppendValue(out, def, def.value({&m}));
      break;
    case kIoLoop:
      for (const IoLoopMetrics& l : m.transport.loops) {
        Appendf(out, "%s{loop=\"%zu\"}", def.name, l.loop);
        AppendValue(out, def, def.value({&m, &l}));
      }
      break;
    case kShard:
      for (const ShardMetrics& s : m.shards) {
        Appendf(out, "%s{shard=\"%zu\"}", def.name, s.shard);
        AppendValue(out, def, def.value({&m, nullptr, &s}));
      }
      break;
    case kSession:
      for (const ShardMetrics& s : m.shards) {
        for (const SessionWatermark& w : s.watermarks) {
          Appendf(out, "%s{shard=\"%zu\",session=\"", def.name, s.shard);
          AppendPromLabelEscaped(w.label, out);
          *out += "\"}";
          AppendValue(out, def, def.value({&m, nullptr, &s, &w}));
        }
      }
      break;
  }
}

enum class HistogramForm : uint8_t { kText, kSummary, kBuckets };

// One histogram row for every shard. kText: quantile lines plus _count
// and _max. kSummary: the Prometheus summary — quantile series plus _sum
// and _count. kBuckets: its "_hist" sibling — cumulative le buckets on
// the ladder 2^k - 1 (k = 0, 2, ..., 40), +Inf, _sum and _count; each
// bound is the largest value of its log bucket, so every cumulative
// count is exact (see HistogramSnapshot::CountLessOrEqual).
void AppendHistogram(std::string* out, const ServerMetrics& m,
                     const MetricDef& def, HistogramForm form) {
  char name[128];
  std::snprintf(name, sizeof(name), "%s%s%s", def.name,
                UnitSuffix(def, form != HistogramForm::kText),
                form == HistogramForm::kBuckets ? "_hist" : "");
  if (form != HistogramForm::kText) {
    Appendf(out, "# HELP %s %s\n# TYPE %s %s\n", name, def.help, name,
            form == HistogramForm::kBuckets ? "histogram" : "summary");
  }
  for (const ShardMetrics& s : m.shards) {
    const HistogramSnapshot& h = def.histogram({&m, nullptr, &s});
    const size_t shard = s.shard;
    if (form == HistogramForm::kBuckets) {
      for (int k = 0; k <= 40; k += 2) {
        const uint64_t le = (uint64_t{1} << k) - 1;
        Appendf(out,
                "%s_bucket{shard=\"%zu\",le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                name, shard, le, h.CountLessOrEqual(le));
      }
      Appendf(out, "%s_bucket{shard=\"%zu\",le=\"+Inf\"} %" PRIu64 "\n",
              name, shard, h.count());
    } else {
      const bool text = form == HistogramForm::kText;
      for (const QuantilePoint& p : kQuantiles) {
        Appendf(out, "%s{shard=\"%zu\",%s=\"%s\"} %" PRIu64 "\n", name, shard,
                text ? "q" : "quantile", text ? p.text_label : p.prom_label,
                h.ValueAtQuantile(p.q));
      }
    }
    if (form == HistogramForm::kText) {
      Appendf(out, "%s_count{shard=\"%zu\"} %" PRIu64 "\n", name, shard,
              h.count());
      Appendf(out, "%s_max{shard=\"%zu\"} %" PRIu64 "\n", name, shard,
              h.max());
    } else {
      Appendf(out, "%s_sum{shard=\"%zu\"} %" PRIu64 "\n", name, shard,
              h.sum());
      Appendf(out, "%s_count{shard=\"%zu\"} %" PRIu64 "\n", name, shard,
              h.count());
    }
  }
}

// --- JSON -------------------------------------------------------------

// Opens `"key":` inside the current object, after a separating comma
// unless the key is the object's first.
void JsonKey(std::string* out, std::string_view key, const char* suffix = "") {
  if (out->back() != '{') out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append(suffix);
  out->append("\":");
}

// Opens an object element inside the current array.
void JsonElement(std::string* out) {
  if (out->back() != '[') out->push_back(',');
  out->push_back('{');
}

void JsonField(std::string* out, const MetricDef& def,
               const MetricSource& src) {
  if (def.type == kHistogram) {
    const HistogramSnapshot& h = def.histogram(src);
    JsonKey(out, MetricJsonKey(def), UnitSuffix(def, false));
    Appendf(out, "{\"count\":%" PRIu64, h.count());
    for (const QuantilePoint& p : kQuantiles) {
      Appendf(out, ",\"%s\":%" PRIu64, p.text_label, h.ValueAtQuantile(p.q));
    }
    Appendf(out, ",\"max\":%" PRIu64 ",\"sum\":%" PRIu64 "}", h.max(),
            h.sum());
    return;
  }
  if (def.style == kCount) return;  // The array carries it.
  const uint64_t v = def.value(src);
  JsonKey(out, MetricJsonKey(def));
  if (def.style == kBool) {
    *out += v != 0 ? "true" : "false";
  } else if (def.style == kKernelLevel) {
    out->push_back('"');
    AppendJsonEscaped(KernelLevelName(static_cast<KernelLevel>(v)), out);
    out->push_back('"');
  } else {
    AppendNumber(out, def, v);
  }
}

// The rows of `scope` whose names carry JSON prefix `prefix`: the fields
// of one JSON object.
std::vector<const MetricDef*> JsonRows(MetricScope scope,
                                       std::string_view prefix) {
  std::vector<const MetricDef*> rows;
  for (const MetricDef& def : kMetrics) {
    if (def.scope == scope && JsonPrefix(def) == prefix) rows.push_back(&def);
  }
  return rows;
}

void JsonFields(std::string* out, const std::vector<const MetricDef*>& rows,
                const MetricSource& src) {
  for (const MetricDef* def : rows) JsonField(out, *def, src);
}

// --- Telemetry delta --------------------------------------------------

// The delta body's rows in body order; gauges roll up across shards by
// sum, or by max where `max` is set (counters and histograms always sum).
struct DeltaField {
  const char* name;
  bool max = false;
};

constexpr DeltaField kDeltaTotals[] = {
    {"impatience_shard_frames_in"},
    {"impatience_shard_events_in"},
    {"impatience_shard_events_out"},
    {"impatience_shard_punctuations_in"},
    {"impatience_shard_queue_wait"},
    {"impatience_shard_queue_depth"},
    {"impatience_shard_memory_current_bytes"},
    {"impatience_shard_max_watermark_lag", /*max=*/true},
};

constexpr DeltaField kDeltaPerShard[] = {
    {"impatience_shard_events_in"},
    {"impatience_shard_queue_depth"},
    {"impatience_shard_max_watermark_lag"},
};

const MetricDef& FindMetric(std::string_view name) {
  for (const MetricDef& def : kMetrics) {
    if (name == def.name) return def;
  }
  IMPATIENCE_CHECK_MSG(false, "no metric row named %.*s",
                       static_cast<int>(name.size()), name.data());
  return kMetrics[0];
}

uint64_t ClampedDelta(uint64_t cur, uint64_t prev) {
  return cur >= prev ? cur - prev : 0;
}

// One delta field over `shards` against `prev` (each the whole snapshot
// or one shard's slice): counters as clamped differences of their sums,
// gauges as current roll-ups, histograms as count/sum differences plus
// the merged current p99.
void DeltaEntry(std::string* out, const DeltaField& field,
                std::span<const ShardMetrics> shards,
                std::span<const ShardMetrics> prev) {
  const MetricDef& def = FindMetric(field.name);
  const std::string key(MetricJsonKey(def));
  if (def.type == kHistogram) {
    HistogramSnapshot merged;
    for (const ShardMetrics& s : shards) merged += def.histogram({.shard = &s});
    uint64_t prev_count = 0;
    uint64_t prev_sum = 0;
    for (const ShardMetrics& s : prev) {
      prev_count += def.histogram({.shard = &s}).count();
      prev_sum += def.histogram({.shard = &s}).sum();
    }
    const char* unit = UnitSuffix(def, false);
    JsonKey(out, "d_" + key, "_count");
    Appendf(out, "%" PRIu64, ClampedDelta(merged.count(), prev_count));
    JsonKey(out, "d_" + key + "_sum", unit);
    Appendf(out, "%" PRIu64, ClampedDelta(merged.sum(), prev_sum));
    JsonKey(out, key + "_p99", unit);
    Appendf(out, "%" PRIu64, merged.P99());
    return;
  }
  auto rollup = [&](std::span<const ShardMetrics> view) {
    int64_t acc = 0;  // Lags are signed; counts stay far below 2^63.
    for (const ShardMetrics& s : view) {
      const int64_t v = static_cast<int64_t>(def.value({.shard = &s}));
      acc = field.max ? std::max(acc, v) : acc + v;
    }
    return acc;
  };
  if (def.type == kCounter) {
    JsonKey(out, "d_" + key);
    Appendf(out, "%" PRIu64,
            ClampedDelta(static_cast<uint64_t>(rollup(shards)),
                         static_cast<uint64_t>(rollup(prev))));
  } else if (def.style == kSigned) {
    JsonKey(out, key);
    Appendf(out, "%" PRId64, rollup(shards));
  } else {
    JsonKey(out, key);
    Appendf(out, "%" PRIu64, static_cast<uint64_t>(rollup(shards)));
  }
}

}  // namespace

std::span<const MetricDef> MetricTable() { return kMetrics; }

std::string_view MetricJsonKey(const MetricDef& def) {
  return std::string_view(def.name).substr(kNamePrefix.size() +
                                           JsonPrefix(def).size());
}

std::string RenderMetricsText(const ServerMetrics& m) {
  std::string out;
  for (const MetricDef& def : kMetrics) {
    if (def.type == kHistogram) {
      AppendHistogram(&out, m, def, HistogramForm::kText);
    } else if (def.scope != kSession) {
      AppendSeries(&out, m, def);
    }
  }
  return out;
}

std::string RenderMetricsJson(const ServerMetrics& m) {
  const std::vector<const MetricDef*> loop_rows = JsonRows(kIoLoop, "io_loop_");
  const std::vector<const MetricDef*> shard_rows = JsonRows(kShard, "shard_");
  const std::vector<const MetricDef*> session_rows =
      JsonRows(kSession, "session_watermark_");
  std::string out = "{";
  JsonFields(&out, JsonRows(kService, {}), {&m});
  JsonKey(&out, "io_loops");
  out += "[";
  for (const IoLoopMetrics& l : m.transport.loops) {
    JsonElement(&out);
    Appendf(&out, "\"loop\":%zu", l.loop);
    JsonFields(&out, loop_rows, {&m, &l});
    out += "}";
  }
  out += "]";
  for (const std::string_view group : {"telemetry", "results"}) {
    JsonKey(&out, group);
    out += "{";
    JsonFields(&out, JsonRows(kService, std::string(group) + "_"), {&m});
    out += "}";
  }
  JsonKey(&out, "shards");
  out += "[";
  for (const ShardMetrics& s : m.shards) {
    JsonElement(&out);
    Appendf(&out, "\"shard\":%zu", s.shard);
    JsonFields(&out, shard_rows, {&m, nullptr, &s});
    JsonKey(&out, "watermarks");
    out += "[";
    for (const SessionWatermark& w : s.watermarks) {
      JsonElement(&out);
      out += "\"session\":\"";
      AppendJsonEscaped(w.label, &out);
      Appendf(&out,
              "\",\"session_id\":%" PRIu64 ",\"max_sync_time\":%" PRId64
              ",\"last_punctuation\":%" PRId64,
              w.session_id, static_cast<int64_t>(w.max_sync_time),
              static_cast<int64_t>(w.last_punctuation));
      JsonFields(&out, session_rows, {&m, nullptr, &s, &w});
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string RenderMetricsPrometheus(const ServerMetrics& m) {
  std::string out;
  const std::span<const MetricDef> table = kMetrics;
  for (size_t i = 0; i < table.size(); ++i) {
    const MetricDef& def = table[i];
    if (def.type != kHistogram) {
      Appendf(&out, "# HELP %s %s\n# TYPE %s %s\n", def.name, def.help,
              def.name, def.type == kCounter ? "counter" : "gauge");
      AppendSeries(&out, m, def);
      continue;
    }
    AppendHistogram(&out, m, def, HistogramForm::kSummary);
    if (i + 1 < table.size() && table[i + 1].type == kHistogram) continue;
    // Last of a run of histogram rows: the run's bucket siblings.
    size_t first = i;
    while (first > 0 && table[first - 1].type == kHistogram) --first;
    for (size_t j = first; j <= i; ++j) {
      AppendHistogram(&out, m, table[j], HistogramForm::kBuckets);
    }
  }
  return out;
}

std::string RenderMetricsDelta(const std::vector<ShardMetrics>& shards,
                               const std::vector<ShardMetrics>* prev,
                               uint64_t span_ring_drops) {
  const std::span<const ShardMetrics> before =
      prev != nullptr ? std::span<const ShardMetrics>(*prev)
                      : std::span<const ShardMetrics>();
  std::string out;
  Appendf(&out, "{\"first\":%s", prev == nullptr ? "true" : "false");
  for (const DeltaField& field : kDeltaTotals) {
    DeltaEntry(&out, field, shards, before);
  }
  JsonKey(&out, "span_ring_drops");
  Appendf(&out, "%" PRIu64 ",\"shards\":[", span_ring_drops);
  for (size_t i = 0; i < shards.size(); ++i) {
    JsonElement(&out);
    Appendf(&out, "\"shard\":%zu", shards[i].shard);
    for (const DeltaField& field : kDeltaPerShard) {
      DeltaEntry(&out, field, std::span(shards).subspan(i, 1),
                 i < before.size() ? before.subspan(i, 1) : before.first(0));
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace server
}  // namespace impatience
