// Shared fixture for the metrics-surface tests: a fully populated
// ServerMetrics (every field a distinct non-default value, so a renderer
// that reads the wrong field shows up as a byte difference) and a
// dependency-free JSON well-formedness scan.

#ifndef IMPATIENCE_TESTS_SERVER_METRICS_FIXTURE_H_
#define IMPATIENCE_TESTS_SERVER_METRICS_FIXTURE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "server/metrics.h"

namespace impatience {
namespace server {

// Minimal JSON well-formedness scan: strings (with escapes) are opaque,
// braces/brackets must nest and end balanced, and no raw control
// characters may appear inside a string literal.
inline bool JsonIsWellFormed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (in_string) {
      if (c < 0x20) return false;  // RFC 8259 forbids raw controls.
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

// Two shards: shard 0 carries histograms and two session watermarks (one
// with a hostile label exercising every escape rule), shard 1 carries no
// samples and no sessions (the empty-histogram and empty-array paths).
inline ServerMetrics MakeMetrics() {
  ServerMetrics m;
  m.connections_opened = 2;
  m.connections_closed = 1;
  m.frames_in = 10;
  m.frames_out = 14;
  m.bytes_in = 880;
  m.bytes_out = 1536;
  m.decode_errors = 3;
  m.shutting_down = true;

  m.transport.accepted = 12;
  m.transport.accept_errors = 1;
  for (size_t i = 0; i < 2; ++i) {
    IoLoopMetrics l;
    l.loop = i;
    l.connections = 3 + i;
    l.epollout_waiting = i;
    l.accepted = 6 + i;
    l.closed = 2;
    l.closed_slow = 1;
    l.closed_error = i;
    l.epollout_stalls = 40 + i;
    m.transport.loops.push_back(l);
  }

  m.telemetry.subscribers = 2;
  m.telemetry.chunks_sent = 150;
  m.telemetry.chunks_dropped = 7;
  m.telemetry.subscribers_shed = 1;
  m.telemetry.spans_exported = 4000;
  m.telemetry.span_ring_drops = 11;
  m.telemetry.metrics_deltas = 30;
  m.telemetry.dump_chunks = 9;
  m.telemetry.dump_truncated = 0;

  m.results.subscribers = 3;
  m.results.chunks_built = 61;
  m.results.chunks_sent = 57;
  m.results.chunks_dropped = 4;
  m.results.records_streamed = 9120;
  m.results.records_dropped = 640;
  m.results.subscribers_shed = 5;

  ShardMetrics s;
  s.shard = 0;
  s.queue_depth = 1;
  s.queue_capacity = 128;
  s.frames_in = 50;
  s.events_in = 5000;
  s.punctuations_in = 21;
  s.sessions = 2;
  s.blocked_pushes = 13;
  s.rejected_frames = 19;
  s.rejected_events = 190;
  s.shed_frames = 23;
  s.shed_events = 230;
  s.events_out = 4700;
  s.dropped_late = 29;
  for (uint64_t v = 1; v <= 1000; ++v) {
    s.sorter.punct_to_emit.Record(v * 1000);
    s.queue_wait.Record(v * 10);
    s.drain_stall.Record(v * 100);
    s.emit.Record(v * 30);
  }
  s.sorter.ingest_to_emit.Record(777);
  s.sorter.ingest_to_emit.Record(123456);
  s.sorter.pushes = 4971;
  s.sorter.srs_hits = 4100;
  s.sorter.new_runs = 37;
  s.sorter.removed_runs = 31;
  s.sorter.merge.elements_moved = 9999;
  s.sorter.merge.disjoint_concats = 47;

  s.memory_current_bytes = 1234;
  s.memory_peak_bytes = 999999;
  s.runs_recovered = 3;
  s.events_recovered = 450;
  s.sorter.runs_spilled = 6;
  s.sorter.spill_bytes_written = 70000;
  s.sorter.spill_read_bytes = 60000;
  s.sorter.spill_merge_fanin.Record(2);
  s.sorter.spill_merge_fanin.Record(5);
  s.sorter.spill_merge_fanin.Record(9);
  s.sorter.async_flushes = 42;
  s.sorter.readahead_hits = 31;
  s.sorter.readahead_misses = 4;
  s.sorter.idle_flushes = 2;
  s.sorter.spill_compactions = 5;
  s.sorter.flush_queue_bytes = 8192;
  s.unions.sides_spilled = 3;
  s.unions.bytes_written = 50000;
  s.unions.bytes_read = 40000;

  SessionWatermark nasty;
  nasty.label = "se\"ss\\ion\nid\x01";  // Hostile label for both formats.
  nasty.session_id = 7;
  nasty.max_sync_time = 5000;
  nasty.last_punctuation = 3000;
  nasty.lag = 2000;
  s.watermarks.push_back(nasty);

  SessionWatermark plain;
  plain.label = "8";
  plain.session_id = 8;
  plain.lag = 0;
  s.watermarks.push_back(plain);
  s.max_watermark_lag = 2000;

  m.shards.push_back(std::move(s));

  ShardMetrics idle;
  idle.shard = 1;
  idle.queue_capacity = 128;
  idle.frames_in = 53;
  idle.events_in = 6100;
  idle.memory_peak_bytes = 4096;
  m.shards.push_back(std::move(idle));
  return m;
}

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_TESTS_SERVER_METRICS_FIXTURE_H_
