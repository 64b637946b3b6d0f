#include "server/metrics.h"

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/server/metrics_fixture.h"

namespace impatience {
namespace server {
namespace {

TEST(MetricsRenderTest, JsonIsWellFormedWithHostileLabels) {
  const std::string json = RenderMetricsJson(MakeMetrics());
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  // Quote, backslash, newline, and the control byte all escaped.
  EXPECT_NE(json.find("se\\\"ss\\\\ion\\nid\\u0001"), std::string::npos);
  // No raw newline leaked into the document at all (it is single-line).
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(MetricsRenderTest, JsonCarriesHistogramsAndWatermarks) {
  const std::string json = RenderMetricsJson(MakeMetrics());
  EXPECT_NE(json.find("\"punct_to_emit_ns\":{\"count\":1000,"),
            std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_ns\":{"), std::string::npos);
  EXPECT_NE(json.find("\"drain_stall_ns\":{"), std::string::npos);
  EXPECT_NE(json.find("\"emit_ns\":{\"count\":1000,"), std::string::npos);
  EXPECT_NE(json.find("\"ingest_to_emit_ns\":{"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_parallel_merges\":43"), std::string::npos);
  EXPECT_NE(json.find("\"spill_merge_fanin\":{\"count\":3,"),
            std::string::npos);
  EXPECT_NE(json.find("\"max_watermark_lag\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"lag\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(MetricsRenderTest, TextCarriesQuantileLines) {
  const std::string text = RenderMetricsText(MakeMetrics());
  EXPECT_NE(
      text.find("impatience_shard_punct_to_emit_ns{shard=\"0\",q=\"p50\"} "),
      std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_punct_to_emit_ns_count{shard=\"0\"} 1000"),
      std::string::npos);
  EXPECT_NE(text.find("impatience_shard_queue_wait_ns{shard=\"0\",q=\"p999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_shard_emit_ns_count{shard=\"0\"} 1000"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_shard_max_watermark_lag{shard=\"0\"} 2000"),
            std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_sorter_parallel_merges{shard=\"0\"} 43"),
      std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_spill_merge_fanin_count{shard=\"0\"} 3"),
      std::string::npos);
}

TEST(MetricsRenderTest, PrometheusSummariesAndEscaping) {
  const std::string prom = RenderMetricsPrometheus(MakeMetrics());
  // Summary conventions: HELP/TYPE, quantile labels, _sum and _count.
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_punct_to_emit_nanoseconds summary"),
      std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_punct_to_emit_nanoseconds{shard=\"0\","
                      "quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_punct_to_emit_nanoseconds_count{shard=\"0\"}"
                " 1000"),
      std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_punct_to_emit_nanoseconds_sum{shard=\"0\"}"),
      std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_queue_wait_nanoseconds summary"),
            std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_drain_stall_nanoseconds summary"),
      std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_emit_nanoseconds summary"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_emit_nanoseconds_count{shard=\"0\"}"
                      " 1000"),
            std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_sorter_parallel_merges counter"),
      std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_sorter_parallel_merges"
                      "{shard=\"0\"} 43"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_spill_merge_fanin summary"),
            std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_spill_merge_fanin_count{shard=\"0\"} 3"),
      std::string::npos);

  // Label escaping: backslash, quote, and newline per the text format; the
  // raw control byte 0x01 passes through (Prometheus allows it in UTF-8
  // label values), but the newline must not break the line.
  EXPECT_NE(prom.find("session=\"se\\\"ss\\\\ion\\nid\x01\"} 2000"),
            std::string::npos);

  EXPECT_NE(prom.find("# TYPE impatience_session_watermark_lag gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_max_watermark_lag{shard=\"0\"} 2000"),
            std::string::npos);
}

TEST(MetricsRenderTest, IoLoopFamiliesInAllThreeFormats) {
  const ServerMetrics m = MakeMetrics();

  const std::string text = RenderMetricsText(m);
  EXPECT_NE(text.find("impatience_io_accepted 12"), std::string::npos);
  EXPECT_NE(text.find("impatience_io_accept_errors 1"), std::string::npos);
  EXPECT_NE(text.find("impatience_io_loops 2"), std::string::npos);
  EXPECT_NE(text.find("impatience_io_loop_connections{loop=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_io_loop_connections{loop=\"1\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_io_loop_epollout_waiting{loop=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_io_loop_closed_slow{loop=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_io_loop_epollout_stalls{loop=\"1\"} 41"),
            std::string::npos);

  const std::string json = RenderMetricsJson(m);
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  EXPECT_NE(json.find("\"io_accepted\":12"), std::string::npos);
  EXPECT_NE(json.find("\"io_accept_errors\":1"), std::string::npos);
  EXPECT_NE(json.find("\"io_loops\":[{\"loop\":0,"), std::string::npos);
  EXPECT_NE(json.find("\"epollout_waiting\":1"), std::string::npos);
  EXPECT_NE(json.find("\"closed_slow\":1"), std::string::npos);

  const std::string prom = RenderMetricsPrometheus(m);
  EXPECT_NE(prom.find("# TYPE impatience_io_accepted counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_io_loop_connections gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_io_loop_connections{loop=\"1\"} 4"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_io_loop_closed_slow counter"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_io_loop_epollout_stalls{loop=\"0\"} 40"),
            std::string::npos);
}

// The storage-tier families (memory gauges, spill counters, recovery
// counters, and the spill merge fan-in histogram) in all three formats.
TEST(MetricsRenderTest, SpillAndMemoryFamiliesInAllThreeFormats) {
  const ServerMetrics m = MakeMetrics();

  const std::string text = RenderMetricsText(m);
  EXPECT_NE(text.find("impatience_shard_memory_current_bytes{shard=\"0\"} "
                      "1234"),
            std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_memory_peak_bytes{shard=\"0\"} 999999"),
      std::string::npos);
  EXPECT_NE(text.find("impatience_shard_runs_recovered{shard=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_shard_events_recovered{shard=\"0\"} 450"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_shard_sorter_runs_spilled{shard=\"0\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_shard_sorter_spill_bytes_written"
                      "{shard=\"0\"} 70000"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_shard_sorter_spill_read_bytes"
                      "{shard=\"0\"} 60000"),
            std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_spill_merge_fanin_count{shard=\"0\"} 3"),
      std::string::npos);

  const std::string json = RenderMetricsJson(m);
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  EXPECT_NE(json.find("\"memory_current_bytes\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"memory_peak_bytes\":999999"), std::string::npos);
  EXPECT_NE(json.find("\"runs_recovered\":3"), std::string::npos);
  EXPECT_NE(json.find("\"events_recovered\":450"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_runs_spilled\":6"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_spill_bytes_written\":70000"),
            std::string::npos);
  EXPECT_NE(json.find("\"sorter_spill_read_bytes\":60000"),
            std::string::npos);
  EXPECT_NE(json.find("\"spill_merge_fanin\":{\"count\":3,"),
            std::string::npos);

  const std::string prom = RenderMetricsPrometheus(m);
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_memory_current_bytes gauge"),
      std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_memory_peak_bytes{shard=\"0\"} "
                      "999999"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_runs_recovered counter"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_events_recovered{shard=\"0\"} 450"),
            std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_sorter_runs_spilled{shard=\"0\"} 6"),
      std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_spill_merge_fanin summary"),
            std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_spill_merge_fanin_count{shard=\"0\"} 3"),
      std::string::npos);
}

// The async-spill-pipeline families (write-behind flushes, merge
// read-ahead hit/miss, idle flushes, disk compactions, and the
// flush-queue-depth gauge) in all three formats.
TEST(MetricsRenderTest, AsyncSpillFamiliesInAllThreeFormats) {
  const ServerMetrics m = MakeMetrics();

  const std::string text = RenderMetricsText(m);
  EXPECT_NE(
      text.find("impatience_shard_sorter_async_flushes{shard=\"0\"} 42"),
      std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_sorter_readahead_hits{shard=\"0\"} 31"),
      std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_sorter_readahead_misses{shard=\"0\"} 4"),
      std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_sorter_idle_flushes{shard=\"0\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("impatience_shard_sorter_spill_compactions{shard=\"0\"} 5"),
      std::string::npos);
  EXPECT_NE(text.find("impatience_shard_sorter_flush_queue_bytes"
                      "{shard=\"0\"} 8192"),
            std::string::npos);

  const std::string json = RenderMetricsJson(m);
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  EXPECT_NE(json.find("\"sorter_async_flushes\":42"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_readahead_hits\":31"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_readahead_misses\":4"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_idle_flushes\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_spill_compactions\":5"), std::string::npos);
  EXPECT_NE(json.find("\"sorter_flush_queue_bytes\":8192"),
            std::string::npos);

  const std::string prom = RenderMetricsPrometheus(m);
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_sorter_async_flushes counter"),
      std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_sorter_async_flushes{shard=\"0\"} 42"),
      std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_sorter_readahead_hits counter"),
      std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_sorter_readahead_misses{shard=\"0\"} 4"),
      std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_sorter_spill_compactions{shard=\"0\"} 5"),
      std::string::npos);
  // Queue depth is a point-in-time gauge, not a counter.
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_sorter_flush_queue_bytes gauge"),
      std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_sorter_flush_queue_bytes"
                      "{shard=\"0\"} 8192"),
            std::string::npos);
}

// The cumulative-bucket histogram siblings: `histogram`-typed families
// with an exact le ladder (every bound is the largest value of its log
// bucket, so the cumulative counts are exact, not interpolated).
TEST(MetricsRenderTest, PrometheusBucketSiblingsAreExact) {
  const std::string prom = RenderMetricsPrometheus(MakeMetrics());

  // The summary families keep their names and types (pinned above); the
  // bucket siblings carry the _hist suffix and histogram type.
  EXPECT_NE(prom.find("# TYPE impatience_shard_punct_to_emit_nanoseconds"
                      "_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_ingest_to_emit_nanoseconds"
                      "_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_queue_wait_nanoseconds"
                      "_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_drain_stall_nanoseconds"
                      "_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_shard_emit_nanoseconds_hist "
                      "histogram"),
            std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE impatience_shard_spill_merge_fanin_hist histogram"),
      std::string::npos);

  // spill_merge_fanin recorded {2, 5, 9}: exact cumulative counts at the
  // 2^k - 1 bounds — 0 at le=0, 1 at le=3, all 3 at le=15.
  EXPECT_NE(prom.find("impatience_shard_spill_merge_fanin_hist_bucket"
                      "{shard=\"0\",le=\"0\"} 0"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_spill_merge_fanin_hist_bucket"
                      "{shard=\"0\",le=\"3\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_spill_merge_fanin_hist_bucket"
                      "{shard=\"0\",le=\"15\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_shard_spill_merge_fanin_hist_bucket"
                      "{shard=\"0\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_spill_merge_fanin_hist_sum{shard=\"0\"} 16"),
      std::string::npos);
  EXPECT_NE(
      prom.find("impatience_shard_spill_merge_fanin_hist_count{shard=\"0\"} 3"),
      std::string::npos);
}

// The streaming-telemetry families (subscriber gauge, chunk/drop/shed
// counters, span export accounting, dump chunking) in all three formats.
TEST(MetricsRenderTest, TelemetryFamiliesInAllThreeFormats) {
  const ServerMetrics m = MakeMetrics();

  const std::string text = RenderMetricsText(m);
  EXPECT_NE(text.find("impatience_telemetry_subscribers 2"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_chunks_sent 150"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_chunks_dropped 7"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_subscribers_shed 1"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_spans_exported 4000"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_span_ring_drops 11"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_metrics_deltas 30"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_dump_chunks 9"),
            std::string::npos);
  EXPECT_NE(text.find("impatience_telemetry_dump_truncated 0"),
            std::string::npos);

  const std::string json = RenderMetricsJson(m);
  EXPECT_TRUE(JsonIsWellFormed(json)) << json;
  EXPECT_NE(json.find("\"telemetry\":{\"subscribers\":2,"),
            std::string::npos);
  EXPECT_NE(json.find("\"chunks_sent\":150"), std::string::npos);
  EXPECT_NE(json.find("\"chunks_dropped\":7"), std::string::npos);
  EXPECT_NE(json.find("\"subscribers_shed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"spans_exported\":4000"), std::string::npos);
  EXPECT_NE(json.find("\"span_ring_drops\":11"), std::string::npos);
  EXPECT_NE(json.find("\"metrics_deltas\":30"), std::string::npos);
  EXPECT_NE(json.find("\"dump_chunks\":9"), std::string::npos);
  EXPECT_NE(json.find("\"dump_truncated\":0"), std::string::npos);

  const std::string prom = RenderMetricsPrometheus(m);
  EXPECT_NE(prom.find("# TYPE impatience_telemetry_subscribers gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_telemetry_subscribers 2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE impatience_telemetry_chunks_sent counter"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_telemetry_chunks_dropped 7"),
            std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE impatience_telemetry_subscribers_shed counter"),
      std::string::npos);
  EXPECT_NE(prom.find("impatience_telemetry_spans_exported 4000"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_telemetry_span_ring_drops 11"),
            std::string::npos);
  EXPECT_NE(prom.find("impatience_telemetry_dump_chunks 9"),
            std::string::npos);
}

// Prometheus histogram conformance, checked structurally rather than by
// pinning strings: for every `histogram`-typed family in the render, the
// `_bucket` cumulative counts must be nondecreasing along the le ladder,
// the ladder must end at le="+Inf" with a count equal to the family's
// `_count` series, and a `_sum` series must be present.
TEST(MetricsRenderTest, PrometheusHistogramFamiliesConform) {
  const std::string prom = RenderMetricsPrometheus(MakeMetrics());

  // Collect every family declared `# TYPE <name> histogram`.
  std::vector<std::string> families;
  const std::string kTypePrefix = "# TYPE ";
  size_t pos = 0;
  while ((pos = prom.find(kTypePrefix, pos)) != std::string::npos) {
    const size_t name_start = pos + kTypePrefix.size();
    const size_t name_end = prom.find(' ', name_start);
    ASSERT_NE(name_end, std::string::npos);
    const size_t line_end = prom.find('\n', name_end);
    const std::string kind =
        prom.substr(name_end + 1, line_end - name_end - 1);
    if (kind == "histogram") {
      families.push_back(prom.substr(name_start, name_end - name_start));
    }
    pos = line_end;
  }
  ASSERT_FALSE(families.empty());

  auto parse_value = [](const std::string& line) {
    return std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
  };
  for (const std::string& family : families) {
    SCOPED_TRACE(family);
    unsigned long long prev = 0;
    unsigned long long inf_count = 0;
    bool saw_inf = false;
    bool saw_sum = false;
    bool saw_count = false;
    unsigned long long count_value = 0;
    size_t line_start = 0;
    while (line_start < prom.size()) {
      size_t line_end = prom.find('\n', line_start);
      if (line_end == std::string::npos) line_end = prom.size();
      const std::string line =
          prom.substr(line_start, line_end - line_start);
      line_start = line_end + 1;
      if (line.rfind(family + "_bucket{", 0) == 0) {
        const unsigned long long v = parse_value(line);
        EXPECT_GE(v, prev) << "non-monotone bucket: " << line;
        prev = v;
        if (line.find("le=\"+Inf\"") != std::string::npos) {
          saw_inf = true;
          inf_count = v;
          prev = 0;  // Next series (another shard) restarts the ladder.
        }
      } else if (line.rfind(family + "_sum", 0) == 0) {
        saw_sum = true;
      } else if (line.rfind(family + "_count", 0) == 0) {
        saw_count = true;
        count_value = parse_value(line);
      }
    }
    EXPECT_TRUE(saw_inf) << "missing le=\"+Inf\" bucket";
    EXPECT_TRUE(saw_sum) << "missing _sum series";
    EXPECT_TRUE(saw_count) << "missing _count series";
    EXPECT_EQ(inf_count, count_value)
        << "+Inf bucket must equal _count";
  }
}

TEST(MetricsRenderTest, EmptyMetricsRenderCleanly) {
  const ServerMetrics empty;
  EXPECT_TRUE(JsonIsWellFormed(RenderMetricsJson(empty)));
  const std::string prom = RenderMetricsPrometheus(empty);
  EXPECT_NE(prom.find("impatience_shards 0"), std::string::npos);
  const std::string text = RenderMetricsText(empty);
  EXPECT_NE(text.find("impatience_shards 0"), std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace impatience
