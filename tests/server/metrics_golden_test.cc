// Golden-bytes pins for the metrics surface: the exact text, JSON, and
// Prometheus renderings of the shared MakeMetrics() fixture, and two
// consecutive telemetry metrics-delta bodies. Scrapers and dashboards
// parse these bytes, so a renderer change that moves, renames, or
// reformats any series must show up here as an explicit golden edit.
//
// Goldens live in tests/server/testdata/. The active kernel level depends
// on the CPU and IMPATIENCE_KERNEL_LEVEL, so the goldens carry the
// placeholders @KERNEL_LEVEL@ (text/Prometheus) and @KERNEL_LEVEL_NAME@
// (JSON). On a mismatch the test writes the actual rendering, with the
// placeholders restored, next to gtest's temp dir and names the first
// differing line; an intentional change is re-pinned by copying that file
// over the golden.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "server/metrics.h"
#include "server/telemetry_exporter.h"
#include "server/wire_format.h"
#include "tests/server/metrics_fixture.h"

namespace impatience {
namespace server {
namespace {

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t pos = s->find(from); pos != std::string::npos;
       pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
}

// (placeholder, actual) pairs for the machine-dependent values.
std::vector<std::pair<std::string, std::string>> KernelSubstitutions() {
  const KernelLevel level = ActiveKernelLevel();
  return {
      {"impatience_kernel_level @KERNEL_LEVEL@\n",
       "impatience_kernel_level " + std::to_string(static_cast<int>(level)) +
           "\n"},
      {"\"kernel_level\":\"@KERNEL_LEVEL_NAME@\"",
       std::string("\"kernel_level\":\"") + KernelLevelName(level) + "\""},
  };
}

std::string FirstDifference(const std::string& want, const std::string& got) {
  size_t line = 1;
  size_t start = 0;
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (want[i] != got[i]) break;
    if (want[i] == '\n') {
      ++line;
      start = i + 1;
    }
  }
  auto line_at = [start](const std::string& s) {
    const size_t end = s.find('\n', start);
    return s.substr(start, end == std::string::npos ? std::string::npos
                                                    : end - start);
  };
  return "first difference at line " + std::to_string(line) +
         "\n  golden: " + line_at(want) + "\n  actual: " + line_at(got);
}

void ExpectMatchesGolden(const std::string& file, const std::string& actual) {
  const std::string path = std::string(IMPATIENCE_METRICS_GOLDEN_DIR) + "/" +
                           file;
  std::stringstream buf;
  buf << std::ifstream(path, std::ios::binary).rdbuf();
  std::string golden = buf.str();  // Empty when the golden is missing.
  for (const auto& [placeholder, value] : KernelSubstitutions()) {
    ReplaceAll(&golden, placeholder, value);
  }
  if (golden == actual) return;

  std::string regen = actual;
  for (const auto& [placeholder, value] : KernelSubstitutions()) {
    ReplaceAll(&regen, value, placeholder);
  }
  const std::string out_path = ::testing::TempDir() + file;
  std::ofstream(out_path, std::ios::binary) << regen;
  ADD_FAILURE() << file << " differs from its golden; "
                << FirstDifference(golden, actual)
                << "\n  actual rendering written to " << out_path;
}

TEST(MetricsGoldenTest, TextRenderingIsPinned) {
  ExpectMatchesGolden("metrics_golden.txt", RenderMetricsText(MakeMetrics()));
}

TEST(MetricsGoldenTest, JsonRenderingIsPinned) {
  const std::string json = RenderMetricsJson(MakeMetrics());
  EXPECT_TRUE(JsonIsWellFormed(json));
  ExpectMatchesGolden("metrics_golden.json", json);
}

TEST(MetricsGoldenTest, PrometheusRenderingIsPinned) {
  ExpectMatchesGolden("metrics_golden.prom",
                      RenderMetricsPrometheus(MakeMetrics()));
}

// Round 0 is the fixture's shards; round 1 moves counters forward on
// shard 0 and backward on shard 1 (a reset), shifts every gauge, and
// adds queue-wait samples — covering delta, clamp, gauge, and histogram
// handling in both the totals and the per-shard entries.
std::vector<ShardMetrics> DeltaRound(int round) {
  std::vector<ShardMetrics> shards = MakeMetrics().shards;
  if (round == 0) return shards;
  ShardMetrics& busy = shards[0];
  busy.frames_in += 7;
  busy.events_in += 640;
  busy.events_out += 600;
  busy.punctuations_in += 3;
  busy.queue_depth = 4;
  busy.memory_current_bytes = 2048;
  busy.max_watermark_lag = 1500;
  for (uint64_t v = 1; v <= 10; ++v) busy.queue_wait.Record(v * 100000);
  ShardMetrics& reset = shards[1];
  reset.frames_in = 0;
  reset.events_in = 6000;
  reset.queue_depth = 2;
  reset.max_watermark_lag = 2500;
  return shards;
}

TEST(MetricsGoldenTest, TelemetryDeltaBodiesArePinned) {
  TelemetryOptions options;
  options.start_thread = false;
  int round = 0;
  TelemetryExporter exporter(options, [&round] { return DeltaRound(round++); });
  std::string wire;
  exporter.Subscribe(7, kTelemetryMetrics, [&wire](std::string bytes) {
    wire += bytes;
    return true;
  });
  exporter.Tick(/*force_metrics=*/true);
  exporter.Tick(/*force_metrics=*/true);

  FrameDecoder decoder;
  decoder.Feed(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
  std::vector<std::string> bodies;
  Frame f;
  while (decoder.Next(&f) == DecodeStatus::kOk) {
    EXPECT_EQ(f.type, FrameType::kTelemetryChunk);
    EXPECT_EQ(f.telemetry_streams, kTelemetryMetrics);
    EXPECT_EQ(f.telemetry_seq, bodies.size() + 1);
    bodies.push_back(f.text);
  }
  ASSERT_EQ(bodies.size(), 2u);
  for (const std::string& body : bodies) EXPECT_TRUE(JsonIsWellFormed(body));

  // First round: counters report their cumulative totals.
  EXPECT_EQ(bodies[0],
            "{\"first\":true,\"d_frames_in\":103,\"d_events_in\":11100,"
            "\"d_events_out\":4700,\"d_punctuations_in\":21,"
            "\"d_queue_wait_count\":1000,\"d_queue_wait_sum_ns\":5005000,"
            "\"queue_wait_p99_ns\":9856,\"queue_depth\":1,"
            "\"memory_current_bytes\":1234,\"max_watermark_lag\":2000,"
            "\"span_ring_drops\":0,\"shards\":["
            "{\"shard\":0,\"d_events_in\":5000,\"queue_depth\":1,"
            "\"max_watermark_lag\":2000},"
            "{\"shard\":1,\"d_events_in\":6100,\"queue_depth\":0,"
            "\"max_watermark_lag\":0}]}");
  // Second round: differences, clamped at zero where a total went
  // backwards (d_frames_in; shard 1's d_events_in); gauges current.
  EXPECT_EQ(bodies[1],
            "{\"first\":false,\"d_frames_in\":0,\"d_events_in\":540,"
            "\"d_events_out\":600,\"d_punctuations_in\":3,"
            "\"d_queue_wait_count\":10,\"d_queue_wait_sum_ns\":5500000,"
            "\"queue_wait_p99_ns\":10112,\"queue_depth\":6,"
            "\"memory_current_bytes\":2048,\"max_watermark_lag\":2500,"
            "\"span_ring_drops\":0,\"shards\":["
            "{\"shard\":0,\"d_events_in\":640,\"queue_depth\":4,"
            "\"max_watermark_lag\":1500},"
            "{\"shard\":1,\"d_events_in\":0,\"queue_depth\":2,"
            "\"max_watermark_lag\":2500}]}");
}

}  // namespace
}  // namespace server
}  // namespace impatience
