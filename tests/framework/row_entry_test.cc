// The partition's two entries must be interchangeable: a stream fed as
// batches through an Ingress (OnBatch) and the same stream fed as plain row
// spans (PushRows, the server's path) must give each band sorter the same
// pushes and punctuations, so every output stream, punctuation, routing
// count, drop count and sorter counter is identical. Both runs are also
// checked against a reference model of the partition (lateness routing,
// self-punctuation rounds and the sorters' boundary drops), so a routing
// bug shared by both entries cannot hide.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "storage/spill_flusher.h"
#include "workload/generators.h"

namespace impatience {
namespace {

constexpr size_t kEvents = 30000;
constexpr size_t kSpanRows = 1024;
constexpr size_t kPunctuationPeriod = 1000;
constexpr Timestamp kWindow = 1000;  // Advanced framework's tumbling window.

struct Workload {
  std::string name;
  std::vector<Event> events;
  // Band 0 has latency 0: an in-order row is then released by the very
  // round it closes, so a row pushed after its round's punctuation would
  // be dropped late instead.
  std::vector<Timestamp> latencies;
};

Workload MakeWorkload(const std::string& name) {
  if (name == "CloudLog") {
    CloudLogConfig config;
    config.num_events = kEvents;
    config.failure_rate_per_ms = 0.000003;  // Some minute-scale bursts.
    return {name, GenerateCloudLog(config).events, {0, kSecond, kMinute}};
  }
  if (name == "AndroidLog") {
    AndroidLogConfig config;
    config.num_events = kEvents;
    return {name, GenerateAndroidLog(config).events, {0, kHour, kDay}};
  }
  SyntheticConfig config;
  config.num_events = kEvents;
  config.disorder_stddev = 6000;
  config.seed = name == "Random1" ? 1 : 2;
  return {name, GenerateSynthetic(config).events, {0, 1000, 10000}};
}

// One output stream as delivered: rows, and for each punctuation the row
// count before it, so a row that crosses a punctuation shows up.
class LogSink : public Sink<4> {
 public:
  void OnBatch(const EventBatch<4>& batch) override {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!batch.filtered.Test(i)) events.push_back(batch.RowAt(i));
    }
  }
  void OnPunctuation(Timestamp t) override {
    punctuations.emplace_back(t, events.size());
  }
  void OnFlush() override { flushed = true; }

  std::vector<Event> events;
  std::vector<std::pair<Timestamp, size_t>> punctuations;
  bool flushed = false;
};

struct RunResult {
  std::vector<LogSink> streams;
  std::vector<uint64_t> band_counts;
  uint64_t partition_drops = 0;
  uint64_t total_drops = 0;
  ImpatienceCounters counters;
};

struct RunConfig {
  ThreadPool* pool = nullptr;
  bool advanced = false;
  size_t budget = 0;
};

// Feeds `events` through ToStreamables, as batches when `row_spans` is
// false and as PushRows spans of kSpanRows otherwise. The row arm is built
// as a server shard builds its framework: on a bare context with the run's
// tracker, no source, and the partition's OnFlush at the end.
RunResult RunFramework(const Workload& w, const std::vector<Event>& events,
                       const RunConfig& rc, bool row_spans) {
  // Inline, so spill decisions never depend on write timing.
  storage::SpillFlusher::Options inline_flusher;
  inline_flusher.threads = 0;
  storage::SpillFlusher flusher(inline_flusher);
  RunResult result;
  result.streams.resize(w.latencies.size());
  {
    FrameworkOptions options;
    options.reorder_latencies = w.latencies;
    options.punctuation_period = kPunctuationPeriod;
    options.sorter_config.thread_pool = rc.pool;
    options.sorter_config.spill.flusher = &flusher;
    options.sorter_config.spill.memory_budget = rc.budget;

    MemoryTracker tracker;
    StageFn<4> piq;
    StageFn<4> merge;
    if (rc.advanced) {
      piq = [](Streamable<4> s) { return s.GroupCount(); };
      merge = [](Streamable<4> s) { return s.CombinePartials(); };
    }
    auto ctx = std::make_shared<QueryContext>();
    ctx->tracker = &tracker;
    std::optional<QueryPipeline<4>> q;
    if (!row_spans) {
      typename Ingress<4>::Options ingress;
      ingress.punctuation_period = SIZE_MAX;  // The partition punctuates.
      q.emplace(ingress, &tracker);
    }
    Streamables<4> streams =
        row_spans ? ToStreamables<4>(ctx, options, piq, merge)
                  : ToStreamables<4>(q->disordered(), options, piq, merge);
    for (size_t i = 0; i < streams.size(); ++i) {
      streams.stream(i).tail()->SetDownstream(&result.streams[i]);
    }
    if (row_spans) {
      for (size_t i = 0; i < events.size(); i += kSpanRows) {
        streams.mutable_partition()->PushRows(
            events.data() + i, std::min(kSpanRows, events.size() - i));
      }
      streams.mutable_partition()->OnFlush();
    } else {
      q->Run(events);
    }
    result.band_counts = streams.partition().band_counts();
    result.partition_drops = streams.partition().dropped();
    result.total_drops = streams.TotalDrops();
    result.counters = streams.AggregatedCounters();
  }
  return result;
}

// What the partition and the band sorters must do with `events`: route by
// lateness, count events beyond the last band, punctuate every band at
// (high watermark - latency) every kPunctuationPeriod rows, and let a band
// drop a row at or before its last punctuation.
struct Model {
  std::vector<uint64_t> band_counts;
  uint64_t partition_drops = 0;
  uint64_t sorter_drops = 0;
  std::vector<std::vector<Event>> streams;  // Sorted by EventLess.
};

bool EventLess(const Event& a, const Event& b) {
  return std::tie(a.sync_time, a.other_time, a.key, a.hash, a.payload) <
         std::tie(b.sync_time, b.other_time, b.key, b.hash, b.payload);
}

Model RunModel(const Workload& w, const std::vector<Event>& events) {
  const size_t k = w.latencies.size();
  Model m;
  m.band_counts.assign(k, 0);
  m.streams.resize(k);
  std::vector<Timestamp> last(k, kMinTimestamp);
  Timestamp hw = kMinTimestamp;
  size_t since = 0;
  for (const Event& e : events) {
    hw = std::max(hw, e.sync_time);
    size_t band = 0;
    while (band < k && hw - e.sync_time > w.latencies[band]) ++band;
    if (band == k) {
      ++m.partition_drops;
    } else {
      ++m.band_counts[band];
      if (e.sync_time <= last[band]) {
        ++m.sorter_drops;
      } else {
        for (size_t i = band; i < k; ++i) m.streams[i].push_back(e);
      }
    }
    if (++since == kPunctuationPeriod) {
      since = 0;
      for (size_t i = 0; i < k && hw != kMinTimestamp; ++i) {
        last[i] = std::max(last[i], hw - w.latencies[i]);
      }
    }
  }
  for (auto& s : m.streams) std::sort(s.begin(), s.end(), EventLess);
  return m;
}

void ExpectIdentical(const RunResult& batch, const RunResult& rows) {
  ASSERT_EQ(batch.streams.size(), rows.streams.size());
  for (size_t i = 0; i < batch.streams.size(); ++i) {
    EXPECT_TRUE(batch.streams[i].flushed && rows.streams[i].flushed);
    ASSERT_EQ(batch.streams[i].events.size(), rows.streams[i].events.size())
        << "stream " << i;
    EXPECT_TRUE(batch.streams[i].events == rows.streams[i].events)
        << "stream " << i;
    EXPECT_EQ(batch.streams[i].punctuations, rows.streams[i].punctuations)
        << "stream " << i;
  }
  EXPECT_EQ(batch.band_counts, rows.band_counts);
  EXPECT_EQ(batch.total_drops, rows.total_drops);
  EXPECT_EQ(batch.counters.pushes, rows.counters.pushes);
  EXPECT_EQ(batch.counters.srs_hits, rows.counters.srs_hits);
  EXPECT_EQ(batch.counters.new_runs, rows.counters.new_runs);
  EXPECT_EQ(batch.counters.merge.elements_moved,
            rows.counters.merge.elements_moved);
  EXPECT_EQ(batch.counters.runs_spilled, rows.counters.runs_spilled);
}

void ExpectMatchesModel(const Model& m, const RunResult& r, bool advanced) {
  EXPECT_EQ(r.band_counts, m.band_counts);
  EXPECT_EQ(r.partition_drops, m.partition_drops);
  EXPECT_EQ(r.total_drops, m.partition_drops + m.sorter_drops);
  if (advanced) return;  // Outputs are aggregates, not the routed rows.
  for (size_t i = 0; i < m.streams.size(); ++i) {
    const std::vector<Event>& got = r.streams[i].events;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                               [](const Event& a, const Event& b) {
                                 return a.sync_time < b.sync_time;
                               }))
        << "stream " << i;
    std::vector<Event> sorted = got;
    std::sort(sorted.begin(), sorted.end(), EventLess);
    EXPECT_TRUE(sorted == m.streams[i]) << "stream " << i;
  }
}

class RowEntryTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(RowEntryTest, PushRowsIdenticalToBatchEntry) {
  const Workload w = MakeWorkload(std::get<0>(GetParam()));
  const size_t budget = std::get<1>(GetParam()) ? size_t{64} << 10 : 0;
  // The advanced framework aggregates per window: window the input first.
  std::vector<Event> windowed = w.events;
  for (Event& e : windowed) {
    e.sync_time -= ((e.sync_time % kWindow) + kWindow) % kWindow;
    e.other_time = e.sync_time + kWindow;
  }
  const Model model = RunModel(w, w.events);
  const Model windowed_model = RunModel(w, windowed);
  ASSERT_GT(model.band_counts[1], 0u);
  ASSERT_GT(model.band_counts[2], 0u);
  for (const size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    for (const bool advanced : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " advanced=" << advanced);
      const RunConfig rc{&pool, advanced, budget};
      const std::vector<Event>& input = advanced ? windowed : w.events;
      const RunResult batch = RunFramework(w, input, rc, /*row_spans=*/false);
      const RunResult rows = RunFramework(w, input, rc, /*row_spans=*/true);
      ExpectIdentical(batch, rows);
      ExpectMatchesModel(advanced ? windowed_model : model, rows, advanced);
      if (budget != 0) {
        EXPECT_GT(rows.counters.runs_spilled, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, RowEntryTest,
    ::testing::Combine(::testing::Values("CloudLog", "AndroidLog", "Random1",
                                         "Random2"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_Budget64k" : "_NoBudget");
    });

}  // namespace
}  // namespace impatience
