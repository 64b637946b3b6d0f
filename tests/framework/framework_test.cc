// Impatience framework: partition routing, the latency/completeness
// semantics of the output streams, basic-vs-advanced equivalence, and the
// memory advantage of embedding PIQ/merge stages (paper §V).

#include "framework/impatience_framework.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/streamable.h"
#include "storage/spill_flusher.h"
#include "workload/generators.h"

namespace impatience {
namespace {

// One event per ms at time i, except: 3% delayed by ~300 (within band 1),
// 1% delayed by ~3000 (within band 2), 0.3% delayed by ~30000 (beyond all
// bands with latencies {100, 1000, 10000}).
std::vector<Event> LayeredLatenessStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events(n);
  for (size_t i = 0; i < n; ++i) {
    Event& e = events[i];
    Timestamp t = static_cast<Timestamp>(i);
    const double dice = rng.NextDouble();
    if (dice < 0.003) {
      t -= 30000;
    } else if (dice < 0.013) {
      t -= 3000;
    } else if (dice < 0.043) {
      t -= 300;
    }
    if (t < 0) t = 0;
    e.sync_time = t;
    e.other_time = t;
    e.key = static_cast<int32_t>(rng.NextBelow(10));
    e.hash = HashKey(e.key);
    e.payload[0] = static_cast<int32_t>(rng.NextBelow(100));
  }
  return events;
}

FrameworkOptions ThreeBands() {
  FrameworkOptions options;
  options.reorder_latencies = {100, 1000, 10000};
  options.punctuation_period = 500;
  return options;
}

typename Ingress<4>::Options NoPunctIngress() {
  typename Ingress<4>::Options options;
  // The partition self-punctuates; the ingress stays silent.
  options.punctuation_period = SIZE_MAX;
  return options;
}

TEST(PartitionTest, RoutesByLateness) {
  PartitionOp<4> partition({100, 1000, 10000}, /*punctuation_period=*/10);
  // Each band's head is its sorter; count what each sorter releases.
  SortOp<4> sort0;
  SortOp<4> sort1;
  SortOp<4> sort2;
  CountingSink<4> c0;
  CountingSink<4> c1;
  CountingSink<4> c2;
  sort0.SetDownstream(&c0);
  sort1.SetDownstream(&c1);
  sort2.SetDownstream(&c2);
  partition.SetBandDownstream(0, &sort0);
  partition.SetBandDownstream(1, &sort1);
  partition.SetBandDownstream(2, &sort2);

  EventBatch<4> batch;
  auto add = [&batch](Timestamp t) {
    Event e;
    e.sync_time = t;
    batch.AppendEvent(e);
  };
  add(1000);   // hw=1000, lateness 0 -> band 0.
  add(950);    // lateness 50 -> band 0.
  add(500);    // lateness 500 -> band 1.
  add(1100);   // hw=1100, lateness 0 -> band 0.
  add(200);    // lateness 900 -> band 1.
  add(-5000);  // lateness 6100 -> band 2.
  add(-20000); // lateness 21100 -> beyond: dropped.
  batch.SealFilter();
  partition.OnBatch(batch);
  partition.OnFlush();

  EXPECT_EQ(partition.band_counts()[0], 3u);
  EXPECT_EQ(partition.band_counts()[1], 2u);
  EXPECT_EQ(partition.band_counts()[2], 1u);
  EXPECT_EQ(partition.dropped(), 1u);
  EXPECT_EQ(c0.count(), 3u);
  EXPECT_EQ(c1.count(), 2u);
  EXPECT_EQ(c2.count(), 1u);
}

TEST(PartitionTest, BandPunctuationsFollowHighWatermark) {
  PartitionOp<4> partition({10, 100}, /*punctuation_period=*/4);
  // Band outputs are sorted; CollectSink checks order and punctuations.
  SortOp<4> sort0;
  SortOp<4> sort1;
  CollectSink<4> s0;
  CollectSink<4> s1;
  sort0.SetDownstream(&s0);
  sort1.SetDownstream(&s1);
  partition.SetBandDownstream(0, &sort0);
  partition.SetBandDownstream(1, &sort1);

  EventBatch<4> batch;
  for (Timestamp t : {100, 200, 300, 400}) {
    Event e;
    e.sync_time = t;
    batch.AppendEvent(e);
  }
  batch.SealFilter();
  partition.OnBatch(batch);  // 4 events: one punctuation round at hw=400.
  ASSERT_EQ(s0.punctuations().size(), 1u);
  EXPECT_EQ(s0.punctuations()[0], 390);  // hw - 10.
  ASSERT_EQ(s1.punctuations().size(), 1u);
  EXPECT_EQ(s1.punctuations()[0], 300);  // hw - 100.
  partition.OnFlush();
}

TEST(FrameworkTest, BasicStreamsAreOrderedAndCumulative) {
  const std::vector<Event> events = LayeredLatenessStream(60000, 3);
  MemoryTracker tracker;
  QueryPipeline<4> q(NoPunctIngress(), &tracker);
  Streamables<4> streams = ToStreamables<4>(q.disordered(), ThreeBands());
  ASSERT_EQ(streams.size(), 3u);

  // CollectSink verifies in-order delivery and punctuation consistency.
  std::vector<CollectSink<4>*> sinks;
  for (size_t i = 0; i < streams.size(); ++i) {
    sinks.push_back(streams.stream(i).Collect());
  }
  q.Run(events);

  // Every stream flushed, ordered (checked inside CollectSink), and
  // cumulative: stream i+1 holds strictly more events.
  for (CollectSink<4>* sink : sinks) EXPECT_TRUE(sink->flushed());
  EXPECT_LT(sinks[0]->events().size(), sinks[1]->events().size());
  EXPECT_LT(sinks[1]->events().size(), sinks[2]->events().size());

  // The last stream contains everything not dropped.
  EXPECT_EQ(sinks[2]->events().size() + streams.TotalDrops(),
            events.size());
  EXPECT_GT(streams.partition().dropped(), 0u);  // The 0.3% tail.

  // Each stream's multiset is a subset of the next one's.
  auto times = [](const CollectSink<4>* s) {
    std::vector<Timestamp> v;
    for (const Event& e : s->events()) v.push_back(e.sync_time);
    return v;  // Already sorted (CollectSink checked it).
  };
  const auto t0 = times(sinks[0]);
  const auto t1 = times(sinks[1]);
  const auto t2 = times(sinks[2]);
  EXPECT_TRUE(std::includes(t1.begin(), t1.end(), t0.begin(), t0.end()));
  EXPECT_TRUE(std::includes(t2.begin(), t2.end(), t1.begin(), t1.end()));
}

// Once the partition's OnFlush has released every event, the band sorters
// hold no runs, so the tracker may hold only what each sorter keeps for
// its next merge: up to kMergePoolRetainBytes of free merge buffers, and
// at most as much again of per-run bookkeeping. A merge buffer that left
// the pool for good (as run storage, say) must not stay on its books.
TEST(FrameworkTest, FlushLeavesOnlyRetainedMergeBuffers) {
  CloudLogConfig config;
  config.num_events = 200000;
  config.seed = 7;
  const std::vector<Event> events = GenerateCloudLog(config).events;
  storage::SpillFlusher::Options inline_flusher;
  inline_flusher.threads = 0;
  storage::SpillFlusher flusher(inline_flusher);
  MemoryTracker tracker;
  auto ctx = std::make_shared<QueryContext>();
  ctx->tracker = &tracker;
  FrameworkOptions options;
  options.reorder_latencies = {kSecond, kMinute};
  options.punctuation_period = 10000;
  options.sorter_config.spill.flusher = &flusher;
  options.sorter_config.spill.use_env_default = false;  // No budget.
  Streamables<4> streams = ToStreamables<4>(ctx, options);
  std::vector<CountingSink<4>> sinks(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    streams.stream(i).tail()->SetDownstream(&sinks[i]);
  }
  constexpr size_t kSpanRows = 1024;
  for (size_t i = 0; i < events.size(); i += kSpanRows) {
    streams.mutable_partition()->PushRows(
        events.data() + i, std::min(kSpanRows, events.size() - i));
  }
  streams.mutable_partition()->OnFlush();
  ASSERT_GT(streams.AggregatedCounters().merge.binary_merges, 0u);
  EXPECT_EQ(sinks.back().count() + streams.TotalDrops(), events.size());
  EXPECT_LE(tracker.current_bytes(),
            2 * streams.size() * kMergePoolRetainBytes);
}

TEST(FrameworkTest, SingleBandDegeneratesToSortedStream) {
  const std::vector<Event> events = LayeredLatenessStream(20000, 5);
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {50000};  // Covers everything.
  options.punctuation_period = 100;
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  ASSERT_EQ(streams.size(), 1u);
  CollectSink<4>* sink = streams.stream(0).Collect();
  q.Run(events);
  EXPECT_EQ(sink->events().size(), events.size());
  EXPECT_EQ(streams.TotalDrops(), 0u);
}

// The advanced framework's final stream must equal the same query run the
// classic way at the maximum latency (both see every non-dropped event).
TEST(FrameworkTest, AdvancedMatchesSingleLatencyReference) {
  // The maximum latency (40000) covers even the stream's worst lateness
  // (~30000), so both methods are complete and must agree exactly.
  const std::vector<Event> events = LayeredLatenessStream(60000, 7);
  const Timestamp window = 500;

  // Reference: one pipeline at the max latency.
  typename Ingress<4>::Options single;
  single.punctuation_period = 500;
  single.reorder_latency = 40000;  // Beyond the worst lateness.
  QueryPipeline<4> ref(single);
  CollectSink<4>* ref_sink = ref.disordered()
                                 .TumblingWindow(window)
                                 .ToStreamable()
                                 .GroupCount()
                                 .Collect();
  ref.Run(events);

  // Advanced framework: PIQ = per-band windowed group count; merge =
  // combine partial counts.
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {100, 1000, 40000};
  options.punctuation_period = 500;
  StageFn<4> piq = [](Streamable<4> s) { return s.GroupCount(); };
  StageFn<4> merge = [](Streamable<4> s) { return s.CombinePartials(); };
  Streamables<4> streams = ToStreamables<4>(
      q.disordered().TumblingWindow(window), options, piq, merge);
  CollectSink<4>* final_sink = streams.stream(2).Collect();
  q.Run(events);

  EXPECT_EQ(streams.TotalDrops(), 0u);

  // Compare (window, key) -> count maps.
  auto to_map = [](const CollectSink<4>* sink) {
    std::map<std::pair<Timestamp, int32_t>, int64_t> m;
    for (const Event& e : sink->events()) {
      m[{e.sync_time, e.key}] += e.payload[0];
    }
    return m;
  };
  EXPECT_EQ(to_map(final_sink), to_map(ref_sink));
}

TEST(FrameworkTest, EarlyStreamsDeliverPartialResultsEarly) {
  // Subscribe to all three advanced streams; the early stream must produce
  // results for (nearly) every window, just less complete ones.
  const std::vector<Event> events = LayeredLatenessStream(60000, 9);
  const Timestamp window = 500;

  QueryPipeline<4> q(NoPunctIngress());
  StageFn<4> piq = [](Streamable<4> s) { return s.GroupCount(); };
  StageFn<4> merge = [](Streamable<4> s) { return s.CombinePartials(); };
  Streamables<4> streams = ToStreamables<4>(
      q.disordered().TumblingWindow(window), ThreeBands(), piq, merge);
  CollectSink<4>* early = streams.stream(0).Collect();
  CollectSink<4>* full = streams.stream(2).Collect();
  q.Run(events);

  auto total = [](const CollectSink<4>* sink) {
    int64_t n = 0;
    for (const Event& e : sink->events()) n += e.payload[0];
    return n;
  };
  // Early totals cover most (but not all) events; full totals cover all
  // events except drops.
  EXPECT_GT(total(early),
            static_cast<int64_t>(events.size()) * 8 / 10);
  EXPECT_LT(total(early), total(full));
  EXPECT_EQ(total(full) + static_cast<int64_t>(streams.TotalDrops()),
            static_cast<int64_t>(events.size()));
}

TEST(FrameworkTest, AdvancedUsesLessMemoryThanBasic) {
  const std::vector<Event> events = LayeredLatenessStream(120000, 11);
  const Timestamp window = 500;

  auto run_basic = [&events, window](const FrameworkOptions& options) {
    MemoryTracker tracker;
    QueryPipeline<4> q(NoPunctIngress(), &tracker);
    Streamables<4> streams =
        ToStreamables<4>(q.disordered().TumblingWindow(window), options);
    // Basic framework: the full query runs per output stream.
    std::vector<CountingSink<4>*> sinks;
    for (size_t i = 0; i < streams.size(); ++i) {
      sinks.push_back(streams.stream(i).GroupCount().ToCounting());
    }
    q.Run(events);
    return tracker.peak_bytes();
  };

  auto run_advanced = [&events, window](const FrameworkOptions& options) {
    MemoryTracker tracker;
    QueryPipeline<4> q(NoPunctIngress(), &tracker);
    StageFn<4> piq = [](Streamable<4> s) { return s.GroupCount(); };
    StageFn<4> merge = [](Streamable<4> s) { return s.CombinePartials(); };
    Streamables<4> streams =
        ToStreamables<4>(q.disordered().TumblingWindow(window), options,
                         piq, merge);
    std::vector<CountingSink<4>*> sinks;
    for (size_t i = 0; i < streams.size(); ++i) {
      sinks.push_back(streams.stream(i).ToCounting());
    }
    q.Run(events);
    return tracker.peak_bytes();
  };

  // Figure 10 compares what the unions buffer: raw events (basic) against
  // partial aggregates (advanced). Without a budget that shows in full,
  // whatever IMPATIENCE_MEMORY_BUDGET says. The paper reports ~30x on
  // CloudLog-like data; require at least 2x here (the margin depends on
  // the workload's lateness profile).
  FrameworkOptions unbudgeted = ThreeBands();
  unbudgeted.sorter_config.spill.use_env_default = false;
  const size_t basic_peak = run_basic(unbudgeted);
  const size_t advanced_peak = run_advanced(unbudgeted);
  EXPECT_GT(basic_peak, advanced_peak * 2);

  // Under a spill budget the sorters and the basic arm's unions spill, so
  // both peaks shrink toward the budget, but the advanced arm still
  // buffers less. Both arms write through an inline flusher: a
  // write-behind pool keeps each sealed block RAM-accounted until its
  // write lands, so the peaks would depend on how far the pool lags, and
  // the comparison would be a race.
  storage::SpillFlusher::Options inline_options;
  inline_options.threads = 0;
  storage::SpillFlusher inline_flusher(inline_options);
  FrameworkOptions budgeted = unbudgeted;
  budgeted.sorter_config.spill.memory_budget = 64 << 10;
  budgeted.sorter_config.spill.flusher = &inline_flusher;
  const size_t basic_budgeted = run_basic(budgeted);
  const size_t advanced_budgeted = run_advanced(budgeted);
  EXPECT_LT(basic_budgeted, basic_peak);
  EXPECT_LT(advanced_budgeted, basic_budgeted);
}

}  // namespace
}  // namespace impatience
