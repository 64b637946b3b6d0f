// Framework edge cases: degenerate shapes, empty streams, total drops,
// asymmetric stages, and ordering guarantees of the output streams under
// stress.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "workload/generators.h"

namespace impatience {
namespace {

typename Ingress<4>::Options NoPunctIngress() {
  typename Ingress<4>::Options options;
  options.punctuation_period = SIZE_MAX;
  return options;
}

std::vector<Event> InOrderEvents(size_t n) {
  std::vector<Event> events(n);
  for (size_t i = 0; i < n; ++i) {
    events[i].sync_time = static_cast<Timestamp>(i);
    events[i].other_time = events[i].sync_time;
  }
  return events;
}

TEST(FrameworkEdgeTest, EmptyStream) {
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10, 100};
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  CollectSink<4>* a = streams.stream(0).Collect();
  CollectSink<4>* b = streams.stream(1).Collect();
  q.Run({});
  EXPECT_TRUE(a->flushed());
  EXPECT_TRUE(b->flushed());
  EXPECT_TRUE(a->events().empty());
  EXPECT_TRUE(b->events().empty());
  EXPECT_EQ(streams.TotalDrops(), 0u);
}

TEST(FrameworkEdgeTest, TwoBands) {
  std::vector<Event> events = InOrderEvents(5000);
  // Delay every 100th event by 50 (band 1 with latencies {10, 100}).
  for (size_t i = 0; i < events.size(); i += 100) {
    events[i].sync_time = std::max<Timestamp>(
        0, events[i].sync_time - 50);
  }
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10, 100};
  options.punctuation_period = 100;
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  CollectSink<4>* full = streams.stream(1).Collect();
  q.Run(events);
  EXPECT_EQ(full->events().size(), events.size());
  EXPECT_EQ(streams.TotalDrops(), 0u);
}

TEST(FrameworkEdgeTest, AllLateEventsDropped) {
  // Every event after the first is maximally late.
  std::vector<Event> events(100);
  events[0].sync_time = 1000000;
  for (size_t i = 1; i < events.size(); ++i) {
    events[i].sync_time = static_cast<Timestamp>(i);
  }
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10};
  options.punctuation_period = 10;
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  CollectSink<4>* sink = streams.stream(0).Collect();
  q.Run(events);
  EXPECT_EQ(sink->events().size(), 1u);
  EXPECT_EQ(streams.partition().dropped(), 99u);
}

TEST(FrameworkEdgeTest, PunctuationPeriodLargerThanStream) {
  const std::vector<Event> events = InOrderEvents(100);
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10, 100};
  options.punctuation_period = 1000000;  // Never fires: only the flush.
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  CollectSink<4>* sink = streams.stream(1).Collect();
  q.Run(events);
  EXPECT_EQ(sink->events().size(), events.size());
  EXPECT_TRUE(sink->flushed());
}

TEST(FrameworkEdgeTest, PiqWithoutMergeStage) {
  // PIQ stages but identity merge: partial aggregates flow through unions
  // uncombined; totals must still match (two rows per window instead of
  // one combined row).
  std::vector<Event> events = InOrderEvents(10000);
  for (size_t i = 0; i < events.size(); i += 7) {
    events[i].sync_time = std::max<Timestamp>(0, events[i].sync_time - 50);
  }
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10, 1000};
  options.punctuation_period = 100;
  StageFn<4> piq = [](Streamable<4> s) {
    return s.TumblingWindow(100).Count();
  };
  Streamables<4> streams =
      ToStreamables<4>(q.disordered(), options, piq, /*merge=*/{});
  CollectSink<4>* sink = streams.stream(1).Collect();
  q.Run(events);

  int64_t total = 0;
  for (const Event& e : sink->events()) total += e.payload[0];
  EXPECT_EQ(total, static_cast<int64_t>(events.size()));
}

TEST(FrameworkEdgeTest, FiveBandsStress) {
  Rng rng(401);
  std::vector<Event> events(50000);
  Timestamp t = 0;
  for (Event& e : events) {
    ++t;
    Timestamp delay = 0;
    const double dice = rng.NextDouble();
    if (dice < 0.02) {
      delay = 5000;
    } else if (dice < 0.06) {
      delay = 500;
    } else if (dice < 0.16) {
      delay = 50;
    } else if (dice < 0.30) {
      delay = 5;
    }
    e.sync_time = std::max<Timestamp>(0, t - delay);
    e.other_time = e.sync_time;
    e.key = static_cast<int32_t>(rng.NextBelow(4));
    e.hash = HashKey(e.key);
  }

  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10, 100, 1000, 10000, 100000};
  options.punctuation_period = 137;  // Deliberately odd cadence.
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  std::vector<CollectSink<4>*> sinks;
  for (size_t i = 0; i < streams.size(); ++i) {
    sinks.push_back(streams.stream(i).Collect());  // CHECKs ordering.
  }
  q.Run(events);

  EXPECT_EQ(streams.TotalDrops(), 0u);  // 100000 covers everything.
  EXPECT_EQ(sinks.back()->events().size(), events.size());
  for (size_t i = 1; i < sinks.size(); ++i) {
    EXPECT_LE(sinks[i - 1]->events().size(), sinks[i]->events().size());
  }
}

// A punctuation round before the first event has no watermark to
// punctuate from. It must be a no-op, not kMinTimestamp - latency wrapped
// into a huge punctuation that late-drops every event after it.
TEST(FrameworkEdgeTest, PunctuationBeforeFirstEventDropsNothing) {
  std::vector<Event> events = InOrderEvents(1000);
  for (size_t i = 0; i < events.size(); i += 10) {
    events[i].sync_time = std::max<Timestamp>(0, events[i].sync_time - 50);
  }
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10, 100};
  options.punctuation_period = 100;
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  CollectSink<4>* full = streams.stream(1).Collect();
  streams.mutable_partition()->ForcePunctuation();
  EXPECT_EQ(streams.partition().band_punctuation(0), kMinTimestamp);
  q.Run(events);
  EXPECT_EQ(streams.TotalDrops(), 0u);
  EXPECT_EQ(full->events().size(), events.size());
}

TEST(FrameworkEdgeTest, PartitionCountsAreConsistent) {
  const std::vector<Event> events = InOrderEvents(1000);
  QueryPipeline<4> q(NoPunctIngress());
  FrameworkOptions options;
  options.reorder_latencies = {10, 100};
  Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
  streams.stream(1).Collect();
  EXPECT_EQ(streams.partition().band_counts(),
            std::vector<uint64_t>(options.reorder_latencies.size(), 0));
  q.Run(events);
  uint64_t routed = streams.partition().dropped();
  for (const uint64_t c : streams.partition().band_counts()) routed += c;
  EXPECT_EQ(routed, events.size());
}

}  // namespace
}  // namespace impatience
