// The framework's emit stage: with a pool strand behind every band, the
// union chain, merge stages and subscribers run off the calling thread, yet
// every output stream must equal the synchronous path's — same events in
// the same order, same punctuations, same drops — on CloudLog, AndroidLog
// and random streams, on strands of 1/2/4/8-thread pools. Queued batches
// are reserved in the pipeline's tracker until they run.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "workload/generators.h"

namespace impatience {
namespace {

std::vector<Event> RandomStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events(n);
  for (size_t i = 0; i < n; ++i) {
    Event& e = events[i];
    Timestamp t = static_cast<Timestamp>(i) * 10;
    const double dice = rng.NextDouble();
    if (dice < 0.01) {
      t -= static_cast<Timestamp>(rng.NextBelow(400000));
    } else if (dice < 0.2) {
      t -= static_cast<Timestamp>(rng.NextBelow(4000));
    }
    if (t < 0) t = 0;
    e.sync_time = t;
    e.other_time = t + 1;
    e.key = static_cast<int32_t>(rng.NextBelow(50));
    e.hash = HashKey(e.key);
    for (int c = 0; c < 4; ++c) {
      e.payload[c] = static_cast<int32_t>(rng.NextBelow(1000));
    }
  }
  return events;
}

struct Workload {
  std::string name;
  std::vector<Event> events;
  std::vector<Timestamp> latencies;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  CloudLogConfig cloud;
  cloud.num_events = 80000;
  cloud.seed = 7;
  // A failure rate high enough that 80k events see late bursts.
  cloud.failure_rate_per_ms = 0.00003;
  out.push_back({"cloudlog", GenerateCloudLog(cloud).events,
                 {1 * kSecond, 1 * kMinute, 1 * kHour}});
  AndroidLogConfig android;
  android.num_events = 80000;
  android.seed = 11;
  out.push_back({"androidlog", GenerateAndroidLog(android).events,
                 {1 * kMinute, 1 * kHour, 1 * kDay}});
  for (uint64_t seed : {3u, 19u}) {
    out.push_back({"random" + std::to_string(seed), RandomStream(60000, seed),
                   {100, 5000, 100000}});
  }
  return out;
}

struct Outputs {
  std::vector<std::vector<Event>> events;
  std::vector<std::vector<Timestamp>> punctuations;
  uint64_t drops = 0;
  size_t tracker_bytes = 0;
};

Outputs RunFramework(const Workload& w, ThreadPool* pool, bool use_strand,
                     bool advanced) {
  MemoryTracker tracker;
  typename Ingress<4>::Options ingress;
  ingress.punctuation_period = SIZE_MAX;
  QueryPipeline<4> q(ingress, &tracker);
  Strand strand(pool);
  FrameworkOptions options;
  options.reorder_latencies = w.latencies;
  options.punctuation_period = 700;
  options.strand = use_strand ? &strand : nullptr;
  StageFn<4> piq;
  StageFn<4> merge;
  const DisorderedStreamable<4> source =
      advanced ? q.disordered().TumblingWindow(1000) : q.disordered();
  if (advanced) {
    piq = [](Streamable<4> s) { return s.GroupCount(); };
    merge = [](Streamable<4> s) { return s.CombinePartials(); };
  }
  Streamables<4> streams = ToStreamables<4>(source, options, piq, merge);
  std::vector<CollectSink<4>*> sinks;
  for (size_t i = 0; i < streams.size(); ++i) {
    sinks.push_back(streams.stream(i).Collect());
  }
  q.Run(w.events);
  strand.Wait();

  Outputs out;
  for (CollectSink<4>* sink : sinks) {
    EXPECT_TRUE(sink->flushed());
    out.events.push_back(sink->events());
    out.punctuations.push_back(sink->punctuations());
  }
  out.drops = streams.TotalDrops();
  out.tracker_bytes = tracker.current_bytes();
  return out;
}

void ExpectIdentical(const Outputs& got, const Outputs& want,
                     const std::string& label) {
  ASSERT_EQ(got.events.size(), want.events.size()) << label;
  for (size_t i = 0; i < got.events.size(); ++i) {
    ASSERT_EQ(got.events[i].size(), want.events[i].size())
        << label << " stream " << i;
    for (size_t j = 0; j < got.events[i].size(); ++j) {
      ASSERT_EQ(std::memcmp(&got.events[i][j], &want.events[i][j],
                            sizeof(Event)),
                0)
          << label << " stream " << i << " row " << j;
    }
    EXPECT_EQ(got.punctuations[i], want.punctuations[i])
        << label << " stream " << i;
  }
  EXPECT_EQ(got.drops, want.drops) << label;
}

class StrandStageTest : public ::testing::TestWithParam<bool> {};

TEST_P(StrandStageTest, PoolStrandMatchesInlinePath) {
  const bool advanced = GetParam();
  ThreadPool serial(1);
  for (const Workload& w : Workloads()) {
    const Outputs want =
        RunFramework(w, &serial, /*use_strand=*/false, advanced);
    ASSERT_FALSE(want.events.back().empty()) << w.name;
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      const std::string label = w.name + " threads=" +
                                std::to_string(threads);
      const Outputs direct = RunFramework(w, &pool, false, advanced);
      const Outputs stranded = RunFramework(w, &pool, true, advanced);
      ExpectIdentical(direct, want, label + " direct");
      ExpectIdentical(stranded, want, label);
      // Every queued batch's reservation was released when its job ran;
      // only the sorters' pooled merge buffers stay reserved.
      EXPECT_EQ(stranded.tracker_bytes, want.tracker_bytes) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BasicAndAdvanced, StrandStageTest,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Advanced" : "Basic";
                         });

}  // namespace
}  // namespace impatience
