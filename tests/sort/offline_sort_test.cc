// Correctness sweep: every offline algorithm × every input family must
// produce exactly the same multiset in ascending order.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/event.h"
#include "common/thread_pool.h"
#include "common/timestamp.h"
#include "sort/sort_algorithms.h"
#include "tests/testing/sequences.h"

namespace impatience {
namespace {

using ::impatience::testing::AllSequenceCases;
using ::impatience::testing::SequenceCase;

struct OfflineCase {
  OfflineAlgorithm algorithm;
  std::string sequence_name;
  std::vector<Timestamp> input;
};

class OfflineSortTest : public ::testing::TestWithParam<OfflineCase> {};

TEST_P(OfflineSortTest, SortsExactly) {
  const OfflineCase& param = GetParam();
  std::vector<Timestamp> got = param.input;
  OfflineSort<Timestamp, IdentityTimeOf>(param.algorithm, &got);

  std::vector<Timestamp> want = param.input;
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);
}

std::vector<OfflineCase> MakeOfflineCases() {
  std::vector<OfflineCase> cases;
  for (const OfflineAlgorithm algorithm : kAllOfflineAlgorithms) {
    for (size_t n : {0ULL, 1ULL, 2ULL, 3ULL, 17ULL, 1000ULL, 20000ULL}) {
      for (SequenceCase& seq : AllSequenceCases(n, /*seed=*/n + 99)) {
        cases.push_back(
            OfflineCase{algorithm, seq.name, std::move(seq.values)});
      }
    }
  }
  return cases;
}

std::string OfflineCaseName(
    const ::testing::TestParamInfo<OfflineCase>& info) {
  std::string name = OfflineAlgorithmName(info.param.algorithm);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_" + info.param.sequence_name + "_n" +
         std::to_string(info.param.input.size());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllInputs, OfflineSortTest,
                         ::testing::ValuesIn(MakeOfflineCases()),
                         OfflineCaseName);

// Sorting full events must order by sync_time and keep payloads attached.
TEST(OfflineSortEventsTest, EventsKeepPayloads) {
  testing::SequenceCase seq{
      "nearly_sorted",
      testing::NearlySortedSequence(5000, 30, 64, /*seed=*/5)};
  for (const OfflineAlgorithm algorithm : kAllOfflineAlgorithms) {
    std::vector<Event> events;
    events.reserve(seq.values.size());
    for (size_t i = 0; i < seq.values.size(); ++i) {
      Event e;
      e.sync_time = seq.values[i];
      e.key = static_cast<int32_t>(i);
      e.payload = {static_cast<int32_t>(i), 1, 2, 3};
      events.push_back(e);
    }
    OfflineSort<Event>(algorithm, &events);
    ASSERT_EQ(events.size(), seq.values.size());
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].sync_time, events[i].sync_time)
          << OfflineAlgorithmName(algorithm) << " at " << i;
    }
    // Payloads still consistent with keys (no row tearing).
    for (const Event& e : events) {
      EXPECT_EQ(e.payload[0], e.key);
      EXPECT_EQ(e.payload[3], 3);
    }
  }
}

// Narrow and wide event shapes sort identically (the projection experiment
// relies on width-templated events).
TEST(OfflineSortEventsTest, WorksAcrossPayloadWidths) {
  const auto ts = testing::RandomSequence(2000, /*seed=*/77);
  std::vector<BasicEvent<1>> narrow(ts.size());
  std::vector<BasicEvent<4>> wide(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    narrow[i].sync_time = ts[i];
    wide[i].sync_time = ts[i];
  }
  OfflineSort<BasicEvent<1>>(OfflineAlgorithm::kImpatience, &narrow);
  OfflineSort<BasicEvent<4>>(OfflineAlgorithm::kImpatience, &wide);
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(narrow[i].sync_time, wide[i].sync_time);
  }
}

// The parallel partition scatter + gather inside PatienceSortVector must be
// byte-identical to the sequential path at every thread count, including
// the order of timestamp ties (stability), because pass 1 fixes each
// element's run and in-run position before any copying happens.
TEST(OfflineSortEventsTest, PatienceSortVectorParallelScatterDeterministic) {
  // Above the 2*64Ki parallel-scatter gate; modest range forces heavy
  // timestamp ties so stability violations would be visible.
  const size_t n = 200000;
  const auto ts = testing::RandomSequence(n, /*seed=*/123, /*max_value=*/4096);
  std::vector<Event> input(n);
  for (size_t i = 0; i < n; ++i) {
    input[i].sync_time = ts[i];
    input[i].payload = {static_cast<int32_t>(i), 0, 0, 0};
  }

  std::vector<Event> want = input;
  std::stable_sort(want.begin(), want.end(),
                   [](const Event& a, const Event& b) {
                     return a.sync_time < b.sync_time;
                   });

  ThreadPool serial(1);
  std::vector<Event> sequential = input;
  PatienceSortVector(&sequential, /*huffman_merge=*/false,
                     /*speculative_run_selection=*/false, &serial);

  for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    for (const bool speculative : {false, true}) {
      std::vector<Event> got = input;
      PatienceSortVector(&got, /*huffman_merge=*/false, speculative,
                         &pool);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i].sync_time, want[i].sync_time)
            << "threads " << threads << " at " << i;
        ASSERT_EQ(got[i].payload[0], want[i].payload[0])
            << "threads " << threads << " tie order diverged at " << i;
        ASSERT_EQ(got[i].payload[0], sequential[i].payload[0]);
      }
    }
  }
}

}  // namespace
}  // namespace impatience
