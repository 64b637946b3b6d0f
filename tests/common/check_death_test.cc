// Contract-violation behaviour: the library is exception-free, so broken
// invariants must abort loudly. These death tests pin down that the
// guard rails actually fire.

#include <gtest/gtest.h>

#include "common/check.h"
#include "engine/ops_basic.h"
#include "engine/sinks.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "sort/impatience_sorter.h"

namespace impatience {
namespace {

void RegressPunctuation() {
  ImpatienceSorter<Timestamp, IdentityTimeOf> sorter;
  std::vector<Timestamp> out;
  sorter.OnPunctuation(100, &out);
  sorter.OnPunctuation(50, &out);  // Regressing: contract violation.
}

void AttachTwice() {
  auto pred = [](const EventBatch<4>&, size_t) { return true; };
  WhereOp<4, decltype(pred)> where(pred);
  CollectSink<4> a;
  CollectSink<4> b;
  where.SetDownstream(&a);
  where.SetDownstream(&b);  // Linear chains: one consumer only.
}

void FeedOutOfOrderStream() {
  CollectSink<4> sink;
  EventBatch<4> batch;
  Event first;
  first.sync_time = 10;
  Event second;
  second.sync_time = 5;  // Goes backwards.
  batch.AppendEvent(first);
  batch.AppendEvent(second);
  batch.SealFilter();
  sink.OnBatch(batch);
}

void NonIncreasingLatencies() {
  PartitionOp<4> partition({100, 100}, 10);
}

TEST(CheckDeathTest, CheckAborts) {
  EXPECT_DEATH(IMPATIENCE_CHECK(1 == 2), "CHECK failed");
}

TEST(CheckDeathTest, CheckMsgIncludesExplanation) {
  EXPECT_DEATH(IMPATIENCE_CHECK_MSG(false, "the answer is 42"),
               "the answer is 42");
}

TEST(CheckDeathTest, PunctuationRegressionAborts) {
  EXPECT_DEATH(RegressPunctuation(), "non-decreasing");
}

TEST(CheckDeathTest, DoubleDownstreamAborts) {
  EXPECT_DEATH(AttachTwice(), "attached twice");
}

TEST(CheckDeathTest, OutOfOrderStreamIntoCollectSinkAborts) {
  EXPECT_DEATH(FeedOutOfOrderStream(), "out-of-order");
}

TEST(CheckDeathTest, StrictlyIncreasingLatenciesEnforced) {
  EXPECT_DEATH(NonIncreasingLatencies(), "strictly increasing");
}

}  // namespace
}  // namespace impatience
