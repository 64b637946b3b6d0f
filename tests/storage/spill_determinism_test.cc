// Spill determinism: an ImpatienceSorter with the disk tier engaged must
// emit byte-identical output to the pure in-RAM sorter — same elements,
// same order on every cross-run tie — under forced spilling (budget 1,
// checked every push), under a small budget, across adversarial disorder
// shapes, and after large RAM merges. Plus the acceptance property: a
// session whose run bytes exceed 8x the budget completes with the
// sorter's resident footprint bounded near the budget.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/event.h"
#include "common/random.h"
#include "sort/impatience_sorter.h"
#include "storage/spill_flusher.h"
#include "workload/generators.h"

namespace impatience {
namespace {

// Timestamp plus a globally unique tag (as in loser_tree_test.cc): the
// sorter orders by `time` only, so the tag pins down the exact order a
// merge produced on ties — which is what byte-identity means.
struct Tagged {
  int64_t time;
  uint32_t tag;
  bool operator==(const Tagged&) const = default;
};

struct TaggedTimeOf {
  Timestamp operator()(const Tagged& e) const {
    return static_cast<Timestamp>(e.time);
  }
};

using SpillSorter = ImpatienceSorter<Tagged, TaggedTimeOf>;

// Streaming disorder families, the push-time counterparts of the run-shape
// corpus in loser_tree_test.cc.
enum class StreamShape {
  kRandom,    // Bounded random disorder window, heavy ties.
  kAllTies,   // One value repeated: order is pure tie-breaking.
  kSorted,    // Already in order: lone-run fast paths.
  kPlateaus,  // Long stretches of near-equal times.
  kSpikes,    // Mostly in order with occasional deep stragglers.
};

const char* StreamShapeName(StreamShape s) {
  switch (s) {
    case StreamShape::kRandom: return "random";
    case StreamShape::kAllTies: return "all_ties";
    case StreamShape::kSorted: return "sorted";
    case StreamShape::kPlateaus: return "plateaus";
    case StreamShape::kSpikes: return "spikes";
  }
  return "?";
}

const StreamShape kAllStreamShapes[] = {
    StreamShape::kRandom, StreamShape::kAllTies, StreamShape::kSorted,
    StreamShape::kPlateaus, StreamShape::kSpikes};

int64_t NextTime(StreamShape shape, Rng& rng, int64_t now) {
  switch (shape) {
    case StreamShape::kRandom:
      return now + static_cast<int64_t>(rng.NextBelow(64)) - 20;
    case StreamShape::kAllTies:
      return 1 << 20;  // Above every punctuation: nothing dropped late.
    case StreamShape::kSorted:
      return now;
    case StreamShape::kPlateaus:
      return (now / 100) * 100 + static_cast<int64_t>(rng.NextBelow(3));
    case StreamShape::kSpikes:
      return rng.NextBelow(10) == 0
                 ? now - static_cast<int64_t>(rng.NextBelow(25))
                 : now;
  }
  return now;
}

// Drives one sorter through the punctuation stress and returns everything
// it emitted. Identical (shape, seed) means an identical push/punctuation
// sequence, so outputs are directly comparable across configurations.
// With `maintain`, spill maintenance (compaction) runs after every
// punctuation, as the server's shard thread runs it between bursts.
std::vector<Tagged> RunSession(SpillSorter* sorter, StreamShape shape,
                               uint64_t seed, size_t steps = 3000,
                               bool maintain = false) {
  Rng rng(seed);
  int64_t now = 0;
  uint32_t tag = 0;
  std::vector<Tagged> out;
  for (size_t step = 0; step < steps; ++step) {
    sorter->Push(Tagged{NextTime(shape, rng, now), tag++});
    ++now;
    if (shape != StreamShape::kAllTies && rng.NextBelow(50) == 0) {
      sorter->OnPunctuation(now - 30, &out);
      if (maintain) sorter->PerformSpillMaintenance();
    }
  }
  sorter->Flush(&out);
  return out;
}

ImpatienceConfig InMemoryConfig() {
  ImpatienceConfig config;
  // Immune to the forced-spill CI pass: this arm is the in-RAM reference
  // even when IMPATIENCE_MEMORY_BUDGET is set in the environment.
  config.spill.use_env_default = false;
  return config;
}

// Budget 1, checked at every push, no minimum run size: every run that can
// move to disk does, immediately.
ImpatienceConfig ForcedSpillConfig() {
  ImpatienceConfig config = InMemoryConfig();
  config.spill.memory_budget = 1;
  config.spill.check_period = 1;
  config.spill.min_spill_bytes = 0;
  config.spill.block_bytes = 1024;  // Many blocks per run.
  return config;
}

ImpatienceConfig TinyBudgetConfig() {
  ImpatienceConfig config = InMemoryConfig();
  config.spill.memory_budget = 16 << 10;
  config.spill.check_period = 8;
  config.spill.block_bytes = 4096;
  return config;
}

// The headline contract: forced and tiny-budget spilling are
// byte-identical to the in-RAM sorter on every shape and seed, and the
// forced arm actually exercised the disk tier.
TEST(SpillDeterminismTest, ByteIdenticalAcrossBudgetsAndShapes) {
  for (const StreamShape shape : kAllStreamShapes) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      SpillSorter ram_sorter(InMemoryConfig());
      SpillSorter forced_sorter(ForcedSpillConfig());
      SpillSorter tiny_sorter(TinyBudgetConfig());

      const std::vector<Tagged> want =
          RunSession(&ram_sorter, shape, 100 + seed);
      const std::vector<Tagged> forced =
          RunSession(&forced_sorter, shape, 100 + seed);
      const std::vector<Tagged> tiny =
          RunSession(&tiny_sorter, shape, 100 + seed);

      ASSERT_EQ(forced, want)
          << StreamShapeName(shape) << " seed=" << seed << " (forced)";
      ASSERT_EQ(tiny, want)
          << StreamShapeName(shape) << " seed=" << seed << " (tiny)";
      EXPECT_EQ(ram_sorter.counters().runs_spilled, 0u);
      EXPECT_GT(forced_sorter.counters().runs_spilled, 0u)
          << StreamShapeName(shape) << " seed=" << seed;
      EXPECT_GT(forced_sorter.counters().spill_bytes_written, 0u);
      // Merges that touched spilled runs recorded their fan-in.
      EXPECT_GT(forced_sorter.counters().spill_merge_fanin.count(), 0u);
    }
  }
}

// Drives one sorter through a session whose merges take both shapes: three
// RAM punctuations that each release about 80k events (1.2 MiB) from
// several runs; then a punctuation-free stretch that pushes the buffer
// past a 2 MiB budget, so runs spill and the remaining merges stream
// through the cursor path.
std::vector<Tagged> RunLargeMergesThenSpillSession(SpillSorter* sorter,
                                                   uint64_t seed) {
  constexpr size_t kPunctEvery = 80000;
  constexpr size_t kSteps = 7 * kPunctEvery;
  Rng rng(seed);
  int64_t now = 0;
  uint32_t tag = 0;
  std::vector<Tagged> out;
  for (size_t step = 1; step <= kSteps; ++step) {
    sorter->Push(Tagged{NextTime(StreamShape::kRandom, rng, now), tag++});
    ++now;
    const bool ram_phase = step <= 3 * kPunctEvery;
    if (step % kPunctEvery == 0 && (ram_phase || step == 6 * kPunctEvery)) {
      sorter->OnPunctuation(now - 30, &out);
    }
  }
  sorter->Flush(&out);
  return out;
}

ImpatienceConfig TwoMiBBudgetConfig() {
  ImpatienceConfig config = InMemoryConfig();
  config.spill.memory_budget = 2 << 20;
  config.spill.check_period = 64;
  return config;
}

// The same session under a 2 MiB budget and in RAM: large multi-run RAM
// merges first, then spilled cursor merges. Under forced spilling nearly
// every punctuation cuts a spilled run, so this is the session whose RAM
// merges are large; the budgeted arm must really spill after them.
TEST(SpillDeterminismTest, ByteIdenticalAfterLargeRamMerges) {
  for (uint64_t seed = 0; seed < 2; ++seed) {
    SpillSorter ram_sorter(InMemoryConfig());
    const std::vector<Tagged> want =
        RunLargeMergesThenSpillSession(&ram_sorter, 300 + seed);
    SpillSorter sorter(TwoMiBBudgetConfig());
    const std::vector<Tagged> got =
        RunLargeMergesThenSpillSession(&sorter, 300 + seed);
    ASSERT_EQ(got, want) << "seed=" << seed;
    const ImpatienceCounters& c = sorter.counters();
    EXPECT_EQ(ram_sorter.counters().runs_spilled, 0u);
    EXPECT_GT(c.runs_spilled, 0u) << "seed=" << seed;
    EXPECT_GT(c.spill_merge_fanin.count(), 0u) << "seed=" << seed;
  }
}

// Flusher invariance: the spill pipeline must be byte-identical to the
// in-RAM sorter inline (0 flusher threads) and at 1, 2, and 8 threads —
// block writes and merge read-ahead move off the sorter thread, but which
// bytes come back, and in what order, cannot change.
TEST(SpillDeterminismTest, ByteIdenticalAcrossFlusherThreadCounts) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SpillSorter ram_sorter(InMemoryConfig());
    const std::vector<Tagged> want =
        RunSession(&ram_sorter, StreamShape::kRandom, 400 + seed);
    for (const size_t threads :
         {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
      storage::SpillFlusher::Options fo;
      fo.threads = threads;
      storage::SpillFlusher flusher(fo);
      ImpatienceConfig config = ForcedSpillConfig();
      config.spill.flusher = &flusher;
      {
        // Scoped: runs hold flusher channels, so the sorter must go first.
        SpillSorter sorter(config);
        const std::vector<Tagged> got =
            RunSession(&sorter, StreamShape::kRandom, 400 + seed);
        ASSERT_EQ(got, want)
            << "flusher_threads=" << threads << " seed=" << seed;
        EXPECT_GT(sorter.counters().runs_spilled, 0u);
        // Blocks really went through this flusher's channels.
        EXPECT_GT(sorter.counters().async_flushes, 0u)
            << "flusher_threads=" << threads;
      }
      EXPECT_GT(flusher.stats().async_flushes, 0u);
      EXPECT_EQ(flusher.stats().inflight_bytes, 0u);
    }
  }
}

// A starved in-flight cap forces enqueue backpressure on nearly every
// sealed block — the sorter stalls instead of buffering unbounded RAM,
// and the output is still byte-identical. The lone flusher thread starts
// out busy on a gate job, so the sorter's first sealed block must wait
// for cap headroom whatever the scheduling; a helper opens the gate once
// that wait is counted.
TEST(SpillDeterminismTest, ByteIdenticalUnderFlusherBackpressure) {
  SpillSorter ram_sorter(InMemoryConfig());
  const std::vector<Tagged> want =
      RunSession(&ram_sorter, StreamShape::kRandom, 500);

  storage::SpillFlusher::Options fo;
  fo.threads = 1;
  fo.max_inflight_bytes = 64;  // Smaller than any sealed block.
  storage::SpillFlusher flusher(fo);
  std::latch gate(1);
  flusher.NewChannel()->Enqueue(
      [&gate]() {
        gate.wait();
        return true;
      },
      /*bytes=*/1);
  std::atomic<bool> session_done{false};
  std::thread opener([&flusher, &gate, &session_done]() {
    while (flusher.stats().backpressure_waits == 0 &&
           !session_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    gate.count_down();
  });
  ImpatienceConfig config = ForcedSpillConfig();
  config.spill.flusher = &flusher;
  {
    SpillSorter sorter(config);
    const std::vector<Tagged> got =
        RunSession(&sorter, StreamShape::kRandom, 500);
    session_done.store(true, std::memory_order_release);
    opener.join();
    ASSERT_EQ(got, want);
    EXPECT_GT(sorter.counters().async_flushes, 0u);
  }
  EXPECT_GT(flusher.stats().backpressure_waits, 0u);
}

// A flusher pool writing behind plus run-file compaction between
// punctuations: when blocks land and files are rewritten shifts with
// timing, but the emitted bytes may not.
TEST(SpillDeterminismTest, ByteIdenticalUnderFlusherAndCompaction) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SpillSorter ram_sorter(InMemoryConfig());
    const std::vector<Tagged> want =
        RunSession(&ram_sorter, StreamShape::kRandom, 600 + seed);

    storage::SpillFlusher::Options fo;
    fo.threads = 2;
    storage::SpillFlusher flusher(fo);
    ImpatienceConfig config = InMemoryConfig();
    // This session buffers a few KiB of live events, so a 4 KiB budget
    // spills its runs whatever slack their storage holds.
    config.spill.memory_budget = 4 << 10;
    config.spill.check_period = 8;
    config.spill.min_spill_bytes = 0;
    config.spill.block_bytes = 1024;
    config.spill.flusher = &flusher;
    config.spill.compact_min_disk_bytes = 1;  // Any reclaimable byte.
    config.spill.compact_disk_fraction = 0.0;
    SpillSorter sorter(config);
    const std::vector<Tagged> got =
        RunSession(&sorter, StreamShape::kRandom, 600 + seed,
                   /*steps=*/3000, /*maintain=*/true);
    ASSERT_EQ(got, want) << "seed=" << seed;
    EXPECT_GT(sorter.counters().runs_spilled, 0u) << "seed=" << seed;
    EXPECT_GT(sorter.counters().spill_compactions, 0u) << "seed=" << seed;
  }
}

// Disk compaction rides maintenance: with the thresholds floored, the
// maintenance after every punctuation rewrites run files whose emitted
// prefix still occupies disk, and the rewritten files keep serving
// byte-identical merges.
TEST(SpillDeterminismTest, ByteIdenticalWithAggressiveDiskCompaction) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SpillSorter ram_sorter(InMemoryConfig());
    const std::vector<Tagged> want =
        RunSession(&ram_sorter, StreamShape::kRandom, 700 + seed);

    ImpatienceConfig config = ForcedSpillConfig();
    config.spill.compact_min_disk_bytes = 1;  // Any reclaimable byte.
    config.spill.compact_disk_fraction = 0.0;
    SpillSorter sorter(config);
    const std::vector<Tagged> got =
        RunSession(&sorter, StreamShape::kRandom, 700 + seed,
                   /*steps=*/3000, /*maintain=*/true);
    ASSERT_EQ(got, want) << "seed=" << seed;
    EXPECT_GT(sorter.counters().spill_compactions, 0u) << "seed=" << seed;
  }
}

// Acceptance: a session whose spilled bytes exceed 8x the budget completes
// byte-identical to the in-RAM path while the sorter's resident footprint
// stays bounded near the budget — external-memory behaviour, not just
// correctness. The slack term covers what the policy cannot shed: one
// pending partial block plus one load buffer per live spilled run, and the
// warm merge scratch the next punctuation reuses.
TEST(SpillAcceptanceTest, EightTimesBudgetSessionRunsBounded) {
  constexpr size_t kBudget = 64 << 10;
  constexpr size_t kBlock = 1024;
  constexpr size_t kSteps = 60000;  // 60k * 16 B = 960 KiB = 15x budget.

  ImpatienceConfig config = InMemoryConfig();
  config.spill.memory_budget = kBudget;
  config.spill.check_period = 1;  // Enforce the budget at every push.
  config.spill.min_spill_bytes = 0;
  config.spill.block_bytes = kBlock;

  SpillSorter sorter(config);
  SpillSorter ram_sorter(InMemoryConfig());

  Rng rng(7);
  int64_t now = 0;
  uint32_t tag = 0;
  std::vector<Tagged> out;
  std::vector<Tagged> want;
  size_t peak = 0;
  for (size_t step = 0; step < kSteps; ++step) {
    const Tagged e{now + static_cast<int64_t>(rng.NextBelow(64)) - 20,
                   tag++};
    sorter.Push(e);
    ram_sorter.Push(e);
    ++now;
    peak = std::max(peak, sorter.MemoryBytes());
    // Punctuate rarely: most of the session is buffered at once, so the
    // in-RAM arm really holds hundreds of KiB while the spilling arm must
    // not.
    if (step % 30000 == 29999) {
      sorter.OnPunctuation(now - 5000, &out);
      ram_sorter.OnPunctuation(now - 5000, &want);
    }
  }
  sorter.Flush(&out);
  ram_sorter.Flush(&want);

  ASSERT_EQ(out, want);
  ASSERT_EQ(out.size(), kSteps);  // Nothing dropped late in either arm.

  const ImpatienceCounters& counters = sorter.counters();
  EXPECT_GT(counters.runs_spilled, 0u);
  // The session moved more than 8x the budget through the disk tier.
  EXPECT_GT(counters.spill_bytes_written, 8 * kBudget);
  EXPECT_GT(counters.spill_read_bytes, 0u);
  EXPECT_GT(counters.spill_merge_fanin.count(), 0u);

  // Residency bound: the budget plus bounded per-run slack. The in-RAM arm
  // peaks at the full session size, so also require a real separation.
  EXPECT_LE(peak, kBudget + kBudget / 2) << "resident peak above budget";
  EXPECT_GE(ram_sorter.counters().pushes * sizeof(Tagged),
            8 * kBudget);  // The workload really was external-memory scale.
}

constexpr size_t kBudgetTestBlock = 4 << 10;

struct BudgetRun {
  size_t peak = 0;  // Largest MemoryBytes() seen after any push or cut.
  uint64_t runs_spilled = 0;
};

// One standalone sorter over AndroidLog under a 256 KiB budget with 4 KiB
// blocks, punctuated every 10k events at (high watermark - 2 h), writing
// its spilled blocks through a flusher with `flusher_threads` threads.
BudgetRun RunAndroidLogUnderBudget(const std::vector<Event>& events,
                                   size_t flusher_threads) {
  storage::SpillFlusher::Options fo;
  fo.threads = flusher_threads;
  storage::SpillFlusher flusher(fo);
  ImpatienceConfig config;
  config.spill.use_env_default = false;
  config.spill.memory_budget = 256 << 10;
  config.spill.block_bytes = kBudgetTestBlock;
  config.spill.flusher = &flusher;
  BudgetRun result;
  ImpatienceSorter<Event> sorter(config);
  std::vector<Event> out;
  Timestamp high_watermark = kMinTimestamp;
  for (size_t i = 0; i < events.size(); ++i) {
    sorter.Push(events[i]);
    high_watermark = std::max(high_watermark, events[i].sync_time);
    result.peak = std::max(result.peak, sorter.MemoryBytes());
    if ((i + 1) % 10000 == 0) {
      out.clear();
      sorter.OnPunctuation(high_watermark - 2 * kHour, &out);
      result.peak = std::max(result.peak, sorter.MemoryBytes());
    }
  }
  out.clear();
  sorter.Flush(&out);
  result.runs_spilled = sorter.counters().runs_spilled;
  return result;
}

// A write-behind flusher must not let a sorter's spilled bytes escape its
// budget: a victim's rows sit in in-flight blocks, still accounted, until
// their writes land and a seal or read reclaims them, so a budget check
// that counted them as resident would keep spilling more runs to cover
// bytes already on their way to disk. The write-behind arm may hold at
// most two block buffers per spilled run beyond the inline arm's peak
// (pending plus spare), and may spill no more runs than the inline arm.
TEST(SpillBudgetTest, WriteBehindStaysWithinInlinePeak) {
  AndroidLogConfig gen;
  gen.num_events = 400000;
  gen.seed = 7;
  const std::vector<Event> events = GenerateAndroidLog(gen).events;
  const BudgetRun inline_run = RunAndroidLogUnderBudget(events, 0);
  const BudgetRun pool_run = RunAndroidLogUnderBudget(events, 2);
  ASSERT_GT(inline_run.runs_spilled, 0u);
  EXPECT_LE(pool_run.runs_spilled, inline_run.runs_spilled);
  EXPECT_LE(pool_run.peak,
            inline_run.peak + 2 * kBudgetTestBlock * pool_run.runs_spilled)
      << "inline peak " << inline_run.peak;
}

}  // namespace
}  // namespace impatience
