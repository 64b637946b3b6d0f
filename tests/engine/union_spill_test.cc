// UnionMergeOp under a memory budget: sides move their buffers to disk
// tails and back, and the merged output stays byte-identical to a union
// that never spills — rows, tie order (input 0 first) and punctuations.
// A tail that never drains empty is compacted, so its file stays bounded,
// and it lives in a private store under the configured store's directory.
// The framework case runs the whole union chain of an AndroidLog pipeline
// against a shared tracker and checks every output stream the same way.

#include <dirent.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "engine/ops_union.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "storage/run_store.h"
#include "storage/spill.h"
#include "storage/spill_flusher.h"
#include "workload/generators.h"

namespace impatience {
namespace {

// Rows as delivered, and for each punctuation the row count before it.
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

void ExpectSameStream(const LogSink& want, const LogSink& got) {
  EXPECT_TRUE(want.flushed);
  EXPECT_TRUE(got.flushed);
  ASSERT_EQ(want.events.size(), got.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    ASSERT_EQ(want.events[i], got.events[i]) << "row " << i;
  }
  EXPECT_EQ(want.punctuations, got.punctuations);
}

// One message to a union input.
struct Step {
  enum Kind { kBatch, kPunctuation, kFlush } kind;
  int input;
  std::vector<Event> rows;
  Timestamp t = 0;
};

// Random sorted inputs with long runs of equal timestamps on both sides
// (each row's key is unique, so a swapped tie shows), interleaved
// punctuations where input 1 lags like a slower band, and now and then a
// catch-up where both inputs punctuate past everything buffered so the
// union drains completely. Ends with both flushes. Every time is shifted
// by `origin`.
std::vector<Step> MakeSteps(uint64_t seed, Timestamp origin = 0) {
  std::mt19937_64 rng(seed);
  std::vector<Step> steps;
  // Smallest time each input may send next, and largest it has sent.
  Timestamp next[2] = {origin + 1, origin + 1};
  Timestamp last[2] = {origin, origin};
  int32_t key = 0;
  for (int i = 0; i < 4000; ++i) {
    const int input = static_cast<int>(rng() % 2);
    const uint64_t roll = rng() % 100;
    if (roll < 60) {
      Step s{Step::kBatch, input, {}, 0};
      const size_t n = 1 + rng() % 40;
      Timestamp t = next[input];
      for (size_t r = 0; r < n; ++r) {
        if (rng() % 4 == 0) t += static_cast<Timestamp>(rng() % 3);
        Event e;
        e.sync_time = t;
        e.other_time = t + 1;
        e.key = key++;
        e.hash = HashKey(e.key);
        e.payload[0] = input;
        s.rows.push_back(e);
      }
      next[input] = t;
      last[input] = t;
      steps.push_back(std::move(s));
    } else if (roll < 95) {
      // Input 0 punctuates at its latest time; input 1 well behind.
      const Timestamp lag =
          input == 0 ? 0 : static_cast<Timestamp>(rng() % 200);
      const Timestamp p = std::max<Timestamp>(origin, last[input] - lag);
      steps.push_back(Step{Step::kPunctuation, input, {}, p});
      next[input] = std::max(next[input], p + 1);
    } else {
      const Timestamp p = std::max(last[0], last[1]);
      for (int j = 0; j < 2; ++j) {
        steps.push_back(Step{Step::kPunctuation, j, {}, p});
        next[j] = std::max(next[j], p + 1);
      }
    }
  }
  steps.push_back(Step{Step::kFlush, 0, {}, 0});
  steps.push_back(Step{Step::kFlush, 1, {}, 0});
  return steps;
}

struct UnionRun {
  LogSink sink;
  UnionSpillCounters counters;
  bool seen_on_disk[2] = {false, false};
  bool back_in_ram[2] = {false, false};
  uint64_t max_disk_bytes = 0;
  size_t tracker_after_flush = 0;
};

// Feeds `steps` to a union under `spill_in`; `after_step` (optional) sees
// the union after every step.
UnionRun RunUnion(
    const std::vector<Step>& steps, const storage::SpillSettings& spill_in,
    const std::function<void(const UnionMergeOp<4>&)>& after_step = {}) {
  UnionRun run;
  MemoryTracker tracker;
  storage::SpillSettings spill = spill_in;
  spill.tracker = &tracker;
  {
    UnionMergeOp<4> u(&tracker, /*batch_size=*/64, spill);
    u.SetDownstream(&run.sink);
    for (const Step& s : steps) {
      switch (s.kind) {
        case Step::kBatch: {
          EventBatch<4> batch;
          for (const Event& e : s.rows) batch.AppendEvent(e);
          batch.SealFilter();
          u.input(s.input)->OnBatch(batch);
          break;
        }
        case Step::kPunctuation:
          u.input(s.input)->OnPunctuation(s.t);
          break;
        case Step::kFlush:
          u.input(s.input)->OnFlush();
          break;
      }
      run.max_disk_bytes = std::max(run.max_disk_bytes, u.DiskBytes());
      if (after_step) after_step(u);
      for (int i = 0; i < 2; ++i) {
        if (u.side_spilled(i)) {
          run.seen_on_disk[i] = true;
        } else if (run.seen_on_disk[i] && s.kind != Step::kFlush) {
          run.back_in_ram[i] = true;
        }
      }
    }
    run.counters = u.Counters();
    run.tracker_after_flush = tracker.current_bytes();
  }
  return run;
}

// What any correct union emits for `steps`: each input's rows in order,
// merged by time with ties to input 0. Inputs never send a row at or
// before their own punctuation, so equal times cannot straddle a drain.
std::vector<Event> ExpectedRows(const std::vector<Step>& steps) {
  std::vector<Event> in[2];
  for (const Step& s : steps) {
    in[s.input].insert(in[s.input].end(), s.rows.begin(), s.rows.end());
  }
  std::vector<Event> out;
  std::merge(in[0].begin(), in[0].end(), in[1].begin(), in[1].end(),
             std::back_inserter(out), [](const Event& a, const Event& b) {
               return a.sync_time < b.sync_time;
             });
  return out;
}

storage::SpillSettings NoBudget() {
  storage::SpillSettings spill;
  spill.use_env_default = false;
  return spill;
}

// A budget of ~40 rows with ~20-row blocks: every side spills as soon as
// it buffers a few blocks' worth.
storage::SpillSettings TinyBudget(storage::SpillFlusher* flusher) {
  storage::SpillSettings spill;
  spill.use_env_default = false;
  spill.memory_budget = 2048;
  spill.min_spill_bytes = 512;
  spill.block_bytes = 1024;
  spill.flusher = flusher;
  return spill;
}

class UnionSpillTest : public ::testing::TestWithParam<size_t> {
 protected:
  UnionSpillTest()
      : flusher_(storage::SpillFlusher::Options{.threads = GetParam()}) {}
  storage::SpillFlusher flusher_;
};

TEST_P(UnionSpillTest, SpilledSidesMergeIdenticallyToRam) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const std::vector<Step> steps = MakeSteps(seed);
    const UnionRun ram = RunUnion(steps, NoBudget());
    const UnionRun disk = RunUnion(steps, TinyBudget(&flusher_));

    EXPECT_EQ(ram.counters.sides_spilled, 0u);
    EXPECT_EQ(ram.sink.events, ExpectedRows(steps));
    ExpectSameStream(ram.sink, disk.sink);
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(disk.seen_on_disk[i]) << "input " << i;
      EXPECT_TRUE(disk.back_in_ram[i]) << "input " << i;
    }
    EXPECT_GT(disk.counters.sides_spilled, 2u);
    EXPECT_GT(disk.counters.bytes_written, 0u);
    EXPECT_GT(disk.counters.bytes_read, 0u);
    EXPECT_EQ(disk.tracker_after_flush, 0u);
    EXPECT_EQ(ram.tracker_after_flush, 0u);

    // Spill decisions depend on time differences only: the same steps
    // at negative times spill the same sides and bytes.
    const std::vector<Step> early = MakeSteps(seed, -(Timestamp{1} << 40));
    const UnionRun shifted = RunUnion(early, TinyBudget(&flusher_));
    EXPECT_EQ(shifted.sink.events, ExpectedRows(early));
    EXPECT_EQ(shifted.counters.sides_spilled, disk.counters.sides_spilled);
    EXPECT_EQ(shifted.counters.bytes_written, disk.counters.bytes_written);
  }
}

INSTANTIATE_TEST_SUITE_P(Flushers, UnionSpillTest,
                         ::testing::Values(size_t{0}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 0 ? std::string("inline")
                                                  : std::string("pool");
                         });

// The entries of `dir`, without "." and "..".
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = opendir(dir.c_str())) {
    while (struct dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    closedir(d);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Input 1 punctuates a fixed kLag behind input 0 for the whole run, so
// input 0's tail never drains empty and only compaction can reclaim the
// prefix each drain emits. The file must stay within a small multiple of
// the live rows while 50x that passes through it, and every tail file
// must sit in a private store under the configured store's directory,
// never in that store itself.
TEST(UnionSpillCompactionTest, LiveTailStaysBoundedInAPrivateStore) {
  constexpr Timestamp kLag = 2000;  // One row per tick: rows held back.
  constexpr Timestamp kRows = 100;  // Rows per input-0 batch.
  constexpr int kRounds = 1000;
  std::vector<Step> steps;
  Timestamp t = 0;
  int32_t key = 0;
  for (int round = 0; round < kRounds; ++round) {
    Step batch{Step::kBatch, 0, {}, 0};
    for (Timestamp r = 0; r < kRows; ++r) {
      Event e;
      e.sync_time = ++t;
      e.other_time = t + 1;
      e.key = key++;
      e.hash = HashKey(e.key);
      batch.rows.push_back(e);
    }
    steps.push_back(std::move(batch));
    steps.push_back(Step{Step::kPunctuation, 0, {}, t});
    steps.push_back(Step{Step::kPunctuation, 1, {}, t - kLag});
  }
  steps.push_back(Step{Step::kFlush, 0, {}, 0});
  steps.push_back(Step{Step::kFlush, 1, {}, 0});

  const char* base = getenv("TMPDIR");
  std::string parent =
      std::string(base != nullptr ? base : "/tmp") + "/union-store-XXXXXX";
  std::vector<char> buf(parent.begin(), parent.end());
  buf.push_back('\0');
  ASSERT_NE(mkdtemp(buf.data()), nullptr) << parent;
  storage::RunStoreOptions options;
  options.dir = std::string(buf.data()) + "/store";
  options.fsync = false;
  std::string error;
  std::unique_ptr<storage::RunStore> store =
      storage::RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;

  storage::SpillFlusher flusher(storage::SpillFlusher::Options{.threads = 0});
  storage::SpillSettings spill = TinyBudget(&flusher);
  spill.store = store.get();
  spill.compact_min_disk_bytes = 16 << 10;
  bool private_store_seen = false;
  const UnionRun disk =
      RunUnion(steps, spill, [&](const UnionMergeOp<4>& u) {
        if (!u.side_spilled(0)) return;
        for (const std::string& name : ListDir(options.dir)) {
          if (name == "MANIFEST") continue;
          ASSERT_EQ(name.rfind(storage::kTempStorePrefix, 0), 0u) << name;
          private_store_seen = true;
        }
      });
  const UnionRun ram = RunUnion(steps, NoBudget());

  ExpectSameStream(ram.sink, disk.sink);
  EXPECT_EQ(disk.sink.events, ExpectedRows(steps));
  EXPECT_TRUE(disk.seen_on_disk[0]);
  EXPECT_FALSE(disk.back_in_ram[0]);
  EXPECT_TRUE(private_store_seen);
  const uint64_t live_bytes = (kLag + kRows) * sizeof(Event);
  const uint64_t through_bytes = kRounds * kRows * sizeof(Event);
  EXPECT_GT(disk.counters.bytes_written, through_bytes / 2);
  EXPECT_LE(disk.max_disk_bytes, 4 * live_bytes + spill.compact_min_disk_bytes);
  EXPECT_EQ(disk.tracker_after_flush, 0u);
  // The union wrote nothing to the durable store and left nothing behind.
  EXPECT_EQ(ListDir(options.dir), std::vector<std::string>{"MANIFEST"});
  std::vector<storage::RecoveredRun> runs;
  storage::RecoveryStats stats;
  ASSERT_TRUE(store->Recover(&runs, &stats, &error)) << error;
  EXPECT_TRUE(runs.empty());
  store.reset();
  const std::string cmd = "rm -rf '" + std::string(buf.data()) + "'";
  ASSERT_EQ(system(cmd.c_str()), 0);
}

// The framework hands the sorters' spill settings to every union, so a
// budgeted AndroidLog pipeline spills its union buffers too: every output
// stream must match the unbudgeted pipeline's, at a lower tracked peak.
struct FrameworkRun {
  std::vector<LogSink> streams;
  UnionSpillCounters unions;
  size_t peak = 0;
};

FrameworkRun RunAndroidLog(const std::vector<Event>& events, size_t budget) {
  storage::SpillFlusher flusher(storage::SpillFlusher::Options{.threads = 0});
  FrameworkRun run;
  MemoryTracker tracker;
  {
    FrameworkOptions options;
    options.reorder_latencies = {10 * kMinute, 1 * kHour, 1 * kDay};
    options.punctuation_period = 10000;
    options.sorter_config.spill.use_env_default = false;
    options.sorter_config.spill.memory_budget = budget;
    options.sorter_config.spill.tracker = &tracker;
    options.sorter_config.spill.flusher = &flusher;
    typename Ingress<4>::Options ingress;
    ingress.punctuation_period = SIZE_MAX;  // The partition punctuates.
    QueryPipeline<4> q(ingress, &tracker);
    Streamables<4> streams = ToStreamables<4>(q.disordered(), options);
    run.streams.resize(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
      streams.stream(i).tail()->SetDownstream(&run.streams[i]);
    }
    q.Run(events);
    run.unions = streams.UnionCounters();
    run.peak = tracker.peak_bytes();
  }
  return run;
}

TEST(UnionSpillFrameworkTest, AndroidLogStreamsIdenticalUnderBudget) {
  AndroidLogConfig config;
  config.num_events = 200000;
  const std::vector<Event> events = GenerateAndroidLog(config).events;

  const FrameworkRun ram = RunAndroidLog(events, 0);
  const FrameworkRun disk = RunAndroidLog(events, 256 << 10);
  ASSERT_EQ(ram.streams.size(), disk.streams.size());
  for (size_t i = 0; i < ram.streams.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameStream(ram.streams[i], disk.streams[i]);
  }
  EXPECT_EQ(ram.unions.sides_spilled, 0u);
  EXPECT_GT(disk.unions.sides_spilled, 0u);
  EXPECT_GT(disk.unions.bytes_read, 0u);
  EXPECT_LT(disk.peak, ram.peak);
}

}  // namespace
}  // namespace impatience
