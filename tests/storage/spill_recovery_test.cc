// Kill-and-restart recovery through the session shard manager: a manager
// running with a durable spill tier is abandoned mid-session (queues
// closed, workers stopped, pipelines NOT flushed — RAM state lost exactly
// as a kill would lose it), and a new manager on the same spill directory
// must replay precisely the durable run suffixes: every on-disk event not
// already delivered pre-crash is delivered after recovery + flush, no
// event twice, none invented. A second scenario tears the newest run
// file's tail before restart — recovery then yields the longest intact
// prefix, still without duplicates. Two more cases pin the shard thread's
// spill upkeep: an idle session's spilled tail reaches disk without a
// punctuation, and run files compact under continuous load.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/timestamp.h"
#include "engine/batch.h"
#include "server/session_shard_manager.h"
#include "storage/run_store.h"
#include "storage/spill.h"

namespace impatience {
namespace server {
namespace {

class TempDir {
 public:
  TempDir() {
    const char* base = getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/recov-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path_ = mkdtemp(buf.data());
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr size_t kShards = 2;
constexpr uint64_t kSessions = 4;
constexpr size_t kEventsPerFrame = 100;
constexpr size_t kFrames = 200;  // 20k events, ~960 KiB of Event payload.
constexpr Timestamp kLatency = 4000;

ShardManagerOptions DurableOptions(const std::string& spill_dir,
                                   size_t flusher_threads = 0) {
  ShardManagerOptions options;
  options.num_shards = kShards;
  options.queue_capacity = 64;
  options.backpressure = BackpressurePolicy::kBlock;  // Lossless submit.
  // One band: the sorter's emitted prefix is exactly what the result
  // callback saw, so advanced run heads never hide undelivered events
  // behind a buffering union.
  options.framework.reorder_latencies = {kLatency};
  options.framework.punctuation_period = 64;
  options.framework.sorter_config.spill.check_period = 16;
  options.framework.sorter_config.spill.block_bytes = 4096;
  options.spill_dir = spill_dir;
  options.memory_budget = 32 << 10;  // 16 KiB per shard: forces spilling.
  // >0 routes spill writes through a write-behind flusher pool — the
  // async arms of the kill-and-restart sweep.
  options.spill_flusher_threads = flusher_threads;
  return options;
}

// Events are identified by other_time, stamped with a globally unique
// sequence number at submission; sync_time advances in submission order so
// nothing is ever late pre-crash.
Event MakeEvent(Timestamp sync, uint64_t seq, int32_t key) {
  Event e;
  e.sync_time = sync;
  e.other_time = static_cast<Timestamp>(seq);
  e.key = key;
  e.hash = HashKey(key);
  return e;
}

// Thread-safe id collector for the result callback.
struct Collector {
  std::mutex mu;
  std::vector<uint64_t> ids;

  ResultFn Fn() {
    return [this](size_t, size_t, const Event& e) {
      std::lock_guard<std::mutex> lock(mu);
      ids.push_back(static_cast<uint64_t>(e.other_time));
    };
  }
  std::set<uint64_t> Ids() {
    std::lock_guard<std::mutex> lock(mu);
    return std::set<uint64_t>(ids.begin(), ids.end());
  }
  // Every delivery must be unique — duplicate ids are double emissions.
  void ExpectNoDuplicates(const char* label) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<uint64_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end())
        << label;
  }
};

// Submits the whole session stream: frames round-robin across sessions,
// globally increasing sync_time, unique sequence ids 0..N-1.
void SubmitAll(SessionShardManager* manager) {
  uint64_t seq = 0;
  for (size_t f = 0; f < kFrames; ++f) {
    Frame frame;
    frame.type = FrameType::kEvents;
    frame.session_id = 1 + (f % kSessions);
    for (size_t i = 0; i < kEventsPerFrame; ++i) {
      frame.events.push_back(
          MakeEvent(static_cast<Timestamp>(seq), seq,
                    static_cast<int32_t>(frame.session_id)));
      ++seq;
    }
    const QueuePush push = manager->Submit(std::move(frame)).push;
    ASSERT_TRUE(push == QueuePush::kOk || push == QueuePush::kBlocked);
  }
}

// Reads the durable event ids straight from the on-disk stores, the same
// way shard recovery will: manifest replay, torn-tail truncation, then the
// un-emitted suffix [head, records) of every live run.
std::set<uint64_t> DurableIds(const std::string& spill_dir) {
  std::set<uint64_t> ids;
  for (size_t shard = 0; shard < kShards; ++shard) {
    storage::RunStoreOptions options;
    options.dir = spill_dir + "/shard-" + std::to_string(shard);
    std::string error;
    std::unique_ptr<storage::RunStore> store =
        storage::RunStore::Open(options, &error);
    if (store == nullptr) continue;  // Shard never spilled.
    std::vector<storage::RecoveredRun> runs;
    storage::RecoveryStats stats;
    EXPECT_TRUE(store->Recover(&runs, &stats, &error)) << error;
    for (const storage::RecoveredRun& run : runs) {
      EXPECT_TRUE(storage::ReplayRecoveredRun<Event>(
          run,
          [&](const Event& e) {
            // Durable ids are unique: one event never lands in two runs.
            EXPECT_TRUE(
                ids.insert(static_cast<uint64_t>(e.other_time)).second)
                << "id " << e.other_time << " in two runs";
          },
          nullptr, &error))
          << error;
    }
  }
  return ids;
}

// Truncates the largest run file under the spill tree by `cut` bytes,
// simulating a write torn by the kill. Returns true if a file was cut.
bool TearLargestRunFile(const std::string& spill_dir, off_t cut) {
  std::string victim;
  off_t victim_size = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    const std::string dir = spill_dir + "/shard-" + std::to_string(shard);
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) continue;
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.rfind("run-", 0) != 0) continue;
      const std::string path = dir + "/" + name;
      struct stat st;
      if (::stat(path.c_str(), &st) == 0 && st.st_size > victim_size) {
        victim = path;
        victim_size = st.st_size;
      }
    }
    ::closedir(d);
  }
  if (victim.empty() || victim_size <= cut) return false;
  return ::truncate(victim.c_str(), victim_size - cut) == 0;
}

uint64_t SumRecovered(const std::vector<ShardMetrics>& shards,
                      uint64_t* runs_recovered) {
  uint64_t events = 0;
  *runs_recovered = 0;
  for (const ShardMetrics& m : shards) {
    events += m.events_recovered;
    *runs_recovered += m.runs_recovered;
  }
  return events;
}

void RunKillRestartScenario(bool tear_tail, size_t flusher_threads = 0) {
  TempDir dir;
  const std::string spill_dir = dir.path() + "/spill";

  // Phase 1: ingest under a tiny budget, then crash without flushing.
  Collector before;
  auto manager = std::make_unique<SessionShardManager>(
      DurableOptions(spill_dir, flusher_threads), before.Fn());
  SubmitAll(manager.get());
  uint64_t spilled = 0;
  for (const ShardMetrics& m : manager->SnapshotShards()) {
    spilled += m.sorter.runs_spilled;
  }
  ASSERT_GT(spilled, 0u) << "budget never forced a spill";
  manager->AbandonForTest();
  manager.reset();
  before.ExpectNoDuplicates("pre-crash emissions");
  const std::set<uint64_t> emitted = before.Ids();
  ASSERT_GT(emitted.size(), 0u);
  ASSERT_LT(emitted.size(), kFrames * kEventsPerFrame);

  if (tear_tail) {
    // The kill also tore the newest block: recovery must fall back to the
    // longest intact prefix of that file.
    ASSERT_TRUE(TearLargestRunFile(spill_dir, /*cut=*/5));
  }

  // The durable contract, computed independently of the shard manager.
  const std::set<uint64_t> durable = DurableIds(spill_dir);
  ASSERT_GT(durable.size(), 0u);
  for (const uint64_t id : durable) {
    EXPECT_EQ(emitted.count(id), 0u)
        << "id " << id << " both emitted pre-crash and still live on disk";
  }

  // Phase 2: restart on the same directory. Construction replays the
  // durable suffixes through the normal ingress path; Shutdown flushes.
  Collector after;
  auto restarted = std::make_unique<SessionShardManager>(
      DurableOptions(spill_dir, flusher_threads), after.Fn());
  restarted->Shutdown();
  uint64_t runs_recovered = 0;
  uint64_t events_recovered = 0;
  uint64_t dropped_late = 0;
  const std::vector<ShardMetrics> shards = restarted->SnapshotShards();
  events_recovered = SumRecovered(shards, &runs_recovered);
  for (const ShardMetrics& m : shards) dropped_late += m.dropped_late;
  restarted.reset();

  after.ExpectNoDuplicates("post-recovery emissions");
  const std::set<uint64_t> replayed = after.Ids();

  // Replay surfaced exactly the durable set: nothing lost, nothing
  // invented, and the per-shard counters agree.
  EXPECT_EQ(replayed, durable);
  EXPECT_GT(runs_recovered, 0u);
  EXPECT_EQ(events_recovered, durable.size());
  EXPECT_EQ(dropped_late, 0u);

  // No duplicates across the crash boundary, and every delivered id is a
  // submitted one.
  for (const uint64_t id : replayed) {
    EXPECT_EQ(emitted.count(id), 0u) << "id " << id << " delivered twice";
    EXPECT_LT(id, kFrames * kEventsPerFrame);
  }
  for (const uint64_t id : emitted) {
    EXPECT_LT(id, kFrames * kEventsPerFrame);
  }
}

TEST(SpillRecoveryTest, KillAndRestartReplaysDurableSuffixExactly) {
  RunKillRestartScenario(/*tear_tail=*/false);
}

TEST(SpillRecoveryTest, TornTailRecoversLongestIntactPrefix) {
  RunKillRestartScenario(/*tear_tail=*/true);
}

// The same two scenarios with the write-behind flusher pool carrying the
// spill writes: the crash boundary now cuts across flusher threads and
// the shard thread's spill maintenance, and recovery must still deliver
// exactly the durable suffix — no loss, no duplicates.
TEST(SpillRecoveryTest, KillAndRestartWithWriteBehindFlusherPool) {
  RunKillRestartScenario(/*tear_tail=*/false, /*flusher_threads=*/2);
}

TEST(SpillRecoveryTest, TornTailWithWriteBehindFlusherPool) {
  RunKillRestartScenario(/*tear_tail=*/true, /*flusher_threads=*/2);
}

// A clean shutdown leaves nothing to recover: the flush drains every
// spilled run and discards its file, so a restart finds an empty store.
TEST(SpillRecoveryTest, CleanShutdownLeavesNothingToRecover) {
  TempDir dir;
  const std::string spill_dir = dir.path() + "/spill";

  Collector first;
  auto manager = std::make_unique<SessionShardManager>(
      DurableOptions(spill_dir), first.Fn());
  SubmitAll(manager.get());
  manager->Shutdown();
  manager.reset();
  first.ExpectNoDuplicates("clean-run emissions");
  EXPECT_EQ(first.Ids().size(), kFrames * kEventsPerFrame);

  EXPECT_TRUE(DurableIds(spill_dir).empty());

  Collector second;
  auto restarted = std::make_unique<SessionShardManager>(
      DurableOptions(spill_dir), second.Fn());
  restarted->Shutdown();
  uint64_t runs_recovered = 0;
  const uint64_t events_recovered =
      SumRecovered(restarted->SnapshotShards(), &runs_recovered);
  restarted.reset();
  EXPECT_EQ(events_recovered, 0u);
  EXPECT_EQ(runs_recovered, 0u);
  EXPECT_TRUE(second.Ids().empty());
}

// Submits `events` events of one session (so one shard) in frames of
// kEventsPerFrame, sync_time and id continuing from *seq; returns the last
// id submitted.
uint64_t SubmitOneSession(SessionShardManager* manager, size_t events,
                          uint64_t* seq) {
  for (size_t sent = 0; sent < events; sent += kEventsPerFrame) {
    Frame frame;
    frame.type = FrameType::kEvents;
    frame.session_id = 1;
    for (size_t i = sent; i < std::min(events, sent + kEventsPerFrame);
         ++i) {
      frame.events.push_back(
          MakeEvent(static_cast<Timestamp>(*seq), *seq, /*key=*/1));
      ++*seq;
    }
    const QueuePush push = manager->Submit(std::move(frame)).push;
    EXPECT_TRUE(push == QueuePush::kOk || push == QueuePush::kBlocked);
  }
  return *seq - 1;
}

uint64_t SumSorter(const std::vector<ShardMetrics>& shards,
                   uint64_t ImpatienceCounters::*field) {
  uint64_t total = 0;
  for (const ShardMetrics& m : shards) total += m.sorter.*field;
  return total;
}

// A session that stops sending — no punctuation, no flush — leaves its
// newest events in a spilled run's partial tail block. The idle shard
// writes that tail out (through the fsync) on its own, so the events are
// durable and a crash afterwards replays them.
TEST(SpillRecoveryTest, IdleSessionTailReachesDiskAndRecovers) {
  TempDir dir;
  const std::string spill_dir = dir.path() + "/spill";
  const std::string snapshot_dir = dir.path() + "/snapshot";

  // No punctuation rounds at all: the partition hands the sorter whole
  // batches, and exactly two of them put the newest event in the sorter.
  ShardManagerOptions options = DurableOptions(spill_dir);
  options.framework.punctuation_period = size_t{1} << 30;
  Collector before;
  auto manager = std::make_unique<SessionShardManager>(options, before.Fn());
  uint64_t seq = 0;
  const uint64_t newest =
      SubmitOneSession(manager.get(), 2 * kDefaultBatchSize, &seq);

  // Poll copies of the live spill tree (recovery truncates torn tails, so
  // it must never run on the directory the shard is writing).
  bool durable_newest = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!durable_newest && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::error_code ec;
    std::filesystem::remove_all(snapshot_dir, ec);
    std::filesystem::copy(spill_dir, snapshot_dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) continue;  // A file vanished mid-copy; try again.
    durable_newest = DurableIds(snapshot_dir).count(newest) > 0;
  }
  ASSERT_TRUE(durable_newest) << "idle tail never reached disk";
  const std::vector<ShardMetrics> shards = manager->SnapshotShards();
  EXPECT_GT(SumSorter(shards, &ImpatienceCounters::runs_spilled), 0u);
  EXPECT_GT(SumSorter(shards, &ImpatienceCounters::idle_flushes), 0u);

  manager->AbandonForTest();
  manager.reset();
  const std::set<uint64_t> durable = DurableIds(spill_dir);
  ASSERT_EQ(durable.count(newest), 1u);
  EXPECT_EQ(before.Ids().count(newest), 0u);  // Never emitted pre-crash.

  Collector after;
  auto restarted = std::make_unique<SessionShardManager>(options, after.Fn());
  restarted->Shutdown();
  restarted.reset();
  after.ExpectNoDuplicates("post-recovery emissions");
  EXPECT_EQ(after.Ids(), durable);
}

// Compaction does not wait for an idle shard: with the thresholds floored
// and frames arriving back to back (never 100 ms apart), run files are
// rewritten by the upkeep pass that follows every frame.
TEST(SpillRecoveryTest, RunFilesCompactUnderContinuousLoad) {
  TempDir dir;
  ShardManagerOptions options = DurableOptions(dir.path() + "/spill");
  options.framework.sorter_config.spill.compact_min_disk_bytes = 1;
  options.framework.sorter_config.spill.compact_disk_fraction = 0.0;
  SessionShardManager manager(options);
  uint64_t seq = 0;
  uint64_t compactions = 0;
  for (size_t round = 0; round < 500 && compactions == 0; ++round) {
    SubmitOneSession(&manager, 8 * kEventsPerFrame, &seq);
    compactions = SumSorter(manager.SnapshotShards(),
                            &ImpatienceCounters::spill_compactions);
  }
  EXPECT_GT(compactions, 0u);
  manager.Shutdown();
}

}  // namespace
}  // namespace server
}  // namespace impatience
