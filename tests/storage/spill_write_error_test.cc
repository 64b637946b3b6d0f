// Spill write errors: a full or failing spill device (WriteFault::ArmError,
// a short write followed by failures) must never hang the appending
// thread or lose a record. The failed write poisons the run's flusher
// channel, that block and every later one stay pinned in RAM, and reads
// serve them from there — for a bare SpilledRun and for a forced-spill
// ImpatienceSorter, inline (0 flusher threads) and behind a 2-thread pool.
// Built as its own binary under a ctest TIMEOUT, so a regression to the
// old retry-forever rule fails as a timeout instead of wedging the suite.

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sort/impatience_sorter.h"
#include "storage/run_file.h"
#include "storage/run_store.h"
#include "storage/spill.h"
#include "storage/spill_flusher.h"

namespace impatience {
namespace {

// A store in a fresh directory under TMPDIR whose every write passes
// through `fault`. The directory and its files go away on destruction.
class FaultedStore {
 public:
  explicit FaultedStore(storage::WriteFault* fault) {
    const char* base = getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/spillerr-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    dir_ = mkdtemp(buf.data());
    storage::RunStoreOptions options;
    options.dir = dir_ + "/store";
    options.fsync = false;
    options.write_fault = fault;
    std::string error;
    store_ = storage::RunStore::Open(options, &error);
    EXPECT_NE(store_, nullptr) << error;
  }
  ~FaultedStore() {
    store_.reset();
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = system(cmd.c_str());
  }
  storage::RunStore* get() const { return store_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<storage::RunStore> store_;
};

class SpillWriteErrorTest : public ::testing::TestWithParam<size_t> {};

// 64 KiB of writes succeed, then the device fails mid-block. Appending
// 512 KiB must return, the run must report the failure, and a cursor must
// still yield every record in order from disk and pinned RAM.
TEST_P(SpillWriteErrorTest, SpilledRunAppendReturnsAndKeepsRecords) {
  storage::WriteFault fault;
  FaultedStore store(&fault);
  ASSERT_NE(store.get(), nullptr);
  storage::SpillFlusher::Options fo;
  fo.threads = GetParam();
  storage::SpillFlusher flusher(fo);
  const auto time_of = [](const int64_t& v) {
    return static_cast<Timestamp>(v);
  };
  constexpr size_t kRecords = 65536;
  std::vector<int64_t> values(kRecords);
  for (size_t i = 0; i < kRecords; ++i) values[i] = static_cast<int64_t>(i);

  std::string error;
  auto run = storage::SpilledRun<int64_t>::Create(
      store.get(), /*block_records=*/1024, &flusher, nullptr, &error);
  ASSERT_NE(run, nullptr) << error;
  fault.ArmError(64 << 10);
  run->AppendRange(values.data(), values.size(), time_of);
  run->FlushPending(time_of, /*sync=*/true);
  EXPECT_TRUE(run->write_failed());
  // Everything past the failure is pinned in RAM.
  EXPECT_GE(run->MemoryBytes(), kRecords * sizeof(int64_t) - (64 << 10));

  uint64_t read_bytes = 0;
  auto cursor = run->MakeCursor(0, run->size(), &read_bytes);
  std::vector<int64_t> got;
  for (auto chunk = cursor->NextChunk(); chunk.first != nullptr;
       chunk = cursor->NextChunk()) {
    got.insert(got.end(), chunk.first, chunk.second);
  }
  EXPECT_EQ(got, values);
  EXPECT_GT(read_bytes, 0u);  // The blocks written before it came off disk.
}

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

using TaggedSorter = ImpatienceSorter<Tagged, TaggedTimeOf>;

// Bounded random disorder with frequent punctuations; the device fails
// halfway through the session.
std::vector<Tagged> RunSession(TaggedSorter* sorter,
                               storage::WriteFault* fault) {
  constexpr size_t kSteps = 20000;
  Rng rng(42);
  int64_t now = 0;
  uint32_t tag = 0;
  std::vector<Tagged> out;
  for (size_t step = 0; step < kSteps; ++step) {
    if (fault != nullptr && step == kSteps / 2) fault->ArmError(0);
    sorter->Push(
        Tagged{now + static_cast<int64_t>(rng.NextBelow(64)) - 20, tag++});
    ++now;
    if (rng.NextBelow(200) == 0) sorter->OnPunctuation(now - 30, &out);
  }
  sorter->Flush(&out);
  return out;
}

TEST_P(SpillWriteErrorTest, ForcedSpillSorterOutputSurvivesWriteErrors) {
  ImpatienceConfig ram_config;
  ram_config.spill.use_env_default = false;
  TaggedSorter ram_sorter(ram_config);
  const std::vector<Tagged> want = RunSession(&ram_sorter, nullptr);

  storage::WriteFault fault;
  FaultedStore store(&fault);
  ASSERT_NE(store.get(), nullptr);
  storage::SpillFlusher::Options fo;
  fo.threads = GetParam();
  storage::SpillFlusher flusher(fo);
  ImpatienceConfig config = ram_config;
  config.spill.store = store.get();
  config.spill.flusher = &flusher;
  config.spill.memory_budget = 1;  // Spill every run, at every push.
  config.spill.check_period = 1;
  config.spill.min_spill_bytes = 0;
  config.spill.block_bytes = 1024;
  {
    TaggedSorter sorter(config);
    const std::vector<Tagged> got = RunSession(&sorter, &fault);
    ASSERT_EQ(got, want);
    EXPECT_GT(sorter.counters().runs_spilled, 0u);
  }
  // A job that failed or was skipped — only a poisoned channel does
  // either — shows as a run job that was not a successful flush.
  const storage::SpillFlusher::Stats stats = flusher.stats();
  EXPECT_GT(stats.jobs_run, stats.async_flushes);
  EXPECT_EQ(stats.inflight_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(FlusherThreads, SpillWriteErrorTest,
                         ::testing::Values(size_t{0}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace impatience
