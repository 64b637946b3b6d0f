// Run-file and RunStore recovery properties: block round-trips, the
// longest-intact-prefix guarantee under the shared corruption corpus
// (every truncation and byte-flip of a valid file), manifest replay
// (begin/commit/advance/delete, torn tails), and scripted WriteFault kill
// points — after any crash, recovery must surface a prefix of what was
// appended, never an invented or reordered record.

#include "storage/run_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/run_file.h"
#include "storage/spill.h"
#include "tests/testing/corrupt_corpus.h"

namespace impatience {
namespace storage {
namespace {

// A fresh directory under TMPDIR for each test; removed with its contents
// on destruction so repeated runs never see stale state.
class TempDir {
 public:
  TempDir() {
    const char* base = getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/rstest-XXXXXX";
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

std::vector<uint8_t> PayloadOf(const std::vector<int64_t>& values) {
  std::vector<uint8_t> payload(values.size() * sizeof(int64_t));
  std::memcpy(payload.data(), values.data(), payload.size());
  return payload;
}

// Writes `blocks` blocks of `per_block` consecutive int64 records starting
// at 0. Returns the file path.
std::string WriteRunFile(const TempDir& dir, size_t blocks, size_t per_block,
                         WriteFault* fault = nullptr) {
  const std::string path = dir.path() + "/run-test.rf";
  std::string error;
  auto writer =
      RunFileWriter::Create(path, sizeof(int64_t), /*run_id=*/9, fault,
                            &error);
  EXPECT_NE(writer, nullptr) << error;
  int64_t next = 0;
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<int64_t> values;
    for (size_t i = 0; i < per_block; ++i) values.push_back(next++);
    EXPECT_TRUE(writer->AppendBlock(PayloadOf(values).data(),
                                    static_cast<uint32_t>(per_block),
                                    &error))
        << error;
  }
  return path;
}

// Reads every intact record back via the sequential reader.
std::vector<int64_t> ReadAllRecords(const std::string& path) {
  std::vector<int64_t> out;
  std::string error;
  auto reader = RunFileReader::Open(path, &error);
  if (reader == nullptr) return out;
  std::vector<uint8_t> payload;
  uint32_t count = 0;
  while (reader->NextBlock(&payload, &count) == BlockReadStatus::kOk) {
    const size_t have = out.size();
    out.resize(have + count);
    std::memcpy(out.data() + have, payload.data(),
                static_cast<size_t>(count) * sizeof(int64_t));
  }
  return out;
}

TEST(RunFileTest, BlockRoundTrip) {
  TempDir dir;
  const std::string path = WriteRunFile(dir, /*blocks=*/4, /*per_block=*/7);
  std::string error;
  auto reader = RunFileReader::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->record_size(), sizeof(int64_t));
  EXPECT_EQ(reader->run_id(), 9u);
  const std::vector<int64_t> got = ReadAllRecords(path);
  ASSERT_EQ(got.size(), 28u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(i));
  }

  uint64_t records = 0, bytes = 0;
  uint32_t record_size = 0;
  uint64_t run_id = 0;
  ASSERT_TRUE(ScanRunFile(path, /*truncate=*/false, &records, &bytes,
                          &record_size, &run_id, &error))
      << error;
  EXPECT_EQ(records, 28u);
  EXPECT_EQ(record_size, sizeof(int64_t));
  EXPECT_EQ(run_id, 9u);
  EXPECT_EQ(bytes, kRunFileHeaderBytes +
                       4 * (kRunBlockHeaderBytes + 7 * sizeof(int64_t)));
}

// Every truncation of a valid run file must recover exactly the blocks
// that lie fully inside the cut — the longest intact prefix — and the
// recovered values must be the original prefix, element for element.
TEST(RunFileTest, TruncationsRecoverLongestIntactPrefix) {
  TempDir dir;
  const size_t kPerBlock = 5;
  const std::string path = WriteRunFile(dir, /*blocks=*/6, kPerBlock);
  const std::vector<uint8_t> golden = testing::FileBytesOf(path);
  ASSERT_FALSE(golden.empty());
  const size_t block_bytes = kRunBlockHeaderBytes + kPerBlock * sizeof(int64_t);

  const std::string victim = dir.path() + "/victim.rf";
  for (const auto& cut : testing::TruncationsOf(golden, /*step=*/3)) {
    ASSERT_TRUE(testing::WriteFileBytes(victim, cut));
    uint64_t records = 0, bytes = 0;
    uint32_t record_size = 0;
    std::string error;
    const bool ok = ScanRunFile(victim, /*truncate=*/true, &records, &bytes,
                                &record_size, nullptr, &error);
    if (cut.size() < kRunFileHeaderBytes) {
      // Not even a file header: nothing recoverable.
      EXPECT_FALSE(ok) << "cut=" << cut.size();
      continue;
    }
    ASSERT_TRUE(ok) << "cut=" << cut.size() << ": " << error;
    const uint64_t whole_blocks =
        (cut.size() - kRunFileHeaderBytes) / block_bytes;
    EXPECT_EQ(records, whole_blocks * kPerBlock) << "cut=" << cut.size();
    EXPECT_EQ(bytes, kRunFileHeaderBytes + whole_blocks * block_bytes);
    const std::vector<int64_t> got = ReadAllRecords(victim);
    ASSERT_EQ(got.size(), records);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<int64_t>(i)) << "cut=" << cut.size();
    }
  }
}

// Every single-byte flip: recovery must never crash, never invent records,
// and must stop at or before the flipped block. Flips inside a payload or
// a CRC'd header field cut the prefix there; flips in an unchecksummed
// reserved field may pass, but then the data must be untouched.
TEST(RunFileTest, ByteFlipsNeverYieldCorruptRecords) {
  TempDir dir;
  const size_t kPerBlock = 5;
  const std::string path = WriteRunFile(dir, /*blocks=*/4, kPerBlock);
  const std::vector<uint8_t> golden = testing::FileBytesOf(path);
  const size_t block_bytes = kRunBlockHeaderBytes + kPerBlock * sizeof(int64_t);

  const std::string victim = dir.path() + "/victim.rf";
  size_t at = 0;
  for (const auto& flipped : testing::ByteFlipsOf(golden, /*stride=*/2)) {
    const size_t offset = at;
    at += 2;
    ASSERT_TRUE(testing::WriteFileBytes(victim, flipped));
    uint64_t records = 0, bytes = 0;
    uint32_t record_size = 0;
    std::string error;
    const bool ok = ScanRunFile(victim, /*truncate=*/false, &records, &bytes,
                                &record_size, nullptr, &error);
    if (offset < kRunFileHeaderBytes) {
      // File-header damage: the scan either rejects the file outright or
      // (reserved bytes) sees it unharmed.
      if (!ok) continue;
    }
    ASSERT_TRUE(ok) << "offset=" << offset << ": " << error;
    const std::vector<int64_t> got = ReadAllRecords(victim);
    ASSERT_LE(got.size(), 20u);
    // Whatever survived must be the original prefix, bit for bit.
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<int64_t>(i)) << "offset=" << offset;
    }
    if (offset >= kRunFileHeaderBytes) {
      // The blocks strictly before the flipped one must all survive.
      const size_t flipped_block =
          (offset - kRunFileHeaderBytes) / block_bytes;
      EXPECT_GE(got.size(), flipped_block * kPerBlock)
          << "offset=" << offset;
    }
  }
}

TEST(RunStoreTest, ManifestRoundTripAndDelete) {
  TempDir dir;
  RunStoreOptions options;
  options.dir = dir.path() + "/store";
  options.fsync = false;  // Tests exercise logic, not the disk.
  std::string error;
  auto store = RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;

  // Two runs; the second is deleted.
  uint64_t id1 = 0, id2 = 0;
  auto w1 = store->BeginRun(sizeof(int64_t), &id1, &error);
  ASSERT_NE(w1, nullptr) << error;
  std::vector<int64_t> values = {1, 2, 3};
  ASSERT_TRUE(w1->AppendBlock(PayloadOf(values).data(), 3, &error));
  ASSERT_TRUE(store->CommitRun(id1, 3, &error));
  ASSERT_TRUE(store->AdvanceHead(id1, 1, &error));
  auto w2 = store->BeginRun(sizeof(int64_t), &id2, &error);
  ASSERT_NE(w2, nullptr) << error;
  ASSERT_TRUE(w2->AppendBlock(PayloadOf(values).data(), 3, &error));
  w1.reset();
  w2.reset();
  ASSERT_TRUE(store->DeleteRun(id2, &error));
  store.reset();

  // Reopen: only run 1 is live, with its durable head.
  store = RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  std::vector<RecoveredRun> runs;
  RecoveryStats stats;
  ASSERT_TRUE(store->Recover(&runs, &stats, &error)) << error;
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].id, id1);
  EXPECT_EQ(runs[0].records, 3u);
  EXPECT_EQ(runs[0].head, 1u);
  EXPECT_TRUE(runs[0].committed);
  EXPECT_EQ(stats.live_runs, 1u);
  EXPECT_EQ(stats.torn_runs, 0u);
  EXPECT_FALSE(stats.manifest_truncated);

  // Replay skips the emitted prefix.
  std::vector<int64_t> replayed;
  ASSERT_TRUE(ReplayRecoveredRun<int64_t>(
      runs[0], [&](const int64_t& v) { replayed.push_back(v); }, nullptr,
      &error))
      << error;
  EXPECT_EQ(replayed, (std::vector<int64_t>{2, 3}));

  // New run ids never collide with recovered ones.
  uint64_t id3 = 0;
  auto w3 = store->BeginRun(sizeof(int64_t), &id3, &error);
  ASSERT_NE(w3, nullptr);
  EXPECT_GT(id3, id2);
}

// A fully-advanced run is garbage-collected by recovery itself, and a
// second recovery converges (no live runs, no torn state).
TEST(RunStoreTest, FullyEmittedRunIsDroppedOnRecovery) {
  TempDir dir;
  RunStoreOptions options;
  options.dir = dir.path() + "/store";
  options.fsync = false;
  std::string error;
  auto store = RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  uint64_t id = 0;
  auto w = store->BeginRun(sizeof(int64_t), &id, &error);
  std::vector<int64_t> values = {4, 5};
  ASSERT_TRUE(w->AppendBlock(PayloadOf(values).data(), 2, &error));
  ASSERT_TRUE(store->AdvanceHead(id, 2, &error));
  w.reset();
  store.reset();

  store = RunStore::Open(options, &error);
  std::vector<RecoveredRun> runs;
  RecoveryStats stats;
  ASSERT_TRUE(store->Recover(&runs, &stats, &error)) << error;
  EXPECT_TRUE(runs.empty());
  ASSERT_TRUE(store->Recover(&runs, &stats, &error)) << error;
  EXPECT_TRUE(runs.empty());
  EXPECT_EQ(stats.live_runs, 0u);
}

// A temp store under a durable store's directory keeps no manifest, leaves
// nothing behind when destroyed, and one a crashed process left there is
// removed by the durable store's Recover without touching its runs.
TEST(RunStoreTest, TempStoreUnderParentIsNeverRecovered) {
  TempDir dir;
  RunStoreOptions options;
  options.dir = dir.path() + "/store";
  options.fsync = false;
  std::string error;
  auto store = RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  uint64_t id = 0;
  auto w = store->BeginRun(sizeof(int64_t), &id, &error);
  std::vector<int64_t> values = {1, 2, 3};
  ASSERT_TRUE(w->AppendBlock(PayloadOf(values).data(), 3, &error));
  w.reset();

  std::string temp_dir;
  {
    auto temp = RunStore::CreateTemp(&error, options.dir);
    ASSERT_NE(temp, nullptr) << error;
    temp_dir = temp->dir();
    EXPECT_EQ(temp_dir.rfind(options.dir + "/" + kTempStorePrefix, 0), 0u);
    uint64_t temp_id = 0;
    auto tw = temp->BeginRun(sizeof(int64_t), &temp_id, &error);
    ASSERT_NE(tw, nullptr) << error;
    ASSERT_TRUE(tw->AppendBlock(PayloadOf(values).data(), 3, &error));
    ASSERT_TRUE(temp->AdvanceHead(temp_id, 1, &error));
    EXPECT_EQ(access(temp->RunPath(temp_id).c_str(), F_OK), 0);
    EXPECT_NE(access((temp_dir + "/MANIFEST").c_str(), F_OK), 0);
  }
  EXPECT_NE(access(temp_dir.c_str(), F_OK), 0);

  // What a crash leaves: a temp store directory holding a run file.
  const std::string stale = options.dir + "/" + kTempStorePrefix + "stale";
  ASSERT_EQ(mkdir(stale.c_str(), 0755), 0);
  const std::string stale_run = WriteRunFile(dir, 2, 4);
  ASSERT_EQ(rename(stale_run.c_str(), (stale + "/run-1.rf").c_str()), 0);
  store.reset();

  store = RunStore::Open(options, &error);
  std::vector<RecoveredRun> runs;
  RecoveryStats stats;
  ASSERT_TRUE(store->Recover(&runs, &stats, &error)) << error;
  EXPECT_EQ(stats.temp_stores_removed, 1u);
  EXPECT_NE(access(stale.c_str(), F_OK), 0);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].id, id);
  EXPECT_EQ(runs[0].records, 3u);
}

// Torn manifest tails (any truncation) must be cut back to whole intact
// records, and every record before the cut must still apply.
TEST(RunStoreTest, TornManifestTailIsTruncated) {
  TempDir dir;
  RunStoreOptions options;
  options.dir = dir.path() + "/store";
  options.fsync = false;
  std::string error;
  auto store = RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  uint64_t id = 0;
  auto w = store->BeginRun(sizeof(int64_t), &id, &error);
  std::vector<int64_t> values = {7, 8, 9};
  ASSERT_TRUE(w->AppendBlock(PayloadOf(values).data(), 3, &error));
  ASSERT_TRUE(store->CommitRun(id, 3, &error));
  w.reset();
  store.reset();

  const std::string manifest = options.dir + "/MANIFEST";
  const std::vector<uint8_t> golden = testing::FileBytesOf(manifest);
  ASSERT_EQ(golden.size() % kManifestRecordBytes, 0u);

  for (const auto& cut : testing::TruncationsOf(golden, /*step=*/13)) {
    ASSERT_TRUE(testing::WriteFileBytes(manifest, cut));
    store = RunStore::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    std::vector<RecoveredRun> runs;
    RecoveryStats stats;
    ASSERT_TRUE(store->Recover(&runs, &stats, &error))
        << "cut=" << cut.size() << ": " << error;
    const size_t whole = cut.size() / kManifestRecordBytes;
    EXPECT_EQ(stats.manifest_truncated, cut.size() % kManifestRecordBytes != 0)
        << "cut=" << cut.size();
    if (whole == 0) {
      EXPECT_TRUE(runs.empty());
    } else {
      // The begin record survived: the run is live with every record the
      // (untouched) run file holds.
      ASSERT_EQ(runs.size(), 1u) << "cut=" << cut.size();
      EXPECT_EQ(runs[0].records, 3u);
    }
    store.reset();
    // Restore the full manifest for the next variant (recovery truncated
    // the file in place).
    ASSERT_TRUE(testing::WriteFileBytes(manifest, golden));
  }
}

// Scripted kill points: arm the fault at every byte boundary across a
// multi-block append sequence. Whatever the crash left behind, recovery
// yields a prefix of the appended records — nothing invented, nothing
// reordered, and at least the blocks fully written before the kill.
TEST(RunStoreTest, WriteFaultKillPointsRecoverPrefix) {
  const size_t kPerBlock = 4;
  const size_t kBlocks = 5;
  const size_t block_bytes = kRunBlockHeaderBytes + kPerBlock * sizeof(int64_t);
  const size_t total_bytes = kRunFileHeaderBytes + kBlocks * block_bytes;

  for (size_t kill = 0; kill <= total_bytes; kill += 7) {
    TempDir dir;
    WriteFault fault;
    fault.Arm(static_cast<int64_t>(kill));
    const std::string path = WriteRunFile(dir, kBlocks, kPerBlock, &fault);

    uint64_t records = 0, bytes = 0;
    uint32_t record_size = 0;
    std::string error;
    const bool ok = ScanRunFile(path, /*truncate=*/true, &records, &bytes,
                                &record_size, nullptr, &error);
    if (kill < kRunFileHeaderBytes) {
      EXPECT_FALSE(ok) << "kill=" << kill;
      continue;
    }
    ASSERT_TRUE(ok) << "kill=" << kill << ": " << error;
    // At least every block fully inside the budget is durable; the block
    // straddling the kill is torn away.
    const uint64_t full_blocks = (kill - kRunFileHeaderBytes) / block_bytes;
    EXPECT_EQ(records, full_blocks * kPerBlock) << "kill=" << kill;
    const std::vector<int64_t> got = ReadAllRecords(path);
    ASSERT_EQ(got.size(), records);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<int64_t>(i)) << "kill=" << kill;
    }
  }
}

// The same kill-point property with the write-behind pipeline: blocks are
// sealed on the producer thread but written by flusher-pool threads, and
// the fault gate's byte budget is consumed concurrently by manifest writes
// and block writes. Whatever instant the budget dies at, recovery must
// surface a contiguous prefix of the appended records — nothing invented,
// nothing reordered — and a second recovery must converge. (TSan owns the
// concurrency assertions; the sweep owns the crash-consistency ones.)
TEST(RunStoreTest, AsyncFlusherKillPointsRecoverPrefix) {
  constexpr size_t kPerBlock = 4;
  constexpr int64_t kRecords = 40;  // 10 blocks through the pool.
  const auto time_of = [](const int64_t& v) {
    return static_cast<Timestamp>(v);
  };

  for (size_t kill = 0; kill <= 700; kill += 23) {
    TempDir dir;
    WriteFault fault;
    fault.Arm(static_cast<int64_t>(kill));
    {
      RunStoreOptions options;
      options.dir = dir.path() + "/store";
      options.fsync = false;
      options.write_fault = &fault;
      std::string error;
      auto store = RunStore::Open(options, &error);
      ASSERT_NE(store, nullptr) << "kill=" << kill << ": " << error;

      SpillFlusher::Options fo;
      fo.threads = 2;
      SpillFlusher flusher(fo);
      uint64_t async_flushes = 0;
      auto run = SpilledRun<int64_t>::Create(store.get(), kPerBlock,
                                             &flusher, &async_flushes,
                                             &error);
      if (run != nullptr) {
        for (int64_t v = 0; v < kRecords; ++v) run->Append(v, time_of);
        run->FlushPending(time_of, /*sync=*/true);
        EXPECT_GT(async_flushes, 0u) << "kill=" << kill;
        // Destroy without reading: once the gate is dead, unwritten
        // blocks are only readable from their in-flight RAM copies, and
        // this models a process that never got to read them.
        run.reset();
      }
      store.reset();
    }

    // Restart: the fault gate is gone, the files are whatever the "crash"
    // left behind.
    RunStoreOptions options;
    options.dir = dir.path() + "/store";
    options.fsync = false;
    std::string error;
    auto store = RunStore::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    std::vector<RecoveredRun> runs;
    RecoveryStats stats;
    ASSERT_TRUE(store->Recover(&runs, &stats, &error))
        << "kill=" << kill << ": " << error;
    ASSERT_LE(runs.size(), 1u) << "kill=" << kill;
    std::vector<int64_t> got;
    if (!runs.empty()) {
      ASSERT_TRUE(ReplayRecoveredRun<int64_t>(
          runs[0], [&](const int64_t& v) { got.push_back(v); }, nullptr,
          &error))
          << error;
    }
    ASSERT_LE(got.size(), static_cast<size_t>(kRecords));
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<int64_t>(i)) << "kill=" << kill;
    }
    ASSERT_TRUE(store->Recover(&runs, &stats, &error))
        << "kill=" << kill << " (second recovery): " << error;
  }
}

// The merge-facing read contract of the write-behind path: a cursor over
// a run whose blocks may be on disk, in flight, or still pending must
// return every element in order — the in-flight RAM copies serve reads
// until the pool confirms the write, so consumers never observe the
// asynchrony.
TEST(RunStoreTest, CursorServesInFlightAndDiskBlocksUniformly) {
  TempDir dir;
  RunStoreOptions options;
  options.dir = dir.path() + "/store";
  options.fsync = false;
  std::string error;
  auto store = RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  const auto time_of = [](const int64_t& v) {
    return static_cast<Timestamp>(v);
  };

  SpillFlusher::Options fo;
  fo.threads = 1;
  SpillFlusher flusher(fo);
  uint64_t async_flushes = 0;
  auto run = SpilledRun<int64_t>::Create(store.get(), /*block_records=*/4,
                                         &flusher, &async_flushes, &error);
  ASSERT_NE(run, nullptr) << error;

  // Settle the first block on disk, then append more whose writes may
  // still be in flight (plus a partial pending tail) when the cursor
  // walks the run.
  for (int64_t v = 0; v < 4; ++v) run->Append(v, time_of);
  run->WaitWritesDone();
  for (int64_t v = 4; v < 18; ++v) run->Append(v, time_of);

  uint64_t read_bytes = 0, hits = 0, misses = 0;
  auto cursor = run->MakeCursor(0, run->size(), &read_bytes, &hits,
                                &misses);
  std::vector<int64_t> got;
  for (auto chunk = cursor->NextChunk(); chunk.first != nullptr;
       chunk = cursor->NextChunk()) {
    got.insert(got.end(), chunk.first, chunk.second);
  }
  ASSERT_EQ(got.size(), 18u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(i));
  }
  cursor.reset();
  run->Discard();
}

// An inline flusher writes each block before the seal returns, and the
// seal recycles the written block's buffer as the next pending block: a
// run holds exactly one block buffer between seals — no in-flight copy,
// no second (spare) buffer, and no regrowth from empty.
TEST(RunStoreTest, InlineRunHoldsOneBlockBuffer) {
  TempDir dir;
  RunStoreOptions options;
  options.dir = dir.path() + "/store";
  options.fsync = false;
  std::string error;
  auto store = RunStore::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  const auto time_of = [](const int64_t& v) {
    return static_cast<Timestamp>(v);
  };

  SpillFlusher::Options fo;
  fo.threads = 0;
  SpillFlusher flusher(fo);
  constexpr size_t kBlock = 1024;
  constexpr size_t kBlockBytes = kBlock * sizeof(int64_t);
  auto run = SpilledRun<int64_t>::Create(store.get(), kBlock, &flusher,
                                         nullptr, &error);
  ASSERT_NE(run, nullptr) << error;
  for (int64_t v = 0; v < static_cast<int64_t>(8 * kBlock); ++v) {
    run->Append(v, time_of);
    if ((v + 1) % kBlock == 0) {
      // Just sealed: pending_ is empty but keeps the recycled buffer.
      EXPECT_GE(run->MemoryBytes(), kBlockBytes) << "v=" << v;
      EXPECT_LT(run->MemoryBytes(), 2 * kBlockBytes) << "v=" << v;
    }
  }
  EXPECT_EQ(flusher.stats().async_flushes, 8u);
  run->Discard();
}

}  // namespace
}  // namespace storage
}  // namespace impatience
