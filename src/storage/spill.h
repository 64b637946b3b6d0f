// Spill tier: typed view of run files for ImpatienceSorter.
//
// SpilledRun<T> is the disk-backed counterpart of an in-RAM run: elements
// append in sorted order, a head index tracks the emitted prefix, and the
// live suffix streams back at merge time through a RunCursor (sort/merge.h)
// so the k-way cursor merge treats disk and RAM runs uniformly. RAM cost
// per spilled run is bounded: one partial block of pending appends and a
// 32-byte index entry per on-disk block, plus one block-sized load buffer
// while a punctuation cuts and merges it — everything else lives in the
// RunStore's files.
//
// One write path: every sealed block is handed to a SpillFlusher through a
// per-run FIFO channel. An inline flusher (0 threads) writes it before the
// seal returns; a pool writes it behind the sorter thread. A sealed
// block's payload stays in RAM (and in the memory accounting) until its
// write is confirmed; until then every read path — the punctuation cut,
// the merge cursor — serves it from the in-flight copy, so the merge
// output is byte-identical whether a block is on disk, in flight, or
// pending. A failed write poisons the channel: that block and every later
// one stay pinned in RAM for the run's life, never lost.
//
// SpillSettings carries the policy knobs (budget, victim choice cadence,
// block size, flusher wiring, compaction thresholds) into
// ImpatienceConfig. The policy itself lives in the sorter, which owns the
// run metadata the coldest-first choice needs: every check_period pushes
// and at the end of every punctuation it compares max(own bytes, tracker)
// with its budget and spills its coldest runs. Run-file compaction and
// idle tail flushes run only when the owner calls the sorter's
// PerformSpillMaintenance at a quiet point. Framework unions
// (engine/ops_union.h) spill their buffers under the same settings;
// SpillTarget resolves them for both owners.

#ifndef IMPATIENCE_STORAGE_SPILL_H_
#define IMPATIENCE_STORAGE_SPILL_H_

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/memory_tracker.h"
#include "common/timestamp.h"
#include "sort/merge.h"
#include "storage/run_store.h"
#include "storage/spill_flusher.h"

namespace impatience {
namespace storage {

// Parses a byte-size string: decimal digits with an optional k/m/g suffix
// (case-insensitive, power-of-two). Returns 0 on anything malformed.
inline size_t ParseByteSize(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const unsigned long long v = strtoull(s, &end, 10);
  if (end == s) return 0;
  size_t shift = 0;
  if (*end == 'k' || *end == 'K') {
    shift = 10;
    ++end;
  } else if (*end == 'm' || *end == 'M') {
    shift = 20;
    ++end;
  } else if (*end == 'g' || *end == 'G') {
    shift = 30;
    ++end;
  }
  if (*end != '\0') return 0;
  return static_cast<size_t>(v) << shift;
}

// IMPATIENCE_MEMORY_BUDGET, parsed once per process (the forced-spill CI
// pass sets it before the test binary starts). 0 = unset.
inline size_t MemoryBudgetFromEnv() {
  static const size_t budget = ParseByteSize(getenv("IMPATIENCE_MEMORY_BUDGET"));
  return budget;
}

// Spill policy configuration, embedded in ImpatienceConfig.
struct SpillSettings {
  // Shared store (the server wires one per shard): the durable log
  // RunStore::Recover replays, so the sorter syncs it at every
  // punctuation. nullptr with a nonzero budget makes the sorter lazily
  // create a private temp-dir store at first spill, never synced — how the
  // forced-spill env pass runs every existing test under spilling without
  // any per-test setup.
  RunStore* store = nullptr;
  // Byte budget; spilling triggers when usage exceeds it. 0 defers to
  // IMPATIENCE_MEMORY_BUDGET (when use_env_default), else disables spill.
  size_t memory_budget = 0;
  // When set, the budget also gates on tracker->current_bytes() — the
  // pipeline-wide residency signal — not just this sorter's own bytes.
  MemoryTracker* tracker = nullptr;
  bool use_env_default = true;
  // Pushes between budget checks (checks scan all runs, so O(runs)).
  size_t check_period = 256;
  // Runs smaller than this stay in RAM unless nothing bigger exists —
  // spilling tiny runs buys no residency and costs a file.
  size_t min_spill_bytes = 4096;
  // Target payload bytes per on-disk block; bounds both the per-run
  // pending buffer and the read-back chunk size (the sorter derives
  // records-per-block as block_bytes / sizeof(T), at least 1).
  size_t block_bytes = 64 << 10;
  // Flusher that writes sealed blocks. A pool writes them off the sorter
  // thread and merge cursors prefetch through it. nullptr uses
  // storage::DefaultFlusher: the $IMPATIENCE_SPILL_FLUSHER_THREADS pool
  // when use_env_default is set and the variable is (the forced-async CI
  // pass), else the process-wide inline flusher.
  SpillFlusher* flusher = nullptr;
  // Disk compaction (PerformSpillMaintenance): rewrite a spilled run's
  // file once the emitted-prefix blocks hold at least this fraction of its
  // on-disk bytes...
  double compact_disk_fraction = 0.5;
  // ...and at least this many bytes would be reclaimed.
  size_t compact_min_disk_bytes = 256 << 10;
};

// One run spilled to a RunStore file. Indices are 0-based over the spilled
// content; `head` is the emitted prefix, `size` the total appended.
// Not thread-safe (owned by one sorter); the flusher pool only ever
// touches sealed payload buffers and the completion counter.
template <typename T>
class SpilledRun {
 public:
  // Creates the backing run file. Returns nullptr on I/O failure (the
  // caller keeps the run in RAM). Block writes go through a per-run
  // channel of `flusher` (required). `async_flushes` (may be nullptr)
  // counts blocks handed to it.
  static std::unique_ptr<SpilledRun<T>> Create(RunStore* store,
                                               size_t block_records,
                                               SpillFlusher* flusher,
                                               uint64_t* async_flushes = nullptr,
                                               std::string* error = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "spilled elements are raw-copied to disk");
    IMPATIENCE_CHECK(flusher != nullptr);
    uint64_t id = 0;
    std::unique_ptr<RunFileWriter> writer =
        store->BeginRun(sizeof(T), &id, error);
    if (writer == nullptr) return nullptr;
    return std::unique_ptr<SpilledRun<T>>(new SpilledRun<T>(
        store, id, std::move(writer), block_records, flusher,
        async_flushes));
  }

  ~SpilledRun() {
    // The file is deleted explicitly via Discard() when the run empties;
    // on destruction with live content the file stays — it is the WAL a
    // restart recovers from. In-flight writes must land before the
    // writer (whose fd the jobs use) goes away.
    WaitWritesDone();
    writer_.reset();
  }

  uint64_t id() const { return id_; }
  size_t size() const { return disk_records_ + pending_.size(); }
  size_t head() const { return head_; }
  bool empty() const { return head_ >= size(); }

  // Appends `n` elements (sorted, >= everything already appended). Returns
  // the number of bytes handed to the disk tier (full blocks only).
  template <typename TimeOf>
  uint64_t AppendRange(const T* items, size_t n, TimeOf time_of) {
    uint64_t flushed = 0;
    while (n > 0) {
      const size_t take = std::min(n, block_records_ - pending_.size());
      pending_.insert(pending_.end(), items, items + take);
      items += take;
      n -= take;
      if (pending_.size() == block_records_) {
        flushed += FlushPending(time_of, /*sync=*/false);
      }
    }
    return flushed;
  }

  template <typename TimeOf>
  uint64_t Append(const T& item, TimeOf time_of) {
    return AppendRange(&item, 1, time_of);
  }

  // Seals the pending partial block (if any) and hands it to the disk
  // tier; with `sync`, waits for every in-flight block and fsyncs so
  // everything appended so far is durable.
  template <typename TimeOf>
  uint64_t FlushPending(TimeOf time_of, bool sync) {
    uint64_t flushed = 0;
    if (!pending_.empty()) {
      BlockRef ref;
      ref.offset = next_offset_;
      ref.start_index = disk_records_;
      ref.count = static_cast<uint32_t>(pending_.size());
      ref.first_time = time_of(pending_.front());
      ref.last_time = time_of(pending_.back());
      flushed += SealPending(ref);
    }
    if (sync) {
      WaitWritesDone();
      if (!write_failed_) {
        std::string error;
        writer_->Sync(&error);
      }
    }
    return flushed;
  }

  // Blocks until every block handed to the flusher has been written (or
  // skipped after an I/O failure) and reclaims their RAM copies.
  void WaitWritesDone() {
    channel_->Wait();
    Harvest();
  }

  // Reclaims RAM copies of blocks the flusher has confirmed written and
  // latches the channel's failure state.
  void Harvest() {
    const uint64_t done =
        written_blocks_->load(std::memory_order_acquire);
    while (harvested_blocks_ < done) {
      Inflight& f = inflight_.front();
      inflight_bytes_ -= f.payload->size() * sizeof(T);
      if (f.payload.use_count() == 1) {
        // Recycle the block buffer, into an empty pending_ first: an
        // inline run then holds one block buffer, a write-behind run at
        // most two (pending_ plus spare_), and steady-state appends
        // allocate nothing.
        std::vector<T>& slot = pending_.capacity() == 0 ? pending_ : spare_;
        if (slot.capacity() == 0) {
          slot = std::move(*f.payload);
          slot.clear();
        }
      }
      inflight_.pop_front();
      ++harvested_blocks_;
    }
    if (channel_->failed()) write_failed_ = true;
  }

  // Counts the live elements (index >= head) with time <= t and reports
  // the time of the first survivor (kMaxTimestamp when none). Requires at
  // least one live element with time <= t (the sorter only cuts runs whose
  // head time passed the punctuation). Reads back at most one block;
  // bytes read are added to *read_bytes.
  template <typename TimeOf>
  size_t CutCountLE(Timestamp t, TimeOf time_of, Timestamp* next_head_time,
                    uint64_t* read_bytes) {
    size_t count = 0;
    for (size_t b = FirstLiveBlock(); b < blocks_.size(); ++b) {
      const BlockRef& ref = blocks_[b];
      const size_t lo = std::max<uint64_t>(ref.start_index, head_);
      if (ref.last_time <= t) {
        count += ref.start_index + ref.count - lo;
        continue;
      }
      if (ref.first_time > t && lo == ref.start_index) {
        // Nothing in this block (or after) releases, and its first
        // element is the next head — no load needed.
        *next_head_time = ref.first_time;
        return count;
      }
      // Boundary block: load it and find the first element > t.
      LoadBlock(b, read_bytes);
      const size_t begin = lo - ref.start_index;
      size_t pos = begin, hi = ref.count;
      while (pos < hi) {
        const size_t mid = (pos + hi) / 2;
        if (time_of(load_buf_[mid]) <= t) {
          pos = mid + 1;
        } else {
          hi = mid;
        }
      }
      count += pos - begin;
      *next_head_time = time_of(load_buf_[pos]);  // pos < count here.
      return count;
    }
    // All disk blocks released; the boundary (if any) is in pending_.
    const size_t lo = std::max<uint64_t>(disk_records_, head_) -
                      disk_records_;
    size_t pos = lo, hi = pending_.size();
    while (pos < hi) {
      const size_t mid = (pos + hi) / 2;
      if (time_of(pending_[mid]) <= t) {
        pos = mid + 1;
      } else {
        hi = mid;
      }
    }
    count += pos - lo;
    *next_head_time =
        pos < pending_.size() ? time_of(pending_[pos]) : kMaxTimestamp;
    return count;
  }

  // Marks [0, new_head) emitted. Prunes index entries for fully-consumed
  // blocks and records the advance in the manifest (the durable head a
  // restart resumes from).
  void AdvanceHead(size_t new_head) {
    IMPATIENCE_DCHECK(new_head >= head_ && new_head <= size());
    head_ = new_head;
    const size_t drop = FirstLiveBlock();
    if (drop > 0) blocks_.erase(blocks_.begin(), blocks_.begin() + drop);
    store_->AdvanceHead(id_, head_ - base_index_, nullptr);
  }

  // Deletes the backing file (run fully consumed).
  void Discard() {
    WaitWritesDone();
    writer_.reset();
    store_->DeleteRun(id_, nullptr);
  }

  // Streaming cursor over live elements [begin, end) (absolute indices).
  // The SpilledRun must outlive the cursor and not be appended to while
  // the cursor is live. Chunks are served from the run's load buffer.
  // When the flusher has threads, the cursor prefetches each next block
  // through it while the merge consumes the current one; ra_hits and
  // ra_misses (may be nullptr) count prefetches that were ready in time
  // vs blocks read from disk on the merge thread.
  std::unique_ptr<RunCursor<T>> MakeCursor(size_t begin, size_t end,
                                           uint64_t* read_bytes,
                                           uint64_t* ra_hits = nullptr,
                                           uint64_t* ra_misses = nullptr) {
    return std::unique_ptr<RunCursor<T>>(
        new Cursor(this, begin, end, read_bytes, ra_hits, ra_misses));
  }

  // RAM held by this spilled run: pending appends, sealed blocks waiting
  // on the flusher (or pinned by a failed write), block index, and the
  // read buffers until TrimScratch frees them.
  size_t MemoryBytes() const {
    return pending_.capacity() * sizeof(T) + inflight_bytes_ +
           spare_.capacity() * sizeof(T) +
           blocks_.capacity() * sizeof(BlockRef) +
           load_buf_.capacity() * sizeof(T) + raw_buf_.capacity();
  }

  // Bytes of sealed blocks whose writes are not yet reclaimed (always 0
  // behind an inline flusher, unless a write failed).
  size_t inflight_bytes() const { return inflight_bytes_; }

  // Frees the recycled block buffer a write-behind run keeps for its next
  // seal (an inline run never holds one).
  void ReleaseSpare() { std::vector<T>().swap(spare_); }

  // Frees the read buffers a cut or merge cursor filled: the decoded load
  // buffer and the raw read buffer behind it, a block each. The owner
  // calls it once a punctuation's merge is done, so a spilled run pins no
  // read buffer between punctuations; the next cut may then read its
  // boundary block again.
  void TrimScratch() {
    std::vector<T>().swap(load_buf_);
    std::vector<uint8_t>().swap(raw_buf_);
    load_offset_ = UINT64_MAX;
  }

  // Total file bytes, including the emitted prefix not yet reclaimed.
  uint64_t DiskBytes() const { return next_offset_; }

  // True while a partial tail block sits in RAM with nothing scheduled to
  // write it — what an idle tail flush writes out.
  bool HasUnflushedTail() const { return !pending_.empty(); }

  // True once a block write failed: that block and every later one stay
  // in RAM for the rest of the run's life.
  bool write_failed() const { return channel_->failed(); }

  // File bytes occupied by fully-emitted blocks — what a CompactDisk
  // would reclaim.
  uint64_t ReclaimableDiskBytes() const {
    const uint64_t first_live =
        blocks_.empty() ? next_offset_ : blocks_.front().offset;
    return first_live - kRunFileHeaderBytes;
  }

  // A run file is worth rewriting once its fully-emitted prefix holds both
  // an absolute floor of bytes and a fraction of the whole file.
  bool CompactionWorthy(const SpillSettings& settings) const {
    const uint64_t reclaim = ReclaimableDiskBytes();
    return reclaim >= settings.compact_min_disk_bytes &&
           static_cast<double>(reclaim) >=
               settings.compact_disk_fraction *
                   static_cast<double>(DiskBytes());
  }

  // Rewrites the live suffix into a fresh run file and atomically swaps
  // it in (manifest compact-swap record), reclaiming the disk held by the
  // emitted prefix. Waits for in-flight writes first. Returns the file
  // bytes reclaimed; 0 means skipped or failed (the run is untouched —
  // failure leaves the old file fully authoritative). Call between
  // punctuations only: live cursors hold offsets into the old file.
  template <typename TimeOf>
  uint64_t CompactDisk(TimeOf time_of, uint64_t* read_bytes) {
    WaitWritesDone();
    if (write_failed_ || ReclaimableDiskBytes() == 0) return 0;
    const uint64_t old_bytes = next_offset_;
    uint64_t new_id = 0;
    std::string error;
    std::unique_ptr<RunFileWriter> staging =
        store_->BeginHiddenRun(sizeof(T), &new_id, &error);
    if (staging == nullptr) return 0;
    // Stream the live blocks across. The boundary block may be partially
    // emitted; only its live tail is kept, so indices rebase to the new
    // file while staying absolute in blocks_ (via base_index_).
    std::vector<BlockRef> new_blocks;
    uint64_t new_offset = kRunFileHeaderBytes;
    const uint64_t new_base =
        blocks_.empty() ? disk_records_ : blocks_.front().start_index;
    for (const BlockRef& ref : blocks_) {
      LoadBlock(BlockIndexOf(ref), read_bytes);
      const size_t lo =
          std::max<uint64_t>(ref.start_index, head_) - ref.start_index;
      const uint32_t keep = ref.count - static_cast<uint32_t>(lo);
      if (keep == 0) continue;
      if (!staging->AppendBlock(
              reinterpret_cast<const uint8_t*>(load_buf_.data() + lo),
              keep, &error)) {
        store_->DeleteRun(new_id, nullptr);
        return 0;
      }
      BlockRef moved;
      moved.offset = new_offset;
      moved.start_index = ref.start_index + lo;
      moved.count = keep;
      moved.first_time = time_of(load_buf_[lo]);
      moved.last_time = ref.last_time;
      new_blocks.push_back(moved);
      new_offset += kRunBlockHeaderBytes +
                    static_cast<uint64_t>(keep) * sizeof(T);
    }
    if (store_->fsync_enabled() && !staging->Sync(&error)) {
      store_->DeleteRun(new_id, nullptr);
      return 0;
    }
    // The atomic step. After this record the staging file is the run.
    if (!store_->CommitCompaction(new_id, id_, &error)) {
      store_->DeleteRun(new_id, nullptr);
      return 0;
    }
    writer_ = std::move(staging);
    id_ = new_id;
    blocks_ = std::move(new_blocks);
    base_index_ = blocks_.empty() ? new_base : blocks_.front().start_index;
    next_offset_ = new_offset;
    TrimScratch();  // The cached block's offset belongs to the old file.
    // Re-record the durable head in the new file's index space.
    store_->AdvanceHead(id_, head_ - base_index_, nullptr);
    return old_bytes - new_offset;
  }

 private:
  struct BlockRef {
    uint64_t offset = 0;       // File offset of the block header.
    uint64_t start_index = 0;  // Absolute index of the block's first record.
    uint32_t count = 0;
    Timestamp first_time = 0;
    Timestamp last_time = 0;
  };

  struct Inflight {
    BlockRef ref;
    std::shared_ptr<std::vector<T>> payload;
  };

  SpilledRun(RunStore* store, uint64_t id,
             std::unique_ptr<RunFileWriter> writer, size_t block_records,
             SpillFlusher* flusher, uint64_t* async_flushes)
      : store_(store),
        id_(id),
        writer_(std::move(writer)),
        block_records_(std::max<size_t>(1, block_records)),
        flusher_(flusher),
        async_flushes_(async_flushes),
        channel_(flusher->NewChannel()),
        written_blocks_(std::make_shared<std::atomic<uint64_t>>(0)),
        next_offset_(writer_->next_block_offset()) {}

  // Index of the first block with live records.
  size_t FirstLiveBlock() const {
    size_t b = 0;
    while (b < blocks_.size() &&
           blocks_[b].start_index + blocks_[b].count <= head_) {
      ++b;
    }
    return b;
  }

  size_t BlockIndexOf(const BlockRef& ref) const {
    return static_cast<size_t>(&ref - blocks_.data());
  }

  // The seal: the block enters the index immediately, its payload moves
  // to the in-flight queue (still RAM-accounted and readable), and the
  // write job goes to the per-run channel. After an I/O failure the
  // channel is poisoned — later blocks stay in RAM for the rest of the
  // run's life rather than risk appends at wrong offsets. The closing
  // Harvest reclaims an inline write's RAM copy before the seal returns.
  uint64_t SealPending(const BlockRef& ref) {
    // The in-flight entry and the write job are the payload's only owners,
    // so the closing Harvest can recycle the buffer of a finished write.
    inflight_.push_back(Inflight{
        ref, std::make_shared<std::vector<T>>(std::move(pending_))});
    pending_ = std::move(spare_);
    spare_ = std::vector<T>();
    pending_.clear();
    // Behind a pool the sealed buffer comes back only once its write
    // lands: give the next block a buffer of exactly one block, so the
    // run's footprint does not depend on when writes land.
    if (pending_.capacity() == 0 && flusher_->threads() > 0) {
      pending_.reserve(block_records_);
    }
    inflight_bytes_ += static_cast<size_t>(ref.count) * sizeof(T);
    CommitSeal(ref);
    if (!write_failed_) {
      if (async_flushes_ != nullptr) ++*async_flushes_;
      RunFileWriter* writer = writer_.get();
      std::shared_ptr<std::atomic<uint64_t>> written = written_blocks_;
      const uint32_t count = ref.count;
      channel_->Enqueue(
          [writer, payload = inflight_.back().payload, count, written]() {
            std::string error;
            if (!writer->AppendBlock(
                    reinterpret_cast<const uint8_t*>(payload->data()),
                    count, &error)) {
              return false;
            }
            written->fetch_add(1, std::memory_order_release);
            return true;
          },
          kRunBlockHeaderBytes +
              static_cast<uint64_t>(count) * sizeof(T));
    }
    Harvest();
    return kRunBlockHeaderBytes +
           static_cast<uint64_t>(ref.count) * sizeof(T);
  }

  void CommitSeal(const BlockRef& ref) {
    blocks_.push_back(ref);
    disk_records_ += ref.count;
    next_offset_ +=
        kRunBlockHeaderBytes + static_cast<uint64_t>(ref.count) * sizeof(T);
  }

  // Serves `ref` from an in-flight RAM copy if its write has not been
  // confirmed yet. Only the sorter thread touches inflight_, so this is
  // race-free against the flusher (which reads payloads it co-owns).
  bool CopyFromInflight(const BlockRef& ref, std::vector<T>* out) {
    for (const Inflight& f : inflight_) {
      if (f.ref.offset == ref.offset) {
        out->assign(f.payload->begin(), f.payload->end());
        return true;
      }
    }
    return false;
  }

  // Makes load_buf_ hold block `b`: the cached copy, else the in-flight
  // RAM copy, else a disk read. The cache is keyed by file offset, not
  // block index: AdvanceHead prunes consumed entries from blocks_, so an
  // index names different blocks over time. Returns true when it read the
  // disk.
  bool LoadBlock(size_t b, uint64_t* read_bytes) {
    const BlockRef& ref = blocks_[b];
    if (load_offset_ == ref.offset) return false;
    Harvest();
    if (CopyFromInflight(ref, &load_buf_)) {
      load_offset_ = ref.offset;
      return false;  // Served from RAM; no disk read to account.
    }
    uint32_t count = 0;
    const BlockReadStatus status = ReadBlockAt(
        writer_->fd(), ref.offset, sizeof(T), &raw_buf_, &count, nullptr);
    InstallBlock(ref, status, count, raw_buf_, read_bytes);
    return true;
  }

  // Copies a block read from the run file into load_buf_ and accounts the
  // bytes. Only confirmed writes are ever read back, and the write path
  // already CRC'd them; a failed read here means the device corrupted
  // them underneath a live process, which is a hard failure, not a
  // recovery case.
  void InstallBlock(const BlockRef& ref, BlockReadStatus status,
                    uint32_t count, const std::vector<uint8_t>& raw,
                    uint64_t* read_bytes) {
    IMPATIENCE_CHECK_MSG(
        status == BlockReadStatus::kOk && count == ref.count,
        "spilled block unreadable under a live writer");
    load_buf_.resize(count);
    memcpy(load_buf_.data(), raw.data(),
           static_cast<size_t>(count) * sizeof(T));
    if (read_bytes != nullptr) {
      *read_bytes +=
          kRunBlockHeaderBytes + static_cast<uint64_t>(count) * sizeof(T);
    }
    load_offset_ = ref.offset;
  }

  class Cursor final : public RunCursor<T> {
   public:
    Cursor(SpilledRun<T>* run, size_t begin, size_t end,
           uint64_t* read_bytes, uint64_t* ra_hits, uint64_t* ra_misses)
        : run_(run),
          pos_(begin),
          end_(end),
          read_bytes_(read_bytes),
          ra_hits_(ra_hits),
          ra_misses_(ra_misses),
          ra_channel_(run->flusher_->NewChannel()) {}

    ~Cursor() override {
      // The prefetch job writes into the slot buffer owned here.
      ra_channel_->Wait();
    }

    size_t total() const override { return end_ - pos0_init_; }

    std::pair<const T*, const T*> NextChunk() override {
      if (pos_ >= end_) return {nullptr, nullptr};
      // Disk part: one block per chunk.
      if (pos_ < run_->disk_records_) {
        const size_t b = BlockOf(pos_);
        const auto& ref = run_->blocks_[b];
        Load(b);
        const T* data = run_->load_buf_.data();
        const size_t lo = pos_ - ref.start_index;
        const size_t hi = std::min<uint64_t>(
            ref.count, end_ - ref.start_index);
        pos_ = ref.start_index + hi;
        return {data + lo, data + hi};
      }
      // RAM tail: the pending partial block, one final chunk.
      const size_t lo = pos_ - run_->disk_records_;
      const size_t hi = end_ - run_->disk_records_;
      pos_ = end_;
      return {run_->pending_.data() + lo, run_->pending_.data() + hi};
    }

   private:
    // Puts block b in the run's load buffer: a landed prefetch counts as a
    // hit; the in-flight copy and the buffer's cached block (the cut's
    // boundary block, often) need no read; anything else is a disk read
    // on the merge thread, a miss. Then prefetches the next block.
    void Load(size_t b) {
      const BlockRef& ref = run_->blocks_[b];
      ra_channel_->Wait();  // A pending prefetch owns the slot buffer.
      if (prefetch_offset_ == ref.offset) {
        // Prefetches target confirmed writes only, which never return
        // to the in-flight queue, so the landed slot is the block.
        run_->InstallBlock(ref, slot_status_, slot_count_, slot_raw_,
                           read_bytes_);
        if (ra_hits_ != nullptr) ++*ra_hits_;
      } else if (run_->LoadBlock(b, read_bytes_) && ra_misses_ != nullptr) {
        ++*ra_misses_;
      }
      prefetch_offset_ = UINT64_MAX;
      IssuePrefetch(b);
    }

    // Queues a read of the block after `b` if the flusher has threads to
    // run it, the merge will consume it, and it lives on disk (in-flight
    // blocks are already in RAM).
    void IssuePrefetch(size_t b) {
      if (run_->flusher_->threads() == 0) return;
      const size_t next = b + 1;
      if (next >= run_->blocks_.size()) return;
      const auto& ref = run_->blocks_[next];
      if (ref.start_index >= end_) return;
      for (const Inflight& f : run_->inflight_) {
        if (f.ref.offset == ref.offset) return;
      }
      prefetch_offset_ = ref.offset;
      const int fd = run_->writer_->fd();
      const uint64_t offset = ref.offset;
      ra_channel_->Enqueue(
          [this, fd, offset]() {
            slot_status_ = ReadBlockAt(fd, offset, sizeof(T), &slot_raw_,
                                       &slot_count_, nullptr);
            return true;  // A failed read is a CHECK at consume time.
          },
          0);  // Reads don't count against the write in-flight cap.
    }

    size_t BlockOf(size_t index) const {
      // Blocks are index-ordered; binary search by start_index.
      const auto& blocks = run_->blocks_;
      size_t lo = 0, hi = blocks.size();
      while (lo + 1 < hi) {
        const size_t mid = (lo + hi) / 2;
        if (blocks[mid].start_index <= index) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      return lo;
    }

    SpilledRun<T>* run_;
    size_t pos_;
    const size_t pos0_init_ = pos_;
    size_t end_;
    uint64_t* read_bytes_;
    uint64_t* ra_hits_;
    uint64_t* ra_misses_;
    std::shared_ptr<SpillFlusher::Channel> ra_channel_;
    std::vector<uint8_t> slot_raw_;  // Prefetch landing buffer.
    uint32_t slot_count_ = 0;
    BlockReadStatus slot_status_ = BlockReadStatus::kEof;
    // File offset of the block the last prefetch read (UINT64_MAX = none).
    uint64_t prefetch_offset_ = UINT64_MAX;
  };

  RunStore* store_;
  uint64_t id_;
  std::unique_ptr<RunFileWriter> writer_;
  size_t block_records_;
  SpillFlusher* flusher_;
  uint64_t* async_flushes_;
  std::shared_ptr<SpillFlusher::Channel> channel_;
  std::vector<BlockRef> blocks_;
  std::vector<T> pending_;
  std::vector<T> spare_;  // Recycled block buffer (double buffering).
  std::deque<Inflight> inflight_;
  std::shared_ptr<std::atomic<uint64_t>> written_blocks_;
  uint64_t harvested_blocks_ = 0;
  size_t inflight_bytes_ = 0;
  bool write_failed_ = false;
  uint64_t disk_records_ = 0;
  size_t head_ = 0;
  // Absolute index of the file's first record (nonzero after CompactDisk
  // drops the emitted prefix; manifest heads are file-relative).
  uint64_t base_index_ = 0;
  uint64_t next_offset_ = 0;  // File offset of the next sealed block.
  std::vector<uint8_t> raw_buf_;
  std::vector<T> load_buf_;
  // File offset of the block currently in load_buf_ (UINT64_MAX = none).
  uint64_t load_offset_ = UINT64_MAX;

  friend class Cursor;
};

// One spilling owner's resolved SpillSettings, shared by ImpatienceSorter
// and UnionMergeOp: the byte budget (memory_budget, else
// IMPATIENCE_MEMORY_BUDGET when use_env_default; 0 = never spill), the
// flusher (flusher, else DefaultFlusher), records per block, and the store
// new runs go to. A shared owner writes to settings.store when one is
// set; a private owner, or any owner without one, writes to a temp store
// created at its first spill, under settings.store's directory when set
// (else $TMPDIR). Temp stores are never recovered; a stale one is removed
// by the next RunStore::Recover of its parent. Element types that are not
// trivially copyable never spill.
template <typename T>
class SpillTarget {
 public:
  SpillTarget(const SpillSettings& settings, bool private_store)
      : settings_(settings), private_store_(private_store) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      budget_ = settings.memory_budget;
      if (budget_ == 0 && settings.use_env_default) {
        budget_ = MemoryBudgetFromEnv();
      }
      flusher_ = settings.flusher != nullptr
                     ? settings.flusher
                     : DefaultFlusher(settings.use_env_default);
      block_records_ = std::max<size_t>(1, settings.block_bytes / sizeof(T));
    }
  }

  const SpillSettings& settings() const { return settings_; }
  size_t budget() const { return budget_; }
  SpillFlusher* flusher() const { return flusher_; }

  // Starts a new spilled run. On a store or file failure, disables
  // spilling (budget() reads 0 from then on) and returns nullptr, so the
  // caller keeps its data in RAM.
  std::unique_ptr<SpilledRun<T>> NewRun(uint64_t* async_flushes = nullptr) {
    RunStore* store = Store();
    std::unique_ptr<SpilledRun<T>> run =
        store == nullptr ? nullptr
                         : SpilledRun<T>::Create(store, block_records_,
                                                 flusher_, async_flushes);
    if (run == nullptr) budget_ = 0;
    return run;
  }

 private:
  RunStore* Store() {
    if (settings_.store != nullptr && !private_store_) return settings_.store;
    if (owned_store_ == nullptr) {
      std::string error;
      owned_store_ = RunStore::CreateTemp(
          &error, settings_.store != nullptr ? settings_.store->dir() : "");
    }
    return owned_store_.get();
  }

  const SpillSettings settings_;
  const bool private_store_;
  size_t budget_ = 0;
  SpillFlusher* flusher_ = nullptr;
  size_t block_records_ = 1;
  // Owners declare their SpillTarget before their spilled runs, so the
  // runs (which reference this store) are destroyed first.
  std::unique_ptr<RunStore> owned_store_;
};

// Replays a recovered run's durable, un-emitted records [head, records)
// through `fn(const T&)` in order. Returns false when the file cannot be
// read (already-truncated tails are not errors — the scan stops cleanly).
template <typename T, typename Fn>
bool ReplayRecoveredRun(const RecoveredRun& run, Fn fn, uint64_t* read_bytes,
                        std::string* error) {
  if (run.record_size != sizeof(T)) {
    if (error != nullptr) {
      *error = "record size mismatch replaying " + run.path;
    }
    return false;
  }
  std::unique_ptr<RunFileReader> reader = RunFileReader::Open(run.path, error);
  if (reader == nullptr) return false;
  std::vector<uint8_t> payload;
  uint32_t count = 0;
  uint64_t index = 0;
  T item;
  while (index < run.records &&
         reader->NextBlock(&payload, &count) == BlockReadStatus::kOk) {
    if (read_bytes != nullptr) {
      *read_bytes += kRunBlockHeaderBytes + payload.size();
    }
    for (uint32_t i = 0; i < count && index < run.records; ++i, ++index) {
      if (index < run.head) continue;  // Already emitted before the crash.
      memcpy(&item, payload.data() + static_cast<size_t>(i) * sizeof(T),
             sizeof(T));
      fn(item);
    }
  }
  return true;
}

}  // namespace storage
}  // namespace impatience

#endif  // IMPATIENCE_STORAGE_SPILL_H_
