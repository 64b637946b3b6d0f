// Union of two in-order streams (paper §V-A), plus a Tee splitter.
//
// UnionMergeOp merges two sorted streams into one sorted stream. It is the
// framework's synchronization point: an event from the fast input cannot be
// released until the slow input's punctuation proves nothing earlier is
// still coming, so the fast input's events are buffered meanwhile. The
// bytes buffered here are exactly the memory cost Figure 10(b)/(d)
// measures — large when raw events are buffered (basic framework), small
// when only partial aggregates are (advanced framework).
//
// Under a memory budget those bytes spill like sorter runs
// (storage/spill.h). Each input side is a RAM deque head plus an optional
// disk tail (a SpilledRun): appends go to the tail while it holds
// anything, else to the deque. Once per input batch the union compares
// max(own bytes, tracker) with the budget; over it, each side still in RAM
// keeps the prefix the next drains will likely take (up to the last
// emitted watermark plus twice the last watermark step) and moves the
// rest to a new tail. A drain takes the deque first, then the tail
// through a cursor; a tail that drains empty is deleted and the side is
// back in RAM, and one that stays live is compacted under the sorters'
// rule (SpilledRun::CompactionWorthy), so its file stays within a
// constant factor of its live bytes. The merge and its tie rule are the
// same either way, so the output is byte-identical with or without a
// budget. Tails live in a private temp store (storage::SpillTarget) under
// the configured store's directory, never in the durable store a restart
// recovers from: union contents are not durable, on disk or in RAM.

#ifndef IMPATIENCE_ENGINE_OPS_UNION_H_
#define IMPATIENCE_ENGINE_OPS_UNION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/event.h"
#include "common/memory_tracker.h"
#include "engine/batch.h"
#include "engine/node.h"
#include "sort/merge.h"
#include "storage/spill.h"

namespace impatience {

// Spill statistics of union operators (summed across a pipeline's unions).
struct UnionSpillCounters {
  uint64_t sides_spilled = 0;  // Sides moved to a disk tail.
  uint64_t bytes_written = 0;  // Bytes handed to tail run files.
  uint64_t bytes_read = 0;     // Bytes read back from tail run files.

  UnionSpillCounters& operator+=(const UnionSpillCounters& other) {
    sides_spilled += other.sides_spilled;
    bytes_written += other.bytes_written;
    bytes_read += other.bytes_read;
    return *this;
  }
};

// Two-input synchronizing merge. Wire producers to input(0) and input(1).
// `spill` supplies the budget, tracker, flusher, block_bytes,
// min_spill_bytes and compaction thresholds the band sorters use; its
// store only names the directory of the union's private one.
template <int W>
class UnionMergeOp : public Emitter<W> {
 public:
  explicit UnionMergeOp(MemoryTracker* tracker = nullptr,
                        size_t batch_size = kDefaultBatchSize,
                        const storage::SpillSettings& spill = {})
      : reservation_(tracker),
        builder_(batch_size),
        inputs_{InputPort(this, 0), InputPort(this, 1)},
        spill_(spill, /*private_store=*/true) {}

  // The sink for input stream `i` (0 or 1).
  Sink<W>* input(int i) {
    IMPATIENCE_CHECK(i == 0 || i == 1);
    return &inputs_[i];
  }

  void SetDownstream(Sink<W>* downstream) override {
    IMPATIENCE_CHECK(downstream_ == nullptr);
    downstream_ = downstream;
  }

  // True while input `i` has a disk tail.
  bool side_spilled(int i) const {
    IMPATIENCE_CHECK(i == 0 || i == 1);
    return sides_[i].tail != nullptr;
  }

  // File bytes of both tails, emitted prefixes not yet compacted away
  // included.
  uint64_t DiskBytes() const {
    uint64_t bytes = 0;
    for (const Side& side : sides_) {
      if (side.tail != nullptr) bytes += side.tail->DiskBytes();
    }
    return bytes;
  }

  // Spill statistics; `reset` zeroes them in the same touch. Safe to call
  // from another thread than the one driving the union.
  UnionSpillCounters Counters(bool reset = false) {
    auto read = [reset](std::atomic<uint64_t>& c) {
      return reset ? c.exchange(0, std::memory_order_relaxed)
                   : c.load(std::memory_order_relaxed);
    };
    UnionSpillCounters out;
    out.sides_spilled = read(sides_spilled_);
    out.bytes_written = read(bytes_written_);
    out.bytes_read = read(bytes_read_);
    return out;
  }

 private:
  using Row = BasicEvent<W>;
  using Tail = storage::SpilledRun<Row>;

  // One input's buffered events: every event in `buffer` precedes every
  // event in `tail`.
  struct Side {
    std::deque<Row> buffer;
    std::unique_ptr<Tail> tail;       // nullptr while the side is in RAM.
    Timestamp tail_head_time = kMaxTimestamp;  // First live tail event.
    Timestamp watermark = kMinTimestamp;
    bool flushed = false;

    Timestamp effective_watermark() const {
      return flushed ? kMaxTimestamp : watermark;
    }
  };

  // Adapter giving each input its own Sink identity.
  class InputPort : public Sink<W> {
   public:
    InputPort(UnionMergeOp* parent, int index)
        : parent_(parent), index_(index) {}
    void OnBatch(const EventBatch<W>& batch) override {
      parent_->HandleBatch(index_, batch);
    }
    void OnPunctuation(Timestamp t) override {
      parent_->HandlePunctuation(index_, t);
    }
    void OnFlush() override { parent_->HandleFlush(index_); }

   private:
    UnionMergeOp* parent_;
    int index_;
  };

  // Streams one side's events at or before a drain's limit: the deque's
  // ready prefix, then the tail's cut through a cursor. Bytes read from
  // the tail file are added to *read_bytes.
  class SideReader {
   public:
    SideReader(Side* side, Timestamp limit, uint64_t* read_bytes)
        : side_(side), limit_(limit), read_bytes_(read_bytes) {
      if (side->tail == nullptr || side->tail_head_time > limit) return;
      const size_t head = side->tail->head();
      cut_end_ = head + side->tail->CutCountLE(limit, SyncTimeOf(),
                                               &next_head_time_, read_bytes);
      cursor_ = side->tail->MakeCursor(head, cut_end_, read_bytes);
    }

    // The side's next ready event, or nullptr.
    const Row* Peek() {
      if (!side_->buffer.empty()) {
        return side_->buffer.front().sync_time <= limit_
                   ? &side_->buffer.front()
                   : nullptr;
      }
      if (next_ == end_ && cursor_ != nullptr) {
        std::tie(next_, end_) = cursor_->NextChunk();
      }
      return next_ != end_ ? next_ : nullptr;
    }

    // Consumes the event Peek() returned.
    void Pop() {
      if (!side_->buffer.empty()) {
        side_->buffer.pop_front();
      } else {
        ++next_;
      }
    }

    // Records the emitted tail cut; a tail left empty is deleted, one
    // whose emitted prefix is worth reclaiming is compacted.
    void Finish(const storage::SpillSettings& settings) {
      if (cursor_ == nullptr) return;
      cursor_.reset();
      Tail& tail = *side_->tail;
      tail.AdvanceHead(cut_end_);
      tail.TrimScratch();
      side_->tail_head_time = next_head_time_;
      if (tail.empty()) {
        tail.Discard();
        side_->tail.reset();
      } else if (tail.CompactionWorthy(settings)) {
        tail.CompactDisk(SyncTimeOf(), read_bytes_);
      }
    }

   private:
    Side* side_;
    Timestamp limit_;
    uint64_t* read_bytes_;
    std::unique_ptr<RunCursor<Row>> cursor_;
    size_t cut_end_ = 0;
    Timestamp next_head_time_ = kMaxTimestamp;
    const Row* next_ = nullptr;
    const Row* end_ = nullptr;
  };

  void HandleBatch(int index, const EventBatch<W>& batch) {
    Side& side = sides_[index];
    IMPATIENCE_CHECK(!side.flushed);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch.filtered.Test(i)) continue;
      const Row row = batch.RowAt(i);
      if (__builtin_expect(side.tail != nullptr, 0)) {
        bytes_written_.fetch_add(side.tail->Append(row, SyncTimeOf()),
                                 std::memory_order_relaxed);
        continue;
      }
      IMPATIENCE_DCHECK(side.buffer.empty() ||
                        side.buffer.back().sync_time <= row.sync_time);
      side.buffer.push_back(row);
    }
    if (__builtin_expect(spill_.budget() != 0, 0)) MaybeSpill();
    UpdateReservation();
  }

  void HandlePunctuation(int index, Timestamp t) {
    Side& side = sides_[index];
    side.watermark = std::max(side.watermark, t);
    Drain();
  }

  void HandleFlush(int index) {
    sides_[index].flushed = true;
    Drain();
    if (sides_[0].flushed && sides_[1].flushed) {
      builder_.Flush(downstream_);
      downstream_->OnFlush();
    }
  }

  // Emits every buffered event at or before min(watermarks), in merged
  // order, then forwards the joint punctuation.
  void Drain() {
    const Timestamp limit = std::min(sides_[0].effective_watermark(),
                                     sides_[1].effective_watermark());
    if (limit == kMinTimestamp) return;
    uint64_t read_bytes = 0;
    SideReader readers[2] = {SideReader(&sides_[0], limit, &read_bytes),
                             SideReader(&sides_[1], limit, &read_bytes)};
    while (true) {
      const Row* a = readers[0].Peek();
      const Row* b = readers[1].Peek();
      if (a == nullptr && b == nullptr) break;
      // Ties go to input 0 (the lower-latency stream in the framework).
      const int pick = b == nullptr || (a != nullptr && a->sync_time <=
                                                            b->sync_time)
                           ? 0
                           : 1;
      builder_.Append(pick == 0 ? *a : *b, downstream_);
      readers[pick].Pop();
    }
    readers[0].Finish(spill_.settings());
    readers[1].Finish(spill_.settings());
    if (read_bytes != 0) {
      bytes_read_.fetch_add(read_bytes, std::memory_order_relaxed);
    }
    UpdateReservation();
    if (limit > emitted_watermark_ && limit != kMaxTimestamp) {
      builder_.Flush(downstream_);
      downstream_->OnPunctuation(limit);
      if (emitted_watermark_ != kMinTimestamp &&
          __builtin_sub_overflow(limit, emitted_watermark_, &watermark_step_)) {
        watermark_step_ = kMaxTimestamp;
      }
      emitted_watermark_ = limit;
    }
  }

  // Over budget, moves each RAM side's buffer beyond what the next drains
  // will likely take to a new disk tail, if that is at least
  // min_spill_bytes. Sides that already have a tail take their appends
  // on disk and are left alone.
  void MaybeSpill() {
    const storage::SpillSettings& settings = spill_.settings();
    size_t used = MemoryBytes();
    if (settings.tracker != nullptr) {
      used = std::max(used, settings.tracker->current_bytes());
    }
    if (used <= spill_.budget()) return;
    // Saturating emitted_watermark_ + 2 * watermark_step_.
    Timestamp keep_until = emitted_watermark_;
    Timestamp window = 0;
    if (emitted_watermark_ != kMinTimestamp &&
        (__builtin_mul_overflow(watermark_step_, 2, &window) ||
         __builtin_add_overflow(emitted_watermark_, window, &keep_until))) {
      keep_until = kMaxTimestamp;
    }
    for (Side& side : sides_) {
      if (side.tail != nullptr) continue;
      const auto first = std::upper_bound(
          side.buffer.begin(), side.buffer.end(), keep_until,
          [](Timestamp t, const Row& e) { return t < e.sync_time; });
      const size_t n = static_cast<size_t>(side.buffer.end() - first);
      if (n * sizeof(Row) < settings.min_spill_bytes) continue;
      if (!SpillSide(&side, first)) return;
    }
  }

  // Moves side.buffer's events from `first` on into a new tail. On a
  // store or file failure, spilling stays off (the events stay in RAM).
  bool SpillSide(Side* side,
                 typename std::deque<Row>::iterator first) {
    std::unique_ptr<Tail> tail = spill_.NewRun();
    if (tail == nullptr) return false;
    uint64_t written = 0;
    for (auto it = first; it != side->buffer.end(); ++it) {
      written += tail->Append(*it, SyncTimeOf());
    }
    written += tail->FlushPending(SyncTimeOf(), /*sync=*/false);
    side->tail_head_time = first->sync_time;
    side->buffer.erase(first, side->buffer.end());
    side->tail = std::move(tail);
    sides_spilled_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(written, std::memory_order_relaxed);
    return true;
  }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const Side& side : sides_) {
      bytes += side.buffer.size() * sizeof(Row);
      if (side.tail != nullptr) bytes += side.tail->MemoryBytes();
    }
    return bytes;
  }

  void UpdateReservation() { reservation_.Update(MemoryBytes()); }

  MemoryReservation reservation_;
  BatchBuilder<W> builder_;
  InputPort inputs_[2];
  // Declared before sides_ so the tails (which reference its store) are
  // destroyed first.
  storage::SpillTarget<Row> spill_;
  Side sides_[2];
  Sink<W>* downstream_ = nullptr;
  Timestamp emitted_watermark_ = kMinTimestamp;
  // Distance between the last two emitted punctuations.
  Timestamp watermark_step_ = 0;
  std::atomic<uint64_t> sides_spilled_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
};

template <int W>
class TeeOp;

// Emitter facade for one branch of a TeeOp: SetDownstream attaches a new
// branch instead of replacing the single downstream, so each branch can be
// wired through the ordinary Emitter interface.
template <int W>
class TeeBranch : public Emitter<W> {
 public:
  explicit TeeBranch(TeeOp<W>* tee) : tee_(tee) {}
  void SetDownstream(Sink<W>* downstream) override;

 private:
  TeeOp<W>* tee_;
};

// Replicates a stream to several downstream sinks, in attachment order.
template <int W>
class TeeOp : public Sink<W>, public Emitter<W> {
 public:
  // Emitter interface: first attachment.
  void SetDownstream(Sink<W>* downstream) override {
    AddDownstream(downstream);
  }

  // Additional branches.
  void AddDownstream(Sink<W>* downstream) {
    IMPATIENCE_CHECK(downstream != nullptr);
    downstreams_.push_back(downstream);
  }

  void OnBatch(const EventBatch<W>& batch) override {
    for (Sink<W>* s : downstreams_) s->OnBatch(batch);
  }
  void OnPunctuation(Timestamp t) override {
    for (Sink<W>* s : downstreams_) s->OnPunctuation(t);
  }
  void OnFlush() override {
    for (Sink<W>* s : downstreams_) s->OnFlush();
  }

 private:
  std::vector<Sink<W>*> downstreams_;
};

template <int W>
void TeeBranch<W>::SetDownstream(Sink<W>* downstream) {
  tee_->AddDownstream(downstream);
}

}  // namespace impatience

#endif  // IMPATIENCE_ENGINE_OPS_UNION_H_
