// Impatience sort (paper §III-D, §III-E) — the primary contribution.
//
// Impatience sort is Patience sort made incremental. The partition phase is
// unchanged: each arriving element is appended to the first sorted run
// whose tail is <= the element (binary search over the strictly-descending
// tails array), or starts a new run. On a punctuation with timestamp T, the
// merge phase cuts the prefix of each run containing elements <= T (the
// "head runs"), merges only those head runs, and emits the result; runs
// emptied by the cut are removed, which is how the structure recovers from
// bursts of severely late events (Figure 5).
//
// Two optimizations, both individually toggleable for the Figure 7
// ablation:
//   * Huffman merge (§III-E1): head runs are merged smallest-two-first.
//   * Speculative run selection (§III-E2): before the binary search, test
//     whether the element extends the run that received the previous
//     element; streams with long natural runs (AndroidLog) hit this path
//     almost always.

#ifndef IMPATIENCE_SORT_IMPATIENCE_SORTER_H_
#define IMPATIENCE_SORT_IMPATIENCE_SORTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "common/cpu_features.h"
#include "common/event.h"
#include "common/histogram.h"
#include "common/timestamp.h"
#include "common/trace.h"
#include "sort/kernels.h"
#include "sort/merge.h"
#include "sort/run_select.h"
#include "sort/sorter.h"
#include "storage/spill.h"

namespace impatience {

// Dead bytes (consumed prefix plus unused capacity) a RAM run may hold
// beyond its live bytes before it is compacted.
inline constexpr size_t kRunDeadFloorBytes = 512;

// Free merge buffers a sorter keeps after every punctuation, however few
// events it still buffers, so the next merge rarely allocates.
inline constexpr size_t kMergePoolRetainBytes = size_t{64} << 10;

// Tuning and ablation switches for ImpatienceSorter.
struct ImpatienceConfig {
  // Merge head runs smallest-two-first (§III-E1); false merges them in
  // size-oblivious pairwise rounds, the "Impt w/o HM" ablation.
  bool huffman_merge = true;

  // Fast path that retries the run used by the previous insertion before
  // falling back to binary search (§III-E2).
  bool speculative_run_selection = true;

  // External-memory spill tier (storage/spill.h): when a memory budget is
  // set (explicitly or via IMPATIENCE_MEMORY_BUDGET) and usage exceeds it,
  // cold runs move to disk-backed run files and stream back through the
  // cursor merge at punctuation time — byte-identical output, bounded
  // residency. Only engages for trivially-copyable element types.
  storage::SpillSettings spill;
};

// Counters exposed for tests, ablation benchmarks, and the server's
// metrics surface.
struct ImpatienceCounters {
  uint64_t pushes = 0;          // Elements accepted (excludes late drops).
  uint64_t srs_hits = 0;        // Insertions that skipped the binary search.
  uint64_t new_runs = 0;        // Runs created over the sorter's lifetime.
  uint64_t removed_runs = 0;    // Runs cleaned up after punctuations.
  uint64_t compactions = 0;     // Run storage compactions.
  // Spill tier: runs moved to disk, bytes written to run files (blocks and
  // their headers), and bytes read back (cut-boundary loads and merge
  // cursor streams).
  uint64_t runs_spilled = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_read_bytes = 0;
  // Flusher pipeline: blocks handed to the flusher (inline or pool);
  // merge-cursor prefetches that were ready in time vs blocks the merge
  // read from disk itself; idle tail flushes and run-file compactions run
  // by PerformSpillMaintenance.
  uint64_t async_flushes = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_misses = 0;
  uint64_t idle_flushes = 0;
  uint64_t spill_compactions = 0;
  // Bytes queued in the flusher pool at the last observation — a gauge
  // like kernel_level (the pool is shared, so aggregation takes the max,
  // not the sum).
  uint64_t flush_queue_bytes = 0;
  // Active kernel dispatch level (KernelLevel as an integer) — a gauge,
  // not an accumulator: the sorter stamps it at construction and after
  // every reset, and aggregation takes the max across shards.
  uint64_t kernel_level = 0;
  MergeStats merge;             // Merge work across all punctuations.
  // One sample per OnPunctuation call: nanoseconds from punctuation
  // arrival to emit completion (the sorter-side share of end-to-end
  // latency).
  HistogramSnapshot punct_to_emit;
  // One sample per emitting punctuation: nanoseconds from the oldest push
  // buffered since the previous emit to emit completion — how long data
  // waited inside the sorter.
  HistogramSnapshot ingest_to_emit;
  // One sample per punctuation merge involving at least one spilled run:
  // the merge's fan-in (1 = a lone spilled run streamed straight out).
  HistogramSnapshot spill_merge_fanin;

  // Zeroes every counter. Long-lived servers snapshot-and-reset between
  // scrapes instead of reconstructing sorters.
  void Reset() { *this = ImpatienceCounters{}; }

  // Element-wise sum — aggregation across bands/shards for metrics.
  ImpatienceCounters& operator+=(const ImpatienceCounters& other) {
    pushes += other.pushes;
    srs_hits += other.srs_hits;
    new_runs += other.new_runs;
    removed_runs += other.removed_runs;
    compactions += other.compactions;
    runs_spilled += other.runs_spilled;
    spill_bytes_written += other.spill_bytes_written;
    spill_read_bytes += other.spill_read_bytes;
    async_flushes += other.async_flushes;
    readahead_hits += other.readahead_hits;
    readahead_misses += other.readahead_misses;
    idle_flushes += other.idle_flushes;
    spill_compactions += other.spill_compactions;
    flush_queue_bytes = std::max(flush_queue_bytes, other.flush_queue_bytes);
    kernel_level = std::max(kernel_level, other.kernel_level);
    merge.elements_moved += other.merge.elements_moved;
    merge.binary_merges += other.merge.binary_merges;
    merge.disjoint_concats += other.merge.disjoint_concats;
    punct_to_emit += other.punct_to_emit;
    ingest_to_emit += other.ingest_to_emit;
    spill_merge_fanin += other.spill_merge_fanin;
    return *this;
  }
};

// The incremental sorter. See the file comment for the algorithm.
template <typename T, typename TimeOf = SyncTimeOf>
class ImpatienceSorter : public IncrementalSorter<T, TimeOf> {
 public:
  explicit ImpatienceSorter(ImpatienceConfig config = {})
      : config_(config), spill_(config_.spill, /*private_store=*/false) {
    counters_.kernel_level = static_cast<uint64_t>(level_);
  }

  ImpatienceSorter(const ImpatienceSorter&) = delete;
  ImpatienceSorter& operator=(const ImpatienceSorter&) = delete;

  void Push(const T& item) override {
    const Timestamp t = time_of_(item);
    if (t <= last_punctuation_) {
      ++late_drops_;
      return;
    }
    ++counters_.pushes;
    ++buffered_;
    // Latency window: stamp the first push after an emit; every later push
    // in the window pays only this predictable branch.
    if (__builtin_expect(ingest_window_start_ns_ == 0, 0)) {
      ingest_window_start_ns_ = Clock::Nanos();
    }
    // Spill check every check_period pushes (one predictable compare when
    // no budget is configured).
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (__builtin_expect(spill_.budget() != 0, 0) &&
          ++spill_tick_ >= config_.spill.check_period) {
        spill_tick_ = 0;
        MaybeSpill();
      }
    }

    // Speculative run selection: the previous insertion's run is often the
    // right one again. The element belongs there iff it lies between that
    // run's tail and the tail of the run before it (tails are strictly
    // descending, so this certifies "first run whose tail <= t").
    if (config_.speculative_run_selection && last_run_ < runs_.size()) {
      const size_t r = last_run_;
      if (tails_[r] <= t && (r == 0 || t < tails_[r - 1])) {
        AppendToRun(r, item, t);
        ++counters_.srs_hits;
        return;
      }
    }

    // Search the strictly-descending tails array for the first run whose
    // tail is <= t (linear probe over the skew-heavy front, then
    // branch-free binary search).
    const size_t lo = FindRunIndex(tails_, t, level_);
    if (lo == runs_.size()) {
      // Smaller than every tail: start a new run.
      runs_.emplace_back();
      runs_.back().items.push_back(item);
      tails_.push_back(t);
      head_times_.push_back(t);
      ++counters_.new_runs;
      last_run_ = runs_.size() - 1;
      return;
    }
    AppendToRun(lo, item, t);
  }

  void OnPunctuation(Timestamp t, std::vector<T>* out) override {
    TRACE_SPAN("sorter.on_punctuation");
    const uint64_t punct_start_ns = Clock::Nanos();
    IMPATIENCE_CHECK_MSG(t >= last_punctuation_,
                         "punctuations must be non-decreasing");
    last_punctuation_ = t;

    // Cut the head run (elements <= t) off every sorted run. Each run is
    // internally sorted, so the cut point is found by binary search without
    // touching the elements in between (§III-D). The head_times_ array
    // lets runs with nothing to release be skipped with one contiguous
    // compare — at high punctuation frequency most runs release nothing,
    // and this fixed cost dominates.
    cut_runs_.clear();
    size_t emitted = 0;
    bool any_spilled = false;
    const size_t nruns = runs_.size();
    for (size_t r = kernels::NextIndexLE(head_times_.data(), 0, nruns, t,
                                         level_);
         r < nruns; r = kernels::NextIndexLE(head_times_.data(), r + 1,
                                             nruns, t, level_)) {
      Run& run = runs_[r];
      if constexpr (std::is_trivially_copyable_v<T>) {
        if (run.spilled != nullptr) {
          // Spilled run: count the releasing prefix from the block index
          // (at most one boundary-block read). The head advances after
          // the merge, once the cut range has been streamed out.
          Timestamp next_time = kMaxTimestamp;
          const size_t head = run.spilled->head();
          const size_t n = run.spilled->CutCountLE(
              t, time_of_, &next_time, &counters_.spill_read_bytes);
          IMPATIENCE_DCHECK(n > 0);
          cut_runs_.push_back(CutRange{r, head, head + n});
          emitted += n;
          head_times_[r] = next_time;
          any_spilled = true;
          continue;
        }
      }
      const size_t cut = UpperBoundByTime(run, t);
      IMPATIENCE_DCHECK(cut != run.head);
      cut_runs_.push_back(CutRange{r, run.head, cut});
      emitted += cut - run.head;
      run.head = cut;
      head_times_[r] = cut < run.items.size() ? time_of_(run.items[cut])
                                              : kMaxTimestamp;
    }
    buffered_ -= emitted;
    // Size the output once up front so the merge never reallocates
    // mid-emit.
    out->reserve(out->size() + emitted);

    if (any_spilled) {
      if constexpr (std::is_trivially_copyable_v<T>) {
        MergeSpilledCuts(out);
      }
    } else if (!cut_runs_.empty()) {
      // Every cut is a range of a live run: the merge reads it in place.
      cut_spans_.clear();
      for (const CutRange& c : cut_runs_) {
        cut_spans_.emplace_back(runs_[c.run].items.data() + c.begin,
                                c.end - c.begin);
      }
      auto less = [this](const T& a, const T& b) {
        return time_of_(a) < time_of_(b);
      };
      if (config_.huffman_merge) {
        HuffmanMergeInto(cut_spans_, less, out, &counters_.merge, &pool_);
      } else {
        BalancedMergeInto(cut_spans_, less, out, &counters_.merge, &pool_);
      }
    }

    if constexpr (std::is_trivially_copyable_v<T>) {
      // A caller-supplied store is the durable log recovery replays, so
      // it is synced at every punctuation, BEFORE the heads advance: an
      // `advance` record must never cover records whose blocks are still
      // in the flusher queue, or a crash between the two would lose data
      // the manifest claims was emitted. (A sorter-private temp store is
      // not durable by contract and is never synced.)
      if (spill_.budget() != 0 && config_.spill.store != nullptr) {
        for (Run& run : runs_) {
          if (run.spilled != nullptr) {
            counters_.spill_bytes_written +=
                run.spilled->FlushPending(time_of_, /*sync=*/true);
          }
        }
      }
      if (any_spilled) {
        // The cut ranges are out the door: advance the durable heads (the
        // manifest record a restart resumes from) before cleanup drops
        // emptied runs, and free the read buffers the merge filled.
        for (const CutRange& c : cut_runs_) {
          Run& run = runs_[c.run];
          if (run.spilled != nullptr) {
            run.spilled->AdvanceHead(c.end);
            run.spilled->TrimScratch();
          }
        }
      }
    }

    RemoveEmptyRunsAndCompact();
    // Keep some scratch for the next punctuation, but never let the pool
    // dominate the live buffer.
    pool_.Trim(std::max(kMergePoolRetainBytes, buffered_ * sizeof(T) / 2));
    if constexpr (std::is_trivially_copyable_v<T>) {
      // Opportunistic end-of-punctuation budget check: merges and cuts
      // just churned buffers, so this is where usage peaks move.
      if (spill_.budget() != 0) MaybeSpill();
      counters_.flush_queue_bytes = spill_.flusher()->inflight_bytes();
    }

    const uint64_t now_ns = Clock::Nanos();
    counters_.punct_to_emit.Record(now_ns - punct_start_ns);
    if (emitted > 0 && ingest_window_start_ns_ != 0) {
      counters_.ingest_to_emit.Record(now_ns >= ingest_window_start_ns_
                                          ? now_ns - ingest_window_start_ns_
                                          : 0);
      // Restart the window at the next push. Elements still buffered keep
      // their (older) true arrival times out of the next sample — the
      // reported lag is a lower bound for them.
      ingest_window_start_ns_ = 0;
    }
  }

  size_t buffered_count() const override { return buffered_; }

  size_t MemoryBytes() const override {
    // pool_.MemoryBytes() covers the merge buffers the pool holds; a
    // merge's interior buffers leave it only while that merge runs, and
    // the runs it reads are counted below. scratch_ covers the cursor
    // merge's loser-tree nodes.
    size_t bytes = tails_.capacity() * sizeof(Timestamp) +
                   head_times_.capacity() * sizeof(Timestamp) +
                   runs_.capacity() * sizeof(Run) +
                   cut_runs_.capacity() * sizeof(CutRange) +
                   cut_spans_.capacity() * sizeof(std::span<const T>) +
                   pool_.MemoryBytes() + scratch_.MemoryBytes() +
                   RunCapacityBytes();
    if constexpr (std::is_trivially_copyable_v<T>) {
      for (const Run& run : runs_) {
        if (run.spilled != nullptr) bytes += run.spilled->MemoryBytes();
      }
    }
    return bytes;
  }

  // Storage the RAM runs reserve: the part the compaction rule bounds at
  // about twice their live bytes plus kRunDeadFloorBytes per run.
  size_t RunCapacityBytes() const {
    size_t bytes = 0;
    for (const Run& run : runs_) bytes += run.items.capacity() * sizeof(T);
    return bytes;
  }

  uint64_t late_drops() const override { return late_drops_; }

  std::string name() const override { return "Impatience"; }

  // Number of sorted runs currently maintained (Figure 5's metric).
  size_t run_count() const { return runs_.size(); }

  // Lifetime statistics for tests and ablations.
  const ImpatienceCounters& counters() const { return counters_; }

  // Zeroes the counters without touching the buffered runs — the sorter
  // keeps sorting; only the statistics window restarts. late_drops() is
  // part of the sorter contract (not a statistics counter) and survives.
  void ResetCounters() {
    counters_.Reset();
    counters_.kernel_level = static_cast<uint64_t>(level_);
  }

  // The last punctuation received (kMinTimestamp if none yet).
  Timestamp last_punctuation() const { return last_punctuation_; }

  // Spill upkeep that stays off the push and punctuation paths: rewrites
  // run files whose emitted prefix dominates their disk footprint and,
  // with `flush_tails`, writes every spilled run's partial tail block
  // (through the fsync when the store is durable), so a session that
  // stops sending does not keep its last events RAM-only. The owner calls
  // it between punctuations at quiet points: the server's shard thread
  // compacts whenever its queue drains and also flushes tails once the
  // queue has been idle for a while. Returns true if any work ran.
  bool PerformSpillMaintenance(bool flush_tails = false) {
    if constexpr (!std::is_trivially_copyable_v<T>) {
      return false;
    } else {
      if (spill_.budget() == 0) return false;
      bool flushed = false;
      if (flush_tails) {
        for (Run& run : runs_) {
          if (run.spilled != nullptr && run.spilled->HasUnflushedTail()) {
            counters_.spill_bytes_written +=
                run.spilled->FlushPending(time_of_, /*sync=*/true);
            flushed = true;
          }
        }
        if (flushed) ++counters_.idle_flushes;
      }
      const bool compacted = MaybeCompactDisk();
      counters_.flush_queue_bytes = spill_.flusher()->inflight_bytes();
      return flushed || compacted;
    }
  }

  const HistogramSnapshot* punctuation_latency() const override {
    return &counters_.punct_to_emit;
  }
  const HistogramSnapshot* ingest_latency() const override {
    return &counters_.ingest_to_emit;
  }

 private:
  // One sorted run. Elements before `head` have already been emitted.
  // When `spilled` is set the elements live on disk instead of `items`
  // (which is then empty), and head/cut state lives in the SpilledRun.
  struct Run {
    std::vector<T> items;
    size_t head = 0;
    std::unique_ptr<storage::SpilledRun<T>> spilled;
    // Victim-choice recency: the sorter's append sequence at the run's
    // last append (only maintained while a spill budget is active).
    uint64_t last_append = 0;

    size_t live_size() const { return items.size() - head; }
  };

  void AppendToRun(size_t r, const T& item, Timestamp t) {
    IMPATIENCE_DCHECK(tails_[r] <= t);
    Run& run = runs_[r];
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (spill_.budget() != 0) run.last_append = ++append_seq_;
      // Not under the budget check: a store failure zeroes the budget,
      // and runs spilled before it still take their appends on disk.
      if (run.spilled != nullptr) {
        counters_.spill_bytes_written += run.spilled->Append(item, time_of_);
        tails_[r] = t;
        last_run_ = r;
        return;
      }
    }
    run.items.push_back(item);
    tails_[r] = t;
    last_run_ = r;
  }

  // First index in [run.head, run.items.size()) with timestamp > t.
  size_t UpperBoundByTime(const Run& run, Timestamp t) const {
    return kernels::UpperBoundByTime(run.items.data(), run.head,
                                     run.items.size(), t, time_of_, level_);
  }

  // --- Spill tier (instantiated only for trivially-copyable T; every call
  // site sits behind `if constexpr`). ---

  // Streams the cut ranges (at least one of them spilled) through run
  // cursors into `out`. RAM cuts participate as zero-copy single-chunk
  // cursors. Byte-identical to the in-RAM merge of the same cuts (see
  // HuffmanCursorMergeInto).
  void MergeSpilledCuts(std::vector<T>* out) {
    std::vector<std::unique_ptr<RunCursor<T>>> owned;
    std::vector<RunCursor<T>*> cursors;
    owned.reserve(cut_runs_.size());
    cursors.reserve(cut_runs_.size());
    for (const CutRange& c : cut_runs_) {
      Run& run = runs_[c.run];
      if (run.spilled != nullptr) {
        owned.push_back(run.spilled->MakeCursor(
            c.begin, c.end, &counters_.spill_read_bytes,
            &counters_.readahead_hits, &counters_.readahead_misses));
      } else {
        const T* base = run.items.data();
        owned.push_back(std::make_unique<VectorRunCursor<T>>(
            base + c.begin, base + c.end));
      }
      cursors.push_back(owned.back().get());
    }
    counters_.spill_merge_fanin.Record(cursors.size());
    auto less = [this](const T& a, const T& b) {
      return time_of_(a) < time_of_(b);
    };
    HuffmanCursorMergeInto(&cursors, less, out, &counters_.merge,
                           &scratch_);
  }

  // Enforces the byte budget: usage is the larger of this sorter's own
  // bytes and the shared tracker (the whole pipeline's residency, when
  // configured). Over budget, reclaims landed spill blocks, trims the
  // buffer pool, then spills victim runs coldest-first (least recently
  // appended, ties to the larger run) until the measured excess is covered
  // or nothing spillable remains.
  //
  // A write-behind flusher leaves sealed blocks in flight, RAM-accounted
  // until their writes land and a seal or read reclaims them, and each
  // spilled run a spare block buffer. Over budget the sorter reclaims the
  // landed blocks, drops the spares, and lets at most two spill blocks'
  // worth stay in flight, waiting for its writes past that. While it picks
  // victims it counts the blocks in flight as already leaving: spilling
  // more runs cannot free them sooner. Behind an inline flusher nothing is
  // ever in flight, so none of this changes what it spills.
  void MaybeSpill() {
    const size_t own_before = MemoryBytes();
    size_t used = own_before;
    if (config_.spill.tracker != nullptr) {
      used = std::max(used, config_.spill.tracker->current_bytes());
    }
    if (used <= spill_.budget()) return;
    const size_t deficit = used - spill_.budget();
    ReclaimSpillBuffers();
    size_t own = MemoryBytes() - InflightBytes();
    auto covered = [&] { return own + deficit <= own_before; };
    // Pooled merge buffers are pure cache — drop them before touching any
    // run, unless the reclaim already covered the excess: a write-behind
    // sorter goes over on blocks in flight where an inline one would not,
    // and its pool, which later merges draw on, must stay as the inline
    // one's.
    if (!covered()) {
      pool_.Trim(0);
      own = MemoryBytes() - InflightBytes();
    }
    // Spill until covered; stop early if spilling grew the footprint (a
    // run smaller than its spill block costs more spilled than in RAM).
    while (!covered() && own <= own_before) {
      const size_t victim = PickVictim();
      if (victim == runs_.size()) break;
      if (!SpillRun(victim)) break;
      ReclaimSpillBuffers();
      own = MemoryBytes() - InflightBytes();
    }
  }

  // Bytes of spilled blocks whose writes are under way (a failed write
  // pins its blocks in RAM for good; those are not counted).
  size_t InflightBytes() const {
    size_t bytes = 0;
    for (const Run& run : runs_) {
      if (run.spilled != nullptr && !run.spilled->write_failed()) {
        bytes += run.spilled->inflight_bytes();
      }
    }
    return bytes;
  }

  // Waits for this sorter's spill writes once more than two blocks' worth
  // are in flight, reclaims the landed ones, and frees the spare buffers
  // they were recycled into.
  void ReclaimSpillBuffers() {
    const bool wait = InflightBytes() > 2 * config_.spill.block_bytes;
    for (Run& run : runs_) {
      if (run.spilled == nullptr) continue;
      if (wait) {
        run.spilled->WaitWritesDone();
      } else {
        run.spilled->Harvest();
      }
      run.spilled->ReleaseSpare();
    }
  }

  // Coldest unspilled run with enough live bytes to be worth a file; if
  // none qualifies, the largest unspilled run; runs_.size() if nothing
  // spillable remains.
  size_t PickVictim() const {
    size_t best = runs_.size();
    uint64_t best_age = UINT64_MAX;
    size_t best_bytes = 0;
    size_t biggest = runs_.size();
    size_t biggest_bytes = 0;
    for (size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      if (run.spilled != nullptr || run.items.empty()) continue;
      const size_t live_bytes = run.live_size() * sizeof(T);
      if (live_bytes > biggest_bytes) {
        biggest = i;
        biggest_bytes = live_bytes;
      }
      if (live_bytes < config_.spill.min_spill_bytes) continue;
      if (run.last_append < best_age ||
          (run.last_append == best_age && live_bytes > best_bytes)) {
        best = i;
        best_age = run.last_append;
        best_bytes = live_bytes;
      }
    }
    return best != runs_.size() ? best : biggest;
  }

  // Moves run `r`'s live suffix into a disk-backed SpilledRun and frees
  // its RAM storage. On store/file failure, disables spilling for this
  // sorter (data stays in RAM — never at risk) and returns false.
  bool SpillRun(size_t r) {
    std::unique_ptr<storage::SpilledRun<T>> spilled =
        spill_.NewRun(&counters_.async_flushes);
    if (spilled == nullptr) return false;
    Run& run = runs_[r];
    counters_.spill_bytes_written += spilled->AppendRange(
        run.items.data() + run.head, run.items.size() - run.head, time_of_);
    counters_.spill_bytes_written +=
        spilled->FlushPending(time_of_, /*sync=*/false);
    // Free the RAM storage outright (a pool release would keep the bytes
    // resident, defeating the spill).
    std::vector<T>().swap(run.items);
    run.head = 0;
    run.spilled = std::move(spilled);
    ++counters_.runs_spilled;
    return true;
  }

  // Rewrites every qualifying run file's live suffix into a fresh file
  // (crash-atomic compact-swap). Only call between punctuations — live
  // cursors hold offsets into the old files. Returns true if any run was
  // compacted.
  bool MaybeCompactDisk() {
    bool did = false;
    for (Run& run : runs_) {
      if (run.spilled == nullptr ||
          !run.spilled->CompactionWorthy(config_.spill)) {
        continue;
      }
      if (run.spilled->CompactDisk(time_of_, &counters_.spill_read_bytes) >
          0) {
        ++counters_.spill_compactions;
        did = true;
      }
    }
    return did;
  }

  void RemoveEmptyRunsAndCompact() {
    size_t w = 0;
    for (size_t r = 0; r < runs_.size(); ++r) {
      Run& run = runs_[r];
      if constexpr (std::is_trivially_copyable_v<T>) {
        if (run.spilled != nullptr) {
          if (run.spilled->empty()) {
            // Fully consumed: delete the run file (manifest `delete` +
            // unlink) along with the run.
            run.spilled->Discard();
            ++counters_.removed_runs;
            continue;
          }
          // Spilled runs never compact — their consumed prefix costs no
          // RAM (index entries are pruned on head advance).
          if (w != r) {
            runs_[w] = std::move(runs_[r]);
            tails_[w] = tails_[r];
            head_times_[w] = head_times_[r];
          }
          ++w;
          continue;
        }
      }
      if (run.head == run.items.size()) {
        ++counters_.removed_runs;
        continue;  // Run fully emitted: drop it (§III-D "cleanup").
      }
      // Compact on one byte rule, so a run holds at most about twice its
      // live bytes plus the floor: once its dead bytes (consumed prefix
      // plus unused capacity) exceed its live bytes plus the floor, the
      // live suffix moves into storage sized to it exactly. Each copy
      // moves fewer bytes than the dead ones that triggered it.
      const size_t live = run.live_size();
      if ((run.items.capacity() - live) * sizeof(T) >
          live * sizeof(T) + kRunDeadFloorBytes) {
        run.items = std::vector<T>(
            run.items.begin() + static_cast<ptrdiff_t>(run.head),
            run.items.end());
        run.head = 0;
        ++counters_.compactions;
      }
      if (w != r) {
        runs_[w] = std::move(runs_[r]);
        tails_[w] = tails_[r];
        head_times_[w] = head_times_[r];
      }
      ++w;
    }
    runs_.resize(w);
    tails_.resize(w);
    head_times_.resize(w);
    // Run indices shifted; the speculation cache is no longer valid.
    last_run_ = runs_.size();
  }

  ImpatienceConfig config_;
  TimeOf time_of_;
  // Dispatch level resolved once per sorter; hot loops pass it through
  // instead of re-reading the process-wide cache.
  const KernelLevel level_ = ActiveKernelLevel();

  // Spill tier state: the resolved budget, flusher and store, declared
  // before runs_ so spilled runs (which reference its store) are
  // destroyed first.
  storage::SpillTarget<T> spill_;
  size_t spill_tick_ = 0;
  uint64_t append_seq_ = 0;

  std::vector<Run> runs_;
  std::vector<Timestamp> tails_;  // tails_[i] == time of runs_[i].items.back()
  // head_times_[i] == time of runs_[i]'s first live element (kMaxTimestamp
  // if the run is fully emitted); lets punctuations skip idle runs.
  std::vector<Timestamp> head_times_;
  // Scratch for OnPunctuation: the cut taken from each releasing run.
  struct CutRange {
    size_t run;
    size_t begin;
    size_t end;
  };
  std::vector<CutRange> cut_runs_;
  // Scratch for the RAM merge: the cuts as spans of their runs.
  std::vector<std::span<const T>> cut_spans_;
  size_t last_run_ = 0;           // Run used by the previous insertion.
  size_t buffered_ = 0;
  // Wall-clock (ns) of the first push since the last emitting punctuation;
  // 0 when no window is open.
  uint64_t ingest_window_start_ns_ = 0;
  Timestamp last_punctuation_ = kMinTimestamp;
  uint64_t late_drops_ = 0;
  ImpatienceCounters counters_;
  MergeBufferPool<T> pool_;
  // Loser-tree state reused across spilled-run cursor merges.
  LoserTreeScratch<T> scratch_;
};

}  // namespace impatience

#endif  // IMPATIENCE_SORT_IMPATIENCE_SORTER_H_
