// Generic offline-to-incremental sorting adapter (paper §VI-B).
//
// The evaluation adapts Patience sort, Quicksort and Timsort to the
// punctuation contract with "a general solution": keep a sorted buffer and
// an unsorted buffer; new events go to the unsorted buffer; on a
// punctuation, sort the unsorted buffer with the wrapped algorithm, merge
// it into the sorted buffer, and emit the sorted-buffer prefix up to the
// punctuation timestamp. Each element is sorted once but may be rewritten
// by several merge phases — the cost that makes these baselines collapse at
// high punctuation frequency in Figure 8.

#ifndef IMPATIENCE_SORT_INCREMENTAL_ADAPTER_H_
#define IMPATIENCE_SORT_INCREMENTAL_ADAPTER_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
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
#include "sort/sorter.h"

namespace impatience {

// Wraps an offline sort (the SortFn policy) into an IncrementalSorter.
//
// SortFn must be callable as `void (std::vector<T>::iterator first,
// std::vector<T>::iterator last, Less less)` with Less comparing by
// timestamp.
template <typename T, typename SortFn, typename TimeOf = SyncTimeOf>
class IncrementalAdapter : public IncrementalSorter<T, TimeOf> {
 public:
  explicit IncrementalAdapter(SortFn sort_fn, std::string name)
      : sort_fn_(std::move(sort_fn)), name_(std::move(name)) {}

  IncrementalAdapter(const IncrementalAdapter&) = delete;
  IncrementalAdapter& operator=(const IncrementalAdapter&) = delete;

  void Push(const T& item) override {
    if (time_of_(item) <= last_punctuation_) {
      ++late_drops_;
      return;
    }
    unsorted_.push_back(item);
    if (__builtin_expect(ingest_window_start_ns_ == 0, 0)) {
      ingest_window_start_ns_ = Clock::Nanos();
    }
  }

  void OnPunctuation(Timestamp t, std::vector<T>* out) override {
    TRACE_SPAN("adapter.on_punctuation");
    const uint64_t punct_start_ns = Clock::Nanos();
    IMPATIENCE_CHECK_MSG(t >= last_punctuation_,
                         "punctuations must be non-decreasing");
    last_punctuation_ = t;
    auto less = [this](const T& a, const T& b) {
      return time_of_(a) < time_of_(b);
    };

    if (!unsorted_.empty()) {
      sort_fn_(unsorted_.begin(), unsorted_.end(), less);
      if (SortedSize() == 0) {
        sorted_ = std::move(unsorted_);
        head_ = 0;
      } else {
        // Merge the two sorted buffers into a pool buffer with the kernel
        // merge (same stable order as std::merge — ties keep the old
        // sorted buffer first); when the new batch lies entirely past the
        // buffered tail, the common case for a mostly-ordered stream, the
        // merge degenerates to two bulk copies. The retired sorted buffer
        // goes back to the pool, so steady-state punctuations ping-pong
        // between two allocations instead of growing a fresh vector each
        // time.
        std::vector<T> merged = pool_.Acquire(SortedSize() + unsorted_.size());
        kernels::MergeIntoVector(
            sorted_.data() + head_, sorted_.data() + sorted_.size(),
            unsorted_.data(), unsorted_.data() + unsorted_.size(), less,
            &merged);
        pool_.Release(std::move(sorted_));
        sorted_ = std::move(merged);
        head_ = 0;
      }
      unsorted_.clear();
    }

    // Emit the prefix of the sorted buffer at or before the punctuation
    // (branchless bound; vector-wide when T is a bare timestamp column).
    const size_t cut_index = kernels::UpperBoundByTime(
        sorted_.data(), head_, sorted_.size(), t, time_of_, level_);
    const auto begin = sorted_.begin() + static_cast<ptrdiff_t>(head_);
    const auto cut = sorted_.begin() + static_cast<ptrdiff_t>(cut_index);
    const size_t emitted = cut_index - head_;
    out->insert(out->end(), begin, cut);
    head_ = cut_index;
    // Reclaim the emitted prefix when it dominates the buffer.
    if (head_ > 0 && head_ * 2 >= sorted_.size()) {
      sorted_.erase(sorted_.begin(), sorted_.begin() +
                                         static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }

    const uint64_t now_ns = Clock::Nanos();
    punct_to_emit_.Record(now_ns - punct_start_ns);
    if (emitted > 0 && ingest_window_start_ns_ != 0) {
      ingest_to_emit_.Record(now_ns >= ingest_window_start_ns_
                                 ? now_ns - ingest_window_start_ns_
                                 : 0);
      ingest_window_start_ns_ = 0;
    }
  }

  size_t buffered_count() const override {
    return SortedSize() + unsorted_.size();
  }

  size_t MemoryBytes() const override {
    // The two buffers plus the ping-pong partner the pool holds.
    return sorted_.capacity() * sizeof(T) + unsorted_.capacity() * sizeof(T) +
           pool_.MemoryBytes();
  }

  uint64_t late_drops() const override { return late_drops_; }

  std::string name() const override { return name_; }

  const HistogramSnapshot* punctuation_latency() const override {
    return &punct_to_emit_;
  }
  const HistogramSnapshot* ingest_latency() const override {
    return &ingest_to_emit_;
  }

 private:
  size_t SortedSize() const { return sorted_.size() - head_; }

  SortFn sort_fn_;
  std::string name_;
  TimeOf time_of_;
  const KernelLevel level_ = ActiveKernelLevel();

  std::vector<T> sorted_;  // Sorted buffer; [0, head_) already emitted.
  size_t head_ = 0;
  std::vector<T> unsorted_;
  MergeBufferPool<T> pool_;  // Ping-pong partner for the punctuation merge.
  Timestamp last_punctuation_ = kMinTimestamp;
  uint64_t late_drops_ = 0;
  uint64_t ingest_window_start_ns_ = 0;
  HistogramSnapshot punct_to_emit_;
  HistogramSnapshot ingest_to_emit_;
};

// Deduces the SortFn type.
template <typename T, typename TimeOf = SyncTimeOf, typename SortFn>
auto MakeIncrementalAdapter(SortFn sort_fn, std::string name) {
  return IncrementalAdapter<T, SortFn, TimeOf>(std::move(sort_fn),
                                               std::move(name));
}

}  // namespace impatience

#endif  // IMPATIENCE_SORT_INCREMENTAL_ADAPTER_H_
