// The sorting operator: the bridge from disordered to in-order streams.
//
// Consumes rows (Push) or batches in arrival order, buffers live rows in an
// IncrementalSorter (Impatience sort by default), and on every punctuation
// emits the released events in sync_time order. All operators downstream of
// this node see an in-order stream and can be ordinary in-order operators —
// the heart of the paper's sort-based architecture.

#ifndef IMPATIENCE_ENGINE_OPS_SORT_H_
#define IMPATIENCE_ENGINE_OPS_SORT_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/memory_tracker.h"
#include "engine/batch.h"
#include "engine/node.h"
#include "sort/impatience_sorter.h"
#include "sort/sorter.h"

namespace impatience {

template <int W>
class SortOp : public Operator<W, W> {
 public:
  using Element = BasicEvent<W>;

  // Takes ownership of the sorter. `tracker` (optional) accounts the
  // sorter's buffered bytes.
  explicit SortOp(std::unique_ptr<IncrementalSorter<Element>> sorter,
                  MemoryTracker* tracker = nullptr,
                  size_t batch_size = kDefaultBatchSize)
      : sorter_(std::move(sorter)),
        reservation_(tracker),
        builder_(batch_size) {}

  // Convenience: an Impatience-sort operator.
  explicit SortOp(ImpatienceConfig config = {},
                  MemoryTracker* tracker = nullptr)
      : SortOp(std::make_unique<ImpatienceSorter<Element>>(config),
               tracker) {}

  // Row entry: buffers one event. Rows pushed here skip the batch
  // reshape; the caller calls UpdateReservation() once after each span of
  // pushes (punctuations and flushes update it themselves).
  void Push(const Element& e) { sorter_->Push(e); }

  // Re-reads the sorter's buffered bytes into the tracker reservation.
  void UpdateReservation() { reservation_.Update(sorter_->MemoryBytes()); }

  void OnBatch(const EventBatch<W>& batch) override {
    // The selection bitmap is resolved here: filtered rows are dropped and
    // never buffered (but every bitmap bit is still inspected — the cost
    // the paper points out in §VI-C).
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch.filtered.Test(i)) continue;
      Push(batch.RowAt(i));
    }
    UpdateReservation();
  }

  void OnPunctuation(Timestamp t) override {
    released_.clear();
    sorter_->OnPunctuation(t, &released_);
    for (const Element& e : released_) {
      builder_.Append(e, this->downstream());
    }
    builder_.Flush(this->downstream());
    UpdateReservation();
    this->EmitPunctuation(t);
  }

  void OnFlush() override {
    released_.clear();
    sorter_->Flush(&released_);
    for (const Element& e : released_) {
      builder_.Append(e, this->downstream());
    }
    builder_.Flush(this->downstream());
    UpdateReservation();
    this->EmitPunctuation(kMaxTimestamp);
    this->EmitFlush();
  }

  // Events dropped for arriving at or before a past punctuation.
  uint64_t late_drops() const { return sorter_->late_drops(); }

 private:
  std::unique_ptr<IncrementalSorter<Element>> sorter_;
  MemoryReservation reservation_;
  BatchBuilder<W> builder_;
  std::vector<Element> released_;
};

}  // namespace impatience

#endif  // IMPATIENCE_ENGINE_OPS_SORT_H_
