// Ingress: feeds an arrival-ordered event stream into a pipeline.
//
// Batches events columnar-style and injects punctuations the way the paper
// describes (§III-A): every `punctuation_period` events, a punctuation is
// emitted carrying (high watermark - reorder_latency). The reorder latency
// is therefore the single-stream knob trading latency against completeness;
// the Impatience framework replaces it with a whole set of latencies.

#ifndef IMPATIENCE_ENGINE_INGRESS_H_
#define IMPATIENCE_ENGINE_INGRESS_H_

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/event.h"
#include "engine/batch.h"
#include "engine/node.h"

namespace impatience {

template <int W>
class Ingress : public Emitter<W> {
 public:
  struct Options {
    // Events between consecutive punctuations.
    size_t punctuation_period = 10000;
    // Subtracted from the high watermark to form punctuation timestamps.
    Timestamp reorder_latency = 0;
    size_t batch_size = kDefaultBatchSize;
  };

  explicit Ingress(Options options) : options_(options) {
    IMPATIENCE_CHECK(options.punctuation_period > 0);
    IMPATIENCE_CHECK(options.batch_size > 0);
  }

  void SetDownstream(Sink<W>* downstream) override {
    IMPATIENCE_CHECK(downstream_ == nullptr);
    downstream_ = downstream;
  }

  // Pushes one event (arrival order = call order).
  void Push(const BasicEvent<W>& e) {
    IMPATIENCE_DCHECK(downstream_ != nullptr);
    if (pending_.empty()) pending_.Reserve(options_.batch_size);
    pending_.AppendEvent(e);
    high_watermark_ = std::max(high_watermark_, e.sync_time);
    ++since_punctuation_;
    if (pending_.size() >= options_.batch_size) FlushBatch();
    if (since_punctuation_ >= options_.punctuation_period) {
      since_punctuation_ = 0;
      const Timestamp p = high_watermark_ - options_.reorder_latency;
      if (p > last_punctuation_) {
        FlushBatch();
        downstream_->OnPunctuation(p);
        last_punctuation_ = p;
      }
    }
  }

  // Pushes a whole arrival-ordered stream.
  void PushAll(const std::vector<BasicEvent<W>>& events) {
    for (const BasicEvent<W>& e : events) Push(e);
  }

  // Ends the stream: remaining rows are batched out and the pipeline is
  // flushed (operators treat this as an infinite punctuation).
  void Finish() {
    FlushBatch();
    downstream_->OnFlush();
  }

  Timestamp high_watermark() const { return high_watermark_; }
  Timestamp last_punctuation() const { return last_punctuation_; }

 private:
  void FlushBatch() {
    if (pending_.empty()) return;
    pending_.SealFilter();
    downstream_->OnBatch(pending_);
    pending_.Clear();
  }

  Options options_;
  Sink<W>* downstream_ = nullptr;
  EventBatch<W> pending_;
  Timestamp high_watermark_ = kMinTimestamp;
  Timestamp last_punctuation_ = kMinTimestamp;
  size_t since_punctuation_ = 0;
};

}  // namespace impatience

#endif  // IMPATIENCE_ENGINE_INGRESS_H_
