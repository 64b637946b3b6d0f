// The Impatience framework (paper §V): multiple reorder latencies at once.
//
// Instead of one reorder latency, the user supplies an increasing set, e.g.
// {1 s, 1 min, 1 hour}. A partition operator routes each event by its
// lateness (high watermark at arrival minus event time) to the first band
// whose latency covers it; each band incrementally sorts its own slice; and
// a chain of synchronizing unions recombines the bands so that output
// stream i contains every event no later than latency i, in order, with
// latency i (Figure 6(a)).
//
// The advanced framework (Figure 6(b)) embeds user query logic:
//  * a PIQ (Partial Input Query) stage runs on each band's sorted slice —
//    each input event is processed exactly once (throughput), and
//  * a merge stage recombines partial results after each union — so the
//    unions buffer small intermediate results instead of raw events
//    (memory).
// Passing identity stages yields the basic framework.
//
// ToStreamables builds the graph on a QueryContext. The partition then has
// no upstream, and its owner pushes rows, forces punctuation rounds and
// flushes it directly, as each server shard does. Its other form builds
// the same graph behind a DisorderedStreamable, whose tail feeds the
// partition batches (in-process queries).
//
// The framework runs in two stages. The calling thread drives the
// partition, which pushes every routed event straight into its band's
// sorter, and every band's subplan (sort, PIQ). Each band's output then
// passes through a StrandStageOp into an optional Strand, which runs the
// union chain, the merge stages and every subscriber of the output streams
// serially, in the order the bands emitted. Without a strand the stage
// forwards directly and the whole framework runs on the calling thread.

#ifndef IMPATIENCE_FRAMEWORK_IMPATIENCE_FRAMEWORK_H_
#define IMPATIENCE_FRAMEWORK_IMPATIENCE_FRAMEWORK_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "common/event.h"
#include "common/histogram.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/batch.h"
#include "engine/node.h"
#include "engine/ops_sort.h"
#include "engine/ops_union.h"
#include "engine/streamable.h"
#include "sort/impatience_sorter.h"

namespace impatience {

// Framework configuration.
struct FrameworkOptions {
  // Strictly increasing reorder latencies, one per output stream.
  std::vector<Timestamp> reorder_latencies;
  // Events between consecutive punctuation rounds at the partition.
  size_t punctuation_period = 10000;
  // Every band's sorter; each merges its punctuations on the thread that
  // drives the partition.
  ImpatienceConfig sorter_config;
  // Runs the union chain, merge stages and output subscribers; nullptr
  // runs them on the calling thread. The caller owns the strand and must
  // Wait() on it before reading what the subscribers collected.
  Strand* strand = nullptr;
};

// Hands one band's output to the framework's strand: each message becomes
// one strand job that replays it into the union chain, so everything
// downstream runs serially on the strand, in posting order. A batch is
// copied (its producer reuses the buffer) and the copy's bytes stay
// reserved in `tracker` until its job has run and been destroyed. Without a strand messages
// go straight downstream; an inline strand runs each job at Post and so
// needs no copy.
template <int W>
class StrandStageOp : public Operator<W, W> {
 public:
  StrandStageOp(Strand* strand, MemoryTracker* tracker)
      : strand_(strand), tracker_(tracker) {}

  void OnBatch(const EventBatch<W>& batch) override {
    Sink<W>* next = this->downstream();
    if (strand_ == nullptr || strand_->runs_inline()) {
      Forward([next, &batch] { next->OnBatch(batch); });
      return;
    }
    auto held = std::make_shared<HeldBatch>(batch, tracker_);
    strand_->Post(
        [next, held = std::move(held)] { next->OnBatch(held->batch); });
  }
  void OnPunctuation(Timestamp t) override {
    Sink<W>* next = this->downstream();
    Forward([next, t] { next->OnPunctuation(t); });
  }
  void OnFlush() override {
    Sink<W>* next = this->downstream();
    Forward([next] { next->OnFlush(); });
  }

 private:
  // A queued batch and its reservation (the job must stay copyable).
  struct HeldBatch {
    HeldBatch(const EventBatch<W>& b, MemoryTracker* tracker)
        : batch(b), reservation(tracker) {
      reservation.Update(batch.MemoryBytes());
    }
    EventBatch<W> batch;
    MemoryReservation reservation;
  };

  template <typename Fn>
  void Forward(Fn&& fn) {
    if (strand_ == nullptr) {
      fn();
    } else {
      strand_->Post(std::forward<Fn>(fn));
    }
  }

  Strand* const strand_;
  MemoryTracker* const tracker_;
};

// Routes events to latency bands and self-punctuates each band at
// (high watermark - band latency) every `punctuation_period` events. Each
// band's head is its SortOp: a routed event is pushed into that band's
// sorter as a row, with no batch in between. Rows enter as batches
// (OnBatch, from an upstream operator) or as plain arrays (PushRows, from
// a driver that already holds decoded rows); both take the one routing
// path. Upstream punctuations are absorbed: the partition is the authority
// on band-level progress.
template <int W>
class PartitionOp : public Sink<W> {
 public:
  PartitionOp(std::vector<Timestamp> latencies, size_t punctuation_period)
      : latencies_(std::move(latencies)),
        punctuation_period_(punctuation_period) {
    IMPATIENCE_CHECK(!latencies_.empty());
    for (size_t i = 1; i < latencies_.size(); ++i) {
      IMPATIENCE_CHECK_MSG(latencies_[i] > latencies_[i - 1],
                           "reorder latencies must be strictly increasing");
    }
    IMPATIENCE_CHECK(punctuation_period_ > 0);
    bands_.resize(latencies_.size());
    band_counts_.resize(latencies_.size(), 0);
  }

  // Wires band `i`'s sorter; must be called for every band before data
  // flows.
  void SetBandDownstream(size_t i, SortOp<W>* sort) {
    IMPATIENCE_CHECK(i < bands_.size() && bands_[i].head == nullptr);
    bands_[i].head = sort;
  }

  void OnBatch(const EventBatch<W>& batch) override {
    for (size_t r = 0; r < batch.size(); ++r) {
      if (batch.filtered.Test(r)) continue;
      Route(batch.RowAt(r));
    }
    UpdateReservations();
  }

  // Routes `n` arrival-ordered rows, exactly as OnBatch routes an
  // unfiltered batch holding them. Returns the largest sync_time among the
  // rows (kMinTimestamp when n == 0), so a driver can keep its own
  // watermark without a second pass.
  Timestamp PushRows(const BasicEvent<W>* rows, size_t n) {
    Timestamp max_sync = kMinTimestamp;
    for (size_t r = 0; r < n; ++r) {
      if (rows[r].sync_time > max_sync) max_sync = rows[r].sync_time;
      Route(rows[r]);
    }
    UpdateReservations();
    return max_sync;
  }

  // Upstream punctuations carry no band information; ignored (see class
  // comment).
  void OnPunctuation(Timestamp) override {}

  void OnFlush() override {
    for (Band& band : bands_) band.head->OnFlush();
  }

  // Runs a punctuation round now, off the usual every-N-events cadence.
  // The server layer calls this when a client punctuation frame arrives,
  // so idle sessions still see results without waiting for the period to
  // fill. Safe at any point: band punctuations only advance.
  void ForcePunctuation() {
    since_punctuation_ = 0;
    PunctuateBands();
  }

  // Events later than the largest latency (discarded).
  uint64_t dropped() const { return dropped_; }
  // Events routed to each band (all zero before the first event).
  const std::vector<uint64_t>& band_counts() const { return band_counts_; }
  Timestamp high_watermark() const { return high_watermark_; }

  // Event-time punctuation frontier of band `i` (kMinTimestamp before the
  // first round). Band 0 — the tightest latency — is the stream's output
  // frontier; high_watermark() minus this is the event-time watermark lag
  // the server reports.
  Timestamp band_punctuation(size_t i) const {
    IMPATIENCE_CHECK(i < bands_.size());
    return bands_[i].last_punctuation;
  }

  // One sample per punctuation round: nanoseconds to punctuate, merge and
  // emit across every band (including ForcePunctuation rounds).
  const HistogramSnapshot& round_latency() const { return round_latency_; }

 private:
  struct Band {
    SortOp<W>* head = nullptr;
    Timestamp last_punctuation = kMinTimestamp;
    // Rows pushed into `head` since its reservation was last updated.
    bool pushed = false;
  };

  // Brings each band's reservation up to date after a span of rows.
  void UpdateReservations() {
    for (Band& band : bands_) {
      if (!band.pushed) continue;
      band.head->UpdateReservation();
      band.pushed = false;
    }
  }

  void Route(const BasicEvent<W>& e) {
    if (e.sync_time > high_watermark_) high_watermark_ = e.sync_time;
    const Timestamp lateness = high_watermark_ - e.sync_time;

    size_t band = bands_.size();
    for (size_t i = 0; i < latencies_.size(); ++i) {
      if (lateness <= latencies_[i]) {
        band = i;
        break;
      }
    }
    if (band == bands_.size()) {
      ++dropped_;  // Later than every latency the user asked for.
    } else {
      bands_[band].head->Push(e);
      bands_[band].pushed = true;
      ++band_counts_[band];
    }

    if (++since_punctuation_ >= punctuation_period_) {
      since_punctuation_ = 0;
      PunctuateBands();
    }
  }

  void PunctuateBands() {
    // Before the first event there is no watermark to punctuate from, and
    // kMinTimestamp - latency would overflow into a huge punctuation that
    // late-drops everything after it.
    if (high_watermark_ == kMinTimestamp) return;
    TRACE_SPAN("framework.punctuation_round");
    const uint64_t round_start_ns = Clock::Nanos();
    for (size_t i = 0; i < bands_.size(); ++i) {
      const Timestamp p = high_watermark_ - latencies_[i];
      if (p > bands_[i].last_punctuation) {
        bands_[i].head->OnPunctuation(p);
        bands_[i].last_punctuation = p;
      }
    }
    round_latency_.Record(Clock::Nanos() - round_start_ns);
  }

  std::vector<Timestamp> latencies_;
  size_t punctuation_period_;
  std::vector<Band> bands_;
  std::vector<uint64_t> band_counts_;
  Timestamp high_watermark_ = kMinTimestamp;
  size_t since_punctuation_ = 0;
  uint64_t dropped_ = 0;
  HistogramSnapshot round_latency_;
};

// The sequence of output streams the framework produces. stream(i) carries
// all events no later than reorder_latencies[i], in order; subscribers
// attach further operators or sinks through the usual Streamable API.
template <int W>
class Streamables {
 public:
  using Sorter = ImpatienceSorter<BasicEvent<W>>;

  Streamables(std::shared_ptr<QueryContext> ctx,
              std::vector<Emitter<W>*> tails, PartitionOp<W>* partition,
              std::vector<Sorter*> sorters,
              std::vector<UnionMergeOp<W>*> unions)
      : ctx_(std::move(ctx)),
        tails_(std::move(tails)),
        partition_(partition),
        sorters_(std::move(sorters)),
        unions_(std::move(unions)) {}

  size_t size() const { return tails_.size(); }

  Streamable<W> stream(size_t i) const {
    IMPATIENCE_CHECK(i < tails_.size());
    return Streamable<W>(ctx_, tails_[i]);
  }

  // Partition statistics (drops, per-band routing).
  const PartitionOp<W>& partition() const { return *partition_; }

  // Mutable partition access for the ingest path (PushRows,
  // ForcePunctuation, OnFlush).
  PartitionOp<W>* mutable_partition() { return partition_; }

  // Total events lost: too late for the largest latency, plus the rare
  // boundary events each band's sorter had to discard.
  uint64_t TotalDrops() const {
    uint64_t drops = partition_->dropped();
    for (const Sorter* sorter : sorters_) drops += sorter->late_drops();
    return drops;
  }

  // Sums the Impatience counters across every band's sorter. With `reset`
  // each band's counters are read and zeroed in one touch, so no sample
  // recorded between a read and a reset is lost (server metrics scrapes).
  // Buffered sorter state is untouched.
  ImpatienceCounters AggregatedCounters(bool reset = false) {
    ImpatienceCounters total;
    for (Sorter* sorter : sorters_) {
      total += sorter->counters();
      if (reset) sorter->ResetCounters();
    }
    return total;
  }

  // Sums the union chain's spill counters; `reset` zeroes each union's in
  // the same touch. Safe while the chain runs on the strand.
  UnionSpillCounters UnionCounters(bool reset = false) {
    UnionSpillCounters total;
    for (UnionMergeOp<W>* u : unions_) total += u->Counters(reset);
    return total;
  }

  // Runs spill maintenance (run-file compaction and, with `flush_tails`,
  // spilled tail-block flushes) on every band's sorter. Called on the
  // thread that owns the pipeline, between punctuations, at quiet points.
  // Returns true if any band did work.
  bool PerformSpillMaintenance(bool flush_tails = false) {
    bool did = false;
    for (Sorter* sorter : sorters_) {
      did |= sorter->PerformSpillMaintenance(flush_tails);
    }
    return did;
  }

 private:
  std::shared_ptr<QueryContext> ctx_;
  std::vector<Emitter<W>*> tails_;
  PartitionOp<W>* partition_;
  std::vector<Sorter*> sorters_;
  std::vector<UnionMergeOp<W>*> unions_;
};

// A query stage: takes a band/merged stream, returns the transformed
// stream. Identity (nullptr) means pass-through.
template <int W>
using StageFn = std::function<Streamable<W>(Streamable<W>)>;

// Builds the framework DAG on `ctx` and returns its output streams. The
// partition has no upstream: a driver feeds it directly (PushRows,
// ForcePunctuation, OnFlush), as the server shard does.
//
// `piq` runs once per band on the band's sorted slice; `merge` runs after
// each union. Pass {} for both to get the basic framework. The graph-owned
// nodes report buffering to the context's MemoryTracker.
template <int W>
Streamables<W> ToStreamables(std::shared_ptr<QueryContext> ctx,
                             const FrameworkOptions& options,
                             StageFn<W> piq = {}, StageFn<W> merge = {}) {
  using Sorter = typename Streamables<W>::Sorter;
  Graph& graph = ctx->graph;
  const size_t k = options.reorder_latencies.size();
  IMPATIENCE_CHECK(k > 0);

  auto* partition = graph.Make<PartitionOp<W>>(options.reorder_latencies,
                                              options.punctuation_period);

  auto apply = [&ctx](const StageFn<W>& fn, Emitter<W>* tail) {
    Streamable<W> s(ctx, tail);
    return fn ? fn(s) : s;
  };

  // Per-band: sort, then PIQ, then a strand stage, behind which the union
  // chain runs.
  std::vector<Sorter*> sorters;
  std::vector<Emitter<W>*> piq_tails;
  sorters.reserve(k);
  piq_tails.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    auto sorter = std::make_unique<Sorter>(options.sorter_config);
    sorters.push_back(sorter.get());
    auto* sort = graph.Make<SortOp<W>>(std::move(sorter), ctx->tracker);
    partition->SetBandDownstream(i, sort);
    Emitter<W>* tail = apply(piq, sort).tail();
    auto* strand_stage =
        graph.Make<StrandStageOp<W>>(options.strand, ctx->tracker);
    tail->SetDownstream(strand_stage);
    piq_tails.push_back(strand_stage);
  }

  // Union chain with merge stages; tee every combined stream that both
  // feeds the next union and serves subscribers. Each union spills its
  // buffers under the sorters' spill settings.
  std::vector<Emitter<W>*> outputs(k);
  std::vector<UnionMergeOp<W>*> unions;
  Emitter<W>* combined = piq_tails[0];
  for (size_t i = 1; i < k; ++i) {
    auto* tee = graph.Make<TeeOp<W>>();
    combined->SetDownstream(tee);
    outputs[i - 1] = graph.Make<TeeBranch<W>>(tee);

    auto* u = graph.Make<UnionMergeOp<W>>(ctx->tracker, ctx->batch_size,
                                          options.sorter_config.spill);
    unions.push_back(u);
    tee->AddDownstream(u->input(0));
    piq_tails[i]->SetDownstream(u->input(1));
    combined = apply(merge, u).tail();
  }
  outputs[k - 1] = combined;

  return Streamables<W>(ctx, std::move(outputs), partition,
                        std::move(sorters), std::move(unions));
}

// Builds the framework DAG behind `source`: the graph above on the
// source's context, with the source feeding the partition.
template <int W>
Streamables<W> ToStreamables(const DisorderedStreamable<W>& source,
                             const FrameworkOptions& options,
                             StageFn<W> piq = {}, StageFn<W> merge = {}) {
  Streamables<W> streams = ToStreamables<W>(source.context(), options,
                                            std::move(piq), std::move(merge));
  source.tail()->SetDownstream(streams.mutable_partition());
  return streams;
}

}  // namespace impatience

#endif  // IMPATIENCE_FRAMEWORK_IMPATIENCE_FRAMEWORK_H_
