// The dataflow node model: push-based operators over columnar batches.
//
// A pipeline is a DAG of nodes. Data flows downstream through three calls:
//   OnBatch(batch)        — a batch of events;
//   OnPunctuation(t)      — promise that no event with sync_time <= t
//                           follows (§III-A);
//   OnFlush()             — end of stream (an implicit infinite
//                           punctuation precedes it).
//
// Nodes are single-threaded, mirroring the paper's single-thread
// evaluation; the Graph owns every node. One sanctioned exception lives in
// framework/impatience_framework.h: a framework given a Strand runs its
// union chain and subscribers as strand jobs. Even then every individual
// node is only ever driven by one thread at a time.

#ifndef IMPATIENCE_ENGINE_NODE_H_
#define IMPATIENCE_ENGINE_NODE_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timestamp.h"
#include "engine/batch.h"

namespace impatience {

// Type-erased base so one Graph can own nodes of any width.
class AnyNode {
 public:
  virtual ~AnyNode() = default;
};

// Receives a stream of batches with `W` payload columns.
template <int W>
class Sink : public virtual AnyNode {
 public:
  virtual void OnBatch(const EventBatch<W>& batch) = 0;
  virtual void OnPunctuation(Timestamp t) = 0;
  virtual void OnFlush() = 0;
};

// Produces a stream of batches with `W` payload columns.
template <int W>
class Emitter : public virtual AnyNode {
 public:
  // Must be called exactly once before data flows.
  virtual void SetDownstream(Sink<W>* downstream) = 0;
};

// Common base for 1-in/1-out operators: holds the downstream pointer and
// provides forwarding helpers. Subclasses implement the Sink<WIn> methods.
template <int WIn, int WOut>
class Operator : public Sink<WIn>, public Emitter<WOut> {
 public:
  void SetDownstream(Sink<WOut>* downstream) override {
    IMPATIENCE_CHECK_MSG(downstream_ == nullptr,
                         "downstream attached twice");
    downstream_ = downstream;
  }

 protected:
  Sink<WOut>* downstream() const {
    IMPATIENCE_DCHECK(downstream_ != nullptr);
    return downstream_;
  }

  void EmitBatch(const EventBatch<WOut>& batch) {
    if (!batch.empty()) downstream_->OnBatch(batch);
  }
  void EmitPunctuation(Timestamp t) { downstream_->OnPunctuation(t); }
  void EmitFlush() { downstream_->OnFlush(); }

 private:
  Sink<WOut>* downstream_ = nullptr;
};

// Owns the nodes of a pipeline DAG. The fluent Streamable API (see
// streamable.h) adds nodes as the query is composed; ownership stays here
// so intermediate Streamable values can be discarded freely.
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // Transfers ownership of `node` to the graph and returns the raw pointer
  // for wiring.
  template <typename Node>
  Node* Own(std::unique_ptr<Node> node) {
    Node* raw = node.get();
    nodes_.push_back(std::move(node));
    return raw;
  }

  template <typename Node, typename... Args>
  Node* Make(Args&&... args) {
    return Own(std::make_unique<Node>(std::forward<Args>(args)...));
  }

  size_t node_count() const { return nodes_.size(); }

 private:
  std::vector<std::unique_ptr<AnyNode>> nodes_;
};

// A buffering helper that accumulates rows and emits fixed-size batches
// downstream; used by operators whose output cardinality differs from
// their input (sort, aggregate, union).
template <int W>
class BatchBuilder {
 public:
  explicit BatchBuilder(size_t batch_size = kDefaultBatchSize)
      : batch_size_(batch_size) {}

  void Append(const BasicEvent<W>& e, Sink<W>* downstream) {
    if (pending_.empty()) pending_.Reserve(batch_size_);
    pending_.AppendEvent(e);
    if (pending_.size() >= batch_size_) Flush(downstream);
  }

  // Sends any buffered rows downstream. Call before forwarding a
  // punctuation so ordering with respect to control messages is preserved.
  void Flush(Sink<W>* downstream) {
    if (pending_.empty()) return;
    pending_.SealFilter();
    downstream->OnBatch(pending_);
    pending_.Clear();
  }

 private:
  size_t batch_size_;
  EventBatch<W> pending_;
};

}  // namespace impatience

#endif  // IMPATIENCE_ENGINE_NODE_H_
