// A bounded multi-producer queue with pluggable full-queue behavior — the
// ingress buffer each server shard owns (see src/server).
//
// The three push flavors correspond to the server's backpressure policies:
//   * PushBlock      — wait for space (lossless, applies backpressure to
//                      the producing connection thread);
//   * TryPush        — fail fast when full (the caller rejects the frame);
//   * PushShedOldest — evict the oldest queued item to make room (bounded
//                      staleness: fresh data wins, the evicted item is
//                      returned to the caller for accounting).
//
// Implementation is a mutex + two condition variables over a deque: the
// queue holds whole ingest frames (hundreds of events each), so queue ops
// are far off the hot path and simplicity beats lock-free cleverness —
// and every interleaving stays obvious under TSan.

#ifndef IMPATIENCE_COMMON_BOUNDED_QUEUE_H_
#define IMPATIENCE_COMMON_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"

namespace impatience {

// Outcome of a push attempt.
enum class QueuePush {
  kOk,        // Item enqueued; nothing displaced.
  kBlocked,   // Item enqueued after waiting for space (PushBlock only).
  kRejected,  // Queue full; item NOT enqueued (TryPush only).
  kShed,      // Item enqueued; the oldest item was evicted (PushShedOldest).
  kClosed,    // Queue closed; item NOT enqueued.
};

// Outcome of a timed pop.
enum class QueuePop {
  kItem,      // An item was popped.
  kTimedOut,  // Nothing arrived within the timeout; the queue is open.
  kClosed,    // Queue closed and drained.
};

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity) : capacity_(capacity) {
    IMPATIENCE_CHECK(capacity_ > 0);
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  // Blocks until there is space (or the queue closes).
  QueuePush PushBlock(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    while (items_.size() >= capacity_ && !closed_) {
      waited = true;
      not_full_.wait(lock);
    }
    if (closed_) return QueuePush::kClosed;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return waited ? QueuePush::kBlocked : QueuePush::kOk;
  }

  // Never blocks; the caller owns the rejected item.
  QueuePush TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return QueuePush::kClosed;
    if (items_.size() >= capacity_) return QueuePush::kRejected;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return QueuePush::kOk;
  }

  // Never blocks; evicts the oldest queued item when full. The evicted
  // item (if any) is returned through `shed` so the caller can account for
  // the lost work.
  QueuePush PushShedOldest(T item, std::optional<T>* shed) {
    shed->reset();
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return QueuePush::kClosed;
    QueuePush result = QueuePush::kOk;
    if (items_.size() >= capacity_) {
      shed->emplace(std::move(items_.front()));
      items_.pop_front();
      result = QueuePush::kShed;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return result;
  }

  // Blocks until an item is available or the queue is closed AND drained.
  // Returns false only in the latter case — Close() never discards queued
  // items, so a consumer loop `while (q.Pop(&item))` is a full drain.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    while (items_.empty() && !closed_) {
      not_empty_.wait(lock);
    }
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  // Pop that waits at most `timeout` for an item. kTimedOut tells an
  // idle consumer that nothing has arrived for that long.
  QueuePop PopFor(T* out, std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!not_empty_.wait_for(lock, timeout, [this] {
          return !items_.empty() || closed_;
        })) {
      return QueuePop::kTimedOut;
    }
    if (items_.empty()) return QueuePop::kClosed;
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return QueuePop::kItem;
  }

  // Non-blocking pop; false when nothing is queued right now.
  bool TryPop(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  // Rejects all future pushes and wakes every waiter; queued items remain
  // poppable (drain-then-stop shutdown).
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_BOUNDED_QUEUE_H_
