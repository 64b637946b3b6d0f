// One subscriber fan-out for the streaming exporters (telemetry_exporter.h
// and result_exporter.h): the subscriber list, per-subscriber delivery
// accounting, and the backpressure contract both streams share.
//
// Backpressure contract: a sink returning false means the connection's
// bounded write budget is full. The chunk is dropped for that subscriber
// only — its cumulative `dropped` count rises by the chunk's weight
// (chunks for telemetry, records for results) and surfaces in the next
// chunk it does receive — and its sequence number does not advance, so
// delivered sequence numbers stay gap-free (1, 2, 3, ...).
// `shed_after_drops` consecutive refusals unsubscribe it (counted in
// subscribers_shed); an accepted chunk resets the run. The connection
// itself stays up and can resubscribe. The hub never blocks on a
// subscriber and never buffers a chunk, so a stalled subscriber cannot
// stall the producer or any other subscriber.
//
// Lifetime: Subscribe, Unsubscribe and FanOut run under one mutex. A
// connection's destructor calls Unsubscribe, which therefore waits out
// any in-flight delivery to that sink — after Unsubscribe returns no
// thread can call the sink again.

#ifndef IMPATIENCE_SERVER_SUBSCRIPTION_HUB_H_
#define IMPATIENCE_SERVER_SUBSCRIPTION_HUB_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "server/wire_format.h"

namespace impatience {
namespace server {

// Bounds a streamed chunk body to [1 KiB, 4 MiB] — far under
// kMaxPayloadBytes, so a chunk always frames.
inline size_t ClampChunkBytes(size_t v) {
  return std::clamp<size_t>(v, 1024, 4u << 20);
}

class SubscriptionHub {
 public:
  // Delivers one encoded frame toward the subscriber. Returns false to
  // refuse (bounded queue full): the chunk is dropped, never retried.
  // Must not block.
  using TrySink = std::function<bool(std::string bytes)>;
  // Whether a subscriber registered with `filter` takes a chunk fanned
  // out under `key`.
  using MatchFn = bool (*)(uint64_t filter, uint64_t key);

  // Cumulative delivery accounting across all subscribers.
  struct Counters {
    uint64_t subscribers = 0;     // Live subscriptions (a gauge).
    uint64_t fan_outs = 0;        // FanOut calls, matched or not.
    uint64_t chunks_sent = 0;     // Chunks a sink accepted.
    uint64_t chunks_dropped = 0;  // Chunks a sink refused.
    uint64_t weight_sent = 0;     // Summed weight of accepted chunks.
    uint64_t weight_dropped = 0;  // Summed weight of refused chunks.
    uint64_t subscribers_shed = 0;
  };

  SubscriptionHub(size_t shed_after_drops, MatchFn match)
      : shed_after_drops_(shed_after_drops), match_(match) {}

  SubscriptionHub(const SubscriptionHub&) = delete;
  SubscriptionHub& operator=(const SubscriptionHub&) = delete;

  // Registers a subscriber; returns its subscription id (never 0).
  // Chunks delivered to it carry `session_id`.
  uint64_t Subscribe(uint64_t session_id, uint64_t filter, TrySink sink);

  // Removes a subscription and waits out any in-flight delivery to its
  // sink. Unknown ids are ignored (the subscriber may have been shed).
  void Unsubscribe(uint64_t id);

  // Offers `chunk` — a kTelemetryChunk or kResultChunk with its body
  // already set — to every subscriber whose filter matches `key`,
  // stamping each copy with the subscriber's session id, next sequence
  // number, and cumulative dropped weight. A refusal adds `weight` to
  // that subscriber's dropped count.
  void FanOut(Frame* chunk, uint64_t key, uint64_t weight);

  // True if some subscriber's filter matches `key`.
  bool AnyMatch(uint64_t key) const;

  // Relaxed subscriber count, for producers' cheap early-outs: a
  // subscriber racing in simply starts at a later chunk.
  bool empty() const { return live_.load(std::memory_order_relaxed) == 0; }

  Counters counters() const;

 private:
  struct Subscriber {
    uint64_t id = 0;
    uint64_t session_id = 0;
    uint64_t filter = 0;
    TrySink sink;
    uint64_t seq = 0;      // Last delivered sequence number.
    uint64_t dropped = 0;  // Cumulative weight dropped for this sink.
    size_t consecutive_drops = 0;
  };

  const size_t shed_after_drops_;
  const MatchFn match_;

  mutable std::mutex mu_;
  std::vector<Subscriber> subs_;
  uint64_t next_id_ = 1;
  Counters counters_;  // `subscribers` filled in by counters().
  std::atomic<size_t> live_{0};  // subs_.size(), readable without mu_.
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_SUBSCRIPTION_HUB_H_
