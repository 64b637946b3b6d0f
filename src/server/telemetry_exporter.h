// Streaming telemetry: fans live span batches and periodic metrics-delta
// snapshots out to subscribed connections as kTelemetryChunk frames.
//
// Subscriptions are per connection (kSubscribeRequest, aux = a bitmask of
// kTelemetrySpans | kTelemetryMetrics). The exporter's drain thread wakes
// on a fixed cadence, harvests the span rings incrementally (per-ring
// cursors — only events recorded since the previous harvest are consumed,
// shared with the one-shot dump path), packs them into bodies of at most
// `max_chunk_bytes`, and offers each body to every span subscriber
// through its try-sink. A metrics round snapshots the shards and emits
// one JSON delta object against the previous round's snapshot, rendered
// from the metric table (RenderMetricsDelta, metrics.h).
//
// Delivery — per-subscriber sequence numbers, drops counted in chunks,
// shedding of stalled subscribers, and the Unsubscribe-waits-out-delivery
// lifetime rule — is the SubscriptionHub's single backpressure contract
// (subscription_hub.h).

#ifndef IMPATIENCE_SERVER_TELEMETRY_EXPORTER_H_
#define IMPATIENCE_SERVER_TELEMETRY_EXPORTER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/metrics.h"
#include "server/subscription_hub.h"
#include "server/wire_format.h"

namespace impatience {
namespace server {

struct TelemetryOptions {
  // Upper bound on one chunk body; kept well under kMaxPayloadBytes so a
  // chunk always frames. Values are clamped to [1 KiB, 4 MiB].
  size_t max_chunk_bytes = 256u * 1024;
  // Drain-thread cadence for span harvests.
  int span_interval_ms = 50;
  // Cadence for metrics-delta chunks (rounded to span ticks).
  int metrics_interval_ms = 500;
  // Consecutive undeliverable chunks before a subscriber is dropped.
  size_t shed_after_drops = 40;
  // Spawn the drain thread. Tests leave it off and call Tick() directly.
  bool start_thread = true;
};

class TelemetryExporter {
 public:
  // Must be callable from the drain thread.
  using TrySink = SubscriptionHub::TrySink;
  using SnapshotFn = std::function<std::vector<ShardMetrics>()>;

  TelemetryExporter(TelemetryOptions options, SnapshotFn snapshot);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  // Joins the drain thread. Idempotent; implied by the destructor.
  void Stop();

  // Registers a subscriber; returns its subscription id. `streams` is a
  // bitmask of kTelemetrySpans | kTelemetryMetrics (validated by the
  // wire decoder). Chunks sent to this subscriber carry `session_id`.
  uint64_t Subscribe(uint64_t session_id, uint8_t streams, TrySink sink);

  // Removes a subscription and waits out any in-flight delivery to its
  // sink. Unknown ids are ignored (the subscriber may have been shed).
  void Unsubscribe(uint64_t id);

  // One harvest + fan-out round. The drain thread calls this on its
  // cadence; tests call it directly for deterministic schedules.
  // `force_metrics` emits the metrics delta regardless of cadence.
  void Tick(bool force_metrics = false);

  // Dump-path accounting (the one-shot kDump is chunked by the service
  // through the same trace harvest; see ingest_service.cc).
  void NoteDump(uint64_t chunks_sent, uint64_t chunks_dropped);

  TelemetryMetrics Counters() const;

  const TelemetryOptions& options() const { return options_; }

 private:
  void ThreadMain();
  // Fans one chunk body of `stream` out to its subscribers.
  void Publish(uint8_t stream, std::string body);

  const TelemetryOptions options_;
  const SnapshotFn snapshot_;
  SubscriptionHub hub_;

  // Guards the tick state and the exporter's own counters (delivery
  // counters live in hub_).
  mutable std::mutex mu_;
  uint64_t ticks_ = 0;
  size_t metrics_every_ = 1;
  TelemetryMetrics counters_;
  // The previous metrics round's shards, the base of the next delta.
  std::optional<std::vector<ShardMetrics>> prev_shards_;

  std::mutex thread_mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_TELEMETRY_EXPORTER_H_
