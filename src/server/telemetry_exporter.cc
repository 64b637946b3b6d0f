#include "server/telemetry_exporter.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/trace.h"

namespace impatience {
namespace server {

namespace {

// A subscriber's filter is its stream bitmask; a chunk's key is the one
// stream it belongs to.
bool StreamsMatch(uint64_t streams, uint64_t stream) {
  return (streams & stream) != 0;
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryOptions options,
                                     SnapshotFn snapshot)
    : options_([&options] {
        options.max_chunk_bytes = ClampChunkBytes(options.max_chunk_bytes);
        return options;
      }()),
      snapshot_(std::move(snapshot)),
      hub_(options_.shed_after_drops, StreamsMatch) {
  const int span_ms = std::max(options_.span_interval_ms, 1);
  metrics_every_ = std::max<size_t>(
      1, static_cast<size_t>(std::max(options_.metrics_interval_ms, 1) /
                             span_ms));
  if (options_.start_thread) {
    thread_ = std::thread([this] { ThreadMain(); });
  }
}

TelemetryExporter::~TelemetryExporter() { Stop(); }

void TelemetryExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TelemetryExporter::ThreadMain() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(
                           std::max(options_.span_interval_ms, 1)),
                 [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    Tick();
    lock.lock();
  }
}

uint64_t TelemetryExporter::Subscribe(uint64_t session_id, uint8_t streams,
                                      TrySink sink) {
  return hub_.Subscribe(session_id, streams, std::move(sink));
}

void TelemetryExporter::Unsubscribe(uint64_t id) { hub_.Unsubscribe(id); }

void TelemetryExporter::Publish(uint8_t stream, std::string body) {
  Frame chunk;
  chunk.type = FrameType::kTelemetryChunk;
  chunk.telemetry_streams = stream;
  chunk.text = std::move(body);
  hub_.FanOut(&chunk, stream, /*weight=*/1);
}

void TelemetryExporter::Tick(bool force_metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  ++ticks_;
  if (hub_.AnyMatch(kTelemetrySpans)) {
    // Harvest only while someone is listening: an idle exporter leaves
    // the rings for the one-shot dump path.
    std::vector<std::string> bodies;
    trace::DrainStats stats;
    trace::HarvestChunks(options_.max_chunk_bytes, &bodies, &stats);
    counters_.spans_exported += stats.spans;
    counters_.span_ring_drops += stats.dropped;
    for (std::string& body : bodies) {
      Publish(kTelemetrySpans, std::move(body));
    }
  }
  if ((force_metrics || ticks_ % metrics_every_ == 0) &&
      hub_.AnyMatch(kTelemetryMetrics)) {
    std::vector<ShardMetrics> shards = snapshot_();
    std::string body =
        RenderMetricsDelta(shards, prev_shards_ ? &*prev_shards_ : nullptr,
                           counters_.span_ring_drops);
    prev_shards_ = std::move(shards);
    ++counters_.metrics_deltas;
    Publish(kTelemetryMetrics, std::move(body));
  }
}

void TelemetryExporter::NoteDump(uint64_t chunks_sent,
                                 uint64_t chunks_dropped) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.dump_chunks += chunks_sent;
  if (chunks_dropped > 0) ++counters_.dump_truncated;
}

TelemetryMetrics TelemetryExporter::Counters() const {
  TelemetryMetrics c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    c = counters_;
  }
  const SubscriptionHub::Counters hub = hub_.counters();
  c.subscribers = hub.subscribers;
  c.chunks_sent = hub.chunks_sent;
  c.chunks_dropped = hub.chunks_dropped;
  c.subscribers_shed = hub.subscribers_shed;
  return c;
}

}  // namespace server
}  // namespace impatience
