#include "server/result_exporter.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace impatience {
namespace server {

namespace {

// A subscriber's filter is its shard (or kAllShards); a chunk's key is
// the shard that emitted it.
bool ShardMatches(uint64_t shard_filter, uint64_t shard) {
  return shard_filter == ResultExporter::kAllShards || shard_filter == shard;
}

}  // namespace

ResultExporter::ResultExporter(ResultStreamOptions options, size_t num_shards)
    : options_([&options] {
        options.max_chunk_bytes = ClampChunkBytes(options.max_chunk_bytes);
        return options;
      }()),
      records_per_chunk_(std::max<size_t>(
          1, (options_.max_chunk_bytes - kResultChunkHeaderBytes) /
                 kWireEventBytes)),
      hub_(options_.shed_after_drops, ShardMatches) {
  slots_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    slots_.push_back(std::make_unique<ShardSlot>());
  }
}

void ResultExporter::OnResult(size_t shard, size_t stream, const Event& e) {
  // A subscriber racing in simply starts at the next sealed chunk, per
  // the delivery-start contract.
  if (hub_.empty()) return;
  IMPATIENCE_CHECK(shard < slots_.size());
  ShardSlot* slot = slots_[shard].get();
  // A call can seal twice: the pending records of a previous stream, then
  // (when a chunk holds a single record) the new record itself.
  std::vector<Event> sealed_prev;
  std::vector<Event> sealed_full;
  uint32_t prev_stream = 0;
  Timestamp watermark = kMinTimestamp;
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    watermark = slot->watermark;
    if (!slot->pending.empty() &&
        slot->stream != static_cast<uint32_t>(stream)) {
      prev_stream = slot->stream;
      sealed_prev.swap(slot->pending);
    }
    slot->stream = static_cast<uint32_t>(stream);
    slot->pending.push_back(e);
    if (slot->pending.size() >= records_per_chunk_) {
      sealed_full.swap(slot->pending);
    }
  }
  if (!sealed_prev.empty()) {
    Publish(shard, prev_stream, watermark, std::move(sealed_prev));
  }
  if (!sealed_full.empty()) {
    Publish(shard, static_cast<uint32_t>(stream), watermark,
            std::move(sealed_full));
  }
}

void ResultExporter::OnShardProgress(size_t shard, Timestamp watermark) {
  IMPATIENCE_CHECK(shard < slots_.size());
  ShardSlot* slot = slots_[shard].get();
  // Advance the watermark even with no subscribers: the first chunk after
  // a future Subscribe should carry the current frontier, not a stale one.
  std::vector<Event> sealed;
  uint32_t stream = 0;
  Timestamp frontier = kMinTimestamp;
  {
    std::lock_guard<std::mutex> lock(slot->mu);
    if (watermark > slot->watermark) slot->watermark = watermark;
    frontier = slot->watermark;
    if (!slot->pending.empty()) {
      stream = slot->stream;
      sealed.swap(slot->pending);
    }
  }
  if (!sealed.empty()) Publish(shard, stream, frontier, std::move(sealed));
}

uint64_t ResultExporter::Subscribe(uint64_t session_id, uint8_t /*filter*/,
                                   size_t shard_filter, TrySink sink) {
  return hub_.Subscribe(session_id, shard_filter, std::move(sink));
}

void ResultExporter::Unsubscribe(uint64_t id) { hub_.Unsubscribe(id); }

void ResultExporter::Publish(size_t shard, uint32_t stream,
                             Timestamp watermark, std::vector<Event> records) {
  Frame chunk;
  chunk.type = FrameType::kResultChunk;
  chunk.result_watermark = watermark;
  chunk.result_shard = static_cast<uint32_t>(shard);
  chunk.result_stream = stream;
  chunk.events = std::move(records);
  hub_.FanOut(&chunk, shard, /*weight=*/chunk.events.size());
}

ResultStreamMetrics ResultExporter::Counters() const {
  const SubscriptionHub::Counters hub = hub_.counters();
  ResultStreamMetrics c;
  c.subscribers = hub.subscribers;
  c.chunks_built = hub.fan_outs;
  c.chunks_sent = hub.chunks_sent;
  c.chunks_dropped = hub.chunks_dropped;
  c.records_streamed = hub.weight_sent;
  c.records_dropped = hub.weight_dropped;
  c.subscribers_shed = hub.subscribers_shed;
  return c;
}

}  // namespace server
}  // namespace impatience
