// Streaming query results: fans the per-shard pipeline output out to
// subscribed connections as kResultChunk frames.
//
// Each shard's emit strand calls OnResult for every record the pipeline
// emits (the same emission point as ServiceOptions::on_result). Records
// accumulate in a per-shard slot and are sealed into one chunk when the
// emitting stream changes, when the chunk would exceed `max_chunk_bytes`,
// or at a burst boundary (OnShardProgress — the shard's ingress queue
// went empty or a drain finished), which also stamps the shard's band-0
// punctuation frontier into the slot as the chunk watermark. Sealed
// chunks are offered to every matching subscriber through its try-sink;
// a subscription filters either on one shard (kResultFilterSession — the
// shard the subscribing session routes to) or takes every shard's output
// (kResultFilterAll).
//
// Delivery is the SubscriptionHub's single backpressure contract
// (subscription_hub.h), with drops counted in records: a refused chunk's
// records surface as the subscriber's rising cumulative dropped count
// while its delivered sequence numbers stay gap-free, and persistent
// refusal sheds the subscription. Beyond that the exporter buffers only
// one unsealed chunk per shard, so a stalled subscriber cannot stall
// ingest or other sessions.
//
// Delivery starts at the first chunk sealed after Subscribe; chunks
// sealed while no subscriber matches are discarded, not queued.
//
// Locking: each shard slot has its own mutex, held only while appending
// or extracting pending records — never across the fan-out — so the slot
// and hub mutexes never nest.

#ifndef IMPATIENCE_SERVER_RESULT_EXPORTER_H_
#define IMPATIENCE_SERVER_RESULT_EXPORTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/event.h"
#include "common/timestamp.h"
#include "server/metrics.h"
#include "server/subscription_hub.h"

namespace impatience {
namespace server {

struct ResultStreamOptions {
  // Upper bound on one kResultChunk frame payload; kept well under
  // kMaxPayloadBytes so a chunk always frames. Clamped to [1 KiB, 4 MiB].
  size_t max_chunk_bytes = 256u * 1024;
  // Consecutive undeliverable chunks before a subscriber is shed.
  size_t shed_after_drops = 40;
};

class ResultExporter {
 public:
  // Called from shard emit strands.
  using TrySink = SubscriptionHub::TrySink;

  // Matches any shard in a subscription's filter.
  static constexpr size_t kAllShards = static_cast<size_t>(-1);

  ResultExporter(ResultStreamOptions options, size_t num_shards);

  ResultExporter(const ResultExporter&) = delete;
  ResultExporter& operator=(const ResultExporter&) = delete;

  // Pipeline emission hook: one record out of `shard`'s pipeline for
  // logical stream `stream`. Called serially per shard, on its emit
  // strand (one call at a time per shard; concurrent across shards).
  void OnResult(size_t shard, size_t stream, const Event& e);

  // Burst-boundary hook: `watermark` is the shard's band-0 punctuation
  // frontier. Advances the slot watermark (monotone) and seals any
  // pending records so subscribers see complete bursts promptly.
  void OnShardProgress(size_t shard, Timestamp watermark);

  // Registers a subscriber; returns its subscription id. `filter` is the
  // wire filter (kResultFilterSession / kResultFilterAll), which the
  // caller echoes in its ack; delivery follows `shard_filter`, the shard
  // it resolves to, or kAllShards. Chunks sent to this subscriber carry
  // `session_id`.
  uint64_t Subscribe(uint64_t session_id, uint8_t filter,
                     size_t shard_filter, TrySink sink);

  // Removes a subscription and waits out any in-flight delivery to its
  // sink. Unknown ids are ignored (the subscriber may have been shed).
  void Unsubscribe(uint64_t id);

  ResultStreamMetrics Counters() const;

  const ResultStreamOptions& options() const { return options_; }

 private:
  struct ShardSlot {
    std::mutex mu;
    std::vector<Event> pending;
    uint32_t stream = 0;  // Stream of the pending records.
    Timestamp watermark = kMinTimestamp;
  };

  // Seals `records` into one chunk and fans it out.
  void Publish(size_t shard, uint32_t stream, Timestamp watermark,
               std::vector<Event> records);

  const ResultStreamOptions options_;
  const size_t records_per_chunk_;
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  SubscriptionHub hub_;
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_RESULT_EXPORTER_H_
