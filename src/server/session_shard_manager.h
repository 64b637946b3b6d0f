// Session-sharded ingestion: hash-partitions client sessions across N
// shards, each shard owning a bounded ingress queue and its own Impatience
// framework. The shard builds the framework without a source and drives
// its partition directly: decoded rows go to PushRows, client
// punctuations and flushes to ForcePunctuation, and shutdown to OnFlush.
//
// Sharding model (after Prasaad et al., "Scaling Ordered Stream
// Processing on Shared-Memory Multicores"): all state is per-shard, so
// shards never synchronize with each other — a session's frames always
// land on the same shard, and cross-shard coordination is limited to the
// metrics snapshot and shutdown barrier. Each shard's drain loop runs on
// its own dedicated thread (it blocks on the queue, which a task on the
// fork/join ThreadPool must never do); the pipeline *inside* the shard —
// parallel punctuation merges and the emit strand — runs on the sorters'
// pool (by default the process-wide ThreadPool, shared by all shards).
//
// Two stages: the shard thread pops frames, partitions and sorts; each
// band's output goes to the shard's emit Strand on the same pool, which
// runs the union chain, the result callback, progress reports and flush
// acks serially, in the order the shard thread posted them. With a
// 1-thread pool the strand runs every job inline on the shard thread.
//
// Backpressure: the queue holds whole decoded frames, and the policy
// decides what happens when a shard falls behind:
//   kBlock       — the connection thread waits (lossless; TCP pushback
//                  propagates to the client);
//   kRejectFrame — the frame is refused and the client told (kReject);
//   kShedOldest  — the oldest queued frame is evicted (freshest data
//                  wins; eviction counted per frame and per event).
//
// Shutdown is drain-and-flush: queues close (no new frames), workers
// drain what is queued, every shard's partition is flushed (all buffered
// events released in order), and only then do the workers exit.

#ifndef IMPATIENCE_SERVER_SESSION_SHARD_MANAGER_H_
#define IMPATIENCE_SERVER_SESSION_SHARD_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bounded_queue.h"
#include "common/event.h"
#include "framework/impatience_framework.h"
#include "server/metrics.h"
#include "server/wire_format.h"

namespace impatience {
namespace storage {
class SpillFlusher;
}  // namespace storage
namespace server {

enum class BackpressurePolicy : uint8_t {
  kBlock = 0,
  kRejectFrame = 1,
  kShedOldest = 2,
};

const char* BackpressurePolicyName(BackpressurePolicy policy);
// Parses "block" / "reject" / "shed". Returns false on anything else.
bool ParseBackpressurePolicy(const std::string& name,
                             BackpressurePolicy* policy);

struct ShardManagerOptions {
  size_t num_shards = 1;
  // Frames (not events) per shard ingress queue.
  size_t queue_capacity = 256;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  // Per-shard pipeline configuration. Empty reorder_latencies defaults to
  // {1 s, 1 min}.
  FrameworkOptions framework;
  // When true, every framework output stream is delivered to the result
  // callback; default is the final (most complete) stream only.
  bool subscribe_all_streams = false;
  // Test hook: no worker threads are started; tests drain queues
  // explicitly with DrainShardForTest(). Incompatible with kBlock (a
  // blocked producer would never be released).
  bool manual_drain = false;
  // Durable spill directory. When set, each shard opens a RunStore at
  // <spill_dir>/shard-<i>: sorter runs evicted under the memory budget are
  // written there (fsync'd, CRC-framed), and construction replays any runs
  // a previous process left behind — crash-recoverable ingest. Empty means
  // spilling (if enabled by the budget) uses throwaway temp-dir stores.
  std::string spill_dir;
  // Total buffering budget in bytes, divided evenly across shards and
  // enforced by each shard's MemoryTracker: when a shard's pipeline
  // exceeds its slice, the coldest sorter runs spill to disk. 0 defers to
  // IMPATIENCE_MEMORY_BUDGET (then enforced per sorter, not per shard).
  // Spill upkeep runs on the shard thread: run-file compaction whenever
  // its queue drains, and a flush of spilled tail blocks once the queue
  // has been idle for 100 ms.
  size_t memory_budget = 0;
  // Write-behind spill pipeline: >0 starts a SpillFlusher pool with this
  // many threads; sealed spill blocks are written (and merge read-ahead
  // served) off the shard threads. 0 leaves the sorters on the default
  // flusher: the $IMPATIENCE_SPILL_FLUSHER_THREADS pool if set, else the
  // inline flusher, which writes each block on its shard thread.
  size_t spill_flusher_threads = 0;
  // Cap on bytes queued in the flusher pool before enqueues block (the
  // backpressure that keeps a slow disk from buffering unbounded RAM).
  size_t spill_flusher_inflight_bytes = 8u << 20;
};

// Outcome of routing one frame to a shard.
struct SubmitResult {
  QueuePush push = QueuePush::kOk;
  // Events refused (kRejected) or evicted (kShed) by this submission.
  uint64_t affected_events = 0;
};

// Called serially per shard, on its emit strand, for every row the shard
// pipeline emits on a subscribed output stream. One call at a time per
// shard; different shards call concurrently.
using ResultFn =
    std::function<void(size_t shard, size_t stream, const Event& e)>;

// Called serially per shard, on its emit strand, once a kFlushSession
// frame has been applied — every earlier frame of that session is in the
// pipeline, and every record its punctuation released has already gone to
// the ResultFn.
using SessionFlushFn = std::function<void(uint64_t session_id)>;

// Called at shard burst boundaries (ingress queue drained, explicit test
// drain, pipeline flush) with the shard's band-0 punctuation frontier.
// Called serially per shard, on its emit strand, after every on_result
// call the burst produced — a result exporter can treat it as "seal what
// you have".
using ShardProgressFn =
    std::function<void(size_t shard, Timestamp watermark)>;

class SessionShardManager {
 public:
  explicit SessionShardManager(ShardManagerOptions options,
                               ResultFn on_result = {},
                               SessionFlushFn on_session_flush = {},
                               ShardProgressFn on_shard_progress = {});
  ~SessionShardManager();

  SessionShardManager(const SessionShardManager&) = delete;
  SessionShardManager& operator=(const SessionShardManager&) = delete;

  size_t num_shards() const { return shards_.size(); }

  // The shard a session's frames are routed to (stable hash partition).
  size_t ShardOf(uint64_t session_id) const;

  // Routes a data frame (kEvents / kPunctuation / kFlushSession) to its
  // session's shard under the configured backpressure policy. Returns
  // kClosed after shutdown has begun.
  SubmitResult Submit(Frame frame);

  // Drain-and-flush shutdown; idempotent, returns when every shard has
  // flushed its pipeline, its emit strand has run everything posted, and
  // its worker has exited.
  void Shutdown();

  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

  // Point-in-time metrics for every shard. With `reset_sorter_counters`,
  // each pipeline's Impatience counters and the shard latency histograms
  // restart from zero after the snapshot — read and reset as one operation
  // per band, so no sample can land between the read and the reset and be
  // lost (queue/backpressure totals are cumulative and never reset).
  std::vector<ShardMetrics> SnapshotShards(bool reset_sorter_counters = false);

  // Test hook (requires options.manual_drain): synchronously processes
  // everything queued on `shard` and waits for its emit strand.
  void DrainShardForTest(size_t shard);

  // Crash simulation for recovery tests: closes the queues and stops the
  // workers WITHOUT flushing the pipelines, exactly as a kill would —
  // buffered RAM state is lost, spilled run files and manifests survive
  // for the next manager opened on the same spill_dir to recover.
  // Idempotent; the destructor becomes a no-op afterwards.
  void AbandonForTest();

 private:
  struct Shard;

  void WorkerLoop(Shard* shard);
  void Process(Shard* shard, Frame& frame);
  // Finishes the pipeline, reports progress and waits for the strand.
  void FlushPipeline(Shard* shard);
  // Posts a burst-end progress report behind the burst's results.
  void PostProgress(Shard* shard, Timestamp frontier);
  // Replays runs a crashed predecessor spilled into this shard's store
  // back through the partition (at-least-once), then drops them.
  void RecoverShard(Shard* shard);

  ShardManagerOptions options_;
  ResultFn on_result_;
  SessionFlushFn on_session_flush_;
  ShardProgressFn on_shard_progress_;
  // Write-behind pool (nullptr at 0 threads). Declared before shards_ so
  // it outlives the shards: sorters hold flusher channels until their
  // pipelines are destroyed.
  std::unique_ptr<storage::SpillFlusher> flusher_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> shut_down_{false};
  std::atomic<bool> abandoned_{false};  // AbandonForTest: skip the flush.
  std::mutex shutdown_mu_;  // Serializes concurrent Shutdown() calls.
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_SESSION_SHARD_MANAGER_H_
