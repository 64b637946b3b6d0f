#include "server/session_shard_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/bounded_queue.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "common/timestamp.h"
#include "common/trace.h"
#include "engine/streamable.h"
#include "storage/run_store.h"
#include "storage/spill.h"
#include "storage/spill_flusher.h"

namespace impatience {
namespace server {

const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kRejectFrame:
      return "reject";
    case BackpressurePolicy::kShedOldest:
      return "shed";
  }
  return "unknown";
}

bool ParseBackpressurePolicy(const std::string& name,
                             BackpressurePolicy* policy) {
  if (name == "block") {
    *policy = BackpressurePolicy::kBlock;
  } else if (name == "reject") {
    *policy = BackpressurePolicy::kRejectFrame;
  } else if (name == "shed") {
    *policy = BackpressurePolicy::kShedOldest;
  } else {
    return false;
  }
  return true;
}

namespace {

// SplitMix64 finalizer: session ids are often sequential, so mix before
// taking the modulus or all sessions land on adjacent shards.
uint64_t MixSession(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A shard whose queue has been empty this long writes its sorters' spilled
// tail blocks to disk: the durability bound for a session that stops
// sending without a punctuation or flush.
constexpr std::chrono::milliseconds kIdleSpillFlushAfter{100};

// Events recovery hands the partition per PushRows call.
constexpr size_t kRecoveryChunkEvents = 4096;

}  // namespace

struct SessionShardManager::Shard {
  Shard(size_t index, const ShardManagerOptions& options)
      : index(index),
        queue(options.queue_capacity),
        strand(&ThreadPool::Global(), &emit, "shard.emit") {}

  const size_t index;
  BoundedMpscQueue<Frame> queue;

  // Byte-accurate buffering footprint of everything in this shard's
  // framework; the spill policy reads it against the shard's budget slice.
  // Declared before `streams`, whose nodes register reservations against
  // it.
  MemoryTracker memory;
  // Durable run store under <spill_dir>/shard-<index> (nullptr without a
  // spill dir): sorter spill target and the WAL recovery replays.
  std::unique_ptr<storage::RunStore> store;
  uint64_t runs_recovered = 0;    // Stamped once during construction.
  uint64_t events_recovered = 0;

  // Guards `streams` and `sessions` — held by the worker while processing
  // and by SnapshotShards while reading.
  std::mutex pipeline_mu;
  // The shard's framework. Its partition has no upstream: Process pushes
  // rows and forces rounds into it, and FlushPipeline flushes it.
  std::optional<Streamables<4>> streams;
  // Session id -> largest event sync_time the session has sent (the
  // session's event-time watermark; kMinTimestamp until it sends events).
  std::unordered_map<uint64_t, Timestamp> sessions;

  // Strand job time: one sample per union-chain message, burst-end
  // progress report or flush ack the emit stage ran.
  LatencyHistogram emit;
  // The emit stage: runs the union chain, on_result, progress reports and
  // flush acks in the order the worker posts them. Declared after
  // `streams` so it is destroyed (and waited for) first.
  Strand strand;

  std::thread worker;

  // Backpressure and traffic counters; written by connection threads
  // (Submit) and the worker, read by SnapshotShards.
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> events_in{0};
  std::atomic<uint64_t> punctuations_in{0};
  std::atomic<uint64_t> blocked_pushes{0};
  std::atomic<uint64_t> rejected_frames{0};
  std::atomic<uint64_t> rejected_events{0};
  std::atomic<uint64_t> shed_frames{0};
  std::atomic<uint64_t> shed_events{0};
  std::atomic<uint64_t> events_out{0};

  // Latency distributions (atomic buckets): recorded by the drain loop,
  // snapshotted concurrently by SnapshotShards without pipeline_mu.
  LatencyHistogram queue_wait;   // Submit-to-pop wait per frame.
  // Pipeline-apply time: one sample per frame, plus one per spill upkeep
  // pass at a burst boundary or one that compacted.
  LatencyHistogram drain_stall;
};

SessionShardManager::SessionShardManager(ShardManagerOptions options,
                                         ResultFn on_result,
                                         SessionFlushFn on_session_flush,
                                         ShardProgressFn on_shard_progress)
    : options_(std::move(options)),
      on_result_(std::move(on_result)),
      on_session_flush_(std::move(on_session_flush)),
      on_shard_progress_(std::move(on_shard_progress)) {
  IMPATIENCE_CHECK(options_.num_shards > 0);
  if (options_.framework.reorder_latencies.empty()) {
    options_.framework.reorder_latencies = {1 * kSecond, 1 * kMinute};
  }
  // Each shard gets an equal slice of the total buffering budget; its
  // sorters spill against the shard's MemoryTracker (the whole-pipeline
  // residency signal), not just their own bytes.
  const size_t shard_budget =
      options_.memory_budget == 0
          ? 0
          : std::max<size_t>(1, options_.memory_budget / options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, options_));
  }
  if (options_.spill_flusher_threads > 0) {
    storage::SpillFlusher::Options fo;
    fo.threads = options_.spill_flusher_threads;
    fo.max_inflight_bytes = options_.spill_flusher_inflight_bytes;
    flusher_ = std::make_unique<storage::SpillFlusher>(fo);
  }
  for (size_t i = 0; i < options_.num_shards; ++i) {
    Shard* s = shards_[i].get();
    FrameworkOptions fw = options_.framework;
    fw.strand = &s->strand;
    if (!options_.spill_dir.empty()) {
      storage::RunStoreOptions store_options;
      store_options.dir =
          options_.spill_dir + "/shard-" + std::to_string(i);
      std::string error;
      s->store = storage::RunStore::Open(store_options, &error);
      IMPATIENCE_CHECK_MSG(s->store != nullptr, "%s", error.c_str());
      // The sorters sync this store at every punctuation: a crash loses
      // at most the events still in RAM.
      fw.sorter_config.spill.store = s->store.get();
    }
    fw.sorter_config.spill.memory_budget = shard_budget;
    fw.sorter_config.spill.tracker = &s->memory;
    fw.sorter_config.spill.flusher = flusher_.get();
    auto ctx = std::make_shared<QueryContext>();
    ctx->tracker = &s->memory;
    s->streams.emplace(ToStreamables<4>(std::move(ctx), fw));
    const size_t first_stream =
        options_.subscribe_all_streams ? 0 : s->streams->size() - 1;
    for (size_t j = first_stream; j < s->streams->size(); ++j) {
      s->streams->stream(j).Subscribe([this, s, j](const Event& e) {
        s->events_out.fetch_add(1, std::memory_order_relaxed);
        if (on_result_) on_result_(s->index, j, e);
      });
    }
    if (s->store != nullptr) {
      RecoverShard(s);
      s->strand.Wait();  // Replayed results land before construction ends.
    }
  }
  if (!options_.manual_drain) {
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      s->worker = std::thread([this, s] { WorkerLoop(s); });
    }
  }
}

SessionShardManager::~SessionShardManager() { Shutdown(); }

void SessionShardManager::RecoverShard(Shard* s) {
  std::vector<storage::RecoveredRun> runs;
  storage::RecoveryStats stats;
  std::string error;
  IMPATIENCE_CHECK_MSG(s->store->Recover(&runs, &stats, &error), "%s",
                       error.c_str());
  // Replay each intact run (ascending within a run, run-id order across
  // runs) through the frame path, in chunks: the partition re-routes, the
  // sorters re-sort, and the data re-spills if the budget demands —
  // recovery needs no special-case emit path. At-least-once: a suffix the
  // crashed process already emitted but whose head advance was not yet
  // durable is emitted again.
  PartitionOp<4>* partition = s->streams->mutable_partition();
  std::vector<Event> chunk;
  chunk.reserve(kRecoveryChunkEvents);
  for (const storage::RecoveredRun& run : runs) {
    uint64_t read_bytes = 0;
    uint64_t replayed = 0;
    const bool ok = storage::ReplayRecoveredRun<Event>(
        run,
        [&](const Event& e) {
          chunk.push_back(e);
          if (chunk.size() == kRecoveryChunkEvents) {
            partition->PushRows(chunk.data(), chunk.size());
            chunk.clear();
          }
          ++replayed;
        },
        &read_bytes, &error);
    IMPATIENCE_CHECK_MSG(ok, "%s", error.c_str());
    partition->PushRows(chunk.data(), chunk.size());
    chunk.clear();
    s->events_recovered += replayed;
    ++s->runs_recovered;
    // The events live in the pipeline again (RAM or re-spilled under new
    // run ids); the old file is dead weight.
    s->store->DeleteRun(run.id, nullptr);
  }
}

size_t SessionShardManager::ShardOf(uint64_t session_id) const {
  return static_cast<size_t>(MixSession(session_id) % shards_.size());
}

SubmitResult SessionShardManager::Submit(Frame frame) {
  SubmitResult result;
  if (shutting_down_.load(std::memory_order_acquire)) {
    result.push = QueuePush::kClosed;
    result.affected_events = frame.events.size();
    return result;
  }
  Shard* s = shards_[ShardOf(frame.session_id)].get();
  const uint64_t n_events = frame.events.size();
  const bool is_punctuation = frame.type == FrameType::kPunctuation;
  frame.enqueue_ns = Clock::Nanos();

  switch (options_.backpressure) {
    case BackpressurePolicy::kBlock:
      result.push = s->queue.PushBlock(std::move(frame));
      if (result.push == QueuePush::kBlocked) {
        s->blocked_pushes.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case BackpressurePolicy::kRejectFrame:
      result.push = s->queue.TryPush(std::move(frame));
      if (result.push == QueuePush::kRejected) {
        s->rejected_frames.fetch_add(1, std::memory_order_relaxed);
        s->rejected_events.fetch_add(n_events, std::memory_order_relaxed);
        result.affected_events = n_events;
        return result;
      }
      break;
    case BackpressurePolicy::kShedOldest: {
      std::optional<Frame> shed;
      result.push = s->queue.PushShedOldest(std::move(frame), &shed);
      if (shed.has_value()) {
        s->shed_frames.fetch_add(1, std::memory_order_relaxed);
        s->shed_events.fetch_add(shed->events.size(),
                                 std::memory_order_relaxed);
        result.affected_events = shed->events.size();
      }
      break;
    }
  }
  if (result.push == QueuePush::kClosed) {
    // Shutdown raced this submission; the frame was not enqueued.
    result.affected_events = n_events;
    return result;
  }
  s->frames_in.fetch_add(1, std::memory_order_relaxed);
  s->events_in.fetch_add(n_events, std::memory_order_relaxed);
  if (is_punctuation) {
    s->punctuations_in.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

void SessionShardManager::WorkerLoop(Shard* s) {
  Frame frame;
  for (;;) {
    const QueuePop pop = s->queue.PopFor(&frame, kIdleSpillFlushAfter);
    if (pop == QueuePop::kClosed) break;
    if (pop == QueuePop::kTimedOut) {
      // Idle: write the spilled tails a quiet session left behind.
      std::lock_guard<std::mutex> lock(s->pipeline_mu);
      s->streams->PerformSpillMaintenance(/*flush_tails=*/true);
      continue;
    }
    bool burst_end = false;
    Timestamp frontier = kMinTimestamp;
    {
      std::lock_guard<std::mutex> lock(s->pipeline_mu);
      Process(s, frame);
      // Compact run files after every frame: each frame does its own
      // sorting, so a loaded shard may never see its queue drain, and its
      // files must still shrink. That is pipeline work like a frame's,
      // timed into drain_stall at each burst boundary (nothing else queued
      // right now) and whenever it compacted.
      burst_end = s->queue.size() == 0;
      const uint64_t upkeep_start_ns = Clock::Nanos();
      const bool compacted = s->streams->PerformSpillMaintenance();
      if (burst_end || compacted) {
        s->drain_stall.Record(Clock::Nanos() - upkeep_start_ns);
      }
      if (burst_end) frontier = s->streams->partition().band_punctuation(0);
    }
    // Progress is posted outside pipeline_mu: the callback fans chunks
    // out to subscribers and must not hold up metrics snapshots.
    if (burst_end) PostProgress(s, frontier);
    frame = Frame{};
  }
  // Queue closed and drained: flush the pipeline so every buffered event
  // is released in order before the thread exits. An abandoned manager
  // (crash simulation) skips this — buffered state is deliberately lost.
  if (!abandoned_.load(std::memory_order_acquire)) FlushPipeline(s);
}

void SessionShardManager::PostProgress(Shard* s, Timestamp frontier) {
  if (!on_shard_progress_) return;
  s->strand.Post(
      [this, s, frontier] { on_shard_progress_(s->index, frontier); });
}

void SessionShardManager::Process(Shard* s, Frame& frame) {
  TRACE_SPAN("shard.process_frame");
  const uint64_t start_ns = Clock::Nanos();
  if (frame.enqueue_ns != 0 && start_ns >= frame.enqueue_ns) {
    s->queue_wait.Record(start_ns - frame.enqueue_ns);
  }
  Timestamp& session_watermark =
      s->sessions.emplace(frame.session_id, kMinTimestamp).first->second;
  switch (frame.type) {
    case FrameType::kEvents:
      // The decoded rows go straight to the partition, which pushes each
      // into its band's sorter and returns the frame's largest sync_time.
      session_watermark = std::max(
          session_watermark, s->streams->mutable_partition()->PushRows(
                                 frame.events.data(), frame.events.size()));
      break;
    case FrameType::kPunctuation:
      // A client punctuation promises no events ≤ t will follow on this
      // session. Sessions share the shard pipeline, so the promise alone
      // cannot advance band punctuations — but it is a natural point to
      // run a partition round so idle periods still produce output.
      s->streams->mutable_partition()->ForcePunctuation();
      break;
    case FrameType::kFlushSession:
      // Everything this session sent earlier is now in the pipeline (the
      // queue is FIFO); surface what can be surfaced and ack.
      s->streams->mutable_partition()->ForcePunctuation();
      // Posted behind the records this punctuation released.
      if (on_session_flush_) {
        s->strand.Post([this, session_id = frame.session_id] {
          on_session_flush_(session_id);
        });
      }
      break;
    default:
      // Control frames that do not reach shards (metrics, shutdown, acks)
      // are handled by the service layer; ignore defensively.
      break;
  }
  s->drain_stall.Record(Clock::Nanos() - start_ns);
}

void SessionShardManager::FlushPipeline(Shard* s) {
  Timestamp frontier = kMinTimestamp;
  {
    std::lock_guard<std::mutex> lock(s->pipeline_mu);
    s->streams->mutable_partition()->OnFlush();
    frontier = s->streams->partition().band_punctuation(0);
  }
  PostProgress(s, frontier);
  s->strand.Wait();
}

void SessionShardManager::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_.load(std::memory_order_acquire)) return;
  shutting_down_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->queue.Close();
  if (options_.manual_drain) {
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      Frame frame;
      while (s->queue.TryPop(&frame)) {
        std::lock_guard<std::mutex> lock(s->pipeline_mu);
        Process(s, frame);
      }
      FlushPipeline(s);
    }
  } else {
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }
  shut_down_.store(true, std::memory_order_release);
}

void SessionShardManager::AbandonForTest() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_.load(std::memory_order_acquire)) return;
  abandoned_.store(true, std::memory_order_release);
  shutting_down_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->queue.Close();
  if (!options_.manual_drain) {
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }
  // Results already posted still reach on_result; nothing is flushed.
  for (auto& shard : shards_) shard->strand.Wait();
  // No FlushPipeline: everything still buffered in RAM is lost, exactly
  // as in a crash. Spilled run files and manifests stay on disk.
  shut_down_.store(true, std::memory_order_release);
}

std::vector<ShardMetrics> SessionShardManager::SnapshotShards(
    bool reset_sorter_counters) {
  std::vector<ShardMetrics> out;
  out.reserve(shards_.size());
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    ShardMetrics m;
    m.shard = s->index;
    m.queue_depth = s->queue.size();
    m.queue_capacity = s->queue.capacity();
    m.frames_in = s->frames_in.load(std::memory_order_relaxed);
    m.events_in = s->events_in.load(std::memory_order_relaxed);
    m.punctuations_in = s->punctuations_in.load(std::memory_order_relaxed);
    m.blocked_pushes = s->blocked_pushes.load(std::memory_order_relaxed);
    m.rejected_frames = s->rejected_frames.load(std::memory_order_relaxed);
    m.rejected_events = s->rejected_events.load(std::memory_order_relaxed);
    m.shed_frames = s->shed_frames.load(std::memory_order_relaxed);
    m.shed_events = s->shed_events.load(std::memory_order_relaxed);
    m.events_out = s->events_out.load(std::memory_order_relaxed);
    m.memory_current_bytes = s->memory.current_bytes();
    m.memory_peak_bytes = s->memory.peak_bytes();
    // The peak shares the statistics window with the sorter counters: a
    // reset scrape restarts it from the current footprint.
    if (reset_sorter_counters) s->memory.ResetPeak();
    m.runs_recovered = s->runs_recovered;
    m.events_recovered = s->events_recovered;
    // Latency histograms share the statistics window with the sorter
    // counters: a reset scrape drains both.
    m.queue_wait = s->queue_wait.Snapshot(reset_sorter_counters);
    m.drain_stall = s->drain_stall.Snapshot(reset_sorter_counters);
    m.emit = s->emit.Snapshot(reset_sorter_counters);
    {
      std::lock_guard<std::mutex> lock(s->pipeline_mu);
      m.sessions = s->sessions.size();
      m.dropped_late = s->streams->TotalDrops();
      // Single-op snapshot-and-reset: each band's counters are read and
      // zeroed in one touch, so samples recorded by the worker between a
      // scrape's read and reset can never be dropped.
      m.sorter = s->streams->AggregatedCounters(reset_sorter_counters);
      m.unions = s->streams->UnionCounters(reset_sorter_counters);

      const Timestamp frontier = s->streams->partition().band_punctuation(0);
      m.watermarks.reserve(s->sessions.size());
      for (const auto& [session_id, max_sync] : s->sessions) {
        SessionWatermark w;
        w.session_id = session_id;
        w.label = std::to_string(session_id);
        w.max_sync_time = max_sync;
        w.last_punctuation = frontier;
        // Before the first punctuation round (or before the session sends
        // events) there is no meaningful frontier to lag behind.
        w.lag = (frontier != kMinTimestamp && max_sync > frontier)
                    ? max_sync - frontier
                    : 0;
        if (w.lag > m.max_watermark_lag) m.max_watermark_lag = w.lag;
        m.watermarks.push_back(std::move(w));
      }
    }
    // Worst session first; ties by id so the rendering is deterministic.
    std::sort(m.watermarks.begin(), m.watermarks.end(),
              [](const SessionWatermark& a, const SessionWatermark& b) {
                if (a.lag != b.lag) return a.lag > b.lag;
                return a.session_id < b.session_id;
              });
    out.push_back(std::move(m));
  }
  return out;
}

void SessionShardManager::DrainShardForTest(size_t shard) {
  IMPATIENCE_CHECK(options_.manual_drain);
  IMPATIENCE_CHECK(shard < shards_.size());
  Shard* s = shards_[shard].get();
  Frame frame;
  while (s->queue.TryPop(&frame)) {
    std::lock_guard<std::mutex> lock(s->pipeline_mu);
    Process(s, frame);
  }
  Timestamp frontier = kMinTimestamp;
  {
    std::lock_guard<std::mutex> lock(s->pipeline_mu);
    s->streams->PerformSpillMaintenance();
    frontier = s->streams->partition().band_punctuation(0);
  }
  PostProgress(s, frontier);
  s->strand.Wait();
}

}  // namespace server
}  // namespace impatience
