// Transport-independent ingestion service: the glue between a byte
// transport (loopback or TCP) and the SessionShardManager.
//
// Each client connection owns a FrameDecoder and a thread-safe send
// function supplied by the transport. Bytes arrive via OnData(), decoded
// frames are dispatched — data frames to the shard manager under the
// configured backpressure policy, control frames (metrics, flush,
// shutdown) handled here — and replies (acks, rejects, metrics) are
// encoded and pushed back through the send function. A decode error
// poisons the connection: the client receives one kReject(kDecodeError)
// and the transport is told to close.
//
// FlushSession acks are asymmetric: the request is applied on the shard
// worker thread (after everything the session sent earlier), and the ack
// is sent serially per shard, on its emit strand, after the records the
// flush released, via a session→connection routing table.

#ifndef IMPATIENCE_SERVER_INGEST_SERVICE_H_
#define IMPATIENCE_SERVER_INGEST_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "server/metrics.h"
#include "server/result_exporter.h"
#include "server/session_shard_manager.h"
#include "server/telemetry_exporter.h"
#include "server/wire_format.h"

namespace impatience {
namespace server {

struct ServiceOptions {
  ShardManagerOptions shards;
  // Optional tap on every row the shard pipelines emit (tests, benches).
  // Called serially per shard, on its emit strand (concurrently across
  // shards).
  ResultFn on_result;
  // Streaming telemetry (kSubscribeRequest / kTelemetryChunk). Tests set
  // telemetry.start_thread = false and drive the exporter's Tick()
  // directly for deterministic schedules.
  TelemetryOptions telemetry;
  // Streaming query results (kResultSubscribeRequest / kResultChunk).
  ResultStreamOptions results;
};

class IngestService;

// One client connection. Created by the transport via
// IngestService::OpenConnection; destroyed when the transport closes.
// OnData must be called from one thread at a time (the connection's
// reader); the send function may be invoked from the reader thread and
// from shard emit strands concurrently, so it must be thread-safe.
class Connection {
 public:
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Feeds received bytes. Returns false when the connection is poisoned
  // (decode error) or the service has shut down — the transport should
  // stop reading and close.
  bool OnData(const uint8_t* data, size_t size);

  bool poisoned() const { return poisoned_; }

 private:
  friend class IngestService;
  using SendFn = std::function<void(std::string bytes)>;
  // Best-effort bounded send for streamed chunks: false refuses the
  // bytes (budget full) instead of queueing them. Optional — transports
  // without one (loopback) fall back to the unbounded send.
  using TrySendFn = std::function<bool(std::string bytes)>;

  Connection(IngestService* service, SendFn send, TrySendFn try_send);

  void Dispatch(Frame& frame);
  void Send(const Frame& frame);
  // Routes encoded bytes through try_send_ when available; true if they
  // were accepted (counted as sent), false if the bounded budget refused
  // them.
  bool TrySendBytes(std::string bytes);
  // The sink streamed chunks (telemetry, results, trace dumps) deliver
  // through, so they count in frames_out/bytes_out like other replies.
  SubscriptionHub::TrySink ChunkSink();

  IngestService* const service_;
  const SendFn send_;
  const TrySendFn try_send_;
  FrameDecoder decoder_;
  bool poisoned_ = false;
  uint64_t subscription_id_ = 0;  // Live telemetry subscription, or 0.
  uint64_t result_subscription_id_ = 0;  // Live result subscription, or 0.
};

class IngestService {
 public:
  explicit IngestService(ServiceOptions options);
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  // Registers a new client connection; `send` delivers encoded reply
  // frames to that client and must be thread-safe. `try_send`, when
  // provided, is a bounded best-effort variant for telemetry chunks
  // (returns false to refuse rather than buffer; event_loop.h supplies
  // one backed by its per-connection telemetry write budget).
  std::unique_ptr<Connection> OpenConnection(
      std::function<void(std::string)> send,
      std::function<bool(std::string)> try_send = nullptr);

  // Drain-and-flush shutdown of all shards; idempotent. Called by the
  // kShutdown control frame and by the destructor.
  void Shutdown();
  bool shutting_down() const { return manager_.shutting_down(); }

  // Whole-service snapshot (transport totals + all shards).
  ServerMetrics Snapshot();

  // Hooks the socket front end's gauges/counters into Snapshot(). The
  // front end registers on Start and unregisters (nullptr) on Stop so a
  // snapshot never touches dead loops. Thread-safe.
  void SetTransportMetricsFn(std::function<TransportMetrics()> fn);

  SessionShardManager& manager() { return manager_; }

  // The streaming telemetry exporter (always present; its drain thread
  // only runs when options.telemetry.start_thread is set).
  TelemetryExporter& telemetry() { return *exporter_; }

  // The result-stream exporter (always present; passive — it only does
  // work while at least one connection holds a result subscription).
  ResultExporter& results() { return *result_exporter_; }

 private:
  friend class Connection;

  void SendOn(const Connection::SendFn& send, const Frame& frame);
  void OnSessionFlushed(uint64_t session_id);

  ServiceOptions options_;
  // Declared before manager_ (and built in the member-init list): the
  // manager's constructor replays spill recovery and starts workers, both
  // of which can emit results into the exporter before the constructor
  // body runs. Destroyed after manager_, whose Shutdown joins the worker
  // threads that call into it.
  std::unique_ptr<ResultExporter> result_exporter_;
  SessionShardManager manager_;

  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> decode_errors_{0};

  std::mutex transport_metrics_mu_;
  std::function<TransportMetrics()> transport_metrics_fn_;

  // session id → connection awaiting a FlushAck. Guarded by flush_mu_;
  // the ack is sent under the lock so a closing connection (which erases
  // its entries under the same lock) cannot be destroyed mid-send.
  std::mutex flush_mu_;
  std::unordered_map<uint64_t, Connection*> pending_flush_;

  // Declared last: destroyed first, which joins the drain thread before
  // the shard manager (whose SnapshotShards the exporter calls) goes
  // away.
  std::unique_ptr<TelemetryExporter> exporter_;
};

}  // namespace server
}  // namespace impatience

#endif  // IMPATIENCE_SERVER_INGEST_SERVICE_H_
