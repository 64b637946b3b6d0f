#include "server/ingest_service.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/trace.h"

namespace impatience {
namespace server {

Connection::Connection(IngestService* service, SendFn send,
                       TrySendFn try_send)
    : service_(service),
      send_(std::move(send)),
      try_send_(std::move(try_send)) {}

Connection::~Connection() {
  // Unsubscribe before anything else: Unsubscribe blocks until any
  // in-flight exporter delivery to this connection's sink completes, so
  // after this line no exporter thread can touch the send path again.
  if (subscription_id_ != 0) {
    service_->exporter_->Unsubscribe(subscription_id_);
  }
  if (result_subscription_id_ != 0) {
    service_->result_exporter_->Unsubscribe(result_subscription_id_);
  }
  {
    // Unregister any pending flush acks so shard strands cannot route an
    // ack to a dead connection. Taking the lock also waits out an ack
    // send that is in flight right now.
    std::lock_guard<std::mutex> lock(service_->flush_mu_);
    for (auto it = service_->pending_flush_.begin();
         it != service_->pending_flush_.end();) {
      if (it->second == this) {
        it = service_->pending_flush_.erase(it);
      } else {
        ++it;
      }
    }
  }
  service_->connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

bool Connection::OnData(const uint8_t* data, size_t size) {
  if (poisoned_) return false;
  service_->bytes_in_.fetch_add(size, std::memory_order_relaxed);
  decoder_.Feed(data, size);
  Frame frame;
  for (;;) {
    TRACE_SPAN("wire.decode");
    const DecodeStatus status = decoder_.Next(&frame);
    if (status == DecodeStatus::kNeedMore) return true;
    if (IsDecodeError(status)) {
      poisoned_ = true;
      service_->decode_errors_.fetch_add(1, std::memory_order_relaxed);
      Frame reject;
      reject.type = FrameType::kReject;
      reject.reject_reason = RejectReason::kDecodeError;
      Send(reject);
      return false;
    }
    service_->frames_in_.fetch_add(1, std::memory_order_relaxed);
    Dispatch(frame);
    frame = Frame{};
  }
}

void Connection::Dispatch(Frame& frame) {
  TRACE_SPAN("server.dispatch");
  switch (frame.type) {
    case FrameType::kEvents:
    case FrameType::kPunctuation:
      break;  // Data path below.
    case FrameType::kFlushSession: {
      // Register for the ack first: the shard worker may apply the flush
      // before Submit even returns.
      {
        std::lock_guard<std::mutex> lock(service_->flush_mu_);
        service_->pending_flush_[frame.session_id] = this;
      }
      break;
    }
    case FrameType::kMetricsRequest: {
      Frame response;
      response.type = FrameType::kMetricsResponse;
      response.session_id = frame.session_id;
      response.metrics_format = frame.metrics_format;
      const ServerMetrics snapshot = service_->Snapshot();
      switch (frame.metrics_format) {
        case MetricsFormat::kJson:
          response.text = RenderMetricsJson(snapshot);
          break;
        case MetricsFormat::kPrometheus:
          response.text = RenderMetricsPrometheus(snapshot);
          break;
        case MetricsFormat::kText:
          response.text = RenderMetricsText(snapshot);
          break;
      }
      Send(response);
      return;
    }
    case FrameType::kTraceRequest: {
      Frame response;
      response.type = FrameType::kTraceResponse;
      response.session_id = frame.session_id;
      response.trace_action = frame.trace_action;
      switch (frame.trace_action) {
        case TraceAction::kDump: {
          // The dump streams as kTelemetryChunk(kTelemetryDump) frames —
          // each bounded well under kMaxPayloadBytes — terminated by this
          // kTraceResponse carrying a JSON footer, so a full ring drain
          // is never silently cut at the 16 MiB frame bound. Chunks the
          // connection's bounded write budget cannot take are dropped
          // and counted in the footer (and in dump_truncated), never
          // buffered unboundedly.
          std::vector<std::string> bodies;
          trace::DrainStats stats;
          trace::HarvestChunks(
              service_->exporter_->options().max_chunk_bytes, &bodies,
              &stats);
          // A hub of one for this request: seq and dropped are scoped to
          // the dump, and a refusal never sheds.
          SubscriptionHub dump(/*shed_after_drops=*/SIZE_MAX,
                               [](uint64_t, uint64_t) { return true; });
          dump.Subscribe(frame.session_id, 0, ChunkSink());
          for (std::string& body : bodies) {
            Frame chunk;
            chunk.type = FrameType::kTelemetryChunk;
            chunk.telemetry_streams = kTelemetryDump;
            chunk.text = std::move(body);
            dump.FanOut(&chunk, 0, /*weight=*/1);
          }
          const SubscriptionHub::Counters sent = dump.counters();
          service_->exporter_->NoteDump(sent.chunks_sent,
                                        sent.chunks_dropped);
          char footer[128];
          std::snprintf(footer, sizeof(footer),
                        "{\"dropped\":%llu,\"chunks\":%llu,"
                        "\"chunks_dropped\":%llu}",
                        static_cast<unsigned long long>(stats.dropped),
                        static_cast<unsigned long long>(sent.chunks_sent),
                        static_cast<unsigned long long>(sent.chunks_dropped));
          response.text = footer;
          break;
        }
        case TraceAction::kEnable:
          trace::SetEnabled(true);
          break;
        case TraceAction::kDisable:
          trace::SetEnabled(false);
          break;
      }
      Send(response);
      return;
    }
    case FrameType::kSubscribeRequest: {
      // A second subscribe replaces the first (mask changes included).
      if (subscription_id_ != 0) {
        service_->exporter_->Unsubscribe(subscription_id_);
        subscription_id_ = 0;
      }
      subscription_id_ = service_->exporter_->Subscribe(
          frame.session_id, frame.telemetry_streams, ChunkSink());
      Frame ack;
      ack.type = FrameType::kSubscribeAck;
      ack.session_id = frame.session_id;
      ack.telemetry_streams = frame.telemetry_streams;
      ack.subscription_id = subscription_id_;
      Send(ack);
      return;
    }
    case FrameType::kResultSubscribeRequest: {
      // A second subscribe replaces the first (filter changes included).
      if (result_subscription_id_ != 0) {
        service_->result_exporter_->Unsubscribe(result_subscription_id_);
        result_subscription_id_ = 0;
      }
      // Pipeline output carries no session ids (sessions blend inside a
      // shard pipeline), so the per-session filter resolves to the shard
      // this session's frames route to.
      const size_t shard_filter =
          frame.result_filter == kResultFilterSession
              ? service_->manager_.ShardOf(frame.session_id)
              : ResultExporter::kAllShards;
      result_subscription_id_ = service_->result_exporter_->Subscribe(
          frame.session_id, frame.result_filter, shard_filter, ChunkSink());
      Frame ack;
      ack.type = FrameType::kResultSubscribeAck;
      ack.session_id = frame.session_id;
      ack.result_filter = frame.result_filter;
      ack.subscription_id = result_subscription_id_;
      Send(ack);
      return;
    }
    case FrameType::kShutdown: {
      service_->Shutdown();
      Frame ack;
      ack.type = FrameType::kShutdownAck;
      ack.session_id = frame.session_id;
      Send(ack);
      return;
    }
    default:
      // Server→client frame types arriving at the server are protocol
      // misuse; drop them rather than poisoning an otherwise-valid
      // stream.
      return;
  }

  const uint64_t session_id = frame.session_id;
  const bool was_flush = frame.type == FrameType::kFlushSession;
  const SubmitResult result = service_->manager_.Submit(std::move(frame));
  if (result.push == QueuePush::kClosed) {
    if (was_flush) {
      // The flush never reached a shard; no ack will come.
      std::lock_guard<std::mutex> lock(service_->flush_mu_);
      auto it = service_->pending_flush_.find(session_id);
      if (it != service_->pending_flush_.end() && it->second == this) {
        service_->pending_flush_.erase(it);
      }
    }
    Frame reject;
    reject.type = FrameType::kReject;
    reject.session_id = session_id;
    reject.reject_reason = RejectReason::kShuttingDown;
    reject.reject_count = result.affected_events;
    Send(reject);
  } else if (result.push == QueuePush::kRejected) {
    if (was_flush) {
      std::lock_guard<std::mutex> lock(service_->flush_mu_);
      auto it = service_->pending_flush_.find(session_id);
      if (it != service_->pending_flush_.end() && it->second == this) {
        service_->pending_flush_.erase(it);
      }
    }
    Frame reject;
    reject.type = FrameType::kReject;
    reject.session_id = session_id;
    reject.reject_reason = RejectReason::kQueueFull;
    reject.reject_count = result.affected_events;
    Send(reject);
  }
}

void Connection::Send(const Frame& frame) { service_->SendOn(send_, frame); }

bool Connection::TrySendBytes(std::string bytes) {
  const size_t n = bytes.size();
  if (try_send_) {
    if (!try_send_(std::move(bytes))) return false;
  } else {
    send_(std::move(bytes));
  }
  service_->frames_out_.fetch_add(1, std::memory_order_relaxed);
  service_->bytes_out_.fetch_add(n, std::memory_order_relaxed);
  return true;
}

SubscriptionHub::TrySink Connection::ChunkSink() {
  // `this` outlives every call: the destructor unsubscribes first, which
  // waits out any in-flight delivery.
  return [this](std::string bytes) { return TrySendBytes(std::move(bytes)); };
}

IngestService::IngestService(ServiceOptions options)
    : options_(std::move(options)),
      result_exporter_(std::make_unique<ResultExporter>(
          options_.results, std::max<size_t>(1, options_.shards.num_shards))),
      manager_(
          options_.shards,
          [this](size_t shard, size_t stream, const Event& e) {
            result_exporter_->OnResult(shard, stream, e);
            if (options_.on_result) options_.on_result(shard, stream, e);
          },
          [this](uint64_t session_id) { OnSessionFlushed(session_id); },
          [this](size_t shard, Timestamp watermark) {
            result_exporter_->OnShardProgress(shard, watermark);
          }) {
  exporter_ = std::make_unique<TelemetryExporter>(
      options_.telemetry, [this] { return manager_.SnapshotShards(); });
}

IngestService::~IngestService() { Shutdown(); }

std::unique_ptr<Connection> IngestService::OpenConnection(
    std::function<void(std::string)> send,
    std::function<bool(std::string)> try_send) {
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Connection>(
      new Connection(this, std::move(send), std::move(try_send)));
}

void IngestService::Shutdown() { manager_.Shutdown(); }

void IngestService::SendOn(const Connection::SendFn& send,
                           const Frame& frame) {
  std::string bytes;
  AppendFrame(frame, &bytes);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(bytes.size(), std::memory_order_relaxed);
  send(std::move(bytes));
}

void IngestService::OnSessionFlushed(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(flush_mu_);
  auto it = pending_flush_.find(session_id);
  if (it == pending_flush_.end()) return;
  Connection* conn = it->second;
  pending_flush_.erase(it);
  Frame ack;
  ack.type = FrameType::kFlushAck;
  ack.session_id = session_id;
  // Sent under flush_mu_: Connection's destructor takes the same lock
  // before the object goes away, so `conn` is alive for this call.
  SendOn(conn->send_, ack);
}

void IngestService::SetTransportMetricsFn(
    std::function<TransportMetrics()> fn) {
  std::lock_guard<std::mutex> lock(transport_metrics_mu_);
  transport_metrics_fn_ = std::move(fn);
}

ServerMetrics IngestService::Snapshot() {
  ServerMetrics m;
  {
    // Called under the lock so Stop()'s unregistration is a barrier: once
    // SetTransportMetricsFn(nullptr) returns, no snapshot can still be
    // inside a front end that is being torn down.
    std::lock_guard<std::mutex> lock(transport_metrics_mu_);
    if (transport_metrics_fn_) m.transport = transport_metrics_fn_();
  }
  m.connections_opened = connections_opened_.load(std::memory_order_relaxed);
  m.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  m.frames_in = frames_in_.load(std::memory_order_relaxed);
  m.frames_out = frames_out_.load(std::memory_order_relaxed);
  m.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  m.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  m.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  m.shutting_down = manager_.shutting_down();
  m.telemetry = exporter_->Counters();
  m.results = result_exporter_->Counters();
  m.shards = manager_.SnapshotShards();
  return m;
}

}  // namespace server
}  // namespace impatience
