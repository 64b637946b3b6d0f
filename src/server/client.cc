#include "server/client.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace impatience {
namespace server {

LoopbackChannel::LoopbackChannel(IngestService* service) {
  conn_ = service->OpenConnection([this](std::string bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.append(bytes);
    cv_.notify_all();
  });
}

LoopbackChannel::~LoopbackChannel() {
  // Members are destroyed in reverse declaration order, which would tear
  // down mu_/cv_/inbox_ while the connection can still deliver a reply or
  // telemetry chunk into them. Destroy the connection first: ~Connection
  // blocks until any in-flight exporter delivery to this sink completes.
  conn_.reset();
}

bool LoopbackChannel::Write(const uint8_t* data, size_t n) {
  return conn_->OnData(data, n);
}

int64_t LoopbackChannel::Read(uint8_t* out, size_t n, bool blocking) {
  std::unique_lock<std::mutex> lock(mu_);
  if (blocking) {
    cv_.wait(lock, [this] { return inbox_.size() > read_pos_; });
  } else if (inbox_.size() == read_pos_) {
    return 0;
  }
  const size_t take = std::min(n, inbox_.size() - read_pos_);
  std::memcpy(out, inbox_.data() + read_pos_, take);
  read_pos_ += take;
  // Drop the consumed prefix once it is at least half the inbox, so each
  // byte moves O(1) times however far the reader trails the writers.
  if (read_pos_ * 2 >= inbox_.size()) {
    inbox_.erase(0, read_pos_);
    read_pos_ = 0;
  }
  return static_cast<int64_t>(take);
}

bool TransportChannel::Write(const uint8_t* data, size_t n) {
  while (n > 0) {
    const IoResult r = transport_->Write(data, n);
    if (r.ok()) {
      // A short write is not failure: continue from the accepted prefix.
      data += r.n;
      n -= static_cast<size_t>(r.n);
      continue;
    }
    if (r.interrupted()) continue;
    if (r.again()) {
      if (!transport_->WaitWritable(/*timeout_ms=*/-1)) return false;
      continue;
    }
    return false;  // EOF-on-write or a hard error: the peer is gone.
  }
  return true;
}

int64_t TransportChannel::Read(uint8_t* out, size_t n, bool blocking) {
  for (;;) {
    const IoResult r = transport_->Read(out, n);
    if (r.ok()) return r.n;
    if (r.eof()) return -1;
    if (r.interrupted()) continue;
    if (r.again()) {
      if (!blocking) return 0;
      if (!transport_->WaitReadable(/*timeout_ms=*/-1)) return -1;
      continue;
    }
    return -1;
  }
}

IngestClient::IngestClient(std::unique_ptr<ByteChannel> channel)
    : channel_(std::move(channel)) {}

bool IngestClient::SendFrame(const Frame& frame) {
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  if (!channel_->Write(bytes.data(), bytes.size())) return false;
  ++frames_sent_;
  bytes_sent_ += bytes.size();
  return true;
}

bool IngestClient::SendEvents(uint64_t session_id,
                              const std::vector<Event>& events) {
  Frame frame;
  frame.type = FrameType::kEvents;
  frame.session_id = session_id;
  frame.events = events;
  return SendFrame(frame);
}

bool IngestClient::SendPunctuation(uint64_t session_id, Timestamp t) {
  Frame frame;
  frame.type = FrameType::kPunctuation;
  frame.session_id = session_id;
  frame.punctuation = t;
  return SendFrame(frame);
}

bool IngestClient::FlushSession(uint64_t session_id) {
  Frame frame;
  frame.type = FrameType::kFlushSession;
  frame.session_id = session_id;
  if (!SendFrame(frame)) return false;
  Frame ack;
  return WaitFor(FrameType::kFlushAck, &ack);
}

bool IngestClient::Shutdown() {
  Frame frame;
  frame.type = FrameType::kShutdown;
  if (!SendFrame(frame)) return false;
  Frame ack;
  return WaitFor(FrameType::kShutdownAck, &ack);
}

bool IngestClient::GetMetrics(MetricsFormat format, std::string* out) {
  Frame frame;
  frame.type = FrameType::kMetricsRequest;
  frame.metrics_format = format;
  if (!SendFrame(frame)) return false;
  Frame response;
  if (!WaitFor(FrameType::kMetricsResponse, &response)) return false;
  *out = std::move(response.text);
  return true;
}

bool IngestClient::GetTrace(std::string* out) {
  Frame request;
  request.type = FrameType::kTraceRequest;
  request.trace_action = TraceAction::kDump;
  if (!SendFrame(request)) return false;
  // The dump streams as kTelemetryChunk(kTelemetryDump) frames followed
  // by a kTraceResponse footer. Reassemble the same document shape
  // trace::DrainChromeJson produces; live span/metrics chunks that
  // interleave are left pending for PollTelemetry.
  std::string events;
  Frame footer;
  bool have_footer = false;
  while (!have_footer) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->type == FrameType::kTelemetryChunk &&
          it->telemetry_streams == kTelemetryDump) {
        if (!events.empty()) events += ",";
        events += it->text;
        it = pending_.erase(it);
      } else if (it->type == FrameType::kTraceResponse) {
        footer = std::move(*it);
        pending_.erase(it);
        have_footer = true;
        break;
      } else {
        ++it;
      }
    }
    if (!have_footer && !Pump(/*blocking=*/true)) return false;
  }
  unsigned long long dropped = 0;
  unsigned long long chunks = 0;
  unsigned long long chunks_dropped = 0;
  std::sscanf(footer.text.c_str(),
              "{\"dropped\":%llu,\"chunks\":%llu,\"chunks_dropped\":%llu}",
              &dropped, &chunks, &chunks_dropped);
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
                "\"dropped\":%llu,\"chunks\":%llu,\"chunks_dropped\":%llu}}",
                dropped, chunks, chunks_dropped);
  out->clear();
  out->reserve(events.size() + 64 + sizeof(tail));
  *out += "{\"traceEvents\":[";
  *out += events;
  *out += tail;
  return true;
}

bool IngestClient::SetTraceEnabled(bool enabled) {
  Frame frame;
  frame.type = FrameType::kTraceRequest;
  frame.trace_action = enabled ? TraceAction::kEnable : TraceAction::kDisable;
  if (!SendFrame(frame)) return false;
  Frame response;
  return WaitFor(FrameType::kTraceResponse, &response);
}

bool IngestClient::Subscribe(uint64_t session_id, uint8_t streams,
                             uint64_t* subscription_id) {
  Frame frame;
  frame.type = FrameType::kSubscribeRequest;
  frame.session_id = session_id;
  frame.telemetry_streams = streams;
  if (!SendFrame(frame)) return false;
  Frame ack;
  if (!WaitFor(FrameType::kSubscribeAck, &ack)) return false;
  if (subscription_id != nullptr) *subscription_id = ack.subscription_id;
  return true;
}

bool IngestClient::SubscribeResults(uint64_t session_id, uint8_t filter,
                                    uint64_t* subscription_id) {
  Frame frame;
  frame.type = FrameType::kResultSubscribeRequest;
  frame.session_id = session_id;
  frame.result_filter = filter;
  if (!SendFrame(frame)) return false;
  Frame ack;
  if (!WaitFor(FrameType::kResultSubscribeAck, &ack)) return false;
  if (subscription_id != nullptr) *subscription_id = ack.subscription_id;
  return true;
}

bool IngestClient::PollResults(Frame* out) {
  Pump(/*blocking=*/false);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->type == FrameType::kResultChunk) {
      *out = std::move(*it);
      pending_.erase(it);
      return true;
    }
  }
  return false;
}

bool IngestClient::NextResults(Frame* out) {
  return WaitFor(FrameType::kResultChunk, out);
}

bool IngestClient::PollTelemetry(Frame* out) {
  Pump(/*blocking=*/false);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->type == FrameType::kTelemetryChunk) {
      *out = std::move(*it);
      pending_.erase(it);
      return true;
    }
  }
  return false;
}

bool IngestClient::NextTelemetry(Frame* out) {
  return WaitFor(FrameType::kTelemetryChunk, out);
}

bool IngestClient::PollReject(Frame* out) {
  Pump(/*blocking=*/false);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->type == FrameType::kReject) {
      *out = std::move(*it);
      pending_.erase(it);
      return true;
    }
  }
  return false;
}

bool IngestClient::Pump(bool blocking) {
  // Drain everything the channel has ready: a telemetry chunk can span
  // many reads, and a single fixed-size read would leave the decoder
  // mid-frame with data still buffered in the channel.
  uint8_t buf[4096];
  int64_t n = channel_->Read(buf, sizeof(buf), blocking);
  if (n < 0) return false;
  while (n > 0) {
    decoder_.Feed(buf, static_cast<size_t>(n));
    n = channel_->Read(buf, sizeof(buf), /*blocking=*/false);
    if (n < 0) return false;
  }
  Frame frame;
  for (;;) {
    const DecodeStatus status = decoder_.Next(&frame);
    if (status == DecodeStatus::kNeedMore) return true;
    if (IsDecodeError(status)) return false;
    pending_.push_back(std::move(frame));
    frame = Frame{};
  }
}

bool IngestClient::WaitFor(FrameType type, Frame* out) {
  for (;;) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->type == type) {
        *out = std::move(*it);
        pending_.erase(it);
        return true;
      }
    }
    if (!Pump(/*blocking=*/true)) return false;
  }
}

}  // namespace server
}  // namespace impatience
