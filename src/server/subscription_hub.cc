#include "server/subscription_hub.h"

#include <utility>

#include "common/check.h"

namespace impatience {
namespace server {

uint64_t SubscriptionHub::Subscribe(uint64_t session_id, uint64_t filter,
                                    TrySink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  Subscriber sub;
  sub.id = next_id_++;
  sub.session_id = session_id;
  sub.filter = filter;
  sub.sink = std::move(sink);
  subs_.push_back(std::move(sub));
  live_.store(subs_.size(), std::memory_order_relaxed);
  return subs_.back().id;
}

void SubscriptionHub::Unsubscribe(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(subs_, [id](const Subscriber& s) { return s.id == id; });
  live_.store(subs_.size(), std::memory_order_relaxed);
}

void SubscriptionHub::FanOut(Frame* chunk, uint64_t key, uint64_t weight) {
  IMPATIENCE_CHECK(chunk->type == FrameType::kTelemetryChunk ||
                   chunk->type == FrameType::kResultChunk);
  const bool telemetry = chunk->type == FrameType::kTelemetryChunk;
  uint64_t& seq = telemetry ? chunk->telemetry_seq : chunk->result_seq;
  uint64_t& dropped =
      telemetry ? chunk->telemetry_dropped : chunk->result_dropped;

  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.fan_outs;
  for (size_t i = 0; i < subs_.size();) {
    Subscriber& sub = subs_[i];
    if (!match_(sub.filter, key)) {
      ++i;
      continue;
    }
    chunk->session_id = sub.session_id;
    seq = sub.seq + 1;
    dropped = sub.dropped;
    std::string bytes;
    AppendFrame(*chunk, &bytes);
    if (sub.sink(std::move(bytes))) {
      ++sub.seq;
      sub.consecutive_drops = 0;
      ++counters_.chunks_sent;
      counters_.weight_sent += weight;
      ++i;
      continue;
    }
    sub.dropped += weight;
    ++counters_.chunks_dropped;
    counters_.weight_dropped += weight;
    if (++sub.consecutive_drops >= shed_after_drops_) {
      ++counters_.subscribers_shed;
      subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  live_.store(subs_.size(), std::memory_order_relaxed);
}

bool SubscriptionHub::AnyMatch(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Subscriber& sub : subs_) {
    if (match_(sub.filter, key)) return true;
  }
  return false;
}

SubscriptionHub::Counters SubscriptionHub::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = counters_;
  c.subscribers = subs_.size();
  return c;
}

}  // namespace server
}  // namespace impatience
