// bench_e2e workloads: data preparation, the offline reference, the
// in-process service rig, the load generators, output checks, and the
// end-to-end and per-layer metrics.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.h"
#include "bench/e2e/layers.h"
#include "bench/e2e/spans.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "server/client.h"
#include "server/ingest_service.h"
#include "server/metrics.h"
#include "server/session_shard_manager.h"
#include "server/tcp_transport.h"
#include "server/wire_format.h"
#include "workload/generators.h"

namespace impatience::bench::e2e {

using server::Frame;
using server::FrameType;
using server::IngestClient;
using server::IngestService;
using server::MetricsFormat;
using server::ServerMetrics;
using server::ServiceOptions;
using server::ShardMetrics;
using server::TcpChannel;
using server::TcpServer;

namespace {

constexpr size_t kShards = 2;
constexpr uint64_t kScrapeIntervalNs = 100'000'000;
// Back-to-back scrapes at the end of each phase (scrape_p50_ms).
constexpr int kIdleScrapes = 30;
// Set-ups of the workload's service, connections and subscriptions timed
// before the measured phases (setup_s is their median with the phases').
constexpr size_t kSetupProbes = 20;
// Every 16th record per shard is timed at the in-process tap; every 4th
// at a subscriber. Both keep the cost on the measured path negligible.
constexpr uint64_t kTapLagEvery = 16;
constexpr uint64_t kSubscriberLagEvery = 4;
// Lag quantiles are taken per window of this much arrival time; a window
// needs enough samples for ten beyond its p95.
constexpr uint64_t kLagWindowNs = 500'000'000;
constexpr size_t kMinWindowSamples = 200;
// How long a subscriber may take to receive the final records after
// shutdown before the front end is stopped under it.
constexpr std::chrono::seconds kSubscriberDrain{30};
// Replays in trace mode cover at most this many events per shard.
constexpr size_t kReplayEventsPerShard = 1'000'000;
// A paced run is invalid when its generator ran later than this at p99.
constexpr double kMaxGeneratorLatenessMs = 2.0;
// Timings repeated per traced snapshot/render measurement (median taken).
constexpr int kRenderRepeats = 5;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double ToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void SleepUntilNs(uint64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Inputs.

std::vector<Event> Generate(Source source, size_t n, uint64_t seed) {
  if (source == Source::kCloudLog) {
    CloudLogConfig config;
    config.num_events = n;
    config.seed = seed;
    return GenerateCloudLog(config).events;
  }
  AndroidLogConfig config;
  config.num_events = n;
  config.seed = seed;
  return GenerateAndroidLog(config).events;
}

// What the final output stream of one shard must contain: the framework's
// routing rules (BandRouter) plus each band sorter's rule that an event at
// or before the band's last punctuation is dropped.
struct Reference {
  uint64_t kept = 0;
  uint64_t dropped = 0;
  uint64_t checksum = 0;
};

class ReferenceModel {
 public:
  explicit ReferenceModel(const WorkloadSpec& spec)
      : router_(spec.latencies, spec.punctuation_period),
        last_(spec.latencies.size(), kMinTimestamp) {}

  void Add(const Event& e) {
    bool round = false;
    const size_t band = router_.Route(e, &round);
    if (band == router_.bands() || e.sync_time <= last_[band]) {
      ++ref_.dropped;
    } else {
      ++ref_.kept;
      ref_.checksum += RecordHash(e);
    }
    // The partition pushes a band's buffered events before punctuating
    // it, so the event that completes a round is judged by the old
    // punctuation.
    if (round) {
      for (size_t b = 0; b < last_.size(); ++b) {
        last_[b] = std::max(last_[b], router_.RoundPunctuation(b));
      }
    }
  }

  const Reference& result() const { return ref_; }

 private:
  BandRouter router_;
  std::vector<Timestamp> last_;
  Reference ref_;
};

// One shard's traffic, prepared before any timing starts.
struct ShardPlan {
  ShardLoad load;
  // Session ids that route to this shard; frame f carries
  // sessions[f % sessions.size()].
  std::vector<uint64_t> sessions;
  uint64_t event_count = 0;
  // Trace mode: the stream's first events (at most kReplayEventsPerShard,
  // scaled), kept for the layer replays.
  std::vector<Event> replay_prefix;
  // The stream encoded into frames, and the shard's sent high watermark
  // after each frame.
  std::vector<std::vector<uint8_t>> frames;
  std::vector<Timestamp> hw_after;
  Reference ref;
};

std::vector<uint8_t> EncodeEvents(uint64_t session, const Event* events,
                                  size_t n) {
  Frame frame;
  frame.type = FrameType::kEvents;
  frame.session_id = session;
  frame.events.assign(events, events + n);
  return server::EncodeFrame(frame);
}

size_t Scaled(double value, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(std::llround(value * scale)));
}

// The workload's memory budget across both shards, scaled; 0 = none.
size_t MemoryBudget(const WorkloadSpec& spec, const RunConfig& config) {
  return spec.memory_budget == 0
             ? 0
             : Scaled(static_cast<double>(spec.memory_budget), config.scale);
}

std::vector<ShardPlan> PreparePlans(const WorkloadSpec& spec,
                                    const RunConfig& config) {
  // Session ids per shard, found with the service's own routing function
  // (a manager with no workers running).
  server::ShardManagerOptions routing;
  routing.num_shards = kShards;
  routing.manual_drain = true;
  routing.backpressure = server::BackpressurePolicy::kRejectFrame;
  const server::SessionShardManager router(routing);

  std::vector<ShardPlan> plans(kShards);
  size_t missing = 0;
  for (size_t s = 0; s < kShards; ++s) {
    plans[s].load = spec.shards[s];
    missing += plans[s].load.sessions;
  }
  for (uint64_t id = 1; missing > 0; ++id) {
    ShardPlan& plan = plans[router.ShardOf(id)];
    if (plan.sessions.size() < plan.load.sessions) {
      plan.sessions.push_back(id);
      --missing;
    }
  }
  std::vector<std::thread> workers;
  for (size_t s = 0; s < kShards; ++s) {
    workers.emplace_back([&spec, &config, &plans, s] {
      ShardPlan& plan = plans[s];
      const ShardLoad& load = plan.load;
      const uint64_t seed = Mix64(config.seed * kShards + s);
      const double per_phase =
          load.drive == Drive::kClosed
              ? static_cast<double>(load.events)
              : static_cast<double>(load.events) * spec.phase_seconds;
      const size_t n = Scaled(per_phase, config.scale);
      std::vector<Event> events = Generate(load.source, n, seed);
      ReferenceModel model(spec);
      Timestamp hw = kMinTimestamp;
      for (size_t i = 0; i < n; i += load.frame_events) {
        const size_t end = std::min(n, i + load.frame_events);
        for (size_t j = i; j < end; ++j) {
          hw = std::max(hw, events[j].sync_time);
          model.Add(events[j]);
        }
        const uint64_t session =
            plan.sessions[plan.frames.size() % plan.sessions.size()];
        plan.frames.push_back(
            EncodeEvents(session, events.data() + i, end - i));
        plan.hw_after.push_back(hw);
      }
      plan.event_count = n;
      plan.ref = model.result();
      if (config.trace) {
        events.resize(std::min(n, Scaled(kReplayEventsPerShard, config.scale)));
        plan.replay_prefix = std::move(events);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return plans;
}

// ---------------------------------------------------------------------------
// Measurement points.

// Maps a record to the frame that made it releasable: the first frame
// after which its shard had seen an event at or past sync_time + L_last
// (L_last = the largest reorder latency, the final stream's). Lag is
// measured from that frame's send time — its schedule slot when paced —
// so it is the delay the system adds beyond the latency the user chose.
class LagTable {
 public:
  LagTable(const std::vector<Timestamp>& hw_after, Timestamp last_latency)
      : hw_after_(hw_after),
        latency_(last_latency),
        sent_ns_(hw_after.size()) {}

  void Stamp(size_t frame, uint64_t ns) {
    sent_ns_[frame].store(ns, std::memory_order_relaxed);
  }

  // False for records only the final flush releases (no frame ever made
  // them releasable); those are excluded from lag and counted.
  bool Releasable(Timestamp t) const {
    return !hw_after_.empty() && t <= hw_after_.back() - latency_;
  }

  double LagMs(Timestamp t, uint64_t now_ns) const {
    const size_t frame = static_cast<size_t>(
        std::lower_bound(hw_after_.begin(), hw_after_.end(), t + latency_) -
        hw_after_.begin());
    return ToMs(static_cast<int64_t>(now_ns) -
                static_cast<int64_t>(
                    sent_ns_[frame].load(std::memory_order_relaxed)));
  }

 private:
  const std::vector<Timestamp>& hw_after_;
  const Timestamp latency_;
  std::vector<std::atomic<uint64_t>> sent_ns_;
};

// Count, order check and fingerprint of one shard's output stream.
struct Tally {
  uint64_t records = 0;
  uint64_t checksum = 0;
  uint64_t out_of_order = 0;
  Timestamp last = kMinTimestamp;

  void Add(const Event& e) {
    if (e.sync_time < last) ++out_of_order;
    last = e.sync_time;
    ++records;
    checksum += RecordHash(e);
  }
};

struct LagSamples {
  std::vector<double> ms;  // In the order the records arrived.
  std::vector<uint64_t> at_ns;  // When each sample's record arrived.
  uint64_t flush_released = 0;

  void Add(const LagTable& table, const Event& e, uint64_t seen,
           uint64_t every, uint64_t now_ns) {
    if (!table.Releasable(e.sync_time)) {
      ++flush_released;
    } else if (seen % every == 0) {
      ms.push_back(table.LagMs(e.sync_time, now_ns));
      at_ns.push_back(now_ns);
    }
  }

  void Append(const LagSamples& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    at_ns.insert(at_ns.end(), other.at_ns.begin(), other.at_ns.end());
    flush_released += other.flush_released;
  }
};

// Lag quantiles per window of kLagWindowNs of arrival time. The reported
// values are medians over windows, so a host slowdown of a few hundred
// milliseconds sways a few windows rather than the result (README.md).
struct WindowedLag {
  std::vector<double> p50;
  std::vector<double> p95;
  std::vector<double> p99;

  // Adds the windows of one phase that started at t0_ns.
  void AddPhase(const LagSamples& s, uint64_t t0_ns) {
    std::vector<std::vector<double>> windows;
    for (size_t i = 0; i < s.ms.size(); ++i) {
      const size_t w = static_cast<size_t>(
          (std::max(s.at_ns[i], t0_ns) - t0_ns) / kLagWindowNs);
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(s.ms[i]);
    }
    for (std::vector<double>& w : windows) {
      if (w.size() < kMinWindowSamples) continue;
      p50.push_back(Quantile(w, 0.50));
      p95.push_back(Quantile(w, 0.95));
      p99.push_back(Quantile(w, 0.99));
    }
  }
};

// The ServiceOptions::on_result tap for one shard. Only that shard's worker
// thread writes it; it is read after Shutdown() has joined the workers.
struct ShardTap {
  Tally tally;
  const LagTable* lag = nullptr;  // Set when no subscriber measures lag.
  LagSamples samples;

  void OnRecord(const Event& e) {
    tally.Add(e);
    if (lag != nullptr) {
      samples.Add(*lag, e, tally.records, kTapLagEvery, Clock::Nanos());
    }
  }
};

bool Watched(const WorkloadSpec& spec, size_t shard) {
  if (spec.result_filter == server::kResultFilterAll) return true;
  return spec.result_filter == server::kResultFilterSession && shard == 1;
}

// Whether the in-process tap times `shard`'s records for result lag: every
// shard when there is no subscriber, the subscriber's shards otherwise —
// unless the subscriber itself is where lag ends.
bool TapTimesLag(const WorkloadSpec& spec, size_t shard) {
  if (spec.lag_at_subscriber) return false;
  return spec.result_filter == 0 || Watched(spec, shard);
}

// ---------------------------------------------------------------------------
// The service under test and its clients.

struct IngestConn {
  std::unique_ptr<IngestClient> client;
  TcpChannel* channel = nullptr;  // Owned by `client`; raw frame writes.
};

// Members are destroyed bottom-up: clients close their sockets, the front
// end stops, then the service shuts down.
struct Rig {
  std::unique_ptr<IngestService> service;
  std::unique_ptr<TcpServer> server;
  IngestConn ingest[kShards];
  std::unique_ptr<IngestClient> subscriber;
  std::unique_ptr<IngestClient> scraper;
};

ServiceOptions MakeServiceOptions(const WorkloadSpec& spec,
                                  const RunConfig& config,
                                  ShardTap* taps) {
  ServiceOptions o;
  o.shards.num_shards = kShards;
  o.shards.queue_capacity = spec.queue_capacity;
  o.shards.backpressure = server::BackpressurePolicy::kBlock;
  o.shards.framework.reorder_latencies = spec.latencies;
  o.shards.framework.punctuation_period = spec.punctuation_period;
  o.shards.memory_budget = MemoryBudget(spec, config);
  o.on_result = [taps](size_t shard, size_t, const Event& e) {
    taps[shard].OnRecord(e);
  };
  return o;
}

std::unique_ptr<IngestClient> Connect(uint16_t port, TcpChannel** raw,
                                      std::string* error) {
  std::unique_ptr<TcpChannel> channel = TcpChannel::Connect(port, error);
  if (channel == nullptr) return nullptr;
  if (raw != nullptr) *raw = channel.get();
  return std::make_unique<IngestClient>(std::move(channel));
}

// A metrics round trip: the connection is registered with the server.
bool Probe(IngestClient* client) {
  std::string body;
  return client->GetMetrics(MetricsFormat::kText, &body);
}

// Builds the service and its front end, connects every client the
// workload uses, and waits until each connection and subscription is
// acknowledged. Returns the elapsed seconds, or a negative value on error.
double SetUpRig(const WorkloadSpec& spec, const RunConfig& config,
                const std::vector<ShardPlan>& plans, ShardTap* taps, Rig* rig,
                std::string* error) {
  const uint64_t start = Clock::Nanos();
  rig->service = std::make_unique<IngestService>(
      MakeServiceOptions(spec, config, taps));
  server::TcpServerOptions tcp;
  tcp.io_threads = 1;
  // The default 1 MiB best-effort budget holds ~45 ms of cloudlog_live's
  // result stream; a subscriber thread descheduled that long by a noisy
  // host would lose records. 16 MiB covers ~750 ms, still well under the
  // reply-queue bound as EventLoopOptions requires.
  tcp.telemetry_write_queue_bytes = size_t{16} << 20;
  tcp.max_write_queue_bytes = size_t{64} << 20;
  rig->server = std::make_unique<TcpServer>(rig->service.get(), 0, tcp);
  if (!rig->server->Start(error)) return -1;
  const uint16_t port = rig->server->port();
  for (size_t s = 0; s < kShards; ++s) {
    rig->ingest[s].client = Connect(port, &rig->ingest[s].channel, error);
    if (rig->ingest[s].client == nullptr ||
        !Probe(rig->ingest[s].client.get())) {
      if (error->empty()) *error = "ingest connection probe failed";
      return -1;
    }
  }
  if (spec.result_filter != 0) {
    rig->subscriber = Connect(port, nullptr, error);
    if (rig->subscriber == nullptr ||
        !rig->subscriber->SubscribeResults(plans[1].sessions[0],
                                           spec.result_filter) ||
        (spec.telemetry_subscriber &&
         !rig->subscriber->Subscribe(plans[1].sessions[0],
                                     server::kTelemetryMetrics))) {
      if (error->empty()) *error = "subscription failed";
      return -1;
    }
  }
  rig->scraper = Connect(port, nullptr, error);
  if (rig->scraper == nullptr || !Probe(rig->scraper.get())) {
    if (error->empty()) *error = "scraper connection probe failed";
    return -1;
  }
  return static_cast<double>(Clock::Nanos() - start) / 1e9;
}

// ---------------------------------------------------------------------------
// One measured phase: a fresh rig, the load, shutdown, and the checks.

struct Phase {
  Drive drive = Drive::kClosed;
  double setup_s = 0;
  uint64_t t0_ns = 0;    // First send.
  double elapsed_s = 0;  // First send to the last flush ack.
  uint64_t offered = 0;
  uint64_t records = 0;  // Final-stream records at the tap.
  LagSamples lag;
  LagSamples subscriber_lag;  // Subscriber receipt, when lag ends at the tap.
  std::vector<double> scrape_ms;       // After the last ack.
  std::vector<double> load_scrape_ms;  // Every 100 ms during the phase.
  size_t prometheus_bytes = 0;
  std::vector<double> generator_lateness_ms;  // Send start minus due time.
  double memory_peak_bytes = 0;
  std::vector<std::string> failures;
  uint64_t failed = 0;

  ServerMetrics before_shutdown;  // After the last ack.

  // Trace mode.
  double snapshot_ms = 0;
  double render_prometheus_ms = 0;
  double render_json_ms = 0;
  double write_blocked_share[kShards] = {};
};

struct SubscriberState {
  Tally tally[kShards];
  LagSamples lag;
  uint64_t records_dropped = 0;  // Highest cumulative drop count seen.
  bool gap_free = true;
  bool telemetry_gap_free = true;
  bool complete = false;
  bool shard_ok = true;  // Only watched shards' chunks arrived.
};

// Receives result chunks until `expected` records arrived (the reference
// model's count for the watched shards), blocking between chunks. Returns
// early only when the connection dies.
void RunSubscriber(const WorkloadSpec& spec, IngestClient* client,
                   const std::vector<LagTable>& tables, uint64_t expected,
                   SpanLog::Lane* lane, SubscriberState* st) {
  uint64_t next_seq = 1;
  uint64_t next_telemetry_seq = 1;
  uint64_t received = 0;
  Frame chunk;
  auto drain_telemetry = [&] {
    while (spec.telemetry_subscriber && client->PollTelemetry(&chunk)) {
      if (chunk.telemetry_seq != next_telemetry_seq) {
        st->telemetry_gap_free = false;
      }
      next_telemetry_seq = chunk.telemetry_seq + 1;
    }
  };
  while (received < expected) {
    bool got = false;
    {
      ScopedSpan span(lane, "results.next");
      got = client->NextResults(&chunk);
    }
    if (!got) break;
    const uint64_t now = Clock::Nanos();
    if (chunk.result_seq != next_seq) st->gap_free = false;
    next_seq = chunk.result_seq + 1;
    st->records_dropped = std::max(st->records_dropped, chunk.result_dropped);
    const size_t shard = chunk.result_shard;
    if (shard >= kShards || !Watched(spec, shard)) {
      st->shard_ok = false;
    } else {
      for (const Event& e : chunk.events) {
        st->tally[shard].Add(e);
        st->lag.Add(tables[shard], e, st->tally[shard].records,
                    kSubscriberLagEvery, now);
      }
      received += chunk.events.size();
    }
    drain_telemetry();
  }
  drain_telemetry();
  st->complete = received == expected;
}

struct SenderResult {
  bool ok = true;
  uint64_t events = 0;
  uint64_t ack_ns = 0;
  std::vector<double> lateness_ms;
};

// Closed loop over pre-encoded frames: each frame goes out as soon as the
// socket accepted the previous one. Lag is not timed here (see lag_rate).
void SendClosed(const ShardPlan& plan, IngestConn* conn, SpanLog::Lane* lane,
                SenderResult* out) {
  for (size_t f = 0; f < plan.frames.size(); ++f) {
    ScopedSpan span(lane, "tcp.write");
    if (!conn->channel->Write(plan.frames[f].data(), plan.frames[f].size())) {
      out->ok = false;
      return;
    }
  }
  out->events = plan.event_count;
}

// Open loop: frames go out in bursts of `burst_frames`, burst b due at
// t0 + b * burst_frames * frame_events / rate, whether or not the server
// kept up. Lag counts from the due time; lateness is taken at the start of
// each burst.
void SendPaced(const ShardPlan& plan, double rate, uint64_t t0,
               IngestConn* conn, LagTable* lag, SpanLog::Lane* lane,
               SenderResult* out) {
  const size_t burst = plan.load.burst_frames;
  const double interval_ns =
      static_cast<double>(plan.load.frame_events * burst) / rate * 1e9;
  out->lateness_ms.reserve(plan.frames.size() / burst + 1);
  for (size_t f = 0; f < plan.frames.size(); ++f) {
    const double slot = static_cast<double>(f / burst);
    const uint64_t due =
        t0 + static_cast<uint64_t>(std::llround(interval_ns * slot));
    if (f % burst == 0) {
      SleepUntilNs(due);
      out->lateness_ms.push_back(ToMs(Clock::Nanos() - due));
    }
    lag->Stamp(f, due);
    ScopedSpan span(lane, "tcp.write");
    if (!conn->channel->Write(plan.frames[f].data(), plan.frames[f].size())) {
      out->ok = false;
      return;
    }
  }
  out->events = plan.event_count;
}

// One Prometheus scrape's round trip in milliseconds; negative if it failed.
double ScrapeMs(IngestClient* client, SpanLog::Lane* lane, size_t* bytes) {
  ScopedSpan span(lane, "metrics.scrape");
  std::string body;
  const uint64_t start = Clock::Nanos();
  if (!client->GetMetrics(MetricsFormat::kPrometheus, &body)) return -1;
  *bytes = body.size();
  return ToMs(Clock::Nanos() - start);
}

// Scrapes every 100 ms from t0 until `stop`; false if a scrape failed.
bool RunScraper(IngestClient* client, uint64_t t0,
                const std::atomic<bool>* stop, SpanLog::Lane* lane,
                std::vector<double>* ms) {
  size_t bytes = 0;
  for (uint64_t next = t0;; next += kScrapeIntervalNs) {
    SleepUntilNs(next);
    if (next > t0 && stop->load(std::memory_order_acquire)) return true;
    const double m = ScrapeMs(client, lane, &bytes);
    if (m < 0) return false;
    ms->push_back(m);
  }
}

// Median wall milliseconds of `fn` over kRenderRepeats calls.
template <typename Fn>
double MedianMs(Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < kRenderRepeats; ++i) {
    const uint64_t start = Clock::Nanos();
    fn();
    ms.push_back(ToMs(Clock::Nanos() - start));
  }
  return Median(std::move(ms));
}

// Records a failed check about `shard` comparing two counts.
void Fail(Phase* phase, size_t shard, const char* what, uint64_t got,
          uint64_t want) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "shard %zu: %s: %llu, expected %llu", shard,
                what, static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  phase->failures.push_back(buf);
}

// The phase's output checks (see README.md): every shard's output against
// the reference and the service's counters, and the subscriber's stream
// against the pipeline's. Also collects the phase's records, failed events
// and lag samples.
void CheckPhase(const WorkloadSpec& spec, const std::vector<ShardPlan>& plans,
                const SenderResult* sent, const ShardTap* taps,
                const std::vector<ShardMetrics>& after,
                const SubscriberState* sub, uint64_t records_dropped,
                Phase* phase) {
  for (size_t s = 0; s < kShards; ++s) {
    const ShardMetrics& m = after[s];
    const ShardTap& tap = taps[s];
    const Reference& ref = plans[s].ref;
    phase->records += tap.tally.records;
    if (m.events_in != sent[s].events) {
      Fail(phase, s, "events ingested", m.events_in, sent[s].events);
    }
    if (m.events_out + m.dropped_late != m.events_in) {
      Fail(phase, s, "emitted plus late-dropped events",
           m.events_out + m.dropped_late, m.events_in);
    }
    if (tap.tally.out_of_order != 0) {
      Fail(phase, s, "records out of sync_time order",
           tap.tally.out_of_order, 0);
    }
    if (tap.tally.records != ref.kept || tap.tally.checksum != ref.checksum) {
      Fail(phase, s, "output records (reference count; the fingerprint "
           "must match too)", tap.tally.records, ref.kept);
    }
    if (m.dropped_late != ref.dropped) {
      Fail(phase, s, "late drops against the reference", m.dropped_late,
           ref.dropped);
    }
    if (sub != nullptr && Watched(spec, s) &&
        (sub->tally[s].records != tap.tally.records ||
         sub->tally[s].checksum != tap.tally.checksum ||
         sub->tally[s].out_of_order != 0)) {
      Fail(phase, s, "subscriber records (pipeline count; fingerprint and "
           "order must match too)", sub->tally[s].records, tap.tally.records);
    }
    const uint64_t unaccounted =
        m.events_in >= m.events_out + m.dropped_late
            ? m.events_in - m.events_out - m.dropped_late
            : 0;
    phase->failed += m.rejected_events + m.shed_events + unaccounted +
                    (sent[s].events > m.events_in ? sent[s].events - m.events_in
                                                  : 0);
    phase->lag.Append(tap.samples);
  }
  if (sub != nullptr) {
    (spec.lag_at_subscriber ? phase->lag : phase->subscriber_lag) = sub->lag;
    phase->failed += records_dropped;
    if (!sub->complete) {
      phase->failures.push_back("subscriber did not receive every record");
    }
    if (!sub->gap_free) phase->failures.push_back("result seqs have gaps");
    if (!sub->shard_ok) {
      phase->failures.push_back("subscriber got an unwatched shard's chunk");
    }
    if (sub->records_dropped != 0 || records_dropped != 0) {
      phase->failures.push_back("result records dropped for the subscriber");
    }
    if (spec.telemetry_subscriber && !sub->telemetry_gap_free) {
      phase->failures.push_back("telemetry seqs have gaps");
    }
  }
}

// Runs one phase driven by `drive`: the workload's own drive, or kPaced at
// spec.lag_rate for a closed-loop workload's lag phases. Lag is timed only
// in paced phases.
Phase RunPhase(const WorkloadSpec& spec, const RunConfig& config,
               const std::vector<ShardPlan>& plans, Drive drive,
               SpanLog* log) {
  Phase phase;
  phase.drive = drive;
  const Timestamp last_latency = spec.latencies.back();
  std::vector<LagTable> tables;
  tables.reserve(kShards);
  ShardTap taps[kShards];
  for (size_t s = 0; s < kShards; ++s) {
    tables.emplace_back(plans[s].hw_after, last_latency);
    if (drive == Drive::kPaced && TapTimesLag(spec, s)) {
      taps[s].lag = &tables[s];
    }
  }

  Rig rig;
  std::string error;
  phase.setup_s = SetUpRig(spec, config, plans, taps, &rig, &error);
  if (phase.setup_s < 0) {
    phase.failures.push_back("set-up failed: " + error);
    return phase;
  }

  auto lane = [log](std::string name) {
    return log != nullptr ? log->AddLane(std::move(name)) : nullptr;
  };
  SpanLog::Lane* sender_lanes[kShards] = {lane("sender.shard0"),
                                          lane("sender.shard1")};
  SpanLog::Lane* subscriber_lane = lane("subscriber");
  SpanLog::Lane* scraper_lane = lane("scraper");
  SpanLog::Lane* main_lane = lane("main");

  std::latch go(1);
  uint64_t t0 = 0;  // Written before go opens; read after.
  std::atomic<bool> stop_scraper{false};
  SenderResult sent[kShards];
  SubscriberState sub;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      go.wait();
      const ShardPlan& plan = plans[s];
      IngestConn* conn = &rig.ingest[s];
      const double rate = plan.load.drive == Drive::kPaced
                              ? static_cast<double>(plan.load.events)
                              : spec.lag_rate;
      switch (drive) {
        case Drive::kClosed:
          SendClosed(plan, conn, sender_lanes[s], &sent[s]);
          break;
        case Drive::kPaced:
          SendPaced(plan, rate * config.scale, t0, conn, &tables[s],
                    sender_lanes[s], &sent[s]);
          break;
      }
      if (!sent[s].ok) return;
      // Lossless barrier: the ack means every frame this connection sent
      // is in its shard's pipeline.
      ScopedSpan span(sender_lanes[s], "ingest.flush");
      sent[s].ok = conn->client->FlushSession(plan.sessions[0]);
      sent[s].ack_ns = Clock::Nanos();
    });
  }
  bool scraper_ok = true;
  std::thread scraper;
  if (spec.scrape_under_load) {
    scraper = std::thread([&] {
      go.wait();
      scraper_ok = RunScraper(rig.scraper.get(), t0, &stop_scraper,
                              scraper_lane, &phase.load_scrape_ms);
    });
  }
  std::thread subscriber;
  std::promise<void> subscriber_done;
  if (rig.subscriber != nullptr) {
    uint64_t expected = 0;
    for (size_t s = 0; s < kShards; ++s) {
      if (Watched(spec, s)) expected += plans[s].ref.kept;
    }
    subscriber = std::thread([&, expected] {
      go.wait();
      RunSubscriber(spec, rig.subscriber.get(), tables, expected,
                    subscriber_lane, &sub);
      subscriber_done.set_value();
    });
  }

  t0 = Clock::Nanos();
  phase.t0_ns = t0;
  go.count_down();
  for (std::thread& t : threads) t.join();
  uint64_t last_ack = t0;
  for (size_t s = 0; s < kShards; ++s) {
    if (!sent[s].ok) {
      phase.failures.push_back("shard " + std::to_string(s) +
                               ": send or flush failed");
    }
    last_ack = std::max(last_ack, sent[s].ack_ns);
    phase.offered += sent[s].events;
    phase.generator_lateness_ms.insert(phase.generator_lateness_ms.end(),
                                       sent[s].lateness_ms.begin(),
                                       sent[s].lateness_ms.end());
  }
  phase.elapsed_s = static_cast<double>(last_ack - t0) / 1e9;
  stop_scraper.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();

  if (log != nullptr) {
    ServerMetrics snapshot;
    {
      ScopedSpan span(main_lane, "metrics.snapshot");
      phase.snapshot_ms =
          MedianMs([&] { snapshot = rig.service->Snapshot(); });
    }
    {
      ScopedSpan span(main_lane, "metrics.render_prometheus");
      phase.render_prometheus_ms =
          MedianMs([&] { server::RenderMetricsPrometheus(snapshot); });
    }
    {
      ScopedSpan span(main_lane, "metrics.render_json");
      phase.render_json_ms =
          MedianMs([&] { server::RenderMetricsJson(snapshot); });
    }
    for (size_t s = 0; s < kShards; ++s) {
      phase.write_blocked_share[s] =
          static_cast<double>(SpanLog::TotalNs(*sender_lanes[s], "tcp.write")) /
          static_cast<double>(last_ack - t0);
    }
  }
  phase.before_shutdown = rig.service->Snapshot();
  for (const ShardMetrics& m : phase.before_shutdown.shards) {
    phase.memory_peak_bytes += static_cast<double>(m.memory_peak_bytes);
  }
  {
    ScopedSpan span(main_lane, "service.shutdown");
    rig.service->Shutdown();
  }
  const std::vector<ShardMetrics> after =
      rig.service->manager().SnapshotShards();

  if (subscriber.joinable()) {
    // A stream that never completes would block the subscriber forever;
    // stopping the front end closes its socket and ends the wait.
    if (subscriber_done.get_future().wait_for(kSubscriberDrain) !=
        std::future_status::ready) {
      rig.server->Stop();
    }
    subscriber.join();
  }
  // Scraped only now: on the I/O thread a scrape's render would delay the
  // subscriber's last chunks. The service keeps its counters after
  // shutdown.
  for (int i = 0; i < kIdleScrapes && scraper_ok; ++i) {
    const double ms =
        ScrapeMs(rig.scraper.get(), scraper_lane, &phase.prometheus_bytes);
    scraper_ok = ms >= 0;
    if (scraper_ok) phase.scrape_ms.push_back(ms);
  }
  if (!scraper_ok) phase.failures.push_back("Prometheus scrape failed");
  CheckPhase(spec, plans, sent, taps, after,
             rig.subscriber != nullptr ? &sub : nullptr,
             rig.service->Snapshot().results.records_dropped, &phase);
  return phase;
}

// ---------------------------------------------------------------------------
// Aggregation.

void Add(std::vector<Metric>* out, const char* name, double value,
         const char* unit) {
  out->push_back(Metric{name, value, unit});
}

double PerEvent(double total, uint64_t events) {
  return events == 0 ? 0 : total / static_cast<double>(events);
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// Fills the per-layer metrics from the last traced phase of the workload's
// own drive and the layer replays. Tracing overhead compares the median
// throughput of the traced and the untraced phases.
void AddLayerMetrics(const WorkloadSpec& spec, const RunConfig& config,
                     const Phase& traced, double traced_meps,
                     double untraced_meps, double lateness_p99_ms,
                     const ReplayCosts& replay, WorkloadResult* result) {
  const ServerMetrics& m = traced.before_shutdown;
  HistogramSnapshot queue_wait;
  HistogramSnapshot drain_stall;
  ImpatienceCounters sorter;
  uint64_t events_in = 0;
  uint64_t blocked = 0;
  uint64_t sessions = 0;
  uint64_t late = 0;
  double memory_peak = 0;
  for (const ShardMetrics& s : m.shards) {
    queue_wait += s.queue_wait;
    drain_stall += s.drain_stall;
    sorter += s.sorter;
    events_in += s.events_in;
    blocked += s.blocked_pushes;
    sessions += s.sessions;
    late += s.dropped_late;
    memory_peak += static_cast<double>(s.memory_peak_bytes);
  }
  uint64_t epollout_stalls = 0;
  uint64_t closed_slow = 0;
  for (const server::IoLoopMetrics& l : m.transport.loops) {
    epollout_stalls += l.epollout_stalls;
    closed_slow += l.closed_slow;
  }
  const double e = static_cast<double>(replay.events);
  const double framework_total = replay.framework_ns / e;
  const double bare_sort = (replay.sort_push_ns + replay.sort_merge_ns) / e;
  const double spill_sort = replay.spill_sort_ns / e;
  const double shard_busy_ns =
      PerEvent(static_cast<double>(drain_stall.sum()), events_in);
  const double budget = static_cast<double>(MemoryBudget(spec, config));

  std::vector<Metric>& out = result->per_layer;
  Add(&out, "wire.decode_ns_per_event", replay.decode_ns / e, "ns");
  Add(&out, "wire.encode_ns_per_event", replay.encode_ns / e, "ns");
  Add(&out, "wire.result_decode_ns_per_record",
      PerEvent(replay.result_decode_ns, replay.records), "ns");
  Add(&out, "event_loop.write_blocked_share.shard0",
      traced.write_blocked_share[0], "fraction");
  Add(&out, "event_loop.write_blocked_share.shard1",
      traced.write_blocked_share[1], "fraction");
  Add(&out, "event_loop.epollout_stalls", static_cast<double>(epollout_stalls),
      "count");
  Add(&out, "event_loop.closed_slow", static_cast<double>(closed_slow),
      "count");
  Add(&out, "shard.queue_wait_p50_us", Us(queue_wait.P50()), "us");
  Add(&out, "shard.queue_wait_p99_us", Us(queue_wait.P99()), "us");
  Add(&out, "shard.drain_stall_p50_us", Us(drain_stall.P50()), "us");
  Add(&out, "shard.drain_stall_p99_us", Us(drain_stall.P99()), "us");
  Add(&out, "shard.busy_share",
      static_cast<double>(drain_stall.sum()) /
          (static_cast<double>(kShards) * traced.elapsed_s * 1e9),
      "fraction");
  Add(&out, "shard.busy_ns_per_event", shard_busy_ns, "ns");
  Add(&out, "shard.blocked_pushes", static_cast<double>(blocked), "count");
  Add(&out, "shard.sessions", static_cast<double>(sessions), "count");
  Add(&out, "framework.self_ns_per_event",
      framework_total - (budget > 0 ? spill_sort : bare_sort),
      "ns");
  Add(&out, "framework.round_p50_us", Us(replay.rounds.P50()), "us");
  Add(&out, "framework.round_p99_us", Us(replay.rounds.P99()), "us");
  Add(&out, "framework.late_drops", static_cast<double>(late), "count");
  Add(&out, "sort.push_ns_per_event", replay.sort_push_ns / e, "ns");
  Add(&out, "sort.merge_ns_per_event", replay.sort_merge_ns / e, "ns");
  Add(&out, "sort.srs_hit_rate",
      PerEvent(static_cast<double>(sorter.srs_hits), sorter.pushes),
      "fraction");
  Add(&out, "sort.new_runs_per_kevent",
      1e3 * PerEvent(static_cast<double>(sorter.new_runs), sorter.pushes),
      "count");
  Add(&out, "sort.merge_elements_moved_per_event",
      PerEvent(static_cast<double>(sorter.merge.elements_moved), events_in),
      "count");
  Add(&out, "sort.punct_to_emit_p50_us", Us(sorter.punct_to_emit.P50()), "us");
  Add(&out, "sort.punct_to_emit_p99_us", Us(sorter.punct_to_emit.P99()), "us");
  Add(&out, "storage.spill_ns_per_event", spill_sort - bare_sort, "ns");
  Add(&out, "storage.spill_written_bytes_per_event",
      PerEvent(static_cast<double>(sorter.spill_bytes_written), events_in),
      "B");
  Add(&out, "storage.spill_read_bytes_per_event",
      PerEvent(static_cast<double>(sorter.spill_read_bytes), events_in), "B");
  Add(&out, "storage.runs_spilled", static_cast<double>(sorter.runs_spilled),
      "count");
  // With a budget: the run's peak against it. Without: the spill replay's
  // peak against the budget it was given.
  Add(&out, "storage.budget_overshoot",
      budget > 0 ? memory_peak / budget
                 : static_cast<double>(replay.spill_peak_bytes) /
                       static_cast<double>(replay.spill_budget_bytes),
      "ratio");
  Add(&out, "results.export_ns_per_record",
      PerEvent(replay.export_ns, replay.records), "ns");
  Add(&out, "results.records_per_chunk",
      PerEvent(static_cast<double>(replay.records), replay.chunks), "count");
  Add(&out, "results.chunks_built", static_cast<double>(m.results.chunks_built),
      "count");
  Add(&out, "results.records_dropped",
      static_cast<double>(m.results.records_dropped), "count");
  Add(&out, "metrics.snapshot_ms", traced.snapshot_ms, "ms");
  Add(&out, "metrics.render_prometheus_ms", traced.render_prometheus_ms, "ms");
  Add(&out, "metrics.render_json_ms", traced.render_json_ms, "ms");
  Add(&out, "metrics.prometheus_bytes",
      static_cast<double>(traced.prometheus_bytes), "B");
  Add(&out, "telemetry.chunks_sent",
      static_cast<double>(m.telemetry.chunks_sent), "count");
  Add(&out, "telemetry.chunks_dropped",
      static_cast<double>(m.telemetry.chunks_dropped), "count");
  Add(&out, "gen.lateness_p99_ms", lateness_p99_ms, "ms");
  Add(&out, "trace.overhead_pct", 100.0 * (1.0 - traced_meps / untraced_meps),
      "%");
  // The replayed shard pipeline against the run's shard busy time per
  // event: how much of the measured time the layer replays account for.
  Add(&result->details, "trace.layer_sum_ratio",
      shard_busy_ns > 0 ? framework_total / shard_busy_ns : 0, "ratio");
}

std::vector<ReplayInput> ReplayInputs(const std::vector<ShardPlan>& plans) {
  std::vector<ReplayInput> inputs(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    inputs[s].events = plans[s].replay_prefix;
    inputs[s].session_id = plans[s].sessions[0];
    inputs[s].frame_events = plans[s].load.frame_events;
  }
  return inputs;
}

// Runs the workload's measured phases, each on a fresh service, until
// `seconds` of measured time are used up. A closed-loop workload splits
// that time evenly between closed-loop phases and paced lag phases,
// interleaved, and runs at least one of each.
std::vector<Phase> RunPhases(const WorkloadSpec& spec, const RunConfig& config,
                             const std::vector<ShardPlan>& plans,
                             SpanLog* log) {
  const Drive own = spec.shards[0].drive;
  std::vector<Phase> phases;
  double measured[2] = {0, 0};  // Seconds in closed-loop, in paced phases.
  constexpr size_t kMaxPhases = 200;
  do {
    const Drive drive = own == Drive::kClosed && measured[1] < measured[0]
                            ? Drive::kPaced
                            : own;
    phases.push_back(RunPhase(spec, config, plans, drive, log));
    measured[drive == Drive::kPaced] += phases.back().elapsed_s;
    if (!phases.back().failures.empty()) break;
  } while ((measured[0] + measured[1] < config.seconds ||
            (own == Drive::kClosed && measured[1] == 0)) &&
           phases.size() < kMaxPhases);
  return phases;
}

double Meps(const Phase& p) {
  return p.elapsed_s > 0 ? static_cast<double>(p.offered) / p.elapsed_s / 1e6
                         : 0;
}

// Phases of the workload's own drive: they give throughput and memory.
bool OwnDrive(const WorkloadSpec& spec, const Phase& p) {
  return p.drive == spec.shards[0].drive;
}

}  // namespace

uint64_t RecordHash(const Event& e) {
  uint64_t h = Mix64(static_cast<uint64_t>(e.sync_time));
  h = Mix64(h ^ static_cast<uint64_t>(e.other_time));
  h = Mix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(e.key)) << 32) ^
            e.hash);
  for (const int32_t p : e.payload) {
    h = Mix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(p)));
  }
  return h;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Capacity: tiny runs; wire decode, run insert and merge do the work.
      {.name = "cloudlog_flood",
       .latencies = {1 * kSecond, 1 * kMinute},
       .punctuation_period = 10000,
       .shards = {{Drive::kClosed, Source::kCloudLog, 1'000'000, 1024, 1},
                  {Drive::kClosed, Source::kCloudLog, 1'000'000, 1024, 1}},
       .lag_rate = 500'000},
      // Freshness: small merges, result fan-out, metrics at 2048 sessions.
      {.name = "cloudlog_live",
       .latencies = {1 * kSecond, 1 * kMinute},
       .punctuation_period = 1000,
       .phase_seconds = 2,
       .shards = {{Drive::kPaced, Source::kCloudLog, 250'000, 256, 1024},
                  {Drive::kPaced, Source::kCloudLog, 250'000, 256, 1024}},
       .result_filter = server::kResultFilterAll,
       .telemetry_subscriber = true,
       .lag_at_subscriber = true,
       .scrape_under_load = true},
      // Isolation: each hot burst overflows its 16-frame queue, and block
      // backpressure stalls the I/O loop the cold shard shares.
      {.name = "hot_cold_mix",
       .latencies = {1 * kSecond, 1 * kMinute},
       .punctuation_period = 1000,
       .queue_capacity = 16,
       .phase_seconds = 1,
       .shards = {{Drive::kPaced, Source::kCloudLog, 1'000'000, 1024, 1, 128},
                  {Drive::kPaced, Source::kCloudLog, 200'000, 256, 1}},
       .result_filter = server::kResultFilterSession},
      // Storage: long runs and day-scale holds stream through the spill
      // tier; the only workload with a memory budget.
      {.name = "androidlog_spill",
       .latencies = {10 * kMinute, 1 * kHour, 1 * kDay},
       .punctuation_period = 100000,
       .memory_budget = size_t{32} << 20,
       .phase_seconds = 2,
       .shards = {{Drive::kPaced, Source::kAndroidLog, 750'000, 1024, 1},
                  {Drive::kPaced, Source::kAndroidLog, 750'000, 1024, 1}}},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadResult RunWorkload(const WorkloadSpec& spec, const RunConfig& config) {
  WorkloadResult result;
  result.name = spec.name;

  const uint64_t prep_start = Clock::Nanos();
  const std::vector<ShardPlan> plans = PreparePlans(spec, config);
  const double prep_s =
      static_cast<double>(Clock::Nanos() - prep_start) / 1e9;

  std::vector<double> setup_s;
  for (size_t i = 0; i < kSetupProbes; ++i) {
    ShardTap taps[kShards];
    Rig rig;
    std::string error;
    const double s = SetUpRig(spec, config, plans, taps, &rig, &error);
    if (s < 0) {
      result.correct = false;
      result.failures.push_back("set-up failed: " + error);
      return result;
    }
    setup_s.push_back(s);
  }

  const std::vector<Phase> phases = RunPhases(spec, config, plans, nullptr);
  std::vector<double> meps;
  std::vector<double> memory;
  std::vector<double> lag;  // Every phase's samples, in arrival order.
  WindowedLag windowed;
  WindowedLag subscriber_windowed;
  std::vector<double> scrape;
  std::vector<double> load_scrape;
  std::vector<double> lateness;
  uint64_t flush_released = 0;
  size_t prometheus_bytes = 0;
  uint64_t records = 0;
  for (const Phase& p : phases) {
    for (const std::string& f : p.failures) result.failures.push_back(f);
    setup_s.push_back(p.setup_s);
    if (OwnDrive(spec, p)) {
      meps.push_back(Meps(p));
      memory.push_back(p.memory_peak_bytes / 1e6);
    }
    lag.insert(lag.end(), p.lag.ms.begin(), p.lag.ms.end());
    windowed.AddPhase(p.lag, p.t0_ns);
    subscriber_windowed.AddPhase(p.subscriber_lag, p.t0_ns);
    scrape.insert(scrape.end(), p.scrape_ms.begin(), p.scrape_ms.end());
    load_scrape.insert(load_scrape.end(), p.load_scrape_ms.begin(),
                       p.load_scrape_ms.end());
    lateness.insert(lateness.end(), p.generator_lateness_ms.begin(),
                    p.generator_lateness_ms.end());
    flush_released += p.lag.flush_released;
    prometheus_bytes = std::max(prometheus_bytes, p.prometheus_bytes);
    result.attempted += p.offered;
    result.failed += p.failed;
    records += p.records;
  }
  result.correct = result.failures.empty();
  if (windowed.p50.empty()) {
    // Tiny smoke scales span less event time than the largest latency.
    result.invalid_reasons.push_back(
        "no lag window has enough samples: the final flush released most "
        "records");
  }
  const double untraced_meps = Median(meps);

  Add(&result.end_to_end, "ingest_meps", untraced_meps, "Mev/s");
  Add(&result.end_to_end, "result_lag_p50_ms", Median(windowed.p50), "ms");
  Add(&result.end_to_end, "result_lag_p95_ms", Median(windowed.p95), "ms");
  Add(&result.end_to_end, "memory_peak_mb", Median(memory), "MB");
  Add(&result.end_to_end, "completeness",
      result.attempted == 0 ? 0
                            : static_cast<double>(records) /
                                  static_cast<double>(result.attempted),
      "fraction");
  Add(&result.end_to_end, "setup_s", Median(setup_s), "s");

  const double lateness_p99 = Quantile(lateness, 0.99);
  Add(&result.details, "result_lag_p99_ms", Median(windowed.p99), "ms");
  // The whole run's p95, whatever the windows: host slowdowns show here.
  Add(&result.details, "result_lag_p95_pooled_ms", Quantile(lag, 0.95), "ms");
  if (!subscriber_windowed.p50.empty()) {
    Add(&result.details, "subscriber_lag_p50_ms",
        Median(subscriber_windowed.p50), "ms");
    Add(&result.details, "subscriber_lag_p95_ms",
        Median(subscriber_windowed.p95), "ms");
  }
  Add(&result.details, "lag_samples", static_cast<double>(lag.size()), "count");
  Add(&result.details, "lag_windows", static_cast<double>(windowed.p50.size()),
      "count");
  Add(&result.details, "lag_flush_released",
      static_cast<double>(flush_released), "count");
  // Sub-millisecond on most workloads, so host noise outweighs any bound
  // the benchmark may set; printed, not gated (README.md).
  Add(&result.details, "scrape_p50_ms", Median(scrape), "ms");
  Add(&result.details, "scrapes", static_cast<double>(scrape.size()), "count");
  if (!load_scrape.empty()) {
    Add(&result.details, "scrape_under_load_p50_ms", Median(load_scrape), "ms");
    Add(&result.details, "scrapes_under_load",
        static_cast<double>(load_scrape.size()), "count");
  }
  Add(&result.details, "prometheus_bytes",
      static_cast<double>(prometheus_bytes), "B");
  Add(&result.details, "gen_lateness_p99_ms", lateness_p99, "ms");
  Add(&result.details, "phases", static_cast<double>(phases.size()), "count");
  Add(&result.details, "ingest_meps_phase_q1", Quantile(meps, 0.25), "Mev/s");
  Add(&result.details, "ingest_meps_phase_q3", Quantile(meps, 0.75), "Mev/s");
  Add(&result.details, "setups", static_cast<double>(setup_s.size()), "count");
  Add(&result.details, "prep_s", prep_s, "s");
  Add(&result.details, "failed_ratio",
      result.attempted == 0 ? 0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted),
      "fraction");

  // Lag is timed only in paced phases, which every workload runs.
  if (lateness_p99 > kMaxGeneratorLatenessMs) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "generator p99 lateness %.3f ms > %.1f ms",
                  lateness_p99, kMaxGeneratorLatenessMs);
    result.invalid_reasons.push_back(buf);
  }
  // A backlog that grows over the run shows as lag rising from the first
  // third of the samples to the last.
  const size_t third = lag.size() / 3;
  if (third > 0) {
    const double first =
        Quantile(std::vector<double>(lag.begin(), lag.begin() + third), 0.5);
    const double last =
        Quantile(std::vector<double>(lag.end() - third, lag.end()), 0.5);
    Add(&result.details, "lag_p50_first_third_ms", first, "ms");
    Add(&result.details, "lag_p50_last_third_ms", last, "ms");
    if (last > first * 1.25 && last - first > 1.0) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "lag trends up: p50 %.3f ms in the first third, %.3f ms "
                    "in the last",
                    first, last);
      result.invalid_reasons.push_back(buf);
    }
  }
  result.valid = result.invalid_reasons.empty();

  if (config.trace && result.correct) {
    SpanLog log;
    const uint64_t origin = Clock::Nanos();
    const std::vector<Phase> traced = RunPhases(spec, config, plans, &log);
    std::vector<double> traced_meps;
    std::vector<double> traced_lateness;
    const Phase* phase = nullptr;
    for (const Phase& p : traced) {
      for (const std::string& f : p.failures) result.failures.push_back(f);
      if (OwnDrive(spec, p)) {
        traced_meps.push_back(Meps(p));
        phase = &p;
      }
      traced_lateness.insert(traced_lateness.end(),
                             p.generator_lateness_ms.begin(),
                             p.generator_lateness_ms.end());
    }
    result.correct = result.failures.empty();
    if (!result.correct) return result;
    const ReplayCosts replay =
        ReplayShards(spec, MemoryBudget(spec, config) / kShards,
                     ReplayInputs(plans), log.AddLane("replay"));
    AddLayerMetrics(spec, config, *phase, Median(traced_meps), untraced_meps,
                    Quantile(traced_lateness, 0.99), replay, &result);
    if (!config.trace_out.empty()) {
      std::string error;
      if (!log.WriteChromeTrace(config.trace_out, origin, &error)) {
        result.correct = false;
        result.failures.push_back(error);
      }
    }
  }
  return result;
}

}  // namespace impatience::bench::e2e
