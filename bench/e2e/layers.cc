#include "bench/e2e/layers.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/clock.h"
#include "common/memory_tracker.h"
#include "engine/streamable.h"
#include "framework/impatience_framework.h"
#include "server/result_exporter.h"
#include "server/wire_format.h"
#include "sort/impatience_sorter.h"

namespace impatience::bench::e2e {
namespace {

using server::Frame;
using server::FrameDecoder;
using server::FrameType;

double ElapsedNs(uint64_t start) {
  return static_cast<double>(Clock::Nanos() - start);
}

struct FrameworkReplay {
  double ns = 0;
  std::vector<Event> out;  // Final-stream records in emission order.
  // out.size() after each frame: the replay's burst boundaries, where the
  // server would seal result chunks.
  std::vector<size_t> bursts;
  HistogramSnapshot rounds;
};

// The shard pipeline exactly as SessionShardManager builds it: an ingress
// that never punctuates on its own feeding ToStreamables.
FrameworkReplay ReplayFramework(const WorkloadSpec& spec, size_t shard_budget,
                                const ReplayInput& in) {
  MemoryTracker tracker;
  QueryPipeline<4> pipeline(
      {.punctuation_period = static_cast<size_t>(-1), .reorder_latency = 0},
      &tracker);
  FrameworkOptions fw;
  fw.reorder_latencies = spec.latencies;
  fw.punctuation_period = spec.punctuation_period;
  if (shard_budget > 0) {
    fw.sorter_config.spill.memory_budget = shard_budget;
    fw.sorter_config.spill.tracker = &tracker;
  }
  Streamables<4> streams = ToStreamables(pipeline.disordered(), fw);
  FrameworkReplay r;
  r.out.reserve(in.events.size());
  streams.stream(streams.size() - 1).Subscribe([&r](const Event& e) {
    r.out.push_back(e);
  });
  const uint64_t start = Clock::Nanos();
  for (size_t i = 0; i < in.events.size(); i += in.frame_events) {
    const size_t end = std::min(i + in.frame_events, in.events.size());
    for (size_t j = i; j < end; ++j) pipeline.ingress().Push(in.events[j]);
    r.bursts.push_back(r.out.size());
  }
  pipeline.ingress().Finish();
  r.ns = ElapsedNs(start);
  r.bursts.push_back(r.out.size());
  r.rounds = streams.partition().round_latency();
  return r;
}

struct SortReplay {
  double push_ns = 0;
  double merge_ns = 0;
  size_t peak_bytes = 0;
};

// One bare ImpatienceSorter per band, fed what the partition would route
// to it and punctuated at the same rounds. With a budget the sorters spill
// against one shared tracker, as a shard's band sorters do.
SortReplay ReplaySorters(const WorkloadSpec& spec,
                         const std::vector<Event>& events, size_t budget) {
  MemoryTracker tracker;
  ImpatienceConfig config;
  if (budget > 0) {
    config.spill.memory_budget = budget;
    config.spill.tracker = &tracker;
  }
  BandRouter router(spec.latencies, spec.punctuation_period);
  const size_t bands = router.bands();
  std::vector<std::unique_ptr<ImpatienceSorter<Event>>> sorters;
  std::vector<MemoryReservation> reservations;
  for (size_t b = 0; b < bands; ++b) {
    sorters.push_back(std::make_unique<ImpatienceSorter<Event>>(config));
    reservations.emplace_back(&tracker);
  }
  std::vector<std::vector<Event>> pending(bands);
  std::vector<Timestamp> last(bands, kMinTimestamp);
  std::vector<Event> out;
  SortReplay r;
  auto push_pending = [&] {
    const uint64_t start = Clock::Nanos();
    for (size_t b = 0; b < bands; ++b) {
      for (const Event& e : pending[b]) sorters[b]->Push(e);
      pending[b].clear();
      reservations[b].Update(sorters[b]->MemoryBytes());
    }
    r.push_ns += ElapsedNs(start);
  };
  for (const Event& e : events) {
    bool round = false;
    const size_t band = router.Route(e, &round);
    if (band < bands) pending[band].push_back(e);
    if (!round) continue;
    push_pending();
    const uint64_t start = Clock::Nanos();
    for (size_t b = 0; b < bands; ++b) {
      const Timestamp p = router.RoundPunctuation(b);
      if (p <= last[b]) continue;
      out.clear();
      sorters[b]->OnPunctuation(p, &out);
      last[b] = p;
      reservations[b].Update(sorters[b]->MemoryBytes());
    }
    r.merge_ns += ElapsedNs(start);
  }
  push_pending();
  const uint64_t start = Clock::Nanos();
  for (size_t b = 0; b < bands; ++b) {
    out.clear();
    sorters[b]->Flush(&out);
  }
  r.merge_ns += ElapsedNs(start);
  r.peak_bytes = tracker.peak_bytes();
  return r;
}

}  // namespace

ReplayCosts ReplayShards(const WorkloadSpec& spec, size_t shard_budget,
                         const std::vector<ReplayInput>& inputs,
                         SpanLog::Lane* lane) {
  ReplayCosts c;
  for (const ReplayInput& in : inputs) {
    c.events += in.events.size();

    std::vector<std::vector<uint8_t>> encoded;
    {
      ScopedSpan span(lane, "replay.wire_encode");
      Frame frame;
      frame.type = FrameType::kEvents;
      frame.session_id = in.session_id;
      for (size_t i = 0; i < in.events.size(); i += in.frame_events) {
        const size_t end = std::min(i + in.frame_events, in.events.size());
        frame.events.assign(in.events.begin() + static_cast<ptrdiff_t>(i),
                            in.events.begin() + static_cast<ptrdiff_t>(end));
        const uint64_t start = Clock::Nanos();
        encoded.push_back(server::EncodeFrame(frame));
        c.encode_ns += ElapsedNs(start);
      }
    }
    {
      ScopedSpan span(lane, "replay.wire_decode");
      FrameDecoder decoder;
      Frame frame;
      const uint64_t start = Clock::Nanos();
      for (const std::vector<uint8_t>& bytes : encoded) {
        decoder.Feed(bytes.data(), bytes.size());
        IMPATIENCE_CHECK(decoder.Next(&frame) == server::DecodeStatus::kOk);
      }
      c.decode_ns += ElapsedNs(start);
    }

    FrameworkReplay fw;
    {
      ScopedSpan span(lane, "replay.framework");
      fw = ReplayFramework(spec, shard_budget, in);
    }
    c.framework_ns += fw.ns;
    c.records += fw.out.size();
    c.rounds += fw.rounds;

    SortReplay bare;
    {
      ScopedSpan span(lane, "replay.sort");
      bare = ReplaySorters(spec, in.events, /*budget=*/0);
    }
    c.sort_push_ns += bare.push_ns;
    c.sort_merge_ns += bare.merge_ns;
    const size_t budget =
        shard_budget > 0
            ? shard_budget
            : std::max<size_t>(size_t{64} << 10, bare.peak_bytes / 8);
    {
      ScopedSpan span(lane, "replay.sort_spill");
      const SortReplay spilled = ReplaySorters(spec, in.events, budget);
      c.spill_sort_ns += spilled.push_ns + spilled.merge_ns;
      c.spill_budget_bytes += budget;
      c.spill_peak_bytes += spilled.peak_bytes;
    }

    std::vector<std::string> chunks;
    {
      ScopedSpan span(lane, "replay.results_export");
      server::ResultExporter exporter(server::ResultStreamOptions{},
                                      /*num_shards=*/1);
      exporter.Subscribe(in.session_id, server::kResultFilterAll,
                         server::ResultExporter::kAllShards,
                         [&chunks](std::string bytes) {
                           chunks.push_back(std::move(bytes));
                           return true;
                         });
      const size_t stream = spec.latencies.size() - 1;
      size_t pos = 0;
      const uint64_t start = Clock::Nanos();
      for (const size_t end : fw.bursts) {
        if (end == pos) continue;
        for (; pos < end; ++pos) exporter.OnResult(0, stream, fw.out[pos]);
        exporter.OnShardProgress(0, fw.out[end - 1].sync_time);
      }
      c.export_ns += ElapsedNs(start);
      c.chunks += exporter.Counters().chunks_built;
    }
    {
      ScopedSpan span(lane, "replay.result_decode");
      FrameDecoder decoder;
      Frame frame;
      const uint64_t start = Clock::Nanos();
      for (const std::string& bytes : chunks) {
        decoder.Feed(reinterpret_cast<const uint8_t*>(bytes.data()),
                     bytes.size());
        IMPATIENCE_CHECK(decoder.Next(&frame) == server::DecodeStatus::kOk);
      }
      c.result_decode_ns += ElapsedNs(start);
    }
  }
  return c;
}

}  // namespace impatience::bench::e2e
