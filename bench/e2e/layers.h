// Single-threaded replays of a workload's per-shard input through each
// layer's public entry point (trace mode). Each replay isolates one layer
// with the same configuration the service runs, so a layer's self time is
// its replay minus the replay of the layer nested inside it.

#ifndef IMPATIENCE_BENCH_E2E_LAYERS_H_
#define IMPATIENCE_BENCH_E2E_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench/e2e/e2e.h"
#include "bench/e2e/spans.h"
#include "common/event.h"
#include "common/histogram.h"

namespace impatience::bench::e2e {

struct ReplayInput {
  std::vector<Event> events;  // The shard's stream in send order.
  uint64_t session_id = 0;
  size_t frame_events = 0;
};

// Nanosecond totals summed over every replayed shard.
struct ReplayCosts {
  uint64_t events = 0;
  uint64_t records = 0;  // Final-stream records the framework replay emitted.
  double encode_ns = 0;  // EncodeFrame per frame.
  double decode_ns = 0;  // FrameDecoder over the encoded frames.
  // Ingress -> ToStreamables pipeline with the workload's sorter config
  // (including its memory budget).
  double framework_ns = 0;
  // Bare ImpatienceSorter per band, fed what the partition routes to it.
  double sort_push_ns = 0;
  double sort_merge_ns = 0;  // OnPunctuation plus the final Flush.
  // The same sorters under a memory budget: the workload's own per-shard
  // slice, or an eighth of the bare sorters' peak when it has none.
  double spill_sort_ns = 0;
  size_t spill_budget_bytes = 0;
  size_t spill_peak_bytes = 0;
  double export_ns = 0;  // ResultExporter OnResult + OnShardProgress.
  uint64_t chunks = 0;   // Chunks the exporter sealed.
  double result_decode_ns = 0;
  HistogramSnapshot rounds;  // Partition round latency (framework replay).
};

// `shard_budget` is the per-shard memory budget the workload runs with
// (0 = none).
ReplayCosts ReplayShards(const WorkloadSpec& spec, size_t shard_budget,
                         const std::vector<ReplayInput>& inputs,
                         SpanLog::Lane* lane);

}  // namespace impatience::bench::e2e

#endif  // IMPATIENCE_BENCH_E2E_LAYERS_H_
