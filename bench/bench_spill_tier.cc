// Spill tier: external-memory acceptance arm. One synthetic online
// session runs pure in-RAM, then repeatedly under a memory budget set to
// 1/8 of the RAM arm's peak residency: kPairs pairs of an inline-flusher
// arm (blocks written on the sorter thread) and a write-behind
// flusher-pool arm, alternating which of the two runs first so neither
// always inherits a warm page cache or a cooled CPU. Every output is
// compared byte for byte with the RAM arm's. The spilled arms must (a)
// stay byte-identical, (b) move more than 8x the budget through the disk
// tier, and (c) keep their peak resident footprint near the budget while
// the RAM arm peaks at the full buffered-window size. The JSON stamp
// records the budget, the peaks, the spill counters, each arm's median
// throughput and punct-to-emit p99 over the pairs, how many pairs the
// async arm won, and its flusher/read-ahead stats, so the inline-vs-async
// trajectory is visible release over release.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "sort/impatience_sorter.h"
#include "storage/spill_flusher.h"
#include "workload/generators.h"

namespace impatience::bench {
namespace {

constexpr size_t kPunctFreq = 100000;   // Events between punctuations.
constexpr Timestamp kReorderLatency = 600;
constexpr size_t kPairs = 6;            // Inline/async arm pairs.
constexpr size_t kFlusherThreads = 2;

struct SessionResult {
  std::vector<Event> out;
  double throughput_meps = 0;
  size_t peak_bytes = 0;
  ImpatienceCounters counters;
  uint64_t late_drops = 0;
};

// Runs the fig8-style punctuation session, sampling the sorter's resident
// footprint every 256 pushes and after every punctuation (where merge
// scratch peaks).
SessionResult RunSession(const std::vector<Event>& events,
                         const ImpatienceConfig& config) {
  SessionResult result;
  ImpatienceSorter<Event> sorter(config);
  result.out.reserve(events.size());

  const double secs = TimeSeconds([&]() {
    Timestamp high_watermark = kMinTimestamp;
    Timestamp last_punct = kMinTimestamp;
    for (size_t i = 0; i < events.size(); ++i) {
      sorter.Push(events[i]);
      high_watermark = std::max(high_watermark, events[i].sync_time);
      if ((i & 255) == 0) {
        result.peak_bytes = std::max(result.peak_bytes,
                                     sorter.MemoryBytes());
      }
      if ((i + 1) % kPunctFreq == 0) {
        const Timestamp p = high_watermark - kReorderLatency;
        if (p > last_punct) {
          sorter.OnPunctuation(p, &result.out);
          last_punct = p;
          result.peak_bytes = std::max(result.peak_bytes,
                                       sorter.MemoryBytes());
        }
      }
    }
    sorter.Flush(&result.out);
  });
  result.throughput_meps = Throughput(events.size(), secs);
  result.counters = sorter.counters();
  result.late_drops = sorter.late_drops();
  return result;
}

// One spilled arm: its session's stats, whether its output matched the
// RAM arm's (the output itself is dropped), and its flusher's counters.
struct SpilledArm {
  SessionResult session;
  bool identical = false;
  storage::SpillFlusher::Stats flusher;
};

SpilledArm RunSpilledArm(const std::vector<Event>& events,
                         ImpatienceConfig config, bool async,
                         const std::vector<Event>& want) {
  // Async: sealed blocks go to a write-behind pool and the merge cursors
  // prefetch through it. Inline: the sorter thread writes each block as
  // it seals. The flusher outlives the session (runs hold channels into
  // it).
  storage::SpillFlusher::Options options;
  options.threads = async ? kFlusherThreads : 0;
  storage::SpillFlusher flusher(options);
  config.spill.flusher = &flusher;
  SpilledArm arm;
  arm.session = RunSession(events, config);
  arm.identical = arm.session.out == want;
  std::vector<Event>().swap(arm.session.out);
  arm.flusher = flusher.stats();
  return arm;
}

template <typename V>
V Median(std::vector<V> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void Run() {
  const size_t n = EventCount();
  const std::vector<Event> events = BenchSynthetic(n, 30, 64).events;

  Section(
      "Spill tier: in-RAM reference vs budget = peak/8, inline vs async");

  ImpatienceConfig ram_config;
  ram_config.spill.use_env_default = false;  // The in-RAM reference arm.
  const SessionResult ram = RunSession(events, ram_config);

  const size_t budget = std::max<size_t>(ram.peak_bytes / 8, 64 << 10);
  ImpatienceConfig spill_config = ram_config;
  spill_config.spill.memory_budget = budget;
  spill_config.spill.check_period = 64;

  // Alternating pairs: even pairs run inline first, odd pairs async
  // first. The first run of each arm supplies the spill counters reported
  // below.
  std::vector<SpilledArm> inlines;
  std::vector<SpilledArm> asyncs;
  for (size_t pair = 0; pair < kPairs; ++pair) {
    for (const bool async : {pair % 2 == 1, pair % 2 == 0}) {
      (async ? asyncs : inlines)
          .push_back(RunSpilledArm(events, spill_config, async, ram.out));
    }
  }
  bool identical = true;
  bool async_identical = true;
  size_t async_wins = 0;
  std::vector<double> inline_meps;
  std::vector<double> async_meps;
  std::vector<uint64_t> inline_p99;
  std::vector<uint64_t> async_p99;
  for (size_t pair = 0; pair < kPairs; ++pair) {
    const SessionResult& s = inlines[pair].session;
    const SessionResult& a = asyncs[pair].session;
    identical &= inlines[pair].identical;
    async_identical &= asyncs[pair].identical;
    if (a.throughput_meps > s.throughput_meps) ++async_wins;
    inline_meps.push_back(s.throughput_meps);
    async_meps.push_back(a.throughput_meps);
    inline_p99.push_back(s.counters.punct_to_emit.P99());
    async_p99.push_back(a.counters.punct_to_emit.P99());
  }
  const SessionResult& inline_arm = inlines[0].session;
  const SessionResult& async_arm = asyncs[0].session;
  const storage::SpillFlusher::Stats& flusher_stats = asyncs[0].flusher;

  // The acceptance ratio: the session's run bytes must exceed 8x the
  // budget for the arm to demonstrate external-memory operation.
  const size_t session_bytes = n * sizeof(Event);
  const double session_over_budget =
      static_cast<double>(session_bytes) / static_cast<double>(budget);
  const double written_over_budget =
      static_cast<double>(inline_arm.counters.spill_bytes_written) /
      static_cast<double>(budget);

  TablePrinter table({"arm", "median_meps", "peak_bytes", "runs_spilled",
                      "spill_written", "median_p99_punct_us",
                      "identical"});
  table.PrintRow({"ram", TablePrinter::Num(ram.throughput_meps),
                  TablePrinter::Int(ram.peak_bytes), "0", "0",
                  TablePrinter::Int(ram.counters.punct_to_emit.P99() / 1000),
                  "-"});
  table.PrintRow({"inline", TablePrinter::Num(Median(inline_meps)),
                  TablePrinter::Int(inline_arm.peak_bytes),
                  TablePrinter::Int(inline_arm.counters.runs_spilled),
                  TablePrinter::Int(inline_arm.counters.spill_bytes_written),
                  TablePrinter::Int(Median(inline_p99) / 1000),
                  identical ? "yes" : "NO"});
  table.PrintRow({"async", TablePrinter::Num(Median(async_meps)),
                  TablePrinter::Int(async_arm.peak_bytes),
                  TablePrinter::Int(async_arm.counters.runs_spilled),
                  TablePrinter::Int(
                      async_arm.counters.spill_bytes_written),
                  TablePrinter::Int(Median(async_p99) / 1000),
                  async_identical ? "yes" : "NO"});
  std::printf(
      "budget = %zu B (session = %.1fx budget), spilled %.1fx the budget "
      "through disk\n"
      "async won %zu of %zu alternating pairs\n"
      "async: %llu background flushes, %llu read-ahead hits / %llu misses, "
      "%llu backpressure waits\n",
      budget, session_over_budget, written_over_budget, async_wins, kPairs,
      static_cast<unsigned long long>(flusher_stats.async_flushes),
      static_cast<unsigned long long>(async_arm.counters.readahead_hits),
      static_cast<unsigned long long>(async_arm.counters.readahead_misses),
      static_cast<unsigned long long>(flusher_stats.backpressure_waits));
  IMPATIENCE_CHECK_MSG(identical,
                       "inline-flushed output diverged from the in-RAM arm");
  IMPATIENCE_CHECK_MSG(async_identical,
                       "async-flushed output diverged from the in-RAM arm");
  IMPATIENCE_CHECK_MSG(session_over_budget > 8.0,
                       "session too small to demonstrate 8x-budget runs");
  IMPATIENCE_CHECK_MSG(async_arm.counters.async_flushes > 0,
                       "async arm never handed a block to the flusher pool");

  std::printf(
      "\nBEGIN_JSON\n{\"kernel_level\": \"%s\", \"bench_seed\": %llu,\n"
      "\"spill_tier\": {\"events\": %zu, \"punct_freq\": %zu,\n"
      "  \"memory_budget\": %zu, \"session_bytes\": %zu,\n"
      "  \"session_over_budget\": %.2f, \"identical\": %s,\n"
      "  \"pairs\": %zu, \"async_wins\": %zu,\n"
      "  \"ram\": {\"throughput_meps\": %.4f, \"peak_bytes\": %zu,\n"
      "    \"punct_to_emit_p99_ns\": %llu},\n"
      "  \"inline\": {\"throughput_meps\": %.4f, \"peak_bytes\": %zu,\n"
      "    \"runs_spilled\": %llu, \"spill_bytes_written\": %llu,\n"
      "    \"spill_read_bytes\": %llu, \"spill_merge_fanin_count\": %llu,\n"
      "    \"punct_to_emit_p99_ns\": %llu,\n"
      "    \"written_over_budget\": %.2f},\n"
      "  \"async\": {\"throughput_meps\": %.4f, \"peak_bytes\": %zu,\n"
      "    \"identical\": %s, \"flusher_threads\": %zu,\n"
      "    \"runs_spilled\": %llu, \"spill_bytes_written\": %llu,\n"
      "    \"async_flushes\": %llu, \"readahead_hits\": %llu,\n"
      "    \"readahead_misses\": %llu, \"backpressure_waits\": %llu,\n"
      "    \"punct_to_emit_p99_ns\": %llu}}}\nEND_JSON\n",
      BenchKernelLevel(), static_cast<unsigned long long>(BenchSeed()), n,
      kPunctFreq, budget, session_bytes, session_over_budget,
      identical ? "true" : "false", kPairs, async_wins,
      ram.throughput_meps, ram.peak_bytes,
      static_cast<unsigned long long>(ram.counters.punct_to_emit.P99()),
      Median(inline_meps), inline_arm.peak_bytes,
      static_cast<unsigned long long>(inline_arm.counters.runs_spilled),
      static_cast<unsigned long long>(
          inline_arm.counters.spill_bytes_written),
      static_cast<unsigned long long>(inline_arm.counters.spill_read_bytes),
      static_cast<unsigned long long>(
          inline_arm.counters.spill_merge_fanin.count()),
      static_cast<unsigned long long>(Median(inline_p99)),
      written_over_budget, Median(async_meps), async_arm.peak_bytes,
      async_identical ? "true" : "false", kFlusherThreads,
      static_cast<unsigned long long>(async_arm.counters.runs_spilled),
      static_cast<unsigned long long>(
          async_arm.counters.spill_bytes_written),
      static_cast<unsigned long long>(flusher_stats.async_flushes),
      static_cast<unsigned long long>(async_arm.counters.readahead_hits),
      static_cast<unsigned long long>(
          async_arm.counters.readahead_misses),
      static_cast<unsigned long long>(flusher_stats.backpressure_waits),
      static_cast<unsigned long long>(Median(async_p99)));
  std::fflush(stdout);
}

}  // namespace
}  // namespace impatience::bench

int main() {
  impatience::bench::InitBenchProcess();
  impatience::bench::Run();
  return 0;
}
