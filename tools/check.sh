#!/usr/bin/env bash
# Tier-1 verification under ThreadSanitizer, AddressSanitizer, and
# UBSanitizer with an oversubscribed pool.
#
# Builds the library + tests per sanitizer — -fsanitize=thread into
# build-tsan/, -fsanitize=address into build-asan/, -fsanitize=undefined
# into build-ubsan/ — and runs the full ctest suite (including the server
# loopback/TCP tests) with IMPATIENCE_THREADS=8, so every parallel code
# path (work-stealing pool, parallel punctuation merge + partition,
# strands, shard workers) executes multi-threaded under
# each detector even on small machines. TSan finds the races; ASan finds
# lifetime bugs the races would cause (use-after-free on connection
# teardown, buffer overruns in the wire decoder); UBSan catches the
# integer/pointer traps hand-written SIMD kernels invite (misaligned
# loads, out-of-range shifts, signed overflow).
#
# Each pass runs ctest four times: once at the CPU's native kernel
# dispatch level, once with IMPATIENCE_KERNEL_LEVEL=scalar forced (so the
# portable kernels — the only path non-x86 builds have — stay exercised
# under every sanitizer no matter what machine CI lands on), once with
# IMPATIENCE_KERNEL_LEVEL=avx2 forced (on an AVX-512 machine this pins the
# one-level-down dispatch path; on an older machine ResolveKernelLevel
# clamps it to the detected level, so the run is never skipped), and once
# with IMPATIENCE_TRACE=1 so the span-recording fast path (per-thread
# seqlock rings written from every worker) runs hot under each detector.
#
# A fourth pass sweeps IMPATIENCE_FAULT_SEED over 8 seeds against the
# `server`-labeled suites: the epoll fault-injection, slow-client, and
# shutdown-chaos tests derive their byte-split points, readiness
# shuffles, and kill schedules from that seed, so the sweep walks 8
# distinct interleavings of the event-loop state machine through each
# sanitizer.
#
# A fifth pass reruns the full suite with IMPATIENCE_MEMORY_BUDGET=64k: a
# budget that tiny forces every Impatience sorter in every test to evict
# its runs to temp-dir spill files and stream punctuation merges back from
# disk, so the spill tier (run files, cursor merges, head advancement,
# spilled union buffers) runs under each detector with the existing suites'
# output assertions verifying byte-identical results. Temp-dir stores keep
# no manifest; durable-store manifests are covered by run_store_test and
# the server spill/recovery suites in every pass.
#
# A sixth pass repeats the forced-spill run with
# IMPATIENCE_SPILL_FLUSHER_THREADS=2: the fifth pass writes every sealed
# block through the inline flusher on the sorter thread; here each rides a
# write-behind flusher pool and every merge cursor prefetches through it,
# so the pool side of the one spill path (channel FIFOs, worker handoff,
# in-flight accounting, backpressure waits, read-ahead landing slots)
# runs hot under each detector with the same byte-identical output
# assertions.
#
# A seventh pass pins the streaming-telemetry machinery hot: the
# server-labeled suites run with tracing forced on and each test repeated
# 3x, so live telemetry subscriptions (telemetry_stream_test subscribes
# over both loopback and the scripted event loop, with the real
# TelemetryExporter drain thread streaming to a subscriber while another
# session ingests) execute concurrently with shard workers and epoll
# loops under each detector across distinct schedules.
#
# An eighth pass sweeps IMPATIENCE_FAULT_SEED over 3 more seeds against
# the subscriber batteries — ResultStream, TelemetryStream, and the
# SubscriptionHub both exporters fan out through: each seed replays a
# distinct schedule of byte-split writes, subscriber stall windows, and
# readiness shuffles against live result and telemetry subscribers, and
# the tests assert gap-free, duplicate-free, reference-identical delivery
# (or an ordered subsequence plus exact drop accounting where the stall
# sheds chunks) under each sanitizer.
#
# A ninth pass repeats the flusher-backpressure determinism test 50x, so
# a version whose backpressure assertion depends on thread timing fails
# here instead of once in a hundred runs.
#
# A tenth pass repeats the Strand tests 50x: FIFO order, the overlap
# detector, caller-runs on a full queue and Wait's completion guarantee
# each run across 50 schedules under each detector.
#
# An eleventh pass repeats the shard thread's spill-upkeep tests 20x: the
# idle tail flush (a quiet session's spilled tail reaches disk after the
# timed queue pop gives up, then survives a crash) and compaction under
# continuous load, each across 20 schedules of shard worker, flusher and
# queue timing under each detector.
#
# A twelfth pass repeats the write-behind budget test 20x: a standalone
# sorter spilling through a 2-thread flusher pool must stay within its
# inline twin's peak and spill no more runs, whenever its writes land.
#
# Benches/examples/tools are skipped: they share the same code, and
# building them under the sanitizers roughly doubles the wall clock for no
# extra coverage.
#
# Usage: tools/check.sh [tsan|asan|ubsan|all] (default: all)

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"

run_pass() {
  local name="$1" build_dir="$2" sanitizer="$3" env_opts="$4"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DIMPATIENCE_SANITIZE="$sanitizer" \
    -DIMPATIENCE_BUILD_BENCHMARKS=OFF \
    -DIMPATIENCE_BUILD_EXAMPLES=OFF \
    -DIMPATIENCE_BUILD_TOOLS=OFF
  cmake --build "$build_dir" -j "$(nproc)"
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 $env_opts ctest --output-on-failure -j "$(nproc)")
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 IMPATIENCE_KERNEL_LEVEL=scalar $env_opts \
      ctest --output-on-failure -j "$(nproc)")
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 IMPATIENCE_KERNEL_LEVEL=avx2 $env_opts \
      ctest --output-on-failure -j "$(nproc)")
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 IMPATIENCE_TRACE=1 $env_opts \
      ctest --output-on-failure -j "$(nproc)")
  for seed in 1 2 3 5 8 13 21 34; do
    (cd "$build_dir" && \
      env IMPATIENCE_THREADS=8 IMPATIENCE_FAULT_SEED="$seed" $env_opts \
        ctest --output-on-failure -j "$(nproc)" -L server)
  done
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 IMPATIENCE_MEMORY_BUDGET=64k $env_opts \
      ctest --output-on-failure -j "$(nproc)")
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 IMPATIENCE_MEMORY_BUDGET=64k \
      IMPATIENCE_SPILL_FLUSHER_THREADS=2 $env_opts \
      ctest --output-on-failure -j "$(nproc)")
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 IMPATIENCE_TRACE=1 $env_opts \
      ctest --output-on-failure -j "$(nproc)" -L server \
      --repeat until-fail:3)
  for seed in 55 89 144; do
    (cd "$build_dir" && \
      env IMPATIENCE_THREADS=8 IMPATIENCE_FAULT_SEED="$seed" $env_opts \
        ctest --output-on-failure -j "$(nproc)" -L server \
        -R "ResultStream|TelemetryStream|SubscriptionHub")
  done
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 $env_opts \
      ctest --output-on-failure \
      -R "SpillDeterminismTest.ByteIdenticalUnderFlusherBackpressure" \
      --repeat until-fail:50)
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 $env_opts \
      ctest --output-on-failure -R "^StrandTest\." --repeat until-fail:50)
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 $env_opts \
      ctest --output-on-failure \
      -R "SpillRecoveryTest\.(IdleSessionTail|RunFilesCompact)" \
      --repeat until-fail:20)
  (cd "$build_dir" && \
    env IMPATIENCE_THREADS=8 $env_opts \
      ctest --output-on-failure \
      -R "SpillBudgetTest\.WriteBehindStaysWithinInlinePeak" \
      --repeat until-fail:20)
  echo "$name tier-1 (native + scalar + avx2 kernels + tracing on" \
    "+ 8-seed server fault sweep + forced-spill 64k budget, inline + async" \
    "flusher pool + 3x live-telemetry server repeat + 3-seed live result," \
    "telemetry and subscription-hub subscriber sweep + 50x flusher" \
    "backpressure repeat + 50x strand repeat + 20x spill-upkeep repeat" \
    "+ 20x write-behind budget repeat): OK"
}

tsan_pass() {
  run_pass "TSan" build-tsan thread "TSAN_OPTIONS=halt_on_error=1"
}

asan_pass() {
  run_pass "ASan" build-asan address \
    "ASAN_OPTIONS=halt_on_error=1:detect_leaks=1"
}

ubsan_pass() {
  run_pass "UBSan" build-ubsan undefined \
    "UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1"
}

case "$MODE" in
  tsan)
    tsan_pass
    ;;
  asan)
    asan_pass
    ;;
  ubsan)
    ubsan_pass
    ;;
  all)
    tsan_pass
    asan_pass
    ubsan_pass
    ;;
  *)
    echo "usage: tools/check.sh [tsan|asan|ubsan|all]" >&2
    exit 2
    ;;
esac
