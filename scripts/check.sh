#!/usr/bin/env bash
# CI gates. Run from anywhere; operates on the repo root.
#
#   check.sh [asan]        sanitizer gate: full test suite under ASan/UBSan
#   check.sh tsan          thread gate: ParallelSweep tests under TSan
#   check.sh chaos         robustness gate: fixed-seed chaos schedules under ASan
#   check.sh bench-smoke   perf gate: bench_micro_core --smoke vs BENCH_core.json
#   check.sh scale-smoke   scale gate: bench_scale --smoke vs BENCH_scale.json
#   check.sh stream-smoke  stream gate: bench_stream_loss --smoke vs BENCH_scale.json
#   check.sh overload-smoke  overload gate: bench_overload --smoke vs BENCH_scale.json
#   check.sh transport-smoke transport-zoo gate: bench_fig3_short_flows --smoke vs BENCH_scale.json
#   check.sh all           every gate in sequence
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-asan}"

run_asan() {
  # The full suite includes the `hybrid`-labelled flow_test (fluid bulk model
  # + packet/flow fidelity gates), so the asan lane covers it by construction.
  cmake --preset asan -S "$repo"
  cmake --build --preset asan -j "$jobs"
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"
}

run_tsan() {
  # ThreadSanitizer over the multi-threaded surface: ParallelSweep jobs
  # exercise the thread-local telemetry singletons, the synchronized logger,
  # and per-simulator packet uids from several workers at once.
  # scale_test's scenario-sweep case runs whole ScenarioBuilder rigs on
  # worker threads, covering the scenario library's thread-local surfaces.
  # sharded_test/chaos_test's Sharded* cases run one fabric split across
  # worker shards, covering the SPSC handoff channels, the window barrier,
  # and the per-shard counter slots.
  # flow_test's hybrid scenarios run per-shard FluidModel replicas on worker
  # threads; the `hybrid` ctest label selects exactly those cases.
  # stream_test's `stream` label covers the mtp::stream reassembly/FEC suite;
  # its StreamSharded chaos case also runs sharded muxes on worker threads.
  # overload_test's `overload` label covers mtp::overload (admission,
  # shedding, budgets); its OverloadChaosSharded cases run the metastable-
  # failure harness on worker shards and also match the -R filter.
  cmake --preset tsan -S "$repo"
  # transport_conformance_test's `transport` label runs the registry zoo
  # (MTP/TCP/DCTCP/Homa/MPTCP) including the 1/2/4-shard digest cases, so
  # every transport's fleet also gets exercised on worker shards under TSan.
  cmake --build --preset tsan -j "$jobs" --target parallel_test chaos_test scale_test scenario_test sharded_test flow_test stream_test overload_test transport_conformance_test
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" \
    -R 'ParallelSweep|ScenarioSweep|ScenarioBuilder|Sharded'
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L hybrid
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L stream
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L overload
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L transport
}

run_chaos() {
  # Seeded fault schedules (link flaps, bursty corruption, device crashes)
  # with exactly-once / integrity / quiescence invariants, run under ASan so
  # recovery paths are also leak- and UB-checked. Fixed seeds: a failure here
  # reproduces with `build-asan/tests/chaos_test`.
  cmake --preset asan -S "$repo"
  cmake --build --preset asan -j "$jobs" --target chaos_test fault_test
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" \
    -R 'Chaos|FaultInjector|RecoveryEdge|Impairment'
}

run_bench_smoke() {
  # Fails on a >25% events/sec regression against the recorded baseline, or
  # on any violation of the allocation-free scheduler contract.
  cmake --preset release -S "$repo"
  cmake --build --preset release -j "$jobs" --target bench_micro_core
  local out
  out="$("$repo/build/bench/bench_micro_core" --smoke)"
  echo "$out"
  local events allocs baseline allocs_max
  events="$(echo "$out" | sed -n 's/^events_per_sec=//p')"
  allocs="$(echo "$out" | sed -n 's/^allocs_per_event=//p')"
  baseline="$(sed -n 's/.*"events_per_sec": \([0-9]*\).*/\1/p' "$repo/BENCH_core.json" | head -1)"
  allocs_max="$(sed -n 's/.*"allocs_per_event_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_core.json" | head -1)"
  if [ -z "$events" ] || [ -z "$baseline" ]; then
    echo "bench-smoke: failed to parse events_per_sec (got '$events') or baseline (got '$baseline')" >&2
    exit 1
  fi
  awk -v got="$events" -v base="$baseline" 'BEGIN {
    floor = base * 0.75;
    if (got < floor) {
      printf "bench-smoke: FAIL events_per_sec %.0f < 75%% of baseline %.0f (floor %.0f)\n", got, base, floor;
      exit 1;
    }
    printf "bench-smoke: OK events_per_sec %.0f >= floor %.0f (baseline %.0f)\n", got, floor, base;
  }'
  awk -v got="$allocs" -v max="$allocs_max" 'BEGIN {
    if (got > max) {
      printf "bench-smoke: FAIL allocs_per_event %f > %f\n", got, max;
      exit 1;
    }
    printf "bench-smoke: OK allocs_per_event %f <= %f\n", got, max;
  }'
}

run_scale_smoke() {
  # Fails on a >25% events/sec regression against the recorded baseline, a
  # peak below 100k concurrent messages, an idle-message footprint above the
  # recorded bound, a serial-vs-ParallelSweep digest mismatch, or a
  # serial-vs-sharded digest mismatch on the k=16 burst. The sharded speedup
  # gate (shards=8 >= speedup_min x shards=1) only arms when the box exposes
  # at least speedup_gate_min_cores CPUs — digest equality is asserted
  # regardless, speedup on a 1-core CI box is not meaningful.
  # Hybrid gates: fig3/fig7 fluid-vs-packet foreground FCT delta within
  # hybrid_fct_delta_pct_max, bulk event collapse >= hybrid_bulk_event_ratio_min,
  # k=32 tenant-isolation digests identical across 1/2/4 shards plus a 75%
  # events/s floor and a teardown ceiling (hybrid_k32_teardown_sec_max), and
  # the idle-TCP-connection heap probe under its ceiling.
  cmake --preset release -S "$repo"
  cmake --build --preset release -j "$jobs" --target bench_scale
  local out
  out="$("$repo/build/bench/bench_scale" --smoke)"
  echo "$out"
  local events peak idle match base_events peak_min idle_max
  local scores smatch s1 s8 sspeed base_s1 speed_min gate_cores
  local iconn iconn_max hdelta hdelta_max hratio hratio_min hk32 hk32eps base_k32
  local hk32td hk32td_max
  events="$(echo "$out" | sed -n 's/^events_per_sec=//p')"
  peak="$(echo "$out" | sed -n 's/^peak_concurrent_msgs=//p')"
  idle="$(echo "$out" | sed -n 's/^bytes_per_idle_msg=//p')"
  match="$(echo "$out" | sed -n 's/^digest_match=//p')"
  scores="$(echo "$out" | sed -n 's/^shard_available_cores=//p')"
  smatch="$(echo "$out" | sed -n 's/^shard_digest_match=//p')"
  s1="$(echo "$out" | sed -n 's/^shard1_events_per_sec=//p')"
  s8="$(echo "$out" | sed -n 's/^shard8_events_per_sec=//p')"
  sspeed="$(echo "$out" | sed -n 's/^shard_speedup=//p')"
  iconn="$(echo "$out" | sed -n 's/^bytes_per_idle_conn=//p')"
  hdelta="$(echo "$out" | sed -n 's/^hybrid_fct_delta_pct=//p')"
  hratio="$(echo "$out" | sed -n 's/^hybrid_bulk_event_ratio=//p')"
  hk32="$(echo "$out" | sed -n 's/^hybrid_k32_digest_match=//p')"
  hk32eps="$(echo "$out" | sed -n 's/^hybrid_k32_events_per_sec=//p')"
  hk32td="$(echo "$out" | sed -n 's/^hybrid_k32_teardown_sec=//p')"
  base_events="$(sed -n 's/.*"events_per_sec": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  peak_min="$(sed -n 's/.*"peak_concurrent_msgs_min": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  idle_max="$(sed -n 's/.*"bytes_per_idle_msg_max": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  base_s1="$(sed -n 's/.*"k16_shard1_events_per_sec": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  speed_min="$(sed -n 's/.*"speedup_min": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  gate_cores="$(sed -n 's/.*"speedup_gate_min_cores": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  iconn_max="$(sed -n 's/.*"bytes_per_idle_conn_max": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  hdelta_max="$(sed -n 's/.*"hybrid_fct_delta_pct_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  hratio_min="$(sed -n 's/.*"hybrid_bulk_event_ratio_min": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  base_k32="$(sed -n 's/.*"k32_events_per_sec": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  hk32td_max="$(sed -n 's/.*"hybrid_k32_teardown_sec_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  if [ -z "$events" ] || [ -z "$base_events" ] || [ -z "$peak" ]; then
    echo "scale-smoke: failed to parse bench output or baseline" >&2
    exit 1
  fi
  if [ "$match" != "1" ]; then
    echo "scale-smoke: FAIL serial vs ParallelSweep digest mismatch" >&2
    exit 1
  fi
  if [ -z "$smatch" ] || [ -z "$s1" ] || [ -z "$base_s1" ]; then
    echo "scale-smoke: failed to parse sharded bench output or shard baseline" >&2
    exit 1
  fi
  if [ "$smatch" != "1" ]; then
    echo "scale-smoke: FAIL serial vs sharded digest mismatch" >&2
    exit 1
  fi
  awk -v got="$events" -v base="$base_events" 'BEGIN {
    floor = base * 0.75;
    if (got < floor) {
      printf "scale-smoke: FAIL events_per_sec %.0f < 75%% of baseline %.0f (floor %.0f)\n", got, base, floor;
      exit 1;
    }
    printf "scale-smoke: OK events_per_sec %.0f >= floor %.0f (baseline %.0f)\n", got, floor, base;
  }'
  awk -v got="$peak" -v min="$peak_min" 'BEGIN {
    if (got + 0 < min + 0) {
      printf "scale-smoke: FAIL peak_concurrent_msgs %d < %d\n", got, min;
      exit 1;
    }
    printf "scale-smoke: OK peak_concurrent_msgs %d >= %d\n", got, min;
  }'
  awk -v got="$idle" -v max="$idle_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "scale-smoke: FAIL bytes_per_idle_msg %.1f > %d\n", got, max;
      exit 1;
    }
    printf "scale-smoke: OK bytes_per_idle_msg %.1f <= %d\n", got, max;
  }'
  awk -v got="$s1" -v base="$base_s1" 'BEGIN {
    floor = base * 0.75;
    if (got < floor) {
      printf "scale-smoke: FAIL shard1_events_per_sec %.0f < 75%% of baseline %.0f (floor %.0f)\n", got, base, floor;
      exit 1;
    }
    printf "scale-smoke: OK shard1_events_per_sec %.0f >= floor %.0f (baseline %.0f)\n", got, floor, base;
  }'
  if [ -z "$hdelta" ] || [ -z "$hratio" ] || [ -z "$hk32" ] || [ -z "$iconn" ] ||
     [ -z "$hk32td" ] || [ -z "$hk32td_max" ]; then
    echo "scale-smoke: failed to parse hybrid/idle-conn bench output" >&2
    exit 1
  fi
  if [ "$hk32" != "1" ]; then
    echo "scale-smoke: FAIL k=32 tenant-isolation digest mismatch across 1/2/4 shards" >&2
    exit 1
  fi
  awk -v got="$iconn" -v max="$iconn_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "scale-smoke: FAIL bytes_per_idle_conn %.1f > %d\n", got, max;
      exit 1;
    }
    printf "scale-smoke: OK bytes_per_idle_conn %.1f <= %d\n", got, max;
  }'
  awk -v got="$hdelta" -v max="$hdelta_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "scale-smoke: FAIL hybrid_fct_delta_pct %.2f > %.1f\n", got, max;
      exit 1;
    }
    printf "scale-smoke: OK hybrid_fct_delta_pct %.2f <= %.1f\n", got, max;
  }'
  awk -v got="$hratio" -v min="$hratio_min" 'BEGIN {
    if (got + 0 < min + 0) {
      printf "scale-smoke: FAIL hybrid_bulk_event_ratio %.1f < %.1f\n", got, min;
      exit 1;
    }
    printf "scale-smoke: OK hybrid_bulk_event_ratio %.1fx >= %.1fx\n", got, min;
  }'
  awk -v got="$hk32eps" -v base="$base_k32" 'BEGIN {
    floor = base * 0.75;
    if (got < floor) {
      printf "scale-smoke: FAIL hybrid_k32_events_per_sec %.0f < 75%% of baseline %.0f (floor %.0f)\n", got, base, floor;
      exit 1;
    }
    printf "scale-smoke: OK hybrid_k32_events_per_sec %.0f >= floor %.0f (baseline %.0f)\n", got, floor, base;
  }'
  awk -v got="$hk32td" -v max="$hk32td_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "scale-smoke: FAIL hybrid_k32_teardown_sec %.3f > %.1f\n", got, max;
      exit 1;
    }
    printf "scale-smoke: OK hybrid_k32_teardown_sec %.3f <= %.1f\n", got, max;
  }'
  if [ "${scores:-0}" -ge "${gate_cores:-8}" ]; then
    awk -v got="$sspeed" -v min="$speed_min" -v s8="$s8" 'BEGIN {
      if (got + 0 < min + 0) {
        printf "scale-smoke: FAIL shard_speedup %.2f < %.1f (shard8_events_per_sec %.0f)\n", got, min, s8;
        exit 1;
      }
      printf "scale-smoke: OK shard_speedup %.2f >= %.1f (shard8_events_per_sec %.0f)\n", got, min, s8;
    }'
  else
    echo "scale-smoke: INFO shard_speedup $sspeed on $scores core(s) — gate needs >= ${gate_cores:-8} cores, skipped"
  fi
}

run_stream_smoke() {
  # mtp::stream loss-recovery gate vs the stream_baseline in BENCH_scale.json:
  # FEC p99 under its ceiling AND >= ratio_min better than ARQ-only, goodput
  # overhead under its cap, repairs actually happening, all records delivered,
  # and a hard fail on any 1/2/4-shard stream digest mismatch. Every metric is
  # simulated time (deterministic per seed); --smoke takes best-of-3
  # interleaved FEC/ARQ pairs internally per the de-flaking pattern.
  cmake --preset release -S "$repo"
  cmake --build --preset release -j "$jobs" --target bench_stream_loss
  local out
  out="$("$repo/build/bench/bench_stream_loss" --smoke)"
  echo "$out"
  local p99 ratio overhead repairs dmatch complete
  local p99_max ratio_min overhead_max repairs_min
  p99="$(echo "$out" | sed -n 's/^stream_fec_p99_us=//p')"
  ratio="$(echo "$out" | sed -n 's/^stream_p99_ratio=//p')"
  overhead="$(echo "$out" | sed -n 's/^stream_fec_overhead_pct=//p')"
  repairs="$(echo "$out" | sed -n 's/^stream_fec_repairs=//p')"
  dmatch="$(echo "$out" | sed -n 's/^stream_digest_match=//p')"
  complete="$(echo "$out" | sed -n 's/^stream_complete=//p')"
  p99_max="$(sed -n 's/.*"stream_fec_p99_us_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  ratio_min="$(sed -n 's/.*"stream_p99_ratio_min": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  overhead_max="$(sed -n 's/.*"stream_fec_overhead_pct_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  repairs_min="$(sed -n 's/.*"stream_fec_repairs_min": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  if [ -z "$p99" ] || [ -z "$ratio" ] || [ -z "$p99_max" ] || [ -z "$ratio_min" ]; then
    echo "stream-smoke: failed to parse bench output or stream_baseline" >&2
    exit 1
  fi
  if [ "$dmatch" != "1" ]; then
    echo "stream-smoke: FAIL stream digest mismatch across 1/2/4 shards" >&2
    exit 1
  fi
  if [ "$complete" != "1" ]; then
    echo "stream-smoke: FAIL not every record was delivered" >&2
    exit 1
  fi
  awk -v got="$p99" -v max="$p99_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "stream-smoke: FAIL stream_fec_p99_us %.2f > %.1f\n", got, max;
      exit 1;
    }
    printf "stream-smoke: OK stream_fec_p99_us %.2f <= %.1f\n", got, max;
  }'
  awk -v got="$ratio" -v min="$ratio_min" 'BEGIN {
    if (got + 0 < min + 0) {
      printf "stream-smoke: FAIL stream_p99_ratio %.2f < %.1f (FEC must beat ARQ-only)\n", got, min;
      exit 1;
    }
    printf "stream-smoke: OK stream_p99_ratio %.2fx >= %.1fx\n", got, min;
  }'
  awk -v got="$overhead" -v max="$overhead_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "stream-smoke: FAIL stream_fec_overhead_pct %.2f > %.1f\n", got, max;
      exit 1;
    }
    printf "stream-smoke: OK stream_fec_overhead_pct %.2f%% <= %.1f%%\n", got, max;
  }'
  awk -v got="$repairs" -v min="$repairs_min" 'BEGIN {
    if (got + 0 < min + 0) {
      printf "stream-smoke: FAIL stream_fec_repairs %d < %d (FEC never repaired)\n", got, min;
      exit 1;
    }
    printf "stream-smoke: OK stream_fec_repairs %d >= %d\n", got, min;
  }'
}

run_overload_smoke() {
  # mtp::overload metastable-failure gate vs the overload_baseline in
  # BENCH_scale.json: with the defenses disabled the crash-recovery retry
  # storm must actually collapse goodput (below its ceiling — otherwise the
  # bench isn't demonstrating anything), with them enabled goodput must
  # recover above its floor AND the admitted high-priority prober's p99 must
  # stay within ratio_max of an uncongested baseline. Any 1/2/4-shard digest
  # mismatch on the defended run is a hard fail.
  cmake --preset release -S "$repo"
  cmake --build --preset release -j "$jobs" --target bench_overload
  local out
  out="$("$repo/build/bench/bench_overload" --smoke)"
  echo "$out"
  local dis ena ratio dmatch
  local dis_max ena_min ratio_max
  dis="$(echo "$out" | sed -n 's/^overload_goodput_disabled_pct=//p')"
  ena="$(echo "$out" | sed -n 's/^overload_goodput_enabled_pct=//p')"
  ratio="$(echo "$out" | sed -n 's/^overload_p99_ratio=//p')"
  dmatch="$(echo "$out" | sed -n 's/^overload_digest_match=//p')"
  dis_max="$(sed -n 's/.*"overload_goodput_disabled_pct_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  ena_min="$(sed -n 's/.*"overload_goodput_enabled_pct_min": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  ratio_max="$(sed -n 's/.*"overload_p99_ratio_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  if [ -z "$dis" ] || [ -z "$ena" ] || [ -z "$ratio" ] || [ -z "$dis_max" ] || [ -z "$ena_min" ] || [ -z "$ratio_max" ]; then
    echo "overload-smoke: failed to parse bench output or overload_baseline" >&2
    exit 1
  fi
  if [ "$dmatch" != "1" ]; then
    echo "overload-smoke: FAIL overload digest mismatch across 1/2/4 shards" >&2
    exit 1
  fi
  awk -v got="$dis" -v max="$dis_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "overload-smoke: FAIL overload_goodput_disabled_pct %.2f > %.1f (no collapse: bench is not demonstrating metastability)\n", got, max;
      exit 1;
    }
    printf "overload-smoke: OK overload_goodput_disabled_pct %.2f%% <= %.1f%%\n", got, max;
  }'
  awk -v got="$ena" -v min="$ena_min" 'BEGIN {
    if (got + 0 < min + 0) {
      printf "overload-smoke: FAIL overload_goodput_enabled_pct %.2f < %.1f\n", got, min;
      exit 1;
    }
    printf "overload-smoke: OK overload_goodput_enabled_pct %.2f%% >= %.1f%%\n", got, min;
  }'
  awk -v got="$ratio" -v max="$ratio_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "overload-smoke: FAIL overload_p99_ratio %.2f > %.1f\n", got, max;
      exit 1;
    }
    printf "overload-smoke: OK overload_p99_ratio %.2fx <= %.1fx\n", got, max;
  }'
}

run_transport_smoke() {
  # Transport-zoo gate vs the transport_baseline in BENCH_scale.json: the
  # same closed-loop 16 KB incast through every registry transport. MTP's
  # p99 under its ceiling, Homa within ratio_max of MTP (both handshake-free
  # — Homa drifting toward DCTCP's handshake tax is a model bug), MPTCP's
  # flap recovery positive and under its ceiling, per-transport completion
  # floors, and a hard fail on any 1/2/4-shard completion-digest mismatch
  # (the bench exits non-zero on mismatch on its own). All simulated-time
  # metrics, deterministic per seed.
  cmake --preset release -S "$repo"
  cmake --build --preset release -j "$jobs" --target bench_fig3_short_flows
  local out
  out="$("$repo/build/bench/bench_fig3_short_flows" --smoke)"
  echo "$out"
  local mtp_p99 homa_p99 flap mtp_p99_max ratio_max flap_max done_min
  mtp_p99="$(echo "$out" | sed -n 's/^mtp_p99_us_16k=//p')"
  homa_p99="$(echo "$out" | sed -n 's/^homa_p99_us_16k=//p')"
  flap="$(echo "$out" | sed -n 's/^mptcp_flap_recovery_us=//p')"
  mtp_p99_max="$(sed -n 's/.*"transport_mtp_p99_us_16k_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  ratio_max="$(sed -n 's/.*"transport_homa_vs_mtp_p99_ratio_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  flap_max="$(sed -n 's/.*"transport_mptcp_flap_recovery_us_max": \([0-9.]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  done_min="$(sed -n 's/.*"transport_min_completed_16k": \([0-9]*\).*/\1/p' "$repo/BENCH_scale.json" | head -1)"
  if [ -z "$mtp_p99" ] || [ -z "$homa_p99" ] || [ -z "$flap" ] || [ -z "$mtp_p99_max" ] || [ -z "$ratio_max" ] || [ -z "$flap_max" ] || [ -z "$done_min" ]; then
    echo "transport-smoke: failed to parse bench output or transport_baseline" >&2
    exit 1
  fi
  local t dm dc
  for t in mtp tcp dctcp homa mptcp; do
    dm="$(echo "$out" | sed -n "s/^${t}_digest_match=//p")"
    if [ "$dm" != "1" ]; then
      echo "transport-smoke: FAIL $t completion digest differs across 1/2/4 shards" >&2
      exit 1
    fi
  done
  for t in mtp dctcp homa mptcp; do
    dc="$(echo "$out" | sed -n "s/^${t}_completed_16k=//p")"
    awk -v got="$dc" -v min="$done_min" -v t="$t" 'BEGIN {
      if (got + 0 < min + 0) {
        printf "transport-smoke: FAIL %s completed %d < %d 16KB messages\n", t, got, min;
        exit 1;
      }
      printf "transport-smoke: OK %s completed %d >= %d\n", t, got, min;
    }'
  done
  awk -v got="$mtp_p99" -v max="$mtp_p99_max" 'BEGIN {
    if (got + 0 > max + 0) {
      printf "transport-smoke: FAIL mtp_p99_us_16k %.2f > %.1f\n", got, max;
      exit 1;
    }
    printf "transport-smoke: OK mtp_p99_us_16k %.2f <= %.1f\n", got, max;
  }'
  awk -v homa="$homa_p99" -v mtp="$mtp_p99" -v max="$ratio_max" 'BEGIN {
    ratio = homa / mtp;
    if (ratio > max + 0) {
      printf "transport-smoke: FAIL homa p99 %.2f us is %.2fx MTP%s %.2f us (max %.1fx)\n", homa, ratio, "\x27s", mtp, max;
      exit 1;
    }
    printf "transport-smoke: OK homa/mtp p99 ratio %.2f <= %.1f\n", ratio, max;
  }'
  awk -v got="$flap" -v max="$flap_max" 'BEGIN {
    if (got + 0 <= 0) {
      printf "transport-smoke: FAIL mptcp never recovered from the link flap\n";
      exit 1;
    }
    if (got + 0 > max + 0) {
      printf "transport-smoke: FAIL mptcp_flap_recovery_us %.0f > %.0f\n", got, max;
      exit 1;
    }
    printf "transport-smoke: OK mptcp_flap_recovery_us %.0f <= %.0f\n", got, max;
  }'
}

case "$mode" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  chaos) run_chaos ;;
  bench-smoke) run_bench_smoke ;;
  scale-smoke) run_scale_smoke ;;
  stream-smoke) run_stream_smoke ;;
  overload-smoke) run_overload_smoke ;;
  transport-smoke) run_transport_smoke ;;
  all)
    run_asan
    run_tsan
    run_chaos
    run_bench_smoke
    run_scale_smoke
    run_stream_smoke
    run_overload_smoke
    run_transport_smoke
    ;;
  *)
    echo "usage: check.sh [asan|tsan|chaos|bench-smoke|scale-smoke|stream-smoke|overload-smoke|transport-smoke|all]" >&2
    exit 2
    ;;
esac
