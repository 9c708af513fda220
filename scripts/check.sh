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

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
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
  # transport_conformance_test's `transport` label runs the transport zoo
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

# Smoke-gate helpers. A lane sets `lane` (its mode name) and `json` (its
# BENCH_*.json, read with jq), runs `smoke TARGET`, then one `gate` per bound.
# A key missing from the bench output or the baseline fails; it never reads as 0.
lane="" json="" bench="" out=""

fail() { echo "$lane: FAIL $*" >&2; exit 1; }

# smoke TARGET: build the release bench TARGET and capture its --smoke output.
smoke() {
  command -v jq >/dev/null || fail "jq is required to read $json"
  cmake --preset release -S "$repo"
  cmake --build --preset release -j "$jobs" --target "$1"
  bench="$1"
  out="$("$repo/build/bench/$1" --smoke)"
  echo "$out"
}

# val KEY: the value the bench printed as KEY=value.
val() {
  sed -n "s/^$1=//p" <<<"$out" | tail -n 1 | grep . || fail "$bench printed no $1"
}

# bound FILE PATH: the number at jq PATH (e.g. .hybrid_baseline.k32_events_per_sec).
bound() {
  jq -e "$2 | numbers" "$1" || fail "$(basename "$1") has no number at $2"
}

# gate KEY OP BOUND [SCALE]: fail unless val(KEY) OP SCALE x BOUND, where OP is
# one of <= >= > == and BOUND is a number or a jq path into $json. SCALE 0.75
# is a 25% floor. Values are assigned here, not passed as $(...) arguments, so
# a missing key stops the gate even where `set -e` does not fire.
gate() {
  local got lim="$3"
  got="$(val "$1")" || return 1
  if [[ "$lim" == .* ]]; then lim="$(bound "$json" "$3")" || return 1; fi
  awk -v lane="$lane" -v key="$1" -v got="$got" -v op="$2" -v lim="$lim" -v scale="${4:-1}" 'BEGIN {
    want = lim * scale; g = got + 0
    ok = got ~ /^[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?$/ &&
         (op == "<=" ? g <= want : op == ">=" ? g >= want : op == ">" ? g > want : op == "==" && g == want)
    b = scale == 1 ? lim : sprintf("%.10g (%s x %s)", want, scale, lim)
    printf "%s: %s %s %s %s%s %s\n", lane, ok ? "OK" : "FAIL", key, got, ok ? "" : "not ", op, b
    exit !ok
  }'
}

run_bench_smoke() {
  # Fails on a >25% events/sec regression against the recorded baseline, on
  # any violation of the allocation-free scheduler contract, or on whole-stack
  # e2e transfer allocations above their per-event bound.
  lane=bench-smoke json="$repo/BENCH_core.json"
  smoke bench_micro_core
  gate events_per_sec '>=' .smoke_baseline.events_per_sec 0.75
  gate allocs_per_event '<=' .smoke_baseline.allocs_per_event_max
  gate e2e_allocs_per_event '<=' .smoke_baseline.e2e_allocs_per_event_max
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
  lane=scale-smoke json="$repo/BENCH_scale.json"
  smoke bench_scale
  gate digest_match == 1
  gate shard_digest_match == 1
  gate events_per_sec '>=' .smoke_baseline.events_per_sec 0.75
  gate peak_concurrent_msgs '>=' .smoke_baseline.peak_concurrent_msgs_min
  gate bytes_per_idle_msg '<=' .smoke_baseline.bytes_per_idle_msg_max
  gate shard1_events_per_sec '>=' .shard_baseline.k16_shard1_events_per_sec 0.75
  gate hybrid_k32_digest_match == 1
  gate bytes_per_idle_conn '<=' .smoke_baseline.bytes_per_idle_conn_max
  gate hybrid_fct_delta_pct '<=' .hybrid_baseline.hybrid_fct_delta_pct_max
  gate hybrid_bulk_event_ratio '>=' .hybrid_baseline.hybrid_bulk_event_ratio_min
  gate hybrid_k32_events_per_sec '>=' .hybrid_baseline.k32_events_per_sec 0.75
  gate hybrid_k32_teardown_sec '<=' .hybrid_baseline.hybrid_k32_teardown_sec_max
  local cores min_cores speedup
  cores="$(val shard_available_cores)"
  min_cores="$(bound "$json" .shard_baseline.speedup_gate_min_cores)"
  speedup="$(val shard_speedup)"
  if [ "$cores" -ge "$min_cores" ]; then gate shard_speedup '>=' .shard_baseline.speedup_min
  else echo "$lane: INFO shard_speedup $speedup on $cores core(s) — gate needs >= $min_cores cores, skipped"; fi
}

run_stream_smoke() {
  # mtp::stream loss-recovery gate vs the stream_baseline in BENCH_scale.json:
  # FEC p99 under its ceiling AND >= ratio_min better than ARQ-only, goodput
  # overhead under its cap, repairs actually happening, all records delivered,
  # and a hard fail on any 1/2/4-shard stream digest mismatch. Every metric is
  # simulated time (deterministic per seed); --smoke takes best-of-3
  # interleaved FEC/ARQ pairs internally per the de-flaking pattern.
  lane=stream-smoke json="$repo/BENCH_scale.json"
  smoke bench_stream_loss
  gate stream_digest_match == 1
  gate stream_complete == 1
  gate stream_fec_p99_us '<=' .stream_baseline.stream_fec_p99_us_max
  gate stream_p99_ratio '>=' .stream_baseline.stream_p99_ratio_min
  gate stream_fec_overhead_pct '<=' .stream_baseline.stream_fec_overhead_pct_max
  gate stream_fec_repairs '>=' .stream_baseline.stream_fec_repairs_min
}

run_overload_smoke() {
  # mtp::overload metastable-failure gate vs the overload_baseline in
  # BENCH_scale.json: with the defenses disabled the crash-recovery retry
  # storm must actually collapse goodput (below its ceiling — otherwise the
  # bench isn't demonstrating anything), with them enabled goodput must
  # recover above its floor AND the admitted high-priority prober's p99 must
  # stay within ratio_max of an uncongested baseline. Any 1/2/4-shard digest
  # mismatch on the defended run is a hard fail.
  lane=overload-smoke json="$repo/BENCH_scale.json"
  smoke bench_overload
  gate overload_digest_match == 1
  gate overload_goodput_disabled_pct '<=' .overload_baseline.overload_goodput_disabled_pct_max
  gate overload_goodput_enabled_pct '>=' .overload_baseline.overload_goodput_enabled_pct_min
  gate overload_p99_ratio '<=' .overload_baseline.overload_p99_ratio_max
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
  lane=transport-smoke json="$repo/BENCH_scale.json"
  smoke bench_fig3_short_flows
  local t
  for t in mtp tcp dctcp homa mptcp; do gate "${t}_digest_match" == 1; done
  for t in mtp dctcp homa mptcp; do gate "${t}_completed_16k" '>=' .transport_baseline.transport_min_completed_16k; done
  gate mtp_p99_us_16k '<=' .transport_baseline.transport_mtp_p99_us_16k_max
  gate homa_vs_mtp_p99_ratio '<=' .transport_baseline.transport_homa_vs_mtp_p99_ratio_max
  gate mptcp_flap_recovery_us '>' 0
  gate mptcp_flap_recovery_us '<=' .transport_baseline.transport_mptcp_flap_recovery_us_max
}

# Sourcing this file (tests/check_gates_test.sh does) defines the lanes
# without running one.
if [ "${BASH_SOURCE[0]}" = "$0" ]; then
  case "$mode" in
    asan | tsan | chaos | bench-smoke | scale-smoke | stream-smoke | overload-smoke | transport-smoke)
      "run_${mode//-/_}" ;;
    all) for m in asan tsan chaos bench_smoke scale_smoke stream_smoke overload_smoke transport_smoke; do "run_$m"; done ;;
    *)
      echo "usage: check.sh [asan|tsan|chaos|bench-smoke|scale-smoke|stream-smoke|overload-smoke|transport-smoke|all]" >&2
      exit 2 ;;
  esac
fi
