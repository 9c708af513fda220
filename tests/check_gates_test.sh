#!/usr/bin/env bash
# Fail-closed contract of the smoke gates in scripts/check.sh, driven on
# canned bench output instead of real bench runs. For every lane: its passing
# output passes; each gated value at its bound passes and just past it fails;
# each gated key left out of the output fails; each bound left out of a temp
# copy of BENCH_*.json fails.
#
#   bash tests/check_gates_test.sh      (needs jq, like the gates themselves)
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
command -v jq >/dev/null || { echo "check_gates: jq not installed, skipping"; exit 77; }
source "$here/../scripts/check.sh"
set +e

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
repo="$tmp"  # the lanes read $repo/BENCH_*.json: point them at scratch copies
restore_baselines() { cp "$here/../BENCH_core.json" "$here/../BENCH_scale.json" "$tmp/"; }
restore_baselines

canned=""
smoke() { bench="$1" out="$canned"; }  # stands in for building and running the bench

with() { sed "s/^$2=.*/$2=$3/" <<<"$1"; }  # with OUTPUT KEY VALUE
without() { sed "/^$2=/d" <<<"$1"; }       # without OUTPUT KEY

cases=0 failures=0
# expect pass|fail LANE OUTPUT WHAT: run run_LANE on OUTPUT. The lane runs with
# `set -e` in a plain subshell, the way check.sh runs it.
expect() {
  local rc got=pass
  canned="$3"
  (set -e; "run_$2") >"$tmp/log" 2>&1
  rc=$?
  [ "$rc" -eq 0 ] || got=fail
  cases=$((cases + 1))
  if [ "$got" != "$1" ]; then
    failures=$((failures + 1))
    echo "MISMATCH $2 ($4): expected $1, got $got (exit $rc)"
    sed 's/^/    /' "$tmp/log"
  fi
}

# Passing --smoke output of each bench, from the reference measurements that
# BENCH_*.json records; the core count is raised so the speedup gate is armed.
declare -A ok
ok[bench_smoke]='events_per_sec=7437483
allocs_per_event=0.000000
e2e_allocs_per_event=0.013784'
ok[scale_smoke]='events_per_sec=3346000
peak_concurrent_msgs=102400
completed_msgs=102400
bytes_per_idle_msg=462.0
peak_rss_mb=69.0
digest_serial=0123456789abcdef
digest_parallel=0123456789abcdef
digest_match=1
shard_available_cores=8
shard_digest_match=1
shard1_events_per_sec=1326000
shard8_events_per_sec=4500000
shard8_windows=2270
shard_speedup=3.39
bytes_per_idle_conn=869.0
hybrid_fct_delta_pct=3.73
hybrid_bulk_event_ratio=10000.0
hybrid_k32_hosts=8192
hybrid_k32_digest_match=1
hybrid_k32_events_per_sec=694906
hybrid_k32_teardown_sec=1.250'
ok[stream_smoke]='stream_records=2000
stream_fec_p99_us=172.00
stream_arq_p99_us=802.00
stream_tcp_p99_us=1500.00
stream_p99_ratio=4.66
stream_fec_overhead_pct=25.00
stream_fec_repairs=61
stream_digest_match=1
stream_complete=1'
ok[overload_smoke]='overload_calls=4000
overload_goodput_disabled_pct=2.00
overload_goodput_enabled_pct=90.50
overload_p99_base_us=17.60
overload_p99_hi_us=22.40
overload_p99_ratio=1.27
overload_retries_disabled=9000
overload_retries_enabled=300
overload_server_shed=800
overload_digest_match=1
overload_leaked_events=0'
ok[transport_smoke]='mtp_p99_us_16k=7.660
mtp_completed_16k=1400
dctcp_p99_us_16k=14.170
dctcp_completed_16k=620
homa_p99_us_16k=8.330
homa_completed_16k=1433
mptcp_p99_us_16k=18.290
mptcp_completed_16k=472
homa_vs_mtp_p99_ratio=1.0874
mptcp_flap_recovery_us=1200.000
mtp_digest_match=1
tcp_digest_match=1
dctcp_digest_match=1
homa_digest_match=1
mptcp_digest_match=1'

# LANE KEY AT-BOUND JUST-PAST: every gate, at the bounds BENCH_*.json records
# ("-": no such edge).
bounds='bench_smoke events_per_sec 6300000 6299999
bench_smoke allocs_per_event 0.001000 0.001001
bench_smoke e2e_allocs_per_event 0.050000 0.050001
scale_smoke digest_match 1 0
scale_smoke shard_digest_match 1 0
scale_smoke events_per_sec 1275000 1274999
scale_smoke peak_concurrent_msgs 100000 99999
scale_smoke bytes_per_idle_msg 600.0 600.1
scale_smoke shard1_events_per_sec 600000 599999
scale_smoke hybrid_k32_digest_match 1 0
scale_smoke bytes_per_idle_conn 1100.0 1100.1
scale_smoke hybrid_fct_delta_pct 5.00 5.01
scale_smoke hybrid_bulk_event_ratio 5.0 4.9
scale_smoke hybrid_k32_events_per_sec 450000 449999
scale_smoke hybrid_k32_teardown_sec 10.000 10.001
scale_smoke shard_speedup 3.00 2.99
scale_smoke shard_available_cores 8 -
stream_smoke stream_digest_match 1 0
stream_smoke stream_complete 1 0
stream_smoke stream_fec_p99_us 400.00 400.01
stream_smoke stream_p99_ratio 3.00 2.99
stream_smoke stream_fec_overhead_pct 30.00 30.01
stream_smoke stream_fec_repairs 1 0
overload_smoke overload_digest_match 1 0
overload_smoke overload_goodput_disabled_pct 30.00 30.01
overload_smoke overload_goodput_enabled_pct 70.00 69.99
overload_smoke overload_p99_ratio 2.00 2.01
transport_smoke mtp_digest_match 1 0
transport_smoke tcp_digest_match 1 0
transport_smoke dctcp_digest_match 1 0
transport_smoke homa_digest_match 1 0
transport_smoke mptcp_digest_match 1 0
transport_smoke mtp_completed_16k 300 299
transport_smoke dctcp_completed_16k 300 299
transport_smoke homa_completed_16k 300 299
transport_smoke mptcp_completed_16k 300 299
transport_smoke mtp_p99_us_16k 12.000 12.001
transport_smoke homa_vs_mtp_p99_ratio 1.5000 1.5001
transport_smoke mptcp_flap_recovery_us 2400.000 2400.001'

# Each lane passes its recorded output, and passes with every gated value at
# its bound at once. jq's startup dominates a lane run, so the at-bound edges
# share one run per lane; each failure case needs its own.
declare -A edge
for lane in "${!ok[@]}"; do expect pass "$lane" "${ok[$lane]}" "recorded output"; edge[$lane]="${ok[$lane]}"; done
while read -r lane key at past; do
  [ "$at" = - ] || edge[$lane]="$(with "${edge[$lane]}" "$key" "$at")"
done <<<"$bounds"
for lane in "${!edge[@]}"; do expect pass "$lane" "${edge[$lane]}" "every value at its bound"; done

while read -r lane key at past; do
  [ "$past" = - ] || expect fail "$lane" "$(with "${ok[$lane]}" "$key" "$past")" "$key=$past"
  expect fail "$lane" "$(without "${ok[$lane]}" "$key")" "no $key"
done <<<"$bounds"

# MPTCP has to recover from the flap at all, not just quickly.
expect fail transport_smoke "$(with "${ok[transport_smoke]}" mptcp_flap_recovery_us 0.000)" "no flap recovery"
# Values that are present but not numbers never pass.
expect fail bench_smoke "$(with "${ok[bench_smoke]}" allocs_per_event '')" "allocs_per_event="
expect fail transport_smoke "$(with "${ok[transport_smoke]}" homa_vs_mtp_p99_ratio nan)" "ratio nan"
# Below speedup_gate_min_cores the speedup is reported, not gated, but still
# has to be there.
few_cores="$(with "${ok[scale_smoke]}" shard_available_cores 4)"
expect pass scale_smoke "$(with "$few_cores" shard_speedup 1.10)" "4 cores, speedup 1.10"
expect fail scale_smoke "$(without "$few_cores" shard_speedup)" "4 cores, no shard_speedup"

# Each bound a lane reads, deleted from its block in a copy of the baseline.
for lane in "${!ok[@]}"; do
  for path in $(declare -f "run_$lane" | grep -o '\.[a-z]*_baseline\.[a-z0-9_]*' | sort -u); do
    for f in BENCH_core.json BENCH_scale.json; do
      jq "del($path)" "$here/../$f" >"$tmp/$f"
    done
    expect fail "$lane" "${ok[$lane]}" "baseline without $path"
    restore_baselines
  done
done

# A gate fails closed by itself, also under `if`, where `set -e` does not fire.
lane=bench-smoke json="$tmp/BENCH_core.json" out="${ok[bench_smoke]}"
jq 'del(.smoke_baseline.allocs_per_event_max)' "$here/../BENCH_core.json" >"$json"
for key in allocs_per_event no_such_key; do
  cases=$((cases + 1))
  if gate "$key" '<=' .smoke_baseline.allocs_per_event_max >/dev/null 2>&1; then
    failures=$((failures + 1))
    echo "MISMATCH gate $key passed under if with no allocs_per_event_max baseline"
  fi
done
restore_baselines

echo "check_gates: $cases cases, $failures mismatches"
[ "$failures" -eq 0 ]
