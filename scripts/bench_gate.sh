#!/usr/bin/env bash
# Benchmark gate for the hook hot path (DESIGN.md §5.3, §7).
#
# Runs the hook-matcher ablation in quick mode, extracts the DFA-walk and
# linear-scan medians on a single path, a 64-path working set and the
# 100/1k/10k rule-count sweep, writes them to BENCH_hook_latency.json at
# the repo root, and fails if:
#   * the DFA walk degrades by more than MAX_DFA_DEGRADATION x between
#     the 100-rule and 10k-rule policies (O(|path|) flatness).
#
# The DFA-over-scan ratios are recorded but not gated: the scan arms time
# the oracles, which no hook runs, so a floor on the ratio cannot fail.
#
# Also runs the AppArmor profile-table bench and fails if:
#   * an incremental single-profile recompile is not at least
#     MIN_INCR_RECOMPILE_SPEEDUP x faster than a full 100-profile
#     table rebuild.
#
# Also runs the observer-effect bench (DESIGN.md §8) and fails if:
#   * attached-but-disabled tracepoints cost more than
#     MAX_TRACE_OVERHEAD x the never-attached baseline on the warm
#     hook path (the "free when off" contract).
#
# Also runs the profile-compile reload sweep (DESIGN.md §12) and fails if:
#   * the parallel bulk compile of 1000 distinct profiles is not at least
#     min(MIN_PARALLEL_COMPILE_SPEEDUP, 0.7 x cores) x faster than the
#     1-worker serial baseline (single-core runners are exempt: there is
#     no parallelism to buy, so the check is skipped with a notice).
#
# Also runs the contended SMP sweep (DESIGN.md §9) and fails if:
#   * DFA-walk hook throughput at the highest thread count scales below
#     MIN_SMP_EFFICIENCY x linear, normalised to
#     min(threads, available_parallelism).
#
# Also runs the SDS event-path sweep (DESIGN.md §11) and fails if:
#   * batched SACK/sds/ring ingestion is not at least MIN_SDS_SPEEDUP x
#     the synchronous per-event path's throughput at 100k events/sec;
#   * coalesced deliveries of non-matching batches interleaved with the
#     hooks inflate the warm hook p50 beyond MAX_SDS_WARM_IMPACT x the
#     baseline without them (deliveries that publish nothing must stay
#     off the hook path).
#
# Before rewriting BENCH_hook_latency.json the script cross-checks the
# gate block recorded in the committed file against the thresholds it
# actually enforces, and fails loudly on any disagreement — a recorded
# threshold that drifts from the enforced one silently misdocuments the
# gate (this happened: max_trace_overhead was committed as 0.5 while the
# script enforced 1.05). The corrected file is still written, so the
# next run is consistent again.
#
# Usage: scripts/bench_gate.sh [--full]
#   --full  drop --quick and use criterion's full sample counts.

set -euo pipefail

cd "$(dirname "$0")/.."

MAX_DFA_DEGRADATION="${MAX_DFA_DEGRADATION:-1.5}"
MIN_INCR_RECOMPILE_SPEEDUP="${MIN_INCR_RECOMPILE_SPEEDUP:-10.0}"
MIN_PARALLEL_COMPILE_SPEEDUP="${MIN_PARALLEL_COMPILE_SPEEDUP:-2.0}"
MAX_TRACE_OVERHEAD="${MAX_TRACE_OVERHEAD:-1.05}"
MIN_SMP_EFFICIENCY="${MIN_SMP_EFFICIENCY:-0.7}"
SMP_THREADS="${SMP_THREADS:-1,2,4,8}"
MIN_SDS_SPEEDUP="${MIN_SDS_SPEEDUP:-5.0}"
MAX_SDS_WARM_IMPACT="${MAX_SDS_WARM_IMPACT:-1.5}"
SDS_RATES="${SDS_RATES:-10000,100000,1000000}"
SDS_EVENTS="${SDS_EVENTS:-20000}"
OUT_JSON="${OUT_JSON:-BENCH_hook_latency.json}"

QUICK="--quick"
SMP_ITERS_DEFAULT=5000
if [[ "${1:-}" == "--full" ]]; then
    QUICK=""
    SMP_ITERS_DEFAULT=20000
fi
SMP_ITERS="${SMP_ITERS:-$SMP_ITERS_DEFAULT}"

TMP_JSON="$(mktemp)"
TMP_LOG="$(mktemp)"
TMP_JSON_PT="$(mktemp)"
TMP_JSON_PC="$(mktemp)"
TMP_JSON_OBS="$(mktemp)"
TMP_SMP_JSON="$(mktemp)"
TMP_SMP_LOG="$(mktemp)"
TMP_SDS_JSON="$(mktemp)"
TMP_SDS_LOG="$(mktemp)"
trap 'rm -f "$TMP_JSON" "$TMP_LOG" "$TMP_JSON_PT" "$TMP_JSON_PC" "$TMP_JSON_OBS" "$TMP_SMP_JSON" "$TMP_SMP_LOG" "$TMP_SDS_JSON" "$TMP_SDS_LOG"' EXIT

# --- Recorded-vs-enforced gate consistency -------------------------------
# The committed JSON documents the thresholds it was gated with; if those
# drift from the constants above, the record is lying about the gate.
GATE_MISMATCH=0
check_recorded_gate() {
    local key="$1" enforced="$2" recorded
    recorded="$(sed -n 's/.*"'"$key"'": \([0-9.]*\).*/\1/p' "$OUT_JSON" | head -1)"
    if [[ -z "$recorded" ]]; then
        echo "bench_gate: recorded gate.$key missing from $OUT_JSON (will be written)" >&2
        GATE_MISMATCH=1
    elif awk -v r="$recorded" -v e="$enforced" 'BEGIN { exit !(r + 0 != e + 0) }'; then
        echo "bench_gate: FAIL — recorded gate.$key = $recorded disagrees with enforced $enforced" >&2
        GATE_MISMATCH=1
    fi
}
if [[ -f "$OUT_JSON" ]]; then
    check_recorded_gate max_dfa_degradation "$MAX_DFA_DEGRADATION"
    check_recorded_gate min_incr_recompile_speedup "$MIN_INCR_RECOMPILE_SPEEDUP"
    check_recorded_gate min_parallel_compile_speedup "$MIN_PARALLEL_COMPILE_SPEEDUP"
    check_recorded_gate max_trace_overhead "$MAX_TRACE_OVERHEAD"
    check_recorded_gate min_smp_efficiency "$MIN_SMP_EFFICIENCY"
    check_recorded_gate min_sds_speedup "$MIN_SDS_SPEEDUP"
    check_recorded_gate max_sds_warm_impact "$MAX_SDS_WARM_IMPACT"
fi

echo "== bench_gate: running ablation_hook_matcher ${QUICK:+(quick mode)}" >&2
BENCH_JSON_OUT="$TMP_JSON" \
    cargo bench --offline -p sack-bench --bench ablation_hook_matcher -- $QUICK \
    | tee "$TMP_LOG"

median_of() {
    # Pull "median_ns" for the record whose name contains $1.
    grep -F "$1" "$TMP_JSON" | sed -n 's/.*"median_ns": \([0-9.]*\).*/\1/p' | head -1
}

DFA_SINGLE="$(median_of '100rules_single/dfa')"
SCAN_SINGLE="$(median_of '100rules_single/scan')"
DFA_WSET="$(median_of '100rules_wset64/dfa')"
SCAN_WSET="$(median_of '100rules_wset64/scan')"
DFA_100="$(median_of 'sweep100rules/dfa')"
SCAN_100="$(median_of 'sweep100rules/scan')"
DFA_1K="$(median_of 'sweep1000rules/dfa')"
SCAN_1K="$(median_of 'sweep1000rules/scan')"
DFA_10K="$(median_of 'sweep10000rules/dfa')"
SCAN_10K="$(median_of 'sweep10000rules/scan')"

# The shim truncates BENCH_JSON_OUT per run, so the profile-table bench
# gets its own capture file.
echo "== bench_gate: running apparmor_profile_table ${QUICK:+(quick mode)}" >&2
BENCH_JSON_OUT="$TMP_JSON_PT" \
    cargo bench --offline -p sack-bench --bench apparmor_profile_table -- $QUICK

median_of_pt() {
    grep -F "$1" "$TMP_JSON_PT" | sed -n 's/.*"median_ns": \([0-9.]*\).*/\1/p' | head -1
}

AA_DFA="$(median_of_pt 'profile_table_1000rules/dfa')"
AA_SCAN="$(median_of_pt 'profile_table_1000rules/scan')"
RECOMPILE_INCR="$(median_of_pt 'recompile_100profiles/incremental')"
RECOMPILE_FULL="$(median_of_pt 'recompile_100profiles/full')"

echo "== bench_gate: running profile_compile ${QUICK:+(quick mode)}" >&2
BENCH_JSON_OUT="$TMP_JSON_PC" \
    cargo bench --offline -p sack-bench --bench profile_compile -- $QUICK

median_of_pc() {
    grep -F "$1" "$TMP_JSON_PC" | sed -n 's/.*"median_ns": \([0-9.]*\).*/\1/p' | head -1
}

PC_SERIAL_100="$(median_of_pc 'bulk_compile_100/serial')"
PC_PARALLEL_100="$(median_of_pc 'bulk_compile_100/parallel')"
PC_SERIAL_1K="$(median_of_pc 'bulk_compile_1000/serial')"
PC_PARALLEL_1K="$(median_of_pc 'bulk_compile_1000/parallel')"
PC_SERIAL_10K="$(median_of_pc 'bulk_compile_10000/serial')"
PC_PARALLEL_10K="$(median_of_pc 'bulk_compile_10000/parallel')"

echo "== bench_gate: running observer_effect ${QUICK:+(quick mode)}" >&2
BENCH_JSON_OUT="$TMP_JSON_OBS" \
    cargo bench --offline -p sack-bench --bench observer_effect -- $QUICK

median_of_obs() {
    grep -F "$1" "$TMP_JSON_OBS" | sed -n 's/.*"median_ns": \([0-9.]*\).*/\1/p' | head -1
}

TRACE_BASELINE="$(median_of_obs 'warm_hook/baseline')"
TRACE_DISABLED="$(median_of_obs 'warm_hook/tracing-disabled')"
TRACE_ENABLED="$(median_of_obs 'warm_hook/tracing-enabled')"
TRACE_FLIGHT="$(median_of_obs 'flight_saturated/tracing-enabled')"

echo "== bench_gate: running contended_sweep (threads $SMP_THREADS, $SMP_ITERS hooks/thread)" >&2
cargo run --release --offline -p sack-lmbench --example contended_sweep -- \
    --threads "$SMP_THREADS" --iters "$SMP_ITERS" --json "$TMP_SMP_JSON" \
    | tee "$TMP_SMP_LOG" >&2

SMP_MAX_THREADS="${SMP_THREADS##*,}"
SMP_EFF_DFA="$(sed -n 's/^smp_efficiency scenario=dfa-walk threads='"$SMP_MAX_THREADS"' value=\([0-9.]*\)$/\1/p' "$TMP_SMP_LOG" | head -1)"
SMP_PARALLELISM="$(sed -n 's/^smp_meta available_parallelism=\([0-9]*\).*$/\1/p' "$TMP_SMP_LOG" | head -1)"

echo "== bench_gate: running sds_sweep (rates $SDS_RATES, $SDS_EVENTS events/point)" >&2
cargo run --release --offline -p sack-lmbench --example sds_sweep -- \
    --rates "$SDS_RATES" --events "$SDS_EVENTS" --json "$TMP_SDS_JSON" \
    | tee "$TMP_SDS_LOG" >&2

SDS_SPEEDUP_100K="$(sed -n 's/^sds_speedup_at_100k value=\([0-9.]*\)$/\1/p' "$TMP_SDS_LOG" | head -1)"
SDS_WARM_IMPACT="$(sed -n 's/^sds_warm_impact value=\([0-9.]*\)$/\1/p' "$TMP_SDS_LOG" | head -1)"

for v in DFA_SINGLE SCAN_SINGLE DFA_WSET SCAN_WSET \
         DFA_100 SCAN_100 DFA_1K SCAN_1K DFA_10K SCAN_10K \
         AA_DFA AA_SCAN RECOMPILE_INCR RECOMPILE_FULL \
         PC_SERIAL_100 PC_PARALLEL_100 PC_SERIAL_1K PC_PARALLEL_1K \
         PC_SERIAL_10K PC_PARALLEL_10K \
         TRACE_BASELINE TRACE_DISABLED TRACE_ENABLED TRACE_FLIGHT \
         SMP_EFF_DFA SMP_PARALLELISM SDS_SPEEDUP_100K SDS_WARM_IMPACT; do
    if [[ -z "${!v}" ]]; then
        echo "bench_gate: FAILED to extract $v from benchmark output" >&2
        exit 1
    fi
done

DFA_SPEEDUP_SINGLE="$(awk -v a="$SCAN_SINGLE" -v b="$DFA_SINGLE" 'BEGIN { printf "%.2f", a / b }')"
DFA_SPEEDUP_WSET="$(awk -v a="$SCAN_WSET" -v b="$DFA_WSET" 'BEGIN { printf "%.2f", a / b }')"
DFA_SPEEDUP_1K="$(awk -v a="$SCAN_1K" -v b="$DFA_1K" 'BEGIN { printf "%.2f", a / b }')"
DFA_DEGRADATION="$(awk -v a="$DFA_10K" -v b="$DFA_100" 'BEGIN { printf "%.2f", a / b }')"
AA_DFA_SPEEDUP="$(awk -v a="$AA_SCAN" -v b="$AA_DFA" 'BEGIN { printf "%.2f", a / b }')"
INCR_SPEEDUP="$(awk -v a="$RECOMPILE_FULL" -v b="$RECOMPILE_INCR" 'BEGIN { printf "%.2f", a / b }')"
PC_SPEEDUP_1K="$(awk -v a="$PC_SERIAL_1K" -v b="$PC_PARALLEL_1K" 'BEGIN { printf "%.2f", a / b }')"
# The parallel floor is normalised to the host: min(configured, 0.7 x cores).
# A single-core runner has no parallelism to buy, so the check is skipped
# and the enforced floor recorded as 0.
PC_CORES="$(nproc 2>/dev/null || echo 1)"
if [[ "$PC_CORES" -le 1 ]]; then
    PC_ENFORCED_SPEEDUP="0"
else
    PC_ENFORCED_SPEEDUP="$(awk -v m="$MIN_PARALLEL_COMPILE_SPEEDUP" -v c="$PC_CORES" \
        'BEGIN { f = 0.7 * c; printf "%.2f", (m < f) ? m : f }')"
fi
TRACE_OVERHEAD_DISABLED="$(awk -v a="$TRACE_DISABLED" -v b="$TRACE_BASELINE" 'BEGIN { printf "%.3f", a / b }')"
TRACE_OVERHEAD_ENABLED="$(awk -v a="$TRACE_ENABLED" -v b="$TRACE_BASELINE" 'BEGIN { printf "%.3f", a / b }')"

cat > "$OUT_JSON" <<EOF
{
  "bench": "ablation_hook_matcher",
  "policy_rules": 100,
  "single_path": {
    "dfa_median_ns": $DFA_SINGLE,
    "scan_median_ns": $SCAN_SINGLE,
    "dfa_speedup": $DFA_SPEEDUP_SINGLE
  },
  "working_set_64": {
    "dfa_median_ns": $DFA_WSET,
    "scan_median_ns": $SCAN_WSET,
    "dfa_speedup": $DFA_SPEEDUP_WSET
  },
  "rule_sweep": {
    "rules_100": { "dfa_median_ns": $DFA_100, "scan_median_ns": $SCAN_100 },
    "rules_1000": { "dfa_median_ns": $DFA_1K, "scan_median_ns": $SCAN_1K },
    "rules_10000": { "dfa_median_ns": $DFA_10K, "scan_median_ns": $SCAN_10K },
    "dfa_speedup_1k": $DFA_SPEEDUP_1K,
    "dfa_degradation_100_to_10k": $DFA_DEGRADATION
  },
  "apparmor_profile_table": {
    "profile_rules": 1000,
    "dfa_median_ns": $AA_DFA,
    "scan_median_ns": $AA_SCAN,
    "dfa_speedup": $AA_DFA_SPEEDUP,
    "table_profiles": 100,
    "incremental_recompile_median_ns": $RECOMPILE_INCR,
    "full_reload_median_ns": $RECOMPILE_FULL,
    "incremental_speedup": $INCR_SPEEDUP
  },
  "profile_compile": {
    "rules_per_profile": 4,
    "bulk_serial_100_median_ns": $PC_SERIAL_100,
    "bulk_parallel_100_median_ns": $PC_PARALLEL_100,
    "bulk_serial_1000_median_ns": $PC_SERIAL_1K,
    "bulk_parallel_1000_median_ns": $PC_PARALLEL_1K,
    "bulk_serial_10000_median_ns": $PC_SERIAL_10K,
    "bulk_parallel_10000_median_ns": $PC_PARALLEL_10K,
    "parallel_speedup_1k": $PC_SPEEDUP_1K,
    "cores": $PC_CORES,
    "enforced_min_parallel_speedup": $PC_ENFORCED_SPEEDUP
  },
  "tracing": {
    "warm_hook_baseline_median_ns": $TRACE_BASELINE,
    "warm_hook_tracing_disabled_median_ns": $TRACE_DISABLED,
    "warm_hook_tracing_enabled_median_ns": $TRACE_ENABLED,
    "flight_saturated_median_ns": $TRACE_FLIGHT,
    "disabled_overhead_ratio": $TRACE_OVERHEAD_DISABLED,
    "enabled_overhead_ratio": $TRACE_OVERHEAD_ENABLED
  },
  "smp": $(cat "$TMP_SMP_JSON"),
  "sds": $(cat "$TMP_SDS_JSON"),
  "gate": {
    "max_dfa_degradation": $MAX_DFA_DEGRADATION,
    "min_incr_recompile_speedup": $MIN_INCR_RECOMPILE_SPEEDUP,
    "min_parallel_compile_speedup": $MIN_PARALLEL_COMPILE_SPEEDUP,
    "max_trace_overhead": $MAX_TRACE_OVERHEAD,
    "min_smp_efficiency": $MIN_SMP_EFFICIENCY,
    "min_sds_speedup": $MIN_SDS_SPEEDUP,
    "max_sds_warm_impact": $MAX_SDS_WARM_IMPACT
  }
}
EOF

echo "== bench_gate: wrote $OUT_JSON" >&2
echo "   DFA vs scan, 1 path:  ${DFA_SPEEDUP_SINGLE}x (dfa $DFA_SINGLE ns vs scan $SCAN_SINGLE ns)" >&2
echo "   DFA vs scan, 64 paths: ${DFA_SPEEDUP_WSET}x (dfa $DFA_WSET ns vs scan $SCAN_WSET ns)" >&2
echo "   DFA vs scan @1k:      ${DFA_SPEEDUP_1K}x (dfa $DFA_1K ns vs scan $SCAN_1K ns)" >&2
echo "   DFA 100 -> 10k:       ${DFA_DEGRADATION}x (dfa $DFA_100 ns -> $DFA_10K ns)" >&2
echo "   profile DFA @1k:      ${AA_DFA_SPEEDUP}x (dfa $AA_DFA ns vs scan $AA_SCAN ns)" >&2
echo "   incr recompile @100:  ${INCR_SPEEDUP}x (incr $RECOMPILE_INCR ns vs full $RECOMPILE_FULL ns)" >&2
echo "   bulk compile @1k:     ${PC_SPEEDUP_1K}x parallel over serial (serial $PC_SERIAL_1K ns, parallel $PC_PARALLEL_1K ns, $PC_CORES cores)" >&2
echo "   trace off overhead:   ${TRACE_OVERHEAD_DISABLED}x (disabled $TRACE_DISABLED ns vs baseline $TRACE_BASELINE ns)" >&2
echo "   trace on overhead:    ${TRACE_OVERHEAD_ENABLED}x (enabled $TRACE_ENABLED ns, flight-saturated $TRACE_FLIGHT ns)" >&2
echo "   smp dfa efficiency:   ${SMP_EFF_DFA}x linear at $SMP_MAX_THREADS threads ($SMP_PARALLELISM-way parallel host)" >&2
echo "   sds batched @100k:    ${SDS_SPEEDUP_100K}x sync event throughput" >&2
echo "   sds warm impact:      ${SDS_WARM_IMPACT}x warm-hook p50 with the plane active" >&2

fail=0
if [[ "$GATE_MISMATCH" -ne 0 ]]; then
    echo "bench_gate: FAIL — $OUT_JSON recorded gate thresholds that disagree with the enforced constants (corrected file written; commit it)" >&2
    fail=1
fi
if awk -v d="$DFA_DEGRADATION" -v m="$MAX_DFA_DEGRADATION" 'BEGIN { exit !(d > m) }'; then
    echo "bench_gate: FAIL — DFA walk degrades ${DFA_DEGRADATION}x from 100 to 10k rules (max ${MAX_DFA_DEGRADATION}x)" >&2
    fail=1
fi
if awk -v s="$INCR_SPEEDUP" -v m="$MIN_INCR_RECOMPILE_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
    echo "bench_gate: FAIL — incremental recompile speedup ${INCR_SPEEDUP}x < required ${MIN_INCR_RECOMPILE_SPEEDUP}x on a 100-profile table" >&2
    fail=1
fi
if [[ "$PC_CORES" -le 1 ]]; then
    echo "bench_gate: NOTICE — single-core host, parallel-compile floor not enforced (enforced_min_parallel_speedup recorded as 0)" >&2
elif awk -v s="$PC_SPEEDUP_1K" -v m="$PC_ENFORCED_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
    echo "bench_gate: FAIL — parallel bulk compile ${PC_SPEEDUP_1K}x < required ${PC_ENFORCED_SPEEDUP}x at 1k profiles on $PC_CORES cores" >&2
    fail=1
fi
if awk -v r="$TRACE_OVERHEAD_DISABLED" -v m="$MAX_TRACE_OVERHEAD" 'BEGIN { exit !(r > m) }'; then
    echo "bench_gate: FAIL — disabled tracepoints cost ${TRACE_OVERHEAD_DISABLED}x on the warm hook path (max ${MAX_TRACE_OVERHEAD}x)" >&2
    fail=1
fi
if awk -v e="$SMP_EFF_DFA" -v m="$MIN_SMP_EFFICIENCY" 'BEGIN { exit !(e < m) }'; then
    echo "bench_gate: FAIL — DFA-walk scaling efficiency ${SMP_EFF_DFA}x < required ${MIN_SMP_EFFICIENCY}x linear at $SMP_MAX_THREADS threads" >&2
    fail=1
fi
if awk -v s="$SDS_SPEEDUP_100K" -v m="$MIN_SDS_SPEEDUP" 'BEGIN { exit !(s < m) }'; then
    echo "bench_gate: FAIL — batched sds ingestion ${SDS_SPEEDUP_100K}x < required ${MIN_SDS_SPEEDUP}x sync throughput at 100k events/sec" >&2
    fail=1
fi
if awk -v r="$SDS_WARM_IMPACT" -v m="$MAX_SDS_WARM_IMPACT" 'BEGIN { exit !(r > m) }'; then
    echo "bench_gate: FAIL — active event plane inflates warm-hook p50 by ${SDS_WARM_IMPACT}x (max ${MAX_SDS_WARM_IMPACT}x)" >&2
    fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    exit 1
fi
echo "== bench_gate: PASS" >&2
