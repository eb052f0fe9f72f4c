#!/usr/bin/env bash
# One-shot CI gate: everything that must be green before a change ships.
#
#   1. cargo fmt --check          — formatting is canonical
#   2. cargo clippy -D warnings   — lint-clean across every target
#   3. cargo build --release      — the tier-1 build
#   4. cargo test -q              — every test in the workspace: the root
#                                   manifest's `default-members` lists the
#                                   umbrella package, every crate and the
#                                   vendored shims, so this runs crate unit
#                                   tests, integration, property,
#                                   abstract-model and schedule-executor
#                                   exploration and observer-effect
#                                   differential suites
#   5. sack-analyze sync-lint     — no direct std::sync/std::thread use
#                                   or raw spin_loop hint in the protocol
#                                   sources outside the sync::shim seam
#                                   (keeps the executor's coverage from
#                                   rotting)
#   6. sack-analyze sched --smoke — bounded deterministic-schedule
#                                   exploration of the real Rcu, lazy-slot
#                                   and ring code (try_enqueue, drop-oldest
#                                   force_enqueue, batch enqueue and
#                                   drain): core scenarios pass,
#                                   every planted mutation is caught with
#                                   a printed counterexample, model
#                                   conformance holds
#   7. sack-analyze trace --self-check
#                                 — boots a traced kernel and proves
#                                   every tracepoint fires, the flight
#                                   recorder replays a denied hook_exit
#                                   and its audit_emit behind their
#                                   transition, and the metrics node is
#                                   valid Prometheus
#   8. contended sweep smoke      — the SMP sweep runner at 2 threads,
#                                   proving the contended path executes
#   9. sds sweep smoke            — the event-plane sweep runner on a
#                                   reduced grid, proving both ingestion
#                                   paths and the warm probe execute
#  10. profile-compile smoke      — a 2-worker parallel bulk load plus a
#                                   lazy load with one forced first-touch
#                                   compile, proving both pipeline paths
#                                   execute even where the benchmark
#                                   gate's parallel floor is exempt
#  11. scripts/bench_gate.sh      — the hook-latency performance gate,
#                                   including the ≤MAX_TRACE_OVERHEAD
#                                   disabled-tracepoint observer gate, the
#                                   ≥MIN_SMP_EFFICIENCY scaling gate, the
#                                   ≥MIN_SDS_SPEEDUP batched-ingestion
#                                   gate and the parallel-compile /
#                                   cold-attach reload gates
#  12. validate_bench_json.py     — BENCH_hook_latency.json schema check
#                                   (all gate keys present, ratios finite)
#
# Usage: scripts/check.sh [--no-bench] [--sanitize]
#   --no-bench  skip the benchmark gate (useful on loaded machines where
#               timing gates are noisy; the functional gates still run).
#   --sanitize  additionally run the sync/smp/hook tests under
#               ThreadSanitizer (requires a nightly toolchain with
#               rust-src; skipped with a notice when unavailable).
#
# Division of labour between the executor and TSan: the schedule executor
# (step 6) serialises every shim operation, so it proves *protocol logic*
# under sequential consistency — every interleaving at that granularity,
# deterministically. It cannot see weak-memory bugs (a wrong Ordering on a
# real atomic). The TSan lane runs the same tests on raw hardware
# concurrency where the compiler/CPU may actually reorder, covering the
# memory-model side the executor abstracts away. Neither subsumes the
# other; CI wants both.

set -euo pipefail

cd "$(dirname "$0")/.."

RUN_BENCH=1
RUN_SANITIZE=0
for arg in "$@"; do
    case "$arg" in
        --no-bench) RUN_BENCH=0 ;;
        --sanitize) RUN_SANITIZE=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

step() {
    echo
    echo "==> $*"
}

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

step "cargo build --release --workspace"
cargo build --release --workspace

step "cargo test -q"
cargo test -q

step "sack-analyze sync-lint"
./target/release/sack-analyze sync-lint

step "sack-analyze sched --smoke"
./target/release/sack-analyze sched --smoke

step "sack-analyze trace --self-check"
./target/release/sack-analyze trace --self-check

step "contended sweep smoke (2 threads)"
cargo run --release --offline -p sack-lmbench --example contended_sweep -- \
    --threads 1,2 --iters 1000

step "sds event-plane sweep smoke"
cargo run --release --offline -p sack-lmbench --example sds_sweep -- \
    --rates 10000,100000 --events 2000

step "profile-compile pipeline smoke (2-worker bulk + lazy first touch)"
cargo run --release --offline -p sack-lmbench --example profile_compile_smoke

if [[ "$RUN_SANITIZE" == 1 ]]; then
    step "ThreadSanitizer lane (sync/smp/hook tests)"
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null \
            | grep -q "rust-src.*(installed)"; then
        TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$TSAN_TARGET" \
            -p sack-kernel --lib sync:: smp:: -- --test-threads=1
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$TSAN_TARGET" \
            -p sack-core --lib sack:: -- --test-threads=1
    else
        echo "tsan lane skipped: nightly toolchain with rust-src not available"
    fi
else
    step "sanitizer lane skipped (pass --sanitize to enable)"
fi

if [[ "$RUN_BENCH" == 1 ]]; then
    step "scripts/bench_gate.sh"
    scripts/bench_gate.sh
else
    step "bench gate skipped (--no-bench)"
fi

step "validate BENCH_hook_latency.json schema"
python3 scripts/validate_bench_json.py BENCH_hook_latency.json

echo
echo "check.sh: all gates green"
