//! **Observer effect (DESIGN.md §8)** — what sack-trace costs on the warm
//! hook path, in three arms on the same 100-rule policy:
//!
//! * `baseline` — tracing never attached: the pristine hot path.
//! * `tracing-disabled` — recorder attached, hub off: what everyone pays
//!   all the time. The acceptance bar is ≤5% over baseline
//!   (`scripts/bench_gate.sh`, `MAX_TRACE_OVERHEAD`).
//! * `tracing-enabled` — hub on: a `hook_exit` per dispatch with its exact
//!   per-key count, latency histograms fed by the sampled dispatches
//!   (the clock is read on about one in 16 per thread), and flight
//!   capture on denials.
//!
//! Decisions are driven through the kernel's [`LsmStack`] dispatch — not
//! the module directly — so the measured guard is the real one: the
//! dispatch macro's one probe before the module's DFA walk and its
//! `hook_exit` after it. A final `flight_saturated` group measures the denial
//! path with the flight ring past capacity (every record an overwrite),
//! the worst case for the EXPERIMENTS.md overhead table.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sack_core::Sack;
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::Pid;
use sack_kernel::{Kernel, KernelBuilder};
use sack_lmbench::workload::synthetic_independent_policy;

const STATES: usize = 4;
const RULES: usize = 100;

/// Tracing configuration for one bench arm.
enum Arm {
    Baseline,
    Disabled,
    Enabled,
}

fn boot(arm: &Arm) -> (Arc<Kernel>, Arc<Sack>) {
    let text = synthetic_independent_policy(STATES, RULES);
    let sack = Sack::independent(&text).unwrap();
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    match arm {
        Arm::Baseline => {}
        Arm::Disabled => {
            sack.install_tracing(Arc::clone(kernel.trace()));
        }
        Arm::Enabled => {
            sack.install_tracing(Arc::clone(kernel.trace()));
            kernel.trace().set_enabled(true);
        }
    }
    (kernel, sack)
}

fn hook_ctx(pid: u32) -> HookCtx {
    HookCtx::new(
        Pid(pid),
        Credentials::user(1000, 1000),
        Some(KPath::new("/usr/bin/app").unwrap()),
    )
}

fn bench_warm_hook(c: &mut Criterion) {
    let ctx = hook_ctx(7001);
    let path = KPath::new("/protected/area0/s0/devices/dev0").unwrap();
    let obj = ObjectRef::regular(&path);

    let mut group = c.benchmark_group("observer_effect/warm_hook");
    for (name, arm) in [
        ("baseline", Arm::Baseline),
        ("tracing-disabled", Arm::Disabled),
        ("tracing-enabled", Arm::Enabled),
    ] {
        let (kernel, _sack) = boot(&arm);
        let lsm = kernel.lsm();
        lsm.file_open(&ctx, &obj, AccessMask::READ).unwrap(); // warm up
        group.bench_with_input(BenchmarkId::from_parameter(name), &lsm, |b, lsm| {
            b.iter(|| criterion::black_box(lsm.file_open(&ctx, &obj, AccessMask::READ)).unwrap());
        });
    }
    group.finish();
}

fn bench_flight_saturated(c: &mut Criterion) {
    let ctx = hook_ctx(7002);
    // A path the synthetic policy protects but never grants: every probe
    // is a denial, so every probe appends an audit record and a flight
    // entry (hook_exit deny + audit_emit), overwriting once saturated.
    let path = KPath::new("/protected/area0/s1/devices/dev0").unwrap();
    let obj = ObjectRef::regular(&path);

    let mut group = c.benchmark_group("observer_effect/flight_saturated");
    let (kernel, sack) = boot(&Arm::Enabled);
    let lsm = kernel.lsm();
    assert!(
        lsm.file_open(&ctx, &obj, AccessMask::WRITE).is_err(),
        "saturation arm needs a denied probe"
    );
    let flight_capacity = sack.tracing().unwrap().flight().capacity() as u64;
    // Past capacity, every further denial overwrites a slot.
    for _ in 0..flight_capacity {
        let _ = lsm.file_open(&ctx, &obj, AccessMask::WRITE);
    }
    group.bench_with_input(
        BenchmarkId::from_parameter("tracing-enabled"),
        &lsm,
        |b, lsm| {
            b.iter(|| {
                criterion::black_box(lsm.file_open(&ctx, &obj, AccessMask::WRITE)).unwrap_err()
            });
        },
    );
    assert!(
        sack.tracing().unwrap().flight().dropped() > 0,
        "the ring must actually have been overwriting during the run"
    );
    group.finish();
}

fn bench_observer_effect(c: &mut Criterion) {
    bench_warm_hook(c);
    bench_flight_saturated(c);
}

fn config_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
        .sample_size(10)
}

criterion_group! {
    name = observer_effect;
    config = config_criterion();
    targets = bench_observer_effect
}
criterion_main!(observer_effect);
