//! End-to-end fleet rollout (DESIGN.md §13) plus the telemetry-plane
//! property tests.
//!
//! The headline scenario boots 4 cohorts × 16 kernels behind one
//! [`FleetAggregator`], promotes a benign candidate cohort-by-cohort on
//! clean telemetry, then reruns with a read-revoking candidate whose
//! canary denial spike must trigger an automatic rollback within one soak
//! window. A twin fleet of never-upgraded kernels serves as the
//! differential oracle: after rollback, every rolled-back kernel must be
//! verdict-identical to its twin across a subject × path × permission
//! probe matrix in every situation state.
//!
//! The property tests cover the snapshot algebra the aggregation tree
//! relies on: merge is associative and commutative over randomized
//! snapshots, `delta_since` replays exactly against live captures, and an
//! instance dying mid-merge is reported, never a panic.

use std::sync::Arc;
use std::time::Duration;

use sack_core::telemetry::TELEMETRY_HIST_KEYS;
use sack_core::{HistogramSnapshot, Sack, TelemetrySnapshot};
use sack_fleet::{DetectorConfig, FleetAggregator, RolloutConfig, RolloutDriver, RolloutStatus};
use sack_kernel::cred::Credentials;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::trace::Tracepoint;
use sack_kernel::types::Pid;
use sack_suite::prop;

/// Grants read on the whole car device tree in every situation state.
const BASE_POLICY: &str = r#"
    states { normal = 0; emergency = 1; }
    events { crash; rescue_done; }
    transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
    initial normal;
    permissions { CAR; }
    state_per { normal: CAR; emergency: CAR; }
    per_rules { CAR: allow subject=* /dev/car/** r; }
"#;

/// Candidate that revokes reads: the car tree stays in the protected set
/// (the rule still covers it) but only grants writes, so door reads start
/// failing the moment this lands on a cohort.
const NARROW_POLICY: &str = r#"
    states { normal = 0; emergency = 1; }
    events { crash; rescue_done; }
    transitions { normal -crash-> emergency; emergency -rescue_done-> normal; }
    initial normal;
    permissions { CAR; }
    state_per { normal: CAR; emergency: CAR; }
    per_rules { CAR: allow subject=* /dev/car/** w; }
"#;

fn boot(policy: &str) -> (Arc<Kernel>, Arc<Sack>) {
    let sack = Sack::independent(policy).expect("test policy must compile");
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).expect("attach");
    kernel.trace().set_enabled(true);
    (kernel, sack)
}

/// Dispatches one open through the kernel's LSM stack (so the `hook_*`
/// tracepoints fire) and reports whether it was granted.
fn probe(kernel: &Kernel, uid: u32, path: &str, mask: AccessMask) -> bool {
    let ctx = HookCtx::new(Pid(4321), Credentials::user(uid, uid), None);
    let kpath = KPath::new(path).expect("probe path");
    let obj = ObjectRef::regular(&kpath);
    kernel.lsm().file_open(&ctx, &obj, mask).is_ok()
}

fn read_door(kernel: &Kernel, n: usize) -> usize {
    (0..n)
        .filter(|_| probe(kernel, 1000, "/dev/car/door0", AccessMask::READ))
        .count()
}

const COHORTS: [&str; 4] = ["canary", "wave-1", "wave-2", "wave-3"];
const PER_COHORT: usize = 16;

/// One booted member: the kernel and its attached SACK instance.
type Instance = (Arc<Kernel>, Arc<Sack>);

fn fleet() -> (Arc<FleetAggregator>, Vec<Instance>) {
    let agg = FleetAggregator::new();
    let mut instances = Vec::new();
    for cohort in COHORTS {
        for _ in 0..PER_COHORT {
            let (kernel, sack) = boot(BASE_POLICY);
            agg.register(&kernel, &sack, cohort);
            instances.push((kernel, sack));
        }
    }
    (agg, instances)
}

fn driver(agg: &Arc<FleetAggregator>, candidate: &str, soak_ticks: u64) -> RolloutDriver {
    let config = RolloutConfig {
        soak_ticks,
        detectors: DetectorConfig::default(),
    };
    let cohorts = COHORTS.iter().map(|c| c.to_string()).collect();
    RolloutDriver::new(Arc::clone(agg), cohorts, candidate, BASE_POLICY, config)
}

/// Fired counts of the five rollout tracepoints on the fleet hub, in
/// begin/push/promote/rollback/complete order.
fn rollout_counts(agg: &FleetAggregator) -> [u64; 5] {
    [
        Tracepoint::FleetRolloutBegin,
        Tracepoint::FleetRolloutPush,
        Tracepoint::FleetRolloutPromote,
        Tracepoint::FleetRolloutRollback,
        Tracepoint::FleetRolloutComplete,
    ]
    .map(|p| agg.hub().fired(p))
}

/// The probe matrix the differential oracle compares: subjects with
/// different uids, protected and unprotected paths, every access mask the
/// policies distinguish.
fn verdict_vector(kernel: &Kernel) -> Vec<bool> {
    let mut verdicts = Vec::new();
    for uid in [0, 1000] {
        for path in ["/dev/car/door0", "/dev/car/engine/ecu", "/etc/passwd"] {
            for mask in [
                AccessMask::READ,
                AccessMask::WRITE,
                AccessMask::READ | AccessMask::WRITE,
            ] {
                verdicts.push(probe(kernel, uid, path, mask));
            }
        }
    }
    verdicts
}

#[test]
fn staged_rollout_promotes_rolls_back_and_matches_never_upgraded_twins() {
    let (agg, instances) = fleet();
    assert_eq!(agg.len(), COHORTS.len() * PER_COHORT);

    // The never-upgraded twins: one per canary kernel, outside the fleet.
    let twins: Vec<Instance> = (0..PER_COHORT).map(|_| boot(BASE_POLICY)).collect();

    // --- Phase 1: a benign candidate promotes through all 4 cohorts. ---
    let mut promote = driver(&agg, BASE_POLICY, 2);
    let mut steps = 0;
    while !promote.finished() {
        for (kernel, _) in &instances {
            read_door(kernel, 4);
        }
        promote.step();
        steps += 1;
        assert!(
            steps <= 64,
            "promotion did not converge: {}",
            promote.status()
        );
    }
    assert_eq!(promote.status(), RolloutStatus::Promoted);
    assert!(promote.alerts().is_empty(), "clean telemetry raised alerts");
    // Every decision is on the fleet hub: one begin, a push and a promote
    // per cohort, no rollback, one complete.
    let after_promote = rollout_counts(&agg);
    assert_eq!(after_promote, [1, 4, 4, 0, 1]);

    // --- Phase 2: a read-revoking candidate is caught on the canary. ---
    let mut rollback = driver(&agg, NARROW_POLICY, 4);
    rollback.step(); // prime the detectors and push the canary
                     // The canary cohort now runs NARROW_POLICY, so its routine door reads
                     // are the denial spike; the rest of the fleet stays green.
    for (i, (kernel, _)) in instances.iter().enumerate() {
        let granted = read_door(kernel, 32);
        if i < PER_COHORT {
            assert_eq!(granted, 0, "canary instance {i} still grants reads");
        } else {
            assert_eq!(granted, 32, "non-canary instance {i} lost reads");
        }
    }
    let status = rollback.step(); // first soak tick observes the spike
    match &status {
        RolloutStatus::RolledBack { cohort, reason } => {
            assert_eq!(cohort, "canary");
            assert!(reason.contains("denial_spike"), "reason: {reason}");
        }
        other => panic!("expected rollback within one soak window, got {other}"),
    }
    let after_rollback = rollout_counts(&agg);
    assert_eq!(
        after_rollback,
        [2, 5, 4, 1, 2],
        "rollback decisions missing from the fleet hub"
    );

    // --- Phase 3: differential oracle against the twins. ---
    // Rolled-back kernels run BASE_POLICY again with their SSM reset to
    // the initial state — exactly a never-upgraded twin's state. Deliver
    // the same synchronizing situation events to both sides and compare
    // verdicts across the whole probe matrix in each state.
    for (i, twin) in twins.iter().enumerate() {
        let (kernel, sack) = &instances[i];
        let (twin_kernel, twin_sack) = twin;
        assert_eq!(verdict_vector(kernel), verdict_vector(twin_kernel));
        for event in ["crash", "rescue_done"] {
            sack.deliver_event(event, Duration::from_secs(1)).unwrap();
            twin_sack
                .deliver_event(event, Duration::from_secs(1))
                .unwrap();
            assert_eq!(
                verdict_vector(kernel),
                verdict_vector(twin_kernel),
                "rolled-back canary {i} diverged from its twin after {event}"
            );
        }
    }
}

/// A randomized, internally consistent snapshot: arbitrary instance
/// generations, tracepoint counts, latency histograms with exact
/// dispatch counts (every timed observation plus some untimed
/// dispatches), and flight-loss counters.
fn arbitrary_snapshot(rng: &mut prop::Rng) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    for _ in 0..rng.range(1, 4) {
        snap.instances
            .insert(rng.below(6) as u64, rng.below(100) as u64);
    }
    snap.points = (0..Tracepoint::ALL.len())
        .map(|_| rng.below(1000) as u64)
        .collect();
    for _ in 0..rng.range(0, 5) {
        let key = rng.below(TELEMETRY_HIST_KEYS) as u16;
        let hist = snap
            .hists
            .entry(key)
            .or_insert_with(HistogramSnapshot::default);
        for _ in 0..rng.range(1, 6) {
            let bucket = rng.below(hist.buckets.len());
            let count = rng.range(1, 50) as u64;
            hist.buckets[bucket] += count;
            hist.sum += count * rng.below(5000) as u64;
            hist.dispatches += count + rng.below(800) as u64;
        }
    }
    snap.flight_total = rng.below(10_000) as u64;
    snap.flight_dropped = rng.below(100) as u64;
    for _ in 0..rng.range(0, 3) {
        snap.flight_dropped_by_producer
            .insert(rng.below(8) as u64, rng.range(1, 40) as u64);
    }
    snap
}

#[test]
fn merge_is_associative_and_commutative() {
    prop::for_cases(200, |rng| {
        let a = arbitrary_snapshot(rng);
        let b = arbitrary_snapshot(rng);
        let c = arbitrary_snapshot(rng);
        let ab_c = a.clone().merged(&b).merged(&c);
        let a_bc = a.clone().merged(&b.clone().merged(&c));
        assert_eq!(ab_c, a_bc, "merge is not associative");
        let ab = a.clone().merged(&b);
        let ba = b.clone().merged(&a);
        assert_eq!(ab, ba, "merge is not commutative");
        // Exact counts add up key by key, timed or not.
        for key in 0..TELEMETRY_HIST_KEYS as u16 {
            let dispatches = |s: &TelemetrySnapshot| s.hists.get(&key).map_or(0, |h| h.dispatches);
            assert_eq!(dispatches(&ab), dispatches(&a) + dispatches(&b));
        }
        assert_eq!(ab.denials(), a.denials() + b.denials());
    });
}

#[test]
fn delta_since_replays_live_captures_exactly() {
    prop::for_cases(12, |rng| {
        let (kernel, sack) = boot(BASE_POLICY);
        let tracing = Arc::clone(sack.tracing().expect("tracing installed"));
        read_door(&kernel, rng.range(1, 30));
        if rng.bool() {
            probe(&kernel, 1000, "/dev/car/door0", AccessMask::WRITE);
        }
        let base = TelemetrySnapshot::capture(&tracing);
        let reads = rng.range(0, 40);
        let granted = read_door(&kernel, reads);
        let mut denied = reads - granted;
        let mut writes = 0;
        for _ in 0..rng.range(0, 6) {
            writes += 1;
            denied += usize::from(!probe(&kernel, 0, "/dev/car/engine/ecu", AccessMask::WRITE));
        }
        if rng.bool() {
            sack.deliver_event("crash", Duration::from_secs(1)).unwrap();
        }
        let current = TelemetrySnapshot::capture(&tracing);
        let delta = current.delta_since(&base);
        assert_eq!(
            base.clone().merged(&delta),
            current,
            "base ⊕ delta failed to reproduce the later capture"
        );
        // The delta's exact counts are the probes made in the interval,
        // however few of them were timed.
        let dispatches: u64 = delta.hists.values().map(|h| h.dispatches).sum();
        assert_eq!(dispatches, (reads + writes) as u64);
        assert_eq!(dispatches, delta.hook_exits());
        assert_eq!(delta.denials(), denied as u64);
    });
}

#[test]
fn instance_death_mid_merge_never_panics() {
    prop::for_cases(8, |rng| {
        let agg = FleetAggregator::new();
        let mut instances = Vec::new();
        for i in 0..6 {
            let (kernel, sack) = boot(BASE_POLICY);
            let cohort = if i % 2 == 0 { "even" } else { "odd" };
            agg.register(&kernel, &sack, cohort);
            read_door(&kernel, 5);
            instances.push(Some((kernel, sack)));
        }
        // A reaper thread drops a random subset of kernels while the main
        // thread folds ticks and renders scrapes: member death must only
        // ever show up as a `dead` count, never a panic.
        let mut doomed = Vec::new();
        for slot in instances.iter_mut() {
            if rng.bool() {
                doomed.push(slot.take());
            }
        }
        let expected_dead = doomed.iter().filter(|d| d.is_some()).count();
        std::thread::scope(|scope| {
            scope.spawn(move || drop(doomed));
            for _ in 0..4 {
                let tick = agg.tick();
                let dead: usize = tick.cohorts.values().map(|c| c.dead).sum();
                assert!(dead <= expected_dead);
                let page = agg.render_prometheus();
                assert!(page.contains("sack_fleet_instances"));
            }
        });
        let final_tick = agg.tick();
        let dead: usize = final_tick.cohorts.values().map(|c| c.dead).sum();
        assert_eq!(dead, expected_dead);
        let live: usize = final_tick.cohorts.values().map(|c| c.live).sum();
        assert_eq!(live, 6 - expected_dead);
    });
}
