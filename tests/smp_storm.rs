//! Full-stack SMP storm (DESIGN.md §9): N worker threads drive the LSM
//! stack while the control plane races them with situation transitions,
//! policy reloads, and AppArmor profile replacements.
//!
//! The properties pinned down here are the ones concurrent hooks and a
//! racing control plane must not break:
//!
//! * **No stale grant** — a decision whose verdict is identical in every
//!   state is never spuriously denied (and vice versa) no matter how the
//!   policy churns mid-flight;
//! * **One bump per publish** — `rcu_epoch_bump` fires once per reload or
//!   transition;
//! * **Audit exactly-once** — every refusal increments the denial counter
//!   and produces exactly one audit record, so the two totals agree;
//! * **Serial equivalence** — after the storm quiesces, verdicts match a
//!   freshly-built twin that never saw any concurrency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sack_apparmor::{AppArmor, PolicyDb, Profile};
use sack_core::{Sack, TransitionOutcome};
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::smp;
use sack_kernel::trace::{TraceEvent, TraceHub, Tracepoint};
use sack_kernel::types::Pid;
use sack_lmbench::workload::{
    synthetic_enhanced_policy, synthetic_racing_policy, BENCH_EXE, BENCH_PROFILE,
    RACING_SHARED_PREFIX,
};
use sack_vehicle::{VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY};

const STATES: usize = 4;
const WORKERS: usize = 4;

fn probe_ctx(pid: u32, exe: &str) -> HookCtx {
    HookCtx::new(
        Pid(pid),
        Credentials::user(1000, 1000),
        Some(KPath::new(exe).unwrap()),
    )
}

fn open(module: &dyn SecurityModule, ctx: &HookCtx, path: &str, mask: AccessMask) -> bool {
    let path = KPath::new(path).unwrap();
    let obj = ObjectRef::regular(&path);
    module.file_open(ctx, &obj, mask).is_ok()
}

/// Drives `sack` around the synthetic ring until it sits in state
/// `s{target}`, delivering one `goto_s*` event per hop.
fn drive_to_state(sack: &Sack, target: usize) {
    for _ in 0..STATES {
        let here: usize = sack
            .current_state_name()
            .strip_prefix('s')
            .and_then(|s| s.parse().ok())
            .expect("synthetic state name");
        if here == target {
            return;
        }
        let next = (here + 1) % STATES;
        sack.deliver_event(&format!("goto_s{next}"), Duration::ZERO)
            .unwrap();
    }
    panic!("ring never reached s{target}");
}

/// Tentpole driver: workers hammer the hook path while the control plane
/// alternates policy reloads and situation transitions. The `/shared`
/// paths are granted in *every* state, so any mid-storm denial would be a
/// stale or torn verdict; the per-state paths flap legitimately and are
/// only checked after the storm quiesces.
#[test]
fn storm_with_racing_reloads_never_produces_a_stale_verdict() {
    let policy = synthetic_racing_policy(STATES, 32);
    let sack = Sack::independent(&policy).unwrap();
    let hub = TraceHub::new();
    sack.install_tracing(Arc::clone(&hub));
    hub.set_enabled(true);

    let transitions = AtomicU64::new(0);
    let reloads = AtomicU64::new(0);
    let epoch_before = sack.policy_epoch();
    let denials_before = sack.stats().denials.load(Ordering::SeqCst);

    const HAMMER: usize = 600;
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let ctx = probe_ctx(7000 + w as u32, BENCH_EXE);
            let shared = format!("{RACING_SHARED_PREFIX}/dev{w}");
            let mut shared_ok = 0usize;
            let mut flapping_allowed = 0usize;
            for i in 0..HAMMER {
                if open(&*sack, &ctx, &shared, AccessMask::READ) {
                    shared_ok += 1;
                }
                // State-dependent path: verdict legitimately flaps with the
                // racing control plane; only the totals are interesting.
                let state_path = format!("/protected/area0/s{}/dev", i % STATES);
                if open(&*sack, &ctx, &state_path, AccessMask::WRITE) {
                    flapping_allowed += 1;
                }
            }
            (shared_ok, flapping_allowed)
        },
        |round| {
            if round % 3 == 0 {
                sack.reload_policy(&policy).unwrap();
                reloads.fetch_add(1, Ordering::Relaxed);
            } else {
                let here: usize = sack
                    .current_state_name()
                    .strip_prefix('s')
                    .and_then(|s| s.parse().ok())
                    .unwrap();
                let next = (here + 1) % STATES;
                let outcome = sack
                    .deliver_event(&format!("goto_s{next}"), Duration::ZERO)
                    .unwrap();
                assert!(matches!(outcome, TransitionOutcome::Transitioned { .. }));
                transitions.fetch_add(1, Ordering::Relaxed);
            }
        },
    );

    // The always-granted path never saw a stale or torn denial.
    for (w, (shared_ok, _)) in outcome.results.iter().enumerate() {
        assert_eq!(
            *shared_ok, HAMMER,
            "worker {w}: /shared verdict flipped during epoch churn"
        );
    }
    assert!(outcome.control_rounds >= 1);

    // Every refusal the workers saw was counted and audited once.
    let refused: u64 = outcome
        .results
        .iter()
        .map(|(_, allowed)| (HAMMER - allowed) as u64)
        .sum();
    assert_eq!(
        sack.stats().denials.load(Ordering::SeqCst) - denials_before,
        refused
    );
    assert_eq!(sack.audit().total(), refused);
    assert_eq!(hub.fired(Tracepoint::AuditEmit), refused);

    // The control plane is the only epoch source: one bump per transition
    // plus one per reload, each traced once.
    let bumps = transitions.load(Ordering::Relaxed) + reloads.load(Ordering::Relaxed);
    assert_eq!(sack.policy_epoch() - epoch_before, bumps);
    assert_eq!(hub.fired(Tracepoint::RcuEpochBump), sack.policy_epoch());

    // Quiesced: walk the ring and compare every per-state verdict against
    // a twin that was built serially and never raced anything.
    let serial = Sack::independent(&policy).unwrap();
    sack.reload_policy(&policy).unwrap();
    let ctx = probe_ctx(7999, BENCH_EXE);
    for state in 0..STATES {
        drive_to_state(&sack, state);
        drive_to_state(&serial, state);
        for probe_state in 0..STATES {
            let path = format!("/protected/area0/s{probe_state}/dev");
            let stormed = open(&*sack, &ctx, &path, AccessMask::WRITE);
            let expected = open(&*serial, &ctx, &path, AccessMask::WRITE);
            assert_eq!(
                stormed, expected,
                "state s{state}, probe {path}: storm survivor diverged from serial twin"
            );
            assert_eq!(
                stormed,
                probe_state == state,
                "state s{state}, probe {path}"
            );
        }
        let shared = format!("{RACING_SHARED_PREFIX}/post");
        assert!(open(&*sack, &ctx, &shared, AccessMask::READ));
    }
}

/// Audit exactly-once under concurrency: every worker repeats the same
/// denied access hundreds of times while the control plane races reloads
/// and transitions. Exec is granted in no state, so every attempt is
/// refused; each refusal must bump the denial counter and produce exactly
/// one audit record with its own sequence number.
#[test]
fn denial_storm_under_reloads_audits_every_refusal_exactly_once() {
    let policy = synthetic_racing_policy(STATES, 8);
    let sack = Sack::independent(&policy).unwrap();
    let hub = TraceHub::new();
    sack.install_tracing(Arc::clone(&hub));
    hub.set_enabled(true);
    let seqs = Arc::new(Mutex::new(Vec::new()));
    {
        let seqs = Arc::clone(&seqs);
        hub.register(
            Tracepoint::AuditEmit,
            Arc::new(move |ev| {
                if let TraceEvent::AuditEmit { seq } = ev {
                    seqs.lock().unwrap().push(*seq);
                }
            }),
        );
    }

    // Protected in every state (its glob is in the policy), executable in
    // none: a guaranteed denial whatever the control plane does.
    const DENIED: &str = "/protected/area0/s1/dev";

    const HAMMER: usize = 500;
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let ctx = probe_ctx(7100 + w as u32, BENCH_EXE);
            let mut denied = 0usize;
            for _ in 0..HAMMER {
                if !open(&*sack, &ctx, DENIED, AccessMask::EXEC) {
                    denied += 1;
                }
            }
            assert_eq!(denied, HAMMER, "worker {w}: denial verdict flipped");
            denied
        },
        |round| {
            if round % 3 == 0 {
                sack.reload_policy(&policy).unwrap();
            } else {
                let here: usize = sack
                    .current_state_name()
                    .strip_prefix('s')
                    .and_then(|s| s.parse().ok())
                    .unwrap();
                sack.deliver_event(&format!("goto_s{}", (here + 1) % STATES), Duration::ZERO)
                    .unwrap();
            }
        },
    );
    assert!(outcome.control_rounds >= 1);

    let refused = (WORKERS * HAMMER) as u64;
    assert_eq!(outcome.results.iter().sum::<usize>() as u64, refused);
    assert_eq!(sack.stats().denials.load(Ordering::SeqCst), refused);
    assert_eq!(sack.audit().total(), refused);
    // One record per refusal: the emitted sequence numbers are exactly
    // 0..refused, none missing and none repeated.
    let mut seqs = seqs.lock().unwrap().clone();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..refused).collect::<Vec<_>>());
}

/// `BENCH_PROFILE` with one extra rule stamped by `round`: a body no
/// earlier round published, so its install compiles exactly once.
fn bench_variant(round: u64) -> String {
    BENCH_PROFILE.replace(
        "    network unix,",
        &format!("    /var/round{round}/x r,\n    network unix,"),
    )
}

/// Eager compilation under storm: every control-plane replacement
/// publishes a bundle with a fresh rule body, compiled before the table
/// swaps in, while the workers re-attach the current profile and drive
/// the hook through its DFA. The base grant must hold in every round,
/// the `profile_recompile` tracepoint must fire exactly once per
/// published bundle (one distinct body each), and the quiesced table must
/// agree with an eager serial twin.
#[test]
fn eager_replacement_storm_compiles_each_published_body_exactly_once() {
    let db = Arc::new(PolicyDb::new());
    let hub = TraceHub::new();
    db.set_trace_hub(Arc::clone(&hub));
    hub.set_enabled(true);
    db.load_text(BENCH_PROFILE).unwrap();
    assert_eq!(db.compile_count(), 1, "the load compiles its one body");
    let apparmor = AppArmor::new(Arc::clone(&db));

    const HAMMER: usize = 400;
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let pid = Pid(7300 + w as u32);
            let ctx = probe_ctx(pid.0, BENCH_EXE);
            let path = format!("/tmp/bench/eager{w}");
            let mut ok = 0usize;
            for _ in 0..HAMMER {
                // Attach whatever `bench` the table holds right now.
                apparmor.set_profile(pid, "bench").unwrap();
                if open(&*apparmor, &ctx, &path, AccessMask::WRITE) {
                    ok += 1;
                }
            }
            ok
        },
        |round| {
            // Atomic bundle replacement with a body no table held before.
            db.load_text(&bench_variant(round)).unwrap();
        },
    );

    for (w, ok) in outcome.results.iter().enumerate() {
        assert_eq!(
            *ok, HAMMER,
            "worker {w}: grant flickered during profile replacements"
        );
    }
    assert!(outcome.control_rounds >= 1);

    // Every published bundle carries exactly one fresh body, and the
    // install compiles it exactly once before publishing. Rounds are
    // numbered from 0, so the last one published `bench_variant(rounds - 1)`.
    let publishes = outcome.control_rounds + 1;
    let fired = hub.fired(Tracepoint::ProfileRecompile);
    assert_eq!(
        fired, publishes,
        "profile_recompile fired {fired} times across {publishes} published bundles"
    );
    assert_eq!(
        db.compile_count(),
        fired,
        "every DFA build must emit exactly one tracepoint"
    );

    // Quiesced: the stormed table answers exactly like an eager twin that
    // loaded the final bundle without any concurrency.
    let last = outcome.control_rounds - 1;
    let serial_db = Arc::new(PolicyDb::new());
    serial_db.set_compile_workers(1);
    serial_db.load_text(&bench_variant(last)).unwrap();
    let serial = AppArmor::new(Arc::clone(&serial_db));
    serial.set_profile(Pid(7300), "bench").unwrap();
    apparmor.set_profile(Pid(7300), "bench").unwrap();
    let ctx = probe_ctx(7300, BENCH_EXE);
    for (path, mask) in [
        ("/tmp/bench/post", AccessMask::WRITE),
        ("/etc/passwd", AccessMask::READ),
        ("/etc/sub/dir", AccessMask::READ),
        ("/dev/car/door0", AccessMask::READ),
        ("/dev/car/door0", AccessMask::WRITE),
        ("/var/secret", AccessMask::READ),
        (&format!("/var/round{last}/x"), AccessMask::READ),
        ("/usr/lib/libc.so", AccessMask::READ),
    ] {
        assert_eq!(
            open(&*apparmor, &ctx, path, mask),
            open(&*serial, &ctx, path, mask),
            "probe {path}: stormed table diverged from eager serial twin"
        );
    }
}

/// Enhanced mode: the control plane replaces the AppArmor profile bundle
/// (the `apparmor_parser -r` path) and transitions the SSM while confined
/// traffic storms the hooks. Base-profile grants must hold throughout, and
/// after quiescing the patched profile must match a serially-built twin.
#[test]
fn profile_replacement_races_enhanced_traffic_without_torn_verdicts() {
    let policy = synthetic_enhanced_policy(STATES, 16);
    let build = || {
        let db = Arc::new(PolicyDb::new());
        db.load_text(BENCH_PROFILE).unwrap();
        let apparmor = AppArmor::new(db);
        let sack = Sack::enhanced_apparmor(&policy, Arc::clone(&apparmor)).unwrap();
        (sack, apparmor)
    };
    let (sack, apparmor) = build();
    apparmor.set_profile(Pid(7200), "bench").unwrap();

    const HAMMER: usize = 400;
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let ctx = probe_ctx(7200, BENCH_EXE);
            let path = format!("/tmp/bench/storm{w}");
            let mut ok = 0usize;
            for _ in 0..HAMMER {
                if open(&*apparmor, &ctx, &path, AccessMask::WRITE) {
                    ok += 1;
                }
            }
            ok
        },
        |round| {
            if round % 2 == 0 {
                // Atomic bundle replacement: reverts any situation patch
                // until the next transition re-applies it.
                apparmor.policy().load_text(BENCH_PROFILE).unwrap();
            } else {
                let here: usize = sack
                    .current_state_name()
                    .strip_prefix('s')
                    .and_then(|s| s.parse().ok())
                    .unwrap();
                sack.deliver_event(&format!("goto_s{}", (here + 1) % STATES), Duration::ZERO)
                    .unwrap();
            }
        },
    );

    // `/tmp/**` is in the base profile and in every replacement bundle:
    // a single torn read during the atomic swap would show up here.
    for (w, ok) in outcome.results.iter().enumerate() {
        assert_eq!(*ok, HAMMER, "worker {w}: base-profile grant flickered");
    }

    // Quiesce: one more real transition re-applies the situation patch on
    // top of whatever bundle the control plane left behind, after which the
    // stormed instance must agree with a serial twin in the same state.
    let here: usize = sack
        .current_state_name()
        .strip_prefix('s')
        .and_then(|s| s.parse().ok())
        .unwrap();
    let target = (here + 1) % STATES;
    sack.deliver_event(&format!("goto_s{target}"), Duration::ZERO)
        .unwrap();

    let (serial_sack, serial_aa) = build();
    serial_aa.set_profile(Pid(7200), "bench").unwrap();
    drive_to_state(&serial_sack, target);
    assert_eq!(sack.current_state_name(), serial_sack.current_state_name());

    let ctx = probe_ctx(7200, BENCH_EXE);
    for probe_state in 0..STATES {
        for area in 0..2 {
            let path = format!("/protected/area{area}/s{probe_state}/dev");
            let stormed = open(&*apparmor, &ctx, &path, AccessMask::WRITE);
            let expected = open(&*serial_aa, &ctx, &path, AccessMask::WRITE);
            assert_eq!(
                stormed, expected,
                "probe {path}: stormed profile table diverged from serial twin"
            );
            assert_eq!(stormed, probe_state == target, "probe {path}");
        }
    }
    assert!(open(&*apparmor, &ctx, "/tmp/bench/post", AccessMask::READ));
    assert!(!open(&*apparmor, &ctx, "/var/secret", AccessMask::READ));
}

/// The vehicle apps, each the name of its profile and `/usr/bin/` binary.
const VEHICLE_APPS: [&str; 3] = ["media_app", "navi_app", "rescue_daemon"];

/// A walk from `parking_with_driver` through every vehicle state and back.
const VEHICLE_WALK: [&str; 6] = [
    "crash",
    "emergency_resolved",
    "driver_left",
    "driver_entered",
    "start_driving",
    "park",
];

/// The vehicle SSM with a situation rule for every app in every state.
/// Under the shipped mapping an app's base profile is itself the whole
/// body of the states that grant it nothing, so a half-applied transition
/// (old rules retracted, new ones not yet installed) could not be told
/// apart from a finished one.
fn every_state_vehicle_policy() -> String {
    let ssm = &VEHICLE_ENHANCED_POLICY[..VEHICLE_ENHANCED_POLICY.find("permissions").unwrap()];
    let states = [
        "driving",
        "parking_with_driver",
        "parking_without_driver",
        "emergency",
    ];
    let each = |f: &dyn Fn(&str) -> String| states.map(f).concat();
    format!(
        "{ssm}permissions {{{}}}\nstate_per {{{}}}\nper_rules {{{}\n}}\n",
        each(&|s| format!(" IN_{s};")),
        each(&|s| format!(" {s}: IN_{s};")),
        each(&|s| {
            let rules = VEHICLE_APPS.map(|a| format!(" allow subject=profile:{a} /run/{s}/{a} r;"));
            format!("\n    IN_{s}:{}", rules.concat())
        }),
    )
}

/// Exec, fork and `set_profile` race enhanced transitions on the vehicle
/// bundle. Each looks its snapshot up inside the confinement update, so a
/// snapshot read right after the write is the whole body of a state the
/// walk was in while the write ran: never a transition's retracted
/// in-between, and never the state before a transition whose confinement
/// refresh had already finished (the lost update). Once the threads join,
/// every task holds the table's current snapshot.
#[test]
fn confinement_writes_race_enhanced_transitions_without_lost_updates() {
    let policy = every_state_vehicle_policy();
    let build = || {
        let db = Arc::new(PolicyDb::new());
        db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
        let apparmor = AppArmor::new(Arc::clone(&db));
        let sack = Sack::enhanced_apparmor(&policy, Arc::clone(&apparmor)).unwrap();
        (db, apparmor, sack)
    };
    // `bodies[k % 6][app]`: the app's profile after `k` steps of the walk,
    // from a serial twin.
    let (twin_db, _, twin) = build();
    let mut bodies: Vec<Vec<Profile>> = Vec::new();
    for event in VEHICLE_WALK {
        bodies.push(
            VEHICLE_APPS
                .iter()
                .map(|app| twin_db.get(app).unwrap().profile().clone())
                .collect(),
        );
        twin.deliver_event(event, Duration::ZERO).unwrap();
    }

    let (db, apparmor, sack) = build();
    // Transitions begun and finished (confinement refreshed included).
    let begun = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    const HAMMER: usize = 300;
    const PIDS: u32 = 8;
    let pid_of = |w: usize, slot: u32| Pid(9000 + 100 * w as u32 + slot);
    // Workers report instead of panicking: a panicking worker would leave
    // the control loop running and hang the storm.
    let outcome = smp::run_with_control(
        WORKERS,
        |w| {
            let mut torn = Vec::new();
            for i in 0..HAMMER {
                let app = (w + i) % VEHICLE_APPS.len();
                let exe = format!("/usr/bin/{}", VEHICLE_APPS[app]);
                let parent = pid_of(w, 0);
                let child = pid_of(w, 1 + i as u32 % (PIDS - 2));
                let admin = pid_of(w, PIDS - 1);
                let ctx = probe_ctx(parent.0, &exe);
                apparmor.bprm_committed(&ctx, &KPath::new(&exe).unwrap());
                apparmor.task_alloc(&ctx, child).unwrap();
                apparmor.set_profile(admin, VEHICLE_APPS[app]).unwrap();
                for pid in [parent, child, admin] {
                    let done = finished.load(Ordering::SeqCst);
                    let snapshot = apparmor.confining(pid);
                    let started = begun.load(Ordering::SeqCst);
                    let fresh = snapshot.as_ref().is_some_and(|s| {
                        (done..=started)
                            .any(|k| bodies[k as usize % bodies.len()][app] == *s.profile())
                    });
                    if !fresh {
                        torn.push(format!("{pid:?} after {done}..={started}: {snapshot:?}"));
                    }
                }
            }
            torn
        },
        |round| {
            let event = VEHICLE_WALK[round as usize % VEHICLE_WALK.len()];
            begun.fetch_add(1, Ordering::SeqCst);
            sack.deliver_event(event, Duration::ZERO).unwrap();
            finished.fetch_add(1, Ordering::SeqCst);
        },
    );
    assert!(outcome.control_rounds >= 1);
    for torn in &outcome.results {
        assert!(torn.is_empty(), "stale or torn snapshots: {torn:?}");
    }

    for w in 0..WORKERS {
        for slot in 0..PIDS {
            let Some(snapshot) = apparmor.confining(pid_of(w, slot)) else {
                continue;
            };
            let name = &snapshot.profile().name;
            assert!(
                Arc::ptr_eq(&snapshot, &db.get(name).unwrap()),
                "pid {:?} kept a stale `{name}` snapshot",
                pid_of(w, slot)
            );
        }
    }
}

/// Two writers race `crash` against `emergency_resolved` on the vehicle
/// enhanced bundle, one pair per round from `parking_with_driver`. When
/// `crash` steps the SSM first, `emergency_resolved` can step it back and
/// publish its AppArmor state before `crash` publishes its own. The
/// delivery lock holds each SSM step and its publish together, so after
/// every round `rescue_daemon`'s profile is the body of the state the SSM
/// is in.
#[test]
fn concurrent_enhanced_deliveries_publish_in_ssm_order() {
    let build = || {
        let db = Arc::new(PolicyDb::new());
        db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
        let apparmor = AppArmor::new(Arc::clone(&db));
        let sack = Sack::enhanced_apparmor(VEHICLE_ENHANCED_POLICY, apparmor).unwrap();
        (db, sack)
    };
    let rescue_body = |db: &PolicyDb| db.get("rescue_daemon").unwrap().profile().clone();
    let (twin_db, twin) = build();
    let parked = rescue_body(&twin_db);
    twin.deliver_event("crash", Duration::ZERO).unwrap();
    let emergency = rescue_body(&twin_db);
    assert_ne!(
        parked, emergency,
        "the door rule must tell the states apart"
    );

    let (db, sack) = build();
    const ROUNDS: usize = 3000;
    let barrier = std::sync::Barrier::new(3);
    let mut mismatches = Vec::new();
    std::thread::scope(|s| {
        for event in ["crash", "emergency_resolved"] {
            let (sack, barrier) = (&sack, &barrier);
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    barrier.wait();
                    sack.deliver_event(event, Duration::ZERO).unwrap();
                    barrier.wait();
                }
            });
        }
        for round in 0..ROUNDS {
            barrier.wait();
            barrier.wait();
            let state = sack.current_state_name();
            let expected = if state == "emergency" {
                &emergency
            } else {
                &parked
            };
            if rescue_body(&db) != *expected {
                mismatches.push(format!("round {round}: SSM in `{state}`"));
            }
            if state == "emergency" {
                sack.deliver_event("emergency_resolved", Duration::ZERO)
                    .unwrap();
            }
        }
    });
    assert!(
        mismatches.is_empty(),
        "{} of {ROUNDS} rounds left rescue_daemon's profile out of step with the SSM: {:?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}
