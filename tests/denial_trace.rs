//! One trace record per denial (DESIGN.md §8).
//!
//! On a traced SACK + AppArmor stack a refusal fires exactly one
//! `hook_exit`, denied, naming the stacked module that said no; that event
//! is the denial's one flight record. SACK's audit ring keeps the full
//! record (state, path, exe, sequence). An allowed dispatch still fires
//! its `hook_exit` but writes no flight record.

use std::sync::Arc;

use sack_apparmor::{AppArmor, PolicyDb};
use sack_core::Sack;
use sack_kernel::cred::Credentials;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::trace::{TraceEvent, TraceHook, TraceVerdict, Tracepoint};
use sack_kernel::types::Pid;
use sack_lmbench::workload::{synthetic_enhanced_policy, BENCH_EXE, BENCH_PROFILE};

const POLICY: &str = r#"
    states { normal = 0; emergency = 1; }
    events { crash; }
    transitions { normal -crash-> emergency; }
    initial normal;
    permissions { P; }
    state_per { emergency: P; }
    per_rules { P: allow subject=* /dev/car/** wi; }
"#;

const DOOR: &str = "/dev/car/door0";

/// Boots `[sack, apparmor]` (the paper's `CONFIG_LSM="SACK,AppArmor"`)
/// with tracing on.
fn boot(sack: &Arc<Sack>, apparmor: &Arc<AppArmor>) -> Arc<Kernel> {
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(sack) as Arc<dyn SecurityModule>)
        .security_module(Arc::clone(apparmor) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    kernel.trace().set_enabled(true);
    kernel
}

fn ctx(pid: u32, exe: &str) -> HookCtx {
    HookCtx::new(
        Pid(pid),
        Credentials::user(1000, 1000),
        Some(KPath::new(exe).unwrap()),
    )
}

fn file_open(kernel: &Kernel, ctx: &HookCtx, path: &str, mask: AccessMask) -> bool {
    let path = KPath::new(path).unwrap();
    kernel
        .lsm()
        .file_open(ctx, &ObjectRef::regular(&path), mask)
        .is_ok()
}

/// (flight records, `hook_exit` fired, audit records).
fn counts(sack: &Sack) -> (u64, u64, u64) {
    let tracing = sack.tracing().unwrap();
    (
        tracing.flight().total(),
        tracing.hub().fired(Tracepoint::HookExit),
        sack.audit().total(),
    )
}

/// The newest flight record's event.
fn last_flight_event(sack: &Sack) -> TraceEvent {
    let entries = sack.tracing().unwrap().flight().snapshot();
    entries.last().expect("flight is empty").event.clone()
}

#[test]
fn sack_denial_is_one_flight_record_one_hook_exit_and_one_audit_record() {
    let apparmor = AppArmor::new(Arc::new(PolicyDb::new()));
    let sack = Sack::independent(POLICY).unwrap();
    let kernel = boot(&sack, &apparmor);
    let app = ctx(4100, "/usr/bin/media_app");

    let before = counts(&sack);
    assert!(!file_open(&kernel, &app, DOOR, AccessMask::WRITE));
    let after = counts(&sack);
    assert_eq!(after.0, before.0 + 1, "one flight record per denial");
    assert_eq!(after.1, before.1 + 1, "one hook_exit per dispatch");
    assert_eq!(after.2, before.2 + 1, "one audit record per SACK denial");
    assert!(matches!(
        last_flight_event(&sack),
        TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Deny,
            module: Some("sack"),
            ..
        }
    ));
    let flight = sack.tracing().unwrap().flight().render();
    let last = flight.lines().last().unwrap();
    assert!(
        last.contains("hook_exit hook=file_open verdict=deny module=sack"),
        "{flight}"
    );

    // An allowed dispatch fires its hook_exit and records nothing.
    let before = counts(&sack);
    assert!(file_open(&kernel, &app, "/usr/lib/x", AccessMask::READ));
    let after = counts(&sack);
    assert_eq!(after, (before.0, before.1 + 1, before.2));

    // The per-(hook, verdict) counts still sum to hook_exit fired.
    let tracing = sack.tracing().unwrap();
    let dispatches: u64 = tracing
        .histogram_snapshots()
        .iter()
        .map(|(_, _, snap)| snap.dispatches)
        .sum();
    assert_eq!(dispatches, tracing.hub().fired(Tracepoint::HookExit));
}

#[test]
fn enhanced_mode_apparmor_denial_names_apparmor() {
    let db = Arc::new(PolicyDb::new());
    db.load_text(BENCH_PROFILE).unwrap();
    let apparmor = AppArmor::new(db);
    let sack =
        Sack::enhanced_apparmor(&synthetic_enhanced_policy(4, 16), Arc::clone(&apparmor)).unwrap();
    let kernel = boot(&sack, &apparmor);
    let bench = ctx(4200, BENCH_EXE);
    kernel
        .lsm()
        .bprm_committed(&bench, &KPath::new(BENCH_EXE).unwrap());

    // The bench profile grants /dev/car/** read only.
    let before = counts(&sack);
    assert!(!file_open(&kernel, &bench, DOOR, AccessMask::WRITE));
    let after = counts(&sack);
    assert_eq!(after.0, before.0 + 1, "one flight record per denial");
    assert_eq!(after.1, before.1 + 1, "one hook_exit per dispatch");
    assert_eq!(after.2, before.2, "SACK audits only its own refusals");
    assert!(matches!(
        last_flight_event(&sack),
        TraceEvent::HookExit {
            verdict: TraceVerdict::Deny,
            module: Some("apparmor"),
            ..
        }
    ));

    let before = counts(&sack);
    assert!(file_open(&kernel, &bench, DOOR, AccessMask::READ));
    let after = counts(&sack);
    assert_eq!(after, (before.0, before.1 + 1, before.2));
}
