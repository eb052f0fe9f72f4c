//! Observer-effect differential property: sack-trace must never change a
//! verdict. The stacked SACK + AppArmor decision sequence is replayed
//! against three otherwise-identical systems — tracing never attached,
//! tracing attached and enabled, and tracing toggled on/off mid-run —
//! and the three verdict transcripts must be byte-identical.
//!
//! This is the contract that makes the tracepoints safe to ship enabled
//! in the field: observation may cost nanoseconds, it may not cost
//! correctness.

use std::sync::Arc;

use sack_suite::prop::{self, Rng};

use sack_apparmor::{AppArmor, PolicyDb};
use sack_core::Sack;
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::trace::TraceHub;
use sack_kernel::types::Pid;
use sack_vehicle::{VEHICLE_APPARMOR_PROFILES, VEHICLE_SACK_POLICY};

const EVENTS: [&str; 6] = [
    "crash",
    "park",
    "start_driving",
    "driver_left",
    "driver_entered",
    "emergency_resolved",
];

/// One scripted operation, generated once and replayed verbatim against
/// every instance.
#[derive(Clone)]
enum Op {
    Deliver(&'static str),
    Probe {
        pid: u32,
        exe: &'static str,
        path: String,
        mask: AccessMask,
    },
}

fn vehicle_path(rng: &mut Rng) -> String {
    let roots = [
        "/dev/car/door0",
        "/dev/car/window1",
        "/dev/car/engine",
        "/dev/audio",
        "/usr/lib/media/codec.so",
        "/var/log/ivi.log",
        "/etc/passwd",
    ];
    (*rng.pick(&roots)).to_string()
}

// `Rng::pick` returns `&&'static str` here; the deref clippy flags as
// redundant is what lets inference settle on `T = &str`.
#[allow(clippy::explicit_auto_deref)]
fn script(rng: &mut Rng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            if rng.bool() && rng.bool() {
                Op::Deliver(*rng.pick(&EVENTS))
            } else {
                Op::Probe {
                    pid: if rng.bool() { 9 } else { 10 },
                    exe: *rng.pick(&["/usr/bin/media_app", "/usr/bin/rescue_daemon"]),
                    path: vehicle_path(rng),
                    mask: *rng.pick(&[
                        AccessMask::READ,
                        AccessMask::WRITE,
                        AccessMask::EXEC,
                        AccessMask::APPEND,
                    ]),
                }
            }
        })
        .collect()
}

/// How this instance drives the tracing switch while the script runs.
enum Tracing {
    /// No `SackTracing` ever attached: the pristine hot path.
    Absent,
    /// Attached and enabled for the whole run.
    Enabled,
    /// Attached, and the hub flips on/off every few operations.
    Toggled,
}

/// Builds a stacked instance, replays the script, and returns the
/// verdict transcript: one `s<bit>a<bit>` pair per probe, `e<bit>` per
/// event delivery (accepted/rejected), in order.
fn transcript(ops: &[Op], tracing: Tracing) -> String {
    let sack = Sack::independent(VEHICLE_SACK_POLICY).unwrap();
    let db = Arc::new(PolicyDb::new());
    db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
    let apparmor = AppArmor::new(Arc::clone(&db));
    sack.set_profile_oracle(Arc::clone(&apparmor));
    apparmor.set_profile(Pid(9), "media_app").unwrap();

    let hub = TraceHub::new();
    match tracing {
        Tracing::Absent => {}
        Tracing::Enabled => {
            sack.install_tracing(Arc::clone(&hub));
            hub.set_enabled(true);
        }
        Tracing::Toggled => {
            sack.install_tracing(Arc::clone(&hub));
        }
    }
    let toggled = matches!(tracing, Tracing::Toggled);

    let mut out = String::new();
    for (i, op) in ops.iter().enumerate() {
        if toggled && i % 3 == 0 {
            hub.set_enabled(!hub.enabled());
        }
        match op {
            Op::Deliver(event) => {
                let ok = sack.deliver_event(event, std::time::Duration::ZERO).is_ok();
                out.push('e');
                out.push(if ok { '1' } else { '0' });
            }
            Op::Probe {
                pid,
                exe,
                path,
                mask,
            } => {
                let ctx = HookCtx::new(
                    Pid(*pid),
                    Credentials::user(1000, 1000),
                    Some(KPath::new(exe).unwrap()),
                );
                let path = KPath::new(path).unwrap();
                let obj = ObjectRef::regular(&path);
                let s = sack.file_open(&ctx, &obj, *mask).is_ok();
                let a = apparmor.file_open(&ctx, &obj, *mask).is_ok();
                out.push('s');
                out.push(if s { '1' } else { '0' });
                out.push('a');
                out.push(if a { '1' } else { '0' });
            }
        }
    }
    out
}

#[test]
fn stacked_verdicts_are_identical_with_tracing_off_on_and_toggled() {
    prop::check(|rng| {
        let ops = script(rng, 48);
        let absent = transcript(&ops, Tracing::Absent);
        let enabled = transcript(&ops, Tracing::Enabled);
        let toggled = transcript(&ops, Tracing::Toggled);
        assert_eq!(
            absent, enabled,
            "enabling tracing changed a stacked verdict"
        );
        assert_eq!(
            absent, toggled,
            "toggling tracing mid-run changed a stacked verdict"
        );
    });
}

/// The same contract through a full kernel boot: decisions reached via
/// the LSM dispatch layer (where `hook_exit` fires and sampled
/// latencies are recorded) must match a never-traced twin syscall for
/// syscall.
#[test]
fn kernel_dispatch_verdicts_survive_tracing_toggle() {
    use sack_kernel::file::OpenFlags;
    use sack_kernel::kernel::KernelBuilder;

    let boot = || {
        let sack = Sack::independent(VEHICLE_SACK_POLICY).unwrap();
        let kernel = KernelBuilder::new()
            .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
            .boot();
        sack.attach(&kernel).unwrap();
        kernel
            .vfs()
            .mkdir_all(&KPath::new("/dev/car").unwrap())
            .unwrap();
        for f in ["/dev/car/door0", "/dev/car/engine", "/dev/audio"] {
            kernel
                .vfs()
                .create_file(
                    &KPath::new(f).unwrap(),
                    sack_kernel::Mode(0o666),
                    sack_kernel::Uid::ROOT,
                    sack_kernel::Gid(0),
                )
                .unwrap();
        }
        (kernel, sack)
    };
    let (traced_kernel, traced_sack) = boot();
    let (plain_kernel, plain_sack) = boot();

    prop::check(|rng| {
        // Flip the traced twin's hub at random; the plain twin has its
        // tracing attached (attach() installs it) but never enabled.
        if rng.bool() {
            traced_kernel
                .trace()
                .set_enabled(!traced_kernel.trace().enabled());
        }
        if rng.bool() {
            let event = *rng.pick(&EVENTS);
            let t = traced_sack
                .deliver_event(event, std::time::Duration::ZERO)
                .is_ok();
            let p = plain_sack
                .deliver_event(event, std::time::Duration::ZERO)
                .is_ok();
            assert_eq!(t, p, "event `{event}` accepted differently");
        } else {
            let path = *rng.pick(&["/dev/car/door0", "/dev/car/engine", "/dev/audio"]);
            let flags = if rng.bool() {
                OpenFlags::read_only()
            } else {
                OpenFlags::write_only()
            };
            let t_proc = traced_kernel.spawn(Credentials::user(1000, 1000));
            let p_proc = plain_kernel.spawn(Credentials::user(1000, 1000));
            let t = t_proc.open(path, flags).is_ok();
            let p = p_proc.open(path, flags).is_ok();
            assert_eq!(
                t, p,
                "open(`{path}`) diverged between traced and untraced kernels"
            );
        }
    });
}
