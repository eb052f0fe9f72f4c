//! Exact counts, sampled latency (DESIGN.md §8).
//!
//! The LSM dispatch emits `hook_exit` on every traced dispatch but reads
//! the clock on only about one in [`SAMPLE_MEAN_GAP`] per thread. These
//! tests pin the contract that makes that safe:
//!
//! * periodic op patterns cannot hide a hook or a verdict from the
//!   latency sample (a random gap, not a fixed stride);
//! * per-(hook, verdict) `dispatches` stay exact under SMP load, sum to
//!   the `hook_exit` fired count, and their deny keys sum to the stack's
//!   own denial counter;
//! * a thread's first traced dispatch is always timed.

use std::sync::Arc;

use sack_core::trace::SackTracing;
use sack_kernel::cred::Credentials;
use sack_kernel::error::{Errno, KernelError, KernelResult};
use sack_kernel::lsm::{AccessMask, HookCtx, LsmStack, ObjectRef, SecurityModule, SAMPLE_MEAN_GAP};
use sack_kernel::path::KPath;
use sack_kernel::smp::run_workers;
use sack_kernel::trace::{TraceHook, TraceHub, TraceVerdict, Tracepoint};
use sack_kernel::types::Pid;

/// Allows everything except `file_ioctl` with an odd command.
struct OddIoctlDenied;

impl SecurityModule for OddIoctlDenied {
    fn name(&self) -> &'static str {
        "odd-ioctl-denied"
    }

    fn file_ioctl(&self, _: &HookCtx, _: &ObjectRef<'_>, cmd: u32) -> KernelResult<()> {
        if cmd % 2 == 1 {
            Err(KernelError::with_context(Errno::EACCES, "odd ioctl"))
        } else {
            Ok(())
        }
    }
}

/// A traced stack with a recorder attached.
fn traced_stack() -> (LsmStack, Arc<SackTracing>) {
    let hub = TraceHub::new();
    let tracing = SackTracing::attach(Arc::clone(&hub));
    hub.set_enabled(true);
    (
        LsmStack::with_trace(vec![Arc::new(OddIoctlDenied)], hub),
        tracing,
    )
}

fn ctx() -> HookCtx {
    HookCtx::new(Pid(1), Credentials::user(100, 100), None)
}

/// Each key's sample share — timed over total dispatches — must lie
/// within this fraction of `1 / SAMPLE_MEAN_GAP`. At 32 768 dispatches
/// per key the expected 2 048 samples have a standard deviation near 45,
/// so ±20 % is about nine of them.
const SHARE_TOLERANCE: f64 = 0.20;

fn assert_sampled_fairly(tracing: &SackTracing, keys: &[(TraceHook, TraceVerdict)]) {
    let expected = 1.0 / f64::from(SAMPLE_MEAN_GAP);
    for &(hook, verdict) in keys {
        let snap = tracing.histogram(hook, verdict);
        assert_eq!(snap.dispatches, 32_768, "{hook}/{verdict}");
        assert!(snap.count() > 0, "{hook}/{verdict} was never timed");
        let share = snap.count() as f64 / snap.dispatches as f64;
        assert!(
            (share - expected).abs() <= expected * SHARE_TOLERANCE,
            "{hook}/{verdict}: {} of {} dispatches timed (share {share:.4}, expected \
             {expected:.4} ± {:.0} %)",
            snap.count(),
            snap.dispatches,
            SHARE_TOLERANCE * 100.0
        );
    }
}

#[test]
fn two_hook_alternation_samples_both_hooks() {
    let (stack, tracing) = traced_stack();
    let path = KPath::new("/dev/car/door0").unwrap();
    let obj = ObjectRef::regular(&path);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..32_768 {
                stack.file_open(&ctx(), &obj, AccessMask::READ).unwrap();
                stack
                    .file_permission(&ctx(), &obj, AccessMask::READ)
                    .unwrap();
            }
        });
    });
    assert_sampled_fairly(
        &tracing,
        &[
            (TraceHook::FileOpen, TraceVerdict::Allow),
            (TraceHook::FilePermission, TraceVerdict::Allow),
        ],
    );
}

#[test]
fn allow_deny_alternation_samples_both_verdicts() {
    let (stack, tracing) = traced_stack();
    let path = KPath::new("/dev/car/door0").unwrap();
    let obj = ObjectRef::regular(&path);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..65_536u32 {
                let verdict = stack.file_ioctl(&ctx(), &obj, i % 2);
                assert_eq!(verdict.is_err(), i % 2 == 1);
            }
        });
    });
    assert_sampled_fairly(
        &tracing,
        &[
            (TraceHook::FileIoctl, TraceVerdict::Allow),
            (TraceHook::FileIoctl, TraceVerdict::Deny),
        ],
    );
    assert_eq!(stack.stats().denials(), 32_768);
}

#[test]
fn smp_dispatch_counts_are_exact() {
    const WORKERS: usize = 4;
    const OPS: u32 = 5_000;
    let (stack, tracing) = traced_stack();
    let path = KPath::new("/dev/car/door0").unwrap();
    // Each worker runs its own op mix and reports what it dispatched per
    // (hook, verdict) key: (open allow, ioctl allow, ioctl deny, task_free).
    let made = run_workers(WORKERS, |w| {
        let obj = ObjectRef::regular(&path);
        let mut made = [0u64; 4];
        for i in 0..OPS {
            match (i + w as u32) % 5 {
                0 | 1 => {
                    stack.file_open(&ctx(), &obj, AccessMask::WRITE).unwrap();
                    made[0] += 1;
                }
                2 => {
                    let cmd = i / 5 + w as u32;
                    let denied = stack.file_ioctl(&ctx(), &obj, cmd).is_err();
                    made[1 + usize::from(denied)] += 1;
                }
                3 => {
                    let _ = stack.file_ioctl(&ctx(), &obj, 1);
                    made[2] += 1;
                }
                _ => {
                    stack.task_free(Pid(i));
                    made[3] += 1;
                }
            }
        }
        made
    });
    let keys = [
        (TraceHook::FileOpen, TraceVerdict::Allow),
        (TraceHook::FileIoctl, TraceVerdict::Allow),
        (TraceHook::FileIoctl, TraceVerdict::Deny),
        (TraceHook::TaskFree, TraceVerdict::Allow),
    ];
    for (k, &(hook, verdict)) in keys.iter().enumerate() {
        let expected: u64 = made.iter().map(|m| m[k]).sum();
        let snap = tracing.histogram(hook, verdict);
        assert_eq!(snap.dispatches, expected, "{hook}/{verdict}");
        assert!(snap.count() <= snap.dispatches, "{hook}/{verdict}");
    }
    let snaps = tracing.histogram_snapshots();
    assert_eq!(snaps.len(), keys.len(), "no other key was dispatched");
    let total: u64 = snaps.iter().map(|(_, _, s)| s.dispatches).sum();
    assert_eq!(total, u64::from(OPS) * WORKERS as u64);
    assert_eq!(total, stack.trace().fired(Tracepoint::HookExit));
    let denied: u64 = snaps
        .iter()
        .filter(|(_, verdict, _)| *verdict == TraceVerdict::Deny)
        .map(|(_, _, s)| s.dispatches)
        .sum();
    assert_eq!(denied, stack.stats().denials());
}

#[test]
fn first_traced_dispatch_on_a_fresh_thread_is_timed() {
    const THREADS: u64 = 8;
    let (stack, tracing) = traced_stack();
    let path = KPath::new("/dev/car/door0").unwrap();
    let obj = ObjectRef::regular(&path);
    for _ in 0..THREADS {
        std::thread::scope(|s| {
            s.spawn(|| stack.file_ioctl(&ctx(), &obj, 1).unwrap_err());
        });
    }
    // A notification hook's first dispatch goes through the same sampler.
    std::thread::scope(|s| {
        s.spawn(|| stack.task_free(Pid(7)));
    });
    let deny = tracing.histogram(TraceHook::FileIoctl, TraceVerdict::Deny);
    assert_eq!((deny.dispatches, deny.count()), (THREADS, THREADS));
    let free = tracing.histogram(TraceHook::TaskFree, TraceVerdict::Allow);
    assert_eq!((free.dispatches, free.count()), (1, 1));
}
