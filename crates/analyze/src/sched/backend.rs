//! [`SchedBackend`]: the executor-controlled instance of the
//! `sack_kernel::sync::shim::Backend` seam.
//!
//! Every atomic load/store/CAS, every mutex lock/unlock and every
//! pointer-lifecycle event performed by the **real** `Rcu` code becomes a
//! *yield point*: the calling thread
//! announces the pending operation to the run's [`Controller`] and parks
//! until the deterministic scheduler grants it the turn. Between grants
//! exactly one thread runs, so the executor serialises the scenario into
//! one of the bounded interleavings it is enumerating — the operations
//! themselves still execute on plain `std::sync` primitives underneath
//! (the serialisation makes the underlying memory orderings irrelevant;
//! the executor checks the protocol logic under sequential consistency,
//! and the ThreadSanitizer lane in `scripts/check.sh --sanitize` covers
//! the weak-memory side).
//!
//! The association between a thread and its controller is a thread-local
//! set by the executor when it spawns scenario threads (and on the
//! controller thread itself during scenario setup and final checks, with
//! no thread id, so setup operations record lifecycle events without
//! being scheduled). Code running with no context at all — e.g. unit
//! tests of other modules that happen to touch a `SchedBackend` type —
//! degrades to uninstrumented passthrough.

use std::cell::RefCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sack_kernel::sync::shim::{RawAtomicPtr, RawAtomicUsize, RawMutex};
use sack_kernel::sync::{Backend, Mutation};

use super::executor::{Controller, OpKind};

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Per-thread executor association: which controller schedules this
/// thread, and the thread's scenario id (`None` on the controller thread,
/// whose shim operations are recorded but never parked).
#[derive(Clone)]
pub(super) struct ThreadCtx {
    pub(super) controller: Arc<Controller>,
    pub(super) thread: Option<usize>,
}

pub(super) fn set_ctx(ctx: Option<ThreadCtx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

fn with_ctx<R>(f: impl FnOnce(Option<&ThreadCtx>) -> R) -> R {
    CTX.with(|c| f(c.borrow().as_ref()))
}

/// True when the calling thread is a scenario thread under executor
/// control — used by the quiet panic hook to suppress backtraces for
/// panics the executor catches and converts into violations.
pub(super) fn in_scenario_thread() -> bool {
    with_ctx(|ctx| ctx.is_some_and(|c| c.thread.is_some()))
}

/// Announces `op` on object `obj` and waits for the scheduler's grant.
/// No-op without a context; record-only (no parking) on the controller
/// thread.
fn point(kind: OpKind, obj: u64, label: &'static str) {
    // During unwinding (a `SchedAbort` or a scenario-body panic) drops
    // still run shim operations — e.g. a hazard `ReadGuard` releasing its
    // slot. Scheduling them would panic inside the unwind (a process
    // abort); the run is being abandoned, so pass through instead.
    if std::thread::panicking() {
        return;
    }
    with_ctx(|ctx| {
        if let Some(ctx) = ctx {
            ctx.controller.point(ctx.thread, kind, obj, label);
        }
    });
}

/// Object-id allocation. Under a controller the id comes from the run's
/// own counter, so a replayed execution assigns identical ids to the
/// objects constructed in identical order — the property that lets DFS
/// frames recorded in one execution steer independence decisions in the
/// next. Outside any run the id only needs to be unique.
fn fresh_obj() -> u64 {
    with_ctx(|ctx| match ctx {
        Some(ctx) => ctx.controller.fresh_obj(),
        None => {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            // High-bit namespace so uninstrumented objects can never
            // collide with per-run ids.
            (1 << 62) | NEXT.fetch_add(1, Ordering::Relaxed)
        }
    })
}

/// The deterministic-schedule backend. See the module docs; production
/// code never names this type — it reaches the same protocol code through
/// the `StdBackend` default parameter.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedBackend;

impl Backend for SchedBackend {
    type AtomicUsize = SchedAtomicUsize;
    type AtomicPtr<T> = SchedAtomicPtr<T>;
    type Mutex<T: Send> = SchedMutex<T>;

    /// Scenario thread id (assigned at spawn), so hazard-slot and
    /// per-CPU-instance selection are deterministic per thread. The
    /// controller thread and uninstrumented callers map to 0.
    fn thread_index() -> usize {
        with_ctx(|ctx| ctx.and_then(|c| c.thread).unwrap_or(0))
    }

    fn mutation(m: Mutation) -> bool {
        with_ctx(|ctx| ctx.is_some_and(|c| c.controller.mutation() == Some(m)))
    }

    fn trace_alloc(addr: usize) {
        with_ctx(|ctx| {
            if let Some(ctx) = ctx {
                ctx.controller.trace_alloc(addr);
            }
        });
    }

    fn trace_free(addr: usize) {
        if std::thread::panicking() {
            return;
        }
        with_ctx(|ctx| {
            if let Some(ctx) = ctx {
                ctx.controller.point_free(ctx.thread, addr);
            }
        });
    }

    fn check_acquire(addr: usize) {
        if std::thread::panicking() {
            return;
        }
        with_ctx(|ctx| {
            if let Some(ctx) = ctx {
                ctx.controller.point_acquire(ctx.thread, addr);
            }
        });
    }
}

/// Executor-instrumented `AtomicUsize`.
#[derive(Debug)]
pub struct SchedAtomicUsize {
    obj: u64,
    inner: AtomicUsize,
}

impl RawAtomicUsize for SchedAtomicUsize {
    fn new(v: usize) -> Self {
        SchedAtomicUsize {
            obj: fresh_obj(),
            inner: AtomicUsize::new(v),
        }
    }
    fn load(&self, order: Ordering) -> usize {
        point(OpKind::Read, self.obj, "AtomicUsize.load");
        self.inner.load(order)
    }
    fn store(&self, v: usize, order: Ordering) {
        point(OpKind::Write, self.obj, "AtomicUsize.store");
        self.inner.store(v, order);
    }
    fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        point(OpKind::Write, self.obj, "AtomicUsize.fetch_add");
        self.inner.fetch_add(v, order)
    }
    fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        // As for `AtomicPtr.compare_exchange`: the announcement precedes
        // the outcome, so classify conservatively as a write.
        point(OpKind::Write, self.obj, "AtomicUsize.compare_exchange");
        self.inner.compare_exchange(current, new, success, failure)
    }
}

/// Executor-instrumented `AtomicPtr<T>`.
#[derive(Debug)]
pub struct SchedAtomicPtr<T> {
    obj: u64,
    inner: AtomicPtr<T>,
}

impl<T> RawAtomicPtr<T> for SchedAtomicPtr<T> {
    fn new(p: *mut T) -> Self {
        SchedAtomicPtr {
            obj: fresh_obj(),
            inner: AtomicPtr::new(p),
        }
    }
    fn load(&self, order: Ordering) -> *mut T {
        point(OpKind::Read, self.obj, "AtomicPtr.load");
        self.inner.load(order)
    }
    fn store(&self, p: *mut T, order: Ordering) {
        point(OpKind::Write, self.obj, "AtomicPtr.store");
        self.inner.store(p, order);
    }
    fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        point(OpKind::Write, self.obj, "AtomicPtr.swap");
        self.inner.swap(p, order)
    }
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        // A failed CAS is a pure load, but the announcement happens before
        // the outcome is known — classify as a write (conservative for
        // DPOR independence, never unsound).
        point(OpKind::Write, self.obj, "AtomicPtr.compare_exchange");
        self.inner.compare_exchange(current, new, success, failure)
    }
}

/// Executor-instrumented mutex. Lock is a *blocking* schedule point: the
/// controller never grants it while another thread holds the mutex, so
/// the inner `std::sync::Mutex` acquisition below is always uncontended.
#[derive(Debug)]
pub struct SchedMutex<T> {
    obj: u64,
    inner: Mutex<T>,
}

impl<T: Send> RawMutex<T> for SchedMutex<T> {
    fn new(value: T) -> Self {
        SchedMutex {
            obj: fresh_obj(),
            inner: Mutex::new(value),
        }
    }
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        point(OpKind::Lock, self.obj, "Mutex.lock");
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let out = f(&mut guard);
        // Announce the unlock while still holding the guard: the release
        // becomes visible to the scheduler (re-enabling blocked Lock ops)
        // only when this point is granted.
        point(OpKind::Unlock, self.obj, "Mutex.unlock");
        drop(guard);
        out
    }
    fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}
