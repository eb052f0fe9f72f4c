//! Synchronisation shim: one compile-time seam between the lock-free
//! protocol code and the primitives it runs on.
//!
//! Every atomic word, mutex, and thread-identity read used by the
//! `Rcu<T>` hazard-pointer protocol goes through the [`Backend`] trait
//! defined here instead of naming `std::sync` directly. Two backends exist:
//!
//! * [`StdBackend`] — the default type parameter everywhere. Each trait
//!   method is an `#[inline(always)]` forward to the `std::sync::atomic`
//!   operation with the *caller's* memory ordering, every mutation hook
//!   is a constant `false`, and every lifecycle hook is an empty body, so
//!   after monomorphisation a release build is instruction-for-
//!   instruction identical to writing `std::sync` by hand. This is the
//!   backend the production type alias `Rcu<T>` resolves to.
//! * `SchedBackend` (in `sack-analyze::sched`) — every operation first
//!   parks the calling thread at a *yield point* and waits for a
//!   deterministic scheduler to grant it the turn, which is what lets
//!   the executor enumerate bounded thread interleavings of the **real**
//!   protocol code rather than a hand-transcribed model of it.
//!
//! The seam carries three kinds of hooks beyond the primitives
//! themselves:
//!
//! * [`Backend::thread_index`] — a dense per-thread id; hazard-slot and
//!   per-CPU-instance selection key off it so the executor can pin
//!   scenario threads to stable, deterministic slots.
//! * [`Backend::mutation`] — compile-time-off switches that plant one
//!   known bug in the real algorithm (skip the reader's re-validation,
//!   free retired snapshots without scanning the hazard slots). The
//!   executor's mutation tests turn exactly one on and assert a violating
//!   schedule is found; under [`StdBackend`] the branch is `if false` and
//!   vanishes.
//! * [`Backend::trace_alloc`] / [`Backend::trace_free`] /
//!   [`Backend::check_acquire`] — pointer-lifecycle tracking. The
//!   executor keeps a freed-address registry so that a protocol bug
//!   surfaces as a caught violation ("reader acquired a freed snapshot")
//!   *before* the code would touch freed memory, instead of as silent
//!   undefined behaviour.
//!
//! `sack-analyze sync-lint` enforces that the protocol files use this
//! seam: any direct `std::sync::atomic` / `std::thread` / `Mutex` /
//! `std::hint::spin_loop` use in the linted set outside this module fails
//! CI, so executor coverage cannot silently rot as the code evolves. The
//! seam has no spin wait: a retry loop that waits for another thread has
//! no schedulable form, so protocol code must not contain one.

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A known-bad mutation of one load-bearing ingredient of the lock-free
/// protocols. Production code consults [`Backend::mutation`] at the
/// exact point the ingredient acts; [`StdBackend`] answers `false` at
/// compile time, the executor backend answers from its run
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `Rcu::read` acquires the announced pointer without re-validating
    /// that it is still current — the window in which a writer may
    /// already have retired and freed it.
    RcuSkipValidation,
    /// The `Rcu` writer frees every retired snapshot without scanning
    /// the hazard slots first.
    RcuFreeBeforeScan,
}

/// Backend view of `AtomicUsize`.
pub trait RawAtomicUsize: Send + Sync + std::fmt::Debug {
    /// Creates the atomic with an initial value.
    fn new(v: usize) -> Self;
    /// Atomic load with the given ordering.
    fn load(&self, order: Ordering) -> usize;
    /// Atomic store with the given ordering.
    fn store(&self, v: usize, order: Ordering);
    /// Atomic fetch-add returning the previous value.
    fn fetch_add(&self, v: usize, order: Ordering) -> usize;
    /// Atomic compare-exchange; `Ok(previous)` on success.
    #[allow(clippy::missing_errors_doc)]
    fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize>;
}

/// Backend view of `AtomicPtr<T>`.
pub trait RawAtomicPtr<T>: Send + Sync {
    /// Creates the atomic with an initial pointer.
    fn new(p: *mut T) -> Self;
    /// Atomic load with the given ordering.
    fn load(&self, order: Ordering) -> *mut T;
    /// Atomic store with the given ordering.
    fn store(&self, p: *mut T, order: Ordering);
    /// Atomic swap returning the previous pointer.
    fn swap(&self, p: *mut T, order: Ordering) -> *mut T;
    /// Atomic compare-exchange; `Ok(previous)` on success.
    #[allow(clippy::missing_errors_doc)]
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T>;
}

/// Backend view of `Mutex<T>`, exposed as a closure-scoped critical
/// section so an instrumented backend can mark both the lock and the
/// unlock as schedule points.
pub trait RawMutex<T: Send>: Send + Sync {
    /// Creates the mutex around an initial value.
    fn new(value: T) -> Self;
    /// Runs `f` with the lock held. Poisoning is swallowed (the
    /// protocol code treats a poisoned graveyard as still-valid data,
    /// exactly as the previous `unwrap_or_else(PoisonError::into_inner)`
    /// did).
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R;
    /// Direct access through exclusive borrow (no locking needed).
    fn get_mut(&mut self) -> &mut T;
}

/// The compile-time seam every lock-free protocol in the tree is generic
/// over. See the module docs; [`StdBackend`] is the production instance.
pub trait Backend: Sized + Send + Sync + 'static {
    /// Backend `AtomicUsize`.
    type AtomicUsize: RawAtomicUsize;
    /// Backend `AtomicPtr<T>`.
    type AtomicPtr<T>: RawAtomicPtr<T>;
    /// Backend `Mutex<T>`.
    type Mutex<T: Send>: RawMutex<T>;

    /// Dense id of the calling thread, used for hazard-slot selection.
    /// The first `HAZARD_SLOTS` distinct threads get distinct values.
    fn thread_index() -> usize;

    /// Whether the known-bad mutation `m` is planted in this run.
    /// `false` at compile time for the production backend.
    #[inline(always)]
    #[must_use]
    fn mutation(_m: Mutation) -> bool {
        false
    }

    /// A heap snapshot was published (its address may have been reused).
    #[inline(always)]
    fn trace_alloc(_addr: usize) {}

    /// A heap snapshot is about to be freed.
    #[inline(always)]
    fn trace_free(_addr: usize) {}

    /// A reader is about to take a reference to `addr`. An instrumented
    /// backend panics here (aborting the schedule with a violation) if
    /// `addr` was freed and not re-allocated — the memory-safety check
    /// that would otherwise be undefined behaviour.
    #[inline(always)]
    fn check_acquire(_addr: usize) {}
}

/// The production backend: plain `std::sync` primitives, no
/// instrumentation, no mutations. All forwarding is `#[inline(always)]`
/// so monomorphised protocol code is identical to hand-written
/// `std::sync` code.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdBackend;

impl RawAtomicUsize for AtomicUsize {
    #[inline(always)]
    fn new(v: usize) -> Self {
        AtomicUsize::new(v)
    }
    #[inline(always)]
    fn load(&self, order: Ordering) -> usize {
        AtomicUsize::load(self, order)
    }
    #[inline(always)]
    fn store(&self, v: usize, order: Ordering) {
        AtomicUsize::store(self, v, order);
    }
    #[inline(always)]
    fn fetch_add(&self, v: usize, order: Ordering) -> usize {
        AtomicUsize::fetch_add(self, v, order)
    }
    #[inline(always)]
    fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        AtomicUsize::compare_exchange(self, current, new, success, failure)
    }
}

impl<T> RawAtomicPtr<T> for AtomicPtr<T> {
    #[inline(always)]
    fn new(p: *mut T) -> Self {
        AtomicPtr::new(p)
    }
    #[inline(always)]
    fn load(&self, order: Ordering) -> *mut T {
        AtomicPtr::load(self, order)
    }
    #[inline(always)]
    fn store(&self, p: *mut T, order: Ordering) {
        AtomicPtr::store(self, p, order);
    }
    #[inline(always)]
    fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        AtomicPtr::swap(self, p, order)
    }
    #[inline(always)]
    fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        AtomicPtr::compare_exchange(self, current, new, success, failure)
    }
}

impl<T: Send> RawMutex<T> for Mutex<T> {
    #[inline(always)]
    fn new(value: T) -> Self {
        Mutex::new(value)
    }
    #[inline(always)]
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut guard)
    }
    #[inline(always)]
    fn get_mut(&mut self) -> &mut T {
        Mutex::get_mut(self).unwrap_or_else(|p| p.into_inner())
    }
}

impl Backend for StdBackend {
    type AtomicUsize = AtomicUsize;
    type AtomicPtr<T> = AtomicPtr<T>;
    type Mutex<T: Send> = Mutex<T>;

    /// Hands each OS thread a stable dense id from a process-global
    /// counter, cached in a thread-local — the `smp_processor_id()`
    /// stand-in used by hazard-slot selection (on the simulated kernel a
    /// thread *is* a CPU).
    fn thread_index() -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        INDEX.with(|index| {
            if index.get() == usize::MAX {
                index.set(NEXT.fetch_add(1, Ordering::Relaxed));
            }
            index.get()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_backend_thread_index_is_stable_and_dense() {
        let first = StdBackend::thread_index();
        assert_eq!(StdBackend::thread_index(), first);
        let other = std::thread::spawn(StdBackend::thread_index).join().unwrap();
        assert_ne!(other, first, "each thread draws a distinct index");
    }

    #[test]
    fn std_backend_has_no_mutations() {
        assert!(!StdBackend::mutation(Mutation::RcuSkipValidation));
        assert!(!StdBackend::mutation(Mutation::RcuFreeBeforeScan));
    }

    #[test]
    fn raw_mutex_with_gives_exclusive_access() {
        let m: Mutex<Vec<u32>> = RawMutex::new(vec![1]);
        let len = m.with(|v| {
            v.push(2);
            v.len()
        });
        assert_eq!(len, 2);
    }
}
