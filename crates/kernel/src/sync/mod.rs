//! Kernel-style synchronisation primitives.
//!
//! The centrepiece is [`Rcu`], a hand-rolled read-copy-update cell modelled
//! on the kernel's `rcu_dereference`/`rcu_assign_pointer` pattern (and on
//! userspace's `arc-swap`): readers take a snapshot of an `Arc<T>` without
//! ever acquiring a lock, while writers publish a replacement atomically and
//! reclaim the old snapshot only once no reader can still be dereferencing
//! it.
//!
//! This is what makes LSM hook dispatch lock-free on the read side: hot-path
//! hooks (`file_open`, `file_permission`) call [`Rcu::with`] — a slot
//! claim, a validating load and a slot clear, writing only the reader's
//! own cache line — instead of taking the `RwLock` that policy reloads
//! and SSM transitions would otherwise contend on. [`Rcu::read`] additionally
//! takes a strong count and is kept for snapshots that must outlive the
//! call.
//!
//! # The synchronisation shim
//!
//! Every primitive the protocol touches goes through the [`shim::Backend`]
//! seam instead of naming `std::sync` directly. `Rcu<T>` (the default
//! backend) monomorphises to exactly the `std::sync` code it used to be;
//! `Rcu<T, SchedBackend, N>` (from `sack-analyze`) runs the *same
//! statements* under a deterministic scheduler that enumerates bounded
//! thread interleavings, so the memory-ordering claims below are checked
//! against this very file rather than a hand-maintained transcription.
//! The hazard-slot count is a const parameter for the same reason: the
//! executor explores small-slot instances of the identical protocol.
//!
//! # Reclamation invariant (hazard announcements)
//!
//! Readers announce the pointer they are about to take in one of
//! [`HAZARD_SLOTS`] *hazard slots*, then re-validate that the pointer is
//! still current before using it. [`Rcu::read`] then takes a strong count
//! and withdraws the announcement at once; [`Rcu::with`] keeps the
//! announcement up until its closure returns (or unwinds), so the same
//! invariant covers the whole closure and no strong count is touched.
//! Writers retire the old snapshot into a graveyard and free exactly the
//! graveyard entries that are **not announced in any slot** at scan time
//! (the scan runs under the writer mutex, after the retiring swap). This
//! yields two guarantees:
//!
//! 1. **Safety.** A reader acquires a snapshot only after validating
//!    `current == announced` *while announced*. A writer frees a retired
//!    pointer only after the retiring swap and a scan that did not see it
//!    announced. If the reader's validation succeeded, either its
//!    announcement preceded the scan (the scan sees it → not freed) or its
//!    validating load ran after the swap (validation fails → the reader
//!    retries with the new pointer). Under the `SeqCst` total order, a freed
//!    pointer can therefore never be acquired.
//! 2. **Bounded graveyard.** After every reclamation pass, each surviving
//!    graveyard entry is announced in some slot, so the graveyard never
//!    holds more than [`HAZARD_SLOTS`] retired snapshots — even under a
//!    reader that is stalled inside [`Rcu::read`] forever. A stuck reader
//!    pins at most the single snapshot it announced. (The previous
//!    reader-counter design deferred *all* reclamation while any reader was
//!    pinned, so one stuck reader grew the graveyard without bound.)
//!
//! The limit of [`Rcu::with`]: a closure holds its slot, and pins one
//! snapshot, for as long as it runs, so each reader waiting inside a
//! closure pins one snapshot, and enough of them push every further reader
//! onto the writer-mutex fallback. The closures on the hook path take only
//! short leaf locks (SACK's audit ring and a flight-recorder slot,
//! AppArmor's audit log) and never a lock that waits on a writer of the
//! same cell; a reader that must wait on anything else, or keep the
//! snapshot, takes [`Rcu::read`].
//!
//! ABA on the validating load is benign: if a freed address is reused by a
//! newer snapshot that is current again, the reader acquires that newer,
//! live snapshot — address equality implies liveness here, not staleness.

pub mod shim;

use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

pub use shim::{Backend, Mutation, StdBackend};
use shim::{RawAtomicPtr, RawAtomicUsize, RawMutex};

/// Number of hazard announcement slots per cell — the maximum number of
/// readers that can be simultaneously inside the pointer-load window of
/// [`Rcu::read`] or a [`Rcu::with`] closure without falling back to the
/// writer mutex, and the upper bound on retired-but-unreclaimed snapshots.
pub const HAZARD_SLOTS: usize = 64;

/// A read-copy-update cell holding an `Arc<T>` snapshot.
///
/// * [`read`](Rcu::read) is lock-free: it claims a hazard slot, announces
///   the snapshot pointer, validates it is still current, and returns an
///   owned `Arc<T>`. Readers never block writers; a reader retries its
///   validation only when a writer published in the middle of its window.
///   If all `SLOTS` slots are occupied the reader falls back to a brief
///   acquisition of the writer mutex (which also makes the snapshot
///   stable), so `read` succeeds under any load.
/// * [`with`](Rcu::with) announces and validates the same way but lends
///   the snapshot to a closure instead of counting a reference, keeping the
///   announcement until the closure is done; it shares `read`'s fallback.
/// * [`store`](Rcu::store) / [`update`](Rcu::update) serialise writers on an
///   internal mutex, swap the snapshot pointer atomically, and *retire* the
///   previous snapshot instead of dropping it inline. Each writer then
///   scans the hazard slots and frees every retired snapshot that no reader
///   has announced — see the module docs for the invariant.
///
/// Readers that already hold a returned `Arc<T>` keep it alive through its
/// own strong count; hazard announcements protect the pointer-load window
/// inside [`read`](Rcu::read) and the whole closure of [`with`](Rcu::with).
///
/// The `B` parameter selects the synchronisation backend ([`StdBackend`]
/// in production, the deterministic executor in `sack-analyze`); `SLOTS`
/// sizes the hazard array ([`HAZARD_SLOTS`] in production, small values
/// under exhaustive schedule exploration).
pub struct Rcu<T, B: Backend = StdBackend, const SLOTS: usize = HAZARD_SLOTS> {
    /// Current snapshot, produced by `Arc::into_raw`. Never null.
    current: B::AtomicPtr<T>,
    /// Hazard announcement slots, one cache line each so readers on
    /// different CPUs never write a shared line. Null = free; non-null =
    /// some reader is inside its load window or its [`Rcu::with`] closure
    /// and may be using this pointer.
    hazards: [Padded<B::AtomicPtr<T>>; SLOTS],
    /// Serialises writers; holds snapshots retired while still announced in
    /// a hazard slot, awaiting a later writer's scan (or `Drop`). Entries
    /// are `*const T` addresses stored as `usize` so the mutex payload
    /// stays `Send` without a pointer-wrapper type.
    writer: B::Mutex<Vec<usize>>,
    /// Count of snapshots swapped in over the cell's lifetime (telemetry
    /// for tests and stats dumps; the initial value counts as 0).
    generation: B::AtomicUsize,
}

// SAFETY: `Rcu<T>` shares `T` across threads exactly like `Arc<T>` does, so
// it inherits `Arc`'s bounds: `T` must be `Send + Sync` for the cell to be
// either. The backend primitives are `Send + Sync` by their trait bounds.
unsafe impl<T: Send + Sync, B: Backend, const SLOTS: usize> Send for Rcu<T, B, SLOTS> {}
unsafe impl<T: Send + Sync, B: Backend, const SLOTS: usize> Sync for Rcu<T, B, SLOTS> {}

impl<T> Rcu<T> {
    /// Creates a production-backend cell with an initial snapshot of
    /// `value`.
    pub fn new(value: T) -> Rcu<T> {
        Rcu::new_in(value)
    }

    /// Creates a production-backend cell from an existing `Arc` snapshot.
    pub fn from_arc(value: Arc<T>) -> Rcu<T> {
        Rcu::from_arc_in(value)
    }
}

impl<T, B: Backend, const SLOTS: usize> Rcu<T, B, SLOTS> {
    /// Creates a cell with an initial snapshot of `value` on backend `B`.
    pub fn new_in(value: T) -> Rcu<T, B, SLOTS> {
        Rcu::from_arc_in(Arc::new(value))
    }

    /// Creates a cell from an existing `Arc` snapshot on backend `B`.
    pub fn from_arc_in(value: Arc<T>) -> Rcu<T, B, SLOTS> {
        let initial = Arc::into_raw(value) as *mut T;
        B::trace_alloc(initial as usize);
        Rcu {
            current: RawAtomicPtr::new(initial),
            hazards: std::array::from_fn(|_| Padded(RawAtomicPtr::new(ptr::null_mut()))),
            writer: RawMutex::new(Vec::new()),
            generation: RawAtomicUsize::new(0),
        }
    }

    /// Returns the current snapshot as an owned `Arc<T>`. Lock-free:
    /// claims a hazard slot, announces the pointer, validates it is still
    /// current, and bumps its strong count — no locks unless every slot is
    /// occupied. Use it where the snapshot must outlive the call; a reader
    /// that only needs the snapshot for the duration of a closure should
    /// call [`Rcu::with`], which touches no strong count.
    pub fn read(&self) -> Arc<T> {
        let Some((slot, p)) = self.announce() else {
            return self.read_locked();
        };
        B::check_acquire(p as usize);
        // SAFETY: `p` is announced and validated current, so no writer has
        // freed it (writers free only unannounced retired pointers); its
        // strong count is still owned by the cell or its graveyard.
        unsafe { Arc::increment_strong_count(p) };
        slot.store(ptr::null_mut(), SeqCst);
        // SAFETY: we own the strong count incremented above.
        unsafe { Arc::from_raw(p) }
    }

    /// Runs `f` on the current snapshot without taking a strong count: the
    /// reader's hazard announcement stays in its slot until `f` returns
    /// (or unwinds), so no writer can free the snapshot under it. This is
    /// the hook-path read — a slot claim, one validating load and a slot
    /// clear, writing only the reader's own cache line.
    ///
    /// If every slot is occupied, `f` runs on an owned snapshot taken
    /// under the writer mutex ([`Rcu::read`]'s fallback), after the mutex
    /// is released, so `f` may itself write to this cell.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let Some((slot, p)) = self.announce() else {
            return f(&self.read_locked());
        };
        let _release = Release(slot, PhantomData);
        B::check_acquire(p as usize);
        if B::mutation(Mutation::RcuWithEarlyRelease) {
            // Planted bug (executor-only): withdraw the announcement before
            // the closure is done with the snapshot, so a writer's scan no
            // longer sees it.
            slot.store(ptr::null_mut(), SeqCst);
        }
        // SAFETY: `p` is announced and validated current, and the
        // announcement is withdrawn only when `_release` drops, after `f`
        // returns or unwinds; a writer frees only unannounced retired
        // pointers (see module docs).
        let out = f(unsafe { &*p });
        // Still live as the closure ends: an instrumented backend reports
        // a snapshot freed while the closure held it.
        B::check_acquire(p as usize);
        out
    }

    /// Claims a hazard slot and announces a pointer validated as current
    /// while announced. `None` when every slot is occupied.
    fn announce(&self) -> Option<(&B::AtomicPtr<T>, *mut T)> {
        let start = B::thread_index() % SLOTS;
        for i in 0..SLOTS {
            let slot = &self.hazards[(start + i) % SLOTS].0;
            let mut p = self.current.load(SeqCst);
            // Claim the slot by announcing the pointer we intend to take.
            // A failed exchange means another reader owns this slot.
            if slot
                .compare_exchange(ptr::null_mut(), p, SeqCst, SeqCst)
                .is_err()
            {
                continue;
            }
            if B::mutation(Mutation::RcuSkipValidation) {
                // Planted bug (executor-only): trust the announcement
                // without re-validating that the pointer is still current.
                // A writer that scanned before our announcement landed may
                // already have freed `p`; the caller's `check_acquire`
                // catches that before the snapshot is touched.
                return Some((slot, p));
            }
            loop {
                // Validate *after* announcing: if the pointer is still
                // current, no writer scan can have missed our announcement
                // before retiring it (see module docs).
                let cur = self.current.load(SeqCst);
                if cur == p {
                    return Some((slot, p));
                }
                // A writer published meanwhile; re-announce the new pointer
                // and validate again.
                p = cur;
                slot.store(p, SeqCst);
            }
        }
        None
    }

    /// Every slot is occupied by an in-flight reader: takes an owned
    /// snapshot under the writer mutex. Writers swap and reclaim only under
    /// this mutex, so while it is held the current snapshot cannot be
    /// retired.
    #[cold]
    fn read_locked(&self) -> Arc<T> {
        self.writer.with(|_graveyard| {
            let p = self.current.load(SeqCst);
            B::check_acquire(p as usize);
            // SAFETY: the writer mutex is held, so `p` is current and its
            // strong count is owned by the cell.
            unsafe { Arc::increment_strong_count(p) };
            // SAFETY: we own the strong count incremented above.
            unsafe { Arc::from_raw(p) }
        })
    }

    /// Publishes `value` as the new snapshot.
    pub fn store(&self, value: T) {
        self.store_arc(Arc::new(value));
    }

    /// Publishes an existing `Arc` as the new snapshot.
    pub fn store_arc(&self, value: Arc<T>) {
        let fresh = Arc::into_raw(value) as *mut T;
        B::trace_alloc(fresh as usize);
        let unprotected = self.writer.with(|graveyard| {
            let old = self.current.swap(fresh, SeqCst);
            self.generation.fetch_add(1, SeqCst);
            graveyard.push(old as usize);
            self.take_unprotected(graveyard)
        });
        // Drop outside the lock: `T::drop` may be arbitrary user code (it
        // could even call `read` on this very cell's fallback path).
        for p in unprotected {
            B::trace_free(p);
            // SAFETY: each retired pointer owns exactly the one strong count
            // transferred by `Arc::into_raw` at publish time, and the scan
            // above proved no reader announced it after it was retired.
            unsafe { drop(Arc::from_raw(p as *const T)) };
        }
    }

    /// Read-copy-update: builds a replacement from the current snapshot and
    /// publishes it. The closure runs under the writer lock, so concurrent
    /// `update`s serialise and never lose each other's changes; readers are
    /// unaffected and see either the old or the new snapshot.
    ///
    /// A closure that returns `None` leaves the cell as it is: nothing is
    /// published, the [`generation`](Rcu::generation) stays put and no
    /// hazard scan runs.
    pub fn update<R>(&self, f: impl FnOnce(&T) -> (Option<T>, R)) -> R {
        let (out, unprotected) = self.writer.with(|graveyard| {
            // SAFETY: the writer lock is held, so no other writer can retire
            // the current pointer while we borrow it.
            let cur = unsafe { &*self.current.load(SeqCst) };
            let (next, out) = f(cur);
            let Some(next) = next else {
                return (out, Vec::new());
            };
            let fresh = Arc::into_raw(Arc::new(next)) as *mut T;
            B::trace_alloc(fresh as usize);
            let old = self.current.swap(fresh, SeqCst);
            self.generation.fetch_add(1, SeqCst);
            graveyard.push(old as usize);
            (out, self.take_unprotected(graveyard))
        });
        for p in unprotected {
            B::trace_free(p);
            // SAFETY: as in `store_arc`.
            unsafe { drop(Arc::from_raw(p as *const T)) };
        }
        out
    }

    /// Number of snapshot swaps since the cell was created.
    pub fn generation(&self) -> usize {
        self.generation.load(SeqCst)
    }

    /// Number of retired snapshots awaiting reclamation. Bounded by
    /// `SLOTS` after every write — telemetry for tests and stats.
    pub fn retired_count(&self) -> usize {
        self.writer.with(|graveyard| graveyard.len())
    }

    /// Splits the graveyard into entries announced in some hazard slot
    /// (kept) and the rest (returned for the caller to free outside the
    /// lock). Must be called with the writer lock held, after the swap that
    /// retired the newest entry.
    fn take_unprotected(&self, graveyard: &mut Vec<usize>) -> Vec<usize> {
        let announced: Vec<usize> = if B::mutation(Mutation::RcuFreeBeforeScan) {
            // Planted bug (executor-only): free every retiree without
            // scanning the hazard slots — a reader mid-window loses the
            // snapshot it announced.
            Vec::new()
        } else {
            self.hazards
                .iter()
                .map(|slot| slot.0.load(SeqCst) as usize)
                .filter(|p| *p != 0)
                .collect()
        };
        let mut unprotected = Vec::new();
        graveyard.retain(|p| {
            if announced.contains(p) {
                true
            } else {
                unprotected.push(*p);
                false
            }
        });
        // The reclamation invariant: everything still retired is announced.
        debug_assert!(
            B::mutation(Mutation::RcuFreeBeforeScan) || graveyard.len() <= SLOTS,
            "graveyard exceeded hazard-slot bound: {} > {SLOTS}",
            graveyard.len()
        );
        unprotected
    }

    /// Test hook: performs the announce-and-validate half of [`read`]
    /// without taking a snapshot, simulating a reader stalled inside its
    /// load window forever. Returns the claimed slot index.
    #[cfg(test)]
    fn test_pin_current(&self) -> usize {
        loop {
            for (i, Padded(slot)) in self.hazards.iter().enumerate() {
                let p = self.current.load(SeqCst);
                if slot
                    .compare_exchange(ptr::null_mut(), p, SeqCst, SeqCst)
                    .is_ok()
                {
                    if self.current.load(SeqCst) == p {
                        return i;
                    }
                    slot.store(ptr::null_mut(), SeqCst);
                }
            }
        }
    }

    /// Test hook: releases a slot claimed by [`Rcu::test_pin_current`].
    #[cfg(test)]
    fn test_unpin(&self, slot: usize) {
        self.hazards[slot].0.store(ptr::null_mut(), SeqCst);
    }
}

/// One hazard slot on its own cache line.
#[repr(align(64))]
struct Padded<A>(A);

/// Withdraws a [`Rcu::with`] reader's announcement when dropped — after
/// the closure returns or while it unwinds.
struct Release<'a, T, P: RawAtomicPtr<T>>(&'a P, PhantomData<fn(T)>);

impl<T, P: RawAtomicPtr<T>> Drop for Release<'_, T, P> {
    fn drop(&mut self) {
        self.0.store(ptr::null_mut(), SeqCst);
    }
}

impl<T: Default> Default for Rcu<T> {
    fn default() -> Rcu<T> {
        Rcu::new(T::default())
    }
}

impl<T: fmt::Debug, B: Backend, const SLOTS: usize> fmt::Debug for Rcu<T, B, SLOTS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with(|value| {
            f.debug_struct("Rcu")
                .field("value", value)
                .field("generation", &self.generation())
                .finish()
        })
    }
}

impl<T, B: Backend, const SLOTS: usize> Drop for Rcu<T, B, SLOTS> {
    fn drop(&mut self) {
        // `&mut self` proves no thread is inside `read` or `with` (that
        // would require a live `&self` borrow), so no hazard slot is owned
        // by a reader and
        // both the graveyard and the current snapshot can be released
        // unconditionally.
        for ptr in self.writer.get_mut().drain(..) {
            B::trace_free(ptr);
            // SAFETY: each retired pointer owns one strong count and no
            // readers exist.
            unsafe { drop(Arc::from_raw(ptr as *const T)) };
        }
        let current = self.current.load(SeqCst);
        B::trace_free(current as usize);
        // SAFETY: the current pointer owns the strong count transferred at
        // publish (or construction) time.
        unsafe { drop(Arc::from_raw(current)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn read_returns_latest_store() {
        let cell = Rcu::new(1);
        assert_eq!(*cell.read(), 1);
        cell.store(2);
        assert_eq!(*cell.read(), 2);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn update_serialises_writers() {
        let cell = Arc::new(Rcu::new(0usize));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        cell.update(|v| (Some(v + 1), ()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*cell.read(), 8000);
        assert_eq!(cell.generation(), 8000);
    }

    #[test]
    fn update_returning_none_publishes_nothing() {
        let cell = Rcu::new(7usize);
        let before = cell.read();
        assert_eq!(cell.update(|v| (None, *v * 2)), 14);
        assert_eq!(cell.generation(), 0);
        assert_eq!(cell.retired_count(), 0);
        assert!(Arc::ptr_eq(&cell.read(), &before), "snapshot was swapped");
    }

    #[test]
    fn concurrent_readers_and_writers_stress() {
        let cell = Arc::new(Rcu::new(vec![0u64; 16]));
        let stop = Arc::new(AtomicUsize::new(0));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = 0;
                    while stop.load(SeqCst) == 0 {
                        let snap = cell.read();
                        // Every snapshot is internally consistent: all
                        // elements equal (writers publish uniform vectors).
                        assert!(snap.iter().all(|&x| x == snap[0]));
                        // Snapshots are monotone: we never observe an older
                        // vector after a newer one.
                        assert!(snap[0] >= last);
                        last = snap[0];
                    }
                })
            })
            .collect();

        let writers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    for _ in 0..2000u64 {
                        // Read-modify-write under the writer lock: publish
                        // order equals value order, so the published
                        // sequence is globally monotone even with two
                        // racing writers (independent `store`s would not
                        // be — each writer's counter races the other's).
                        cell.update(|old| (Some(vec![old[0] + 1; 16]), ()));
                    }
                })
            })
            .collect();

        for t in writers {
            t.join().unwrap();
        }
        stop.store(1, SeqCst);
        for t in readers {
            t.join().unwrap();
        }
    }

    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn retired_snapshots_are_reclaimed() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Rcu::new(Counted(Arc::clone(&drops)));
        for _ in 0..100 {
            cell.store(Counted(Arc::clone(&drops)));
        }
        // With no pinned readers every retired snapshot is reclaimed by the
        // next store; at most the current value is still alive.
        assert_eq!(drops.load(SeqCst), 100);
        drop(cell);
        assert_eq!(drops.load(SeqCst), 101);
    }

    #[test]
    fn graveyard_is_bounded_under_a_reader_that_never_unpins() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Rcu::new(Counted(Arc::clone(&drops)));
        // A reader stalled inside `read` forever: it announced the current
        // snapshot and will never clear its hazard slot.
        let slot = cell.test_pin_current();

        for _ in 0..1000 {
            cell.store(Counted(Arc::clone(&drops)));
        }
        // Only the announced snapshot survives in the graveyard; every
        // other retired snapshot was reclaimed despite the stuck reader.
        assert_eq!(cell.retired_count(), 1);
        assert_eq!(drops.load(SeqCst), 999);

        // Once the reader finally goes away, the next write drains it.
        cell.test_unpin(slot);
        cell.store(Counted(Arc::clone(&drops)));
        assert_eq!(cell.retired_count(), 0);
        assert_eq!(drops.load(SeqCst), 1001);
    }

    #[test]
    fn read_falls_back_when_every_hazard_slot_is_occupied() {
        let cell = Rcu::new(7u32);
        let slots: Vec<usize> = (0..HAZARD_SLOTS).map(|_| cell.test_pin_current()).collect();
        assert_eq!(slots.len(), HAZARD_SLOTS);

        // All slots busy: `read` takes the mutex fallback and still works,
        // before and after a store.
        assert_eq!(*cell.read(), 7);
        cell.store(8);
        assert_eq!(*cell.read(), 8);

        for slot in slots {
            cell.test_unpin(slot);
        }
    }

    #[test]
    fn held_snapshot_survives_store_and_drop_of_cell() {
        let cell = Rcu::new(String::from("old"));
        let snap = cell.read();
        cell.store(String::from("new"));
        drop(cell);
        assert_eq!(*snap, "old");
    }

    #[test]
    fn with_pins_one_snapshot_while_writers_publish() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Rcu::new(Counted(Arc::clone(&drops)));
        cell.with(|held| {
            // A closure stalled while another thread publishes 1,000 times:
            // only the snapshot it holds survives in the graveyard.
            thread::scope(|s| {
                s.spawn(|| {
                    for _ in 0..1000 {
                        cell.store(Counted(Arc::clone(&drops)));
                    }
                });
            });
            assert!(cell.retired_count() <= 1);
            assert_eq!(drops.load(SeqCst), 999);
            assert!(Arc::ptr_eq(&held.0, &drops), "held snapshot is intact");
        });
        // The closure returned: the next write drains the cell.
        cell.store(Counted(Arc::clone(&drops)));
        assert_eq!(cell.retired_count(), 0);
        assert_eq!(drops.load(SeqCst), 1001);
    }

    #[test]
    fn with_releases_its_slot_when_the_closure_panics() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Rcu::new(Counted(Arc::clone(&drops)));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with(|_| panic!("hook panicked"));
        }));
        assert!(unwound.is_err());
        // Had the slot stayed announced, the retired snapshot would stay
        // in the graveyard.
        cell.store(Counted(Arc::clone(&drops)));
        assert_eq!(cell.retired_count(), 0);
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn nested_with_on_the_same_cell() {
        let cell = Rcu::new(5u32);
        assert_eq!(cell.with(|a| cell.with(|b| a + b)), 10);
        // The outer closure keeps its snapshot across a publish that the
        // inner one already sees.
        let (outer, inner) = cell.with(|a| {
            cell.store(6);
            assert_eq!(cell.retired_count(), 1);
            cell.with(|b| (*a, *b))
        });
        assert_eq!((outer, inner), (5, 6));
        cell.store(7);
        assert_eq!(cell.retired_count(), 0, "both slots were released");
    }

    #[test]
    fn with_fallback_does_not_hold_the_writer_mutex() {
        let cell = Arc::new(Rcu::new(7u32));
        let slots: Vec<usize> = (0..HAZARD_SLOTS).map(|_| cell.test_pin_current()).collect();
        let (done, finished) = std::sync::mpsc::channel();
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                // Every slot busy: the closure runs on the fallback's owned
                // snapshot and writes to the very cell it reads.
                let seen = cell.with(|v| {
                    cell.store(8);
                    *v
                });
                done.send(seen).unwrap();
            })
        };
        let seen = finished
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a store inside the fallback closure deadlocked");
        writer.join().unwrap();
        assert_eq!(seen, 7);
        assert_eq!(*cell.read(), 8);
        for slot in slots {
            cell.test_unpin(slot);
        }
    }

    #[test]
    fn small_slot_instantiation_runs_the_same_protocol() {
        // The executor explores `Rcu<T, SchedBackend, 2>`; prove the
        // 2-slot instantiation behaves on the production backend too.
        let cell: Rcu<u32, StdBackend, 2> = Rcu::new_in(5);
        assert_eq!(*cell.read(), 5);
        cell.store(6);
        assert_eq!(*cell.read(), 6);
        assert_eq!(cell.with(|v| *v), 6);
        assert_eq!(cell.retired_count(), 0);
        assert_eq!(cell.generation(), 1);
    }
}
