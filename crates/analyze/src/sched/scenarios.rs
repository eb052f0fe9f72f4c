//! Executor scenarios over the **shipped** protocol implementations.
//!
//! Each scenario instantiates the real generic types —
//! `sack_kernel::sync::Rcu`, `sack_kernel::ring::RingIn`,
//! `sack_kernel::sync::LazySlot` — with [`SchedBackend`], so every statement
//! the production hot path executes is the statement explored here; only
//! the primitives underneath are swapped for scheduler-controlled ones.
//! Thread 0..n-1 are readers/hooks and the last thread is the writer, the
//! same convention as the abstract models in `crate::models` (which lets
//! model counterexamples act as schedule hints, see `super::conformance`).
//!
//! The invariants asserted are the ones the abstract models prove:
//!
//! * [`rcu_read_write`] — no freed snapshot acquired (structural, via the
//!   executor's freed registry), snapshots linearizable, graveyard
//!   bounded by the hazard-slot count.
//! * [`profile_publish`] — profile-table snapshots are never torn, and
//!   the publish-before-bump ordering means a reader that observed the
//!   bumped epoch can never read the old table.
//! * [`ring_produce_drain`] — the real MPSC submission ring
//!   (`sack_kernel::ring::RingIn`, the event plane's ingestion structure):
//!   two producers race the tail CAS against a draining consumer; no
//!   frame may be lost or duplicated (the `RingTornPublish` mutation
//!   plants the lost-claim publish the `RingModel` predicts).
//! * [`lazy_first_touch`] — the real `LazySlot` compile-or-reuse
//!   protocol behind lazy profile compilation: two hooks race the
//!   first-touch build; at most one builder may run, losers must fall
//!   back (`None`) rather than block, and every published value is the
//!   built one (the `LazyDoublePublish` mutation plants the
//!   claim-skipping double publish, caught as a structural
//!   use-after-free).

use std::sync::{Arc, Mutex};

use sack_kernel::ring::RingIn;
use sack_kernel::sync::shim::RawAtomicUsize;
use sack_kernel::sync::{Backend, LazySlot, Rcu};

use super::backend::SchedBackend;
use super::executor::{Scenario, ScenarioRun};

/// Hazard-slot count used by executor Rcu instances: small enough that a
/// 2-thread scenario's schedule space is exhaustively explorable, while
/// running the identical protocol code as the 64-slot production default.
pub const SCHED_SLOTS: usize = 2;

type SRcu<T> = Rcu<T, SchedBackend, SCHED_SLOTS>;
type SAtomicUsize = <SchedBackend as Backend>::AtomicUsize;

fn poison_tolerant<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// `readers` threads each take one `Rcu::read` snapshot while one writer
/// publishes a new value — the `file_open` hook racing a policy reload.
///
/// Invariants: every snapshot is the initial or the published value, the
/// publish is never lost, the graveyard stays within the hazard-slot
/// bound, and (structurally) no reader acquires a freed snapshot. The
/// `RcuSkipValidation` and `RcuFreeBeforeScan` mutations are caught here.
pub fn rcu_read_write(readers: usize) -> Scenario {
    let mut threads = vec!["reader"; readers];
    threads.push("writer");
    Scenario {
        name: "rcu-read-vs-write",
        threads,
        make: Box::new(move || {
            let cell = Arc::new(SRcu::new_in(0u64));
            let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..readers {
                let cell = Arc::clone(&cell);
                let seen = Arc::clone(&seen);
                bodies.push(Box::new(move || {
                    let snap = *cell.read();
                    poison_tolerant(&seen).push(snap);
                }));
            }
            {
                let cell = Arc::clone(&cell);
                bodies.push(Box::new(move || {
                    cell.store(1);
                }));
            }
            let check = Box::new(move || {
                for &v in poison_tolerant(&seen).iter() {
                    if v != 0 && v != 1 {
                        return Err(format!("reader saw value {v}, never published"));
                    }
                }
                if *cell.read() != 1 {
                    return Err("publish lost: final snapshot is not the stored value".into());
                }
                if cell.retired_count() > SCHED_SLOTS {
                    return Err(format!(
                        "graveyard bound violated: {} retired > {} hazard slots",
                        cell.retired_count(),
                        SCHED_SLOTS
                    ));
                }
                Ok(())
            });
            ScenarioRun { bodies, check }
        }),
    }
}

/// A profile table stand-in with redundant internals, so a torn snapshot
/// is detectable: a consistent table always has `checksum == 2 * revision`.
struct PublishedTable {
    revision: u64,
    checksum: u64,
}

/// The AppArmor profile-table publish path: the writer builds a complete
/// replacement table, publishes it through `Rcu::store` (the single
/// atomic swap `ProfileStore::replace_all` relies on), then bumps the
/// policy epoch. The reader loads the epoch first, then reads the table —
/// the hook-side order.
///
/// Invariants: no torn table is ever observable (both halves of the
/// snapshot are consistent), and a reader that saw the bumped epoch reads
/// the *new* table (publish-happens-before-bump through the real `Rcu`).
pub fn profile_publish() -> Scenario {
    Scenario {
        name: "profile-table-publish",
        threads: vec!["reader", "writer"],
        make: Box::new(|| {
            let table = Arc::new(SRcu::new_in(PublishedTable {
                revision: 1,
                checksum: 2,
            }));
            let epoch: Arc<SAtomicUsize> = Arc::new(RawAtomicUsize::new(1));
            let seen: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
            let reader = {
                let table = Arc::clone(&table);
                let epoch = Arc::clone(&epoch);
                let seen = Arc::clone(&seen);
                Box::new(move || {
                    use std::sync::atomic::Ordering::SeqCst;
                    let e = epoch.load(SeqCst);
                    let snap = table.read();
                    poison_tolerant(&seen).push((e, snap.revision, snap.checksum));
                }) as Box<dyn FnOnce() + Send>
            };
            let writer = {
                let table = Arc::clone(&table);
                let epoch = Arc::clone(&epoch);
                Box::new(move || {
                    use std::sync::atomic::Ordering::SeqCst;
                    table.store(PublishedTable {
                        revision: 2,
                        checksum: 4,
                    });
                    epoch.fetch_add(1, SeqCst);
                }) as Box<dyn FnOnce() + Send>
            };
            let check = Box::new(move || {
                for &(e, rev, sum) in poison_tolerant(&seen).iter() {
                    if sum != 2 * rev {
                        return Err(format!(
                            "torn profile-table read: revision {rev} with checksum {sum}"
                        ));
                    }
                    if e as u64 > rev {
                        return Err(format!(
                            "reader saw epoch {e} but revision-{rev} table: \
                             publish-before-bump ordering violated"
                        ));
                    }
                }
                Ok(())
            });
            ScenarioRun {
                bodies: vec![reader, writer],
                check,
            }
        }),
    }
}

/// Two producers enqueue one frame each into the real 2-slot
/// [`RingIn`] while a consumer runs bounded `try_dequeue` probes — the
/// event plane's submit-vs-drain race at full contention (both producers
/// fight over the same tail position).
///
/// Invariants: the controller drains the residue after the schedule and
/// the union of consumer-drained and residue frames must be exactly the
/// multiset {10, 20} — no lost, no duplicated frame, nothing dropped
/// (capacity equals the frame count). The `RingTornPublish` mutation
/// makes a producer that lost the tail CAS publish anyway, and the
/// executor finds the schedule where one frame overwrites the other.
pub fn ring_produce_drain() -> Scenario {
    Scenario {
        name: "ring-produce-vs-drain",
        threads: vec!["producer", "producer", "consumer"],
        make: Box::new(|| {
            let ring: Arc<RingIn<u64, SchedBackend>> = Arc::new(RingIn::new_in(2));
            let drained: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for value in [10u64, 20] {
                let ring = Arc::clone(&ring);
                bodies.push(Box::new(move || {
                    // Two frames into two slots: the ring can never be
                    // full, so a single try_enqueue must succeed (its
                    // internal CAS loop retries lost races).
                    ring.try_enqueue(value)
                        .unwrap_or_else(|_| panic!("2-slot ring full with 2 producers"));
                }));
            }
            {
                let ring = Arc::clone(&ring);
                let drained = Arc::clone(&drained);
                bodies.push(Box::new(move || {
                    // Bounded probes: drain what is visible, tolerate
                    // running before the producers.
                    for _ in 0..2 {
                        if let Some(v) = ring.try_dequeue() {
                            poison_tolerant(&drained).push(v);
                        }
                    }
                }));
            }
            let check = Box::new(move || {
                let mut frames = poison_tolerant(&drained).clone();
                while let Some(v) = ring.try_dequeue() {
                    frames.push(v);
                }
                frames.sort_unstable();
                if frames != [10, 20] {
                    return Err(format!(
                        "ring lost or duplicated frames: drained + residue = {frames:?}, \
                         expected [10, 20]"
                    ));
                }
                if ring.dropped() != 0 {
                    return Err(format!(
                        "{} frames dropped with the ring never full",
                        ring.dropped()
                    ));
                }
                Ok(())
            });
            ScenarioRun { bodies, check }
        }),
    }
}

/// Two hook threads race the first touch of one uncompiled profile body:
/// both call the real `LazySlot::get_or_build` (the exact code
/// `SharedDfa::force` runs under a hook), with the builder counted.
///
/// Invariants: the claim CAS admits exactly one builder in every
/// schedule; a loser returns `None` (the caller's scan fallback) or the
/// winner's value — never a second build, never a torn value; and after
/// the race the slot holds the built value. The `LazyDoublePublish`
/// mutation skips the claim and publishes by pointer swap, freeing the
/// loser's allocation while the other thread may still hold it — the
/// executor finds that schedule as a structural use-after-free (or a
/// double build, whichever the schedule exposes first).
pub fn lazy_first_touch() -> Scenario {
    Scenario {
        name: "lazy-first-touch-compile",
        threads: vec!["hook", "hook"],
        make: Box::new(|| {
            let slot: Arc<LazySlot<u64, SchedBackend>> = Arc::new(LazySlot::empty());
            let builds = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let seen: Arc<Mutex<Vec<Option<u64>>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..2 {
                let slot = Arc::clone(&slot);
                let builds = Arc::clone(&builds);
                let seen = Arc::clone(&seen);
                bodies.push(Box::new(move || {
                    let got = slot
                        .get_or_build(|| {
                            builds.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            42
                        })
                        .copied();
                    poison_tolerant(&seen).push(got);
                }));
            }
            let check = Box::new(move || {
                let builds = builds.load(std::sync::atomic::Ordering::SeqCst);
                if builds != 1 {
                    return Err(format!(
                        "first-touch compile ran {builds} times, must be exactly once"
                    ));
                }
                for got in poison_tolerant(&seen).iter() {
                    match got {
                        None | Some(42) => {}
                        Some(v) => {
                            return Err(format!("hook observed value {v}, never built by anyone"))
                        }
                    }
                }
                match slot.get() {
                    Some(&42) => Ok(()),
                    other => Err(format!(
                        "slot does not retain the built value after the race: {other:?}"
                    )),
                }
            });
            ScenarioRun { bodies, check }
        }),
    }
}
