//! Executor scenarios over the **shipped** protocol implementations.
//!
//! Each scenario instantiates the real generic `sack_kernel::sync::Rcu`
//! with [`SchedBackend`], so every statement the production hot path
//! executes is the statement explored here; only the primitives
//! underneath are swapped for scheduler-controlled ones. Threads 0..n-1
//! are readers/hooks and the last thread is the writer.
//!
//! The invariants asserted:
//!
//! * [`rcu_read_write`] — no freed snapshot acquired (structural, via the
//!   executor's freed registry), snapshots linearizable, graveyard
//!   bounded by the hazard-slot count. With one slot, one reader and two
//!   writes the bound binds (a writer that never reclaims breaks it), and
//!   two readers against one write drive the second reader into
//!   `Rcu::read`'s all-slots-occupied writer-mutex fallback.
//! * [`rcu_with_write`] — the same invariants for readers that borrow the
//!   snapshot through `Rcu::with`, plus no snapshot freed while a closure
//!   still holds it.
//! * [`profile_publish`] — profile-table snapshots are never torn, and
//!   the publish-before-bump ordering means a reader that observed the
//!   bumped epoch can never read the old table.

use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Mutex};

use sack_kernel::sync::shim::RawAtomicUsize;
use sack_kernel::sync::{Backend, Rcu};

use super::backend::SchedBackend;
use super::executor::{Scenario, ScenarioRun};

/// Hazard-slot count used by executor Rcu instances: one slot keeps the
/// schedule space exhaustively explorable, makes the graveyard bound
/// reachable with two writes, and sends a second concurrent reader down
/// the all-slots-occupied fallback, while running the identical protocol
/// code as the 64-slot production default.
pub const SCHED_SLOTS: usize = 1;

type SRcu<T> = Rcu<T, SchedBackend, SCHED_SLOTS>;
type SAtomicUsize = <SchedBackend as Backend>::AtomicUsize;

fn poison_tolerant<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// `readers` threads each take one `Rcu::read` snapshot while one writer
/// publishes `writes` new values in turn — the `file_open` hook racing
/// policy reloads.
///
/// The writer publishes snapshots built in `make`, through
/// `Rcu::store_arc`. Allocating them in the writer (`Rcu::store`) would
/// let the allocator hand a freed snapshot's address to the next one, and
/// whether it does varies from run to run; the reader's pointer
/// comparison would then take different paths under the same schedule
/// prefix, and the exploration could not replay its own prefixes.
///
/// Invariants: every snapshot is the initial or a published value, the
/// last publish is never lost, the graveyard stays within the hazard-slot
/// bound, and (structurally) no reader acquires a freed snapshot. The
/// `RcuSkipValidation` and `RcuFreeBeforeScan` mutations are caught here.
pub fn rcu_read_write(readers: usize, writes: usize) -> Scenario {
    rcu_vs_writer("read", readers, writes, |cell| *cell.read())
}

/// As [`rcu_read_write`], but each reader lends its snapshot to a
/// `Rcu::with` closure instead of taking a strong count — the hook-path
/// read. `with` checks the snapshot is still live as the closure ends, so
/// the `RcuWithEarlyRelease` mutation (the announcement withdrawn before
/// the closure returns) is caught here, as are the two `read` mutations.
/// With two readers and one slot the second reader runs its closure on
/// the fallback's owned snapshot.
pub fn rcu_with_write(readers: usize, writes: usize) -> Scenario {
    rcu_vs_writer("with", readers, writes, |cell| cell.with(|v| *v))
}

/// `readers` threads each take one snapshot through `read_op` while one
/// writer publishes `writes` values; the shared body of the `Rcu`
/// scenarios.
fn rcu_vs_writer(
    op: &str,
    readers: usize,
    writes: usize,
    read_op: fn(&SRcu<u64>) -> u64,
) -> Scenario {
    let mut threads = vec!["reader"; readers];
    threads.push("writer");
    Scenario {
        name: format!("rcu-{op}-vs-write-{readers}r-{writes}w"),
        threads,
        make: Box::new(move || {
            let cell = Arc::new(SRcu::new_in(0u64));
            let snapshots: Vec<Arc<u64>> = (1..=writes as u64).map(Arc::new).collect();
            let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for _ in 0..readers {
                let cell = Arc::clone(&cell);
                let seen = Arc::clone(&seen);
                bodies.push(Box::new(move || {
                    let snap = read_op(&cell);
                    poison_tolerant(&seen).push(snap);
                }));
            }
            {
                let cell = Arc::clone(&cell);
                bodies.push(Box::new(move || {
                    for snapshot in snapshots {
                        cell.store_arc(snapshot);
                    }
                }));
            }
            let check = Box::new(move || {
                for &v in poison_tolerant(&seen).iter() {
                    if v > writes as u64 {
                        return Err(format!("reader saw value {v}, never published"));
                    }
                }
                if *cell.read() != writes as u64 {
                    return Err("publish lost: final snapshot is not the last stored value".into());
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
        name: "profile-table-publish".into(),
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
                    let e = epoch.load(SeqCst);
                    let snap = table.read();
                    poison_tolerant(&seen).push((e, snap.revision, snap.checksum));
                }) as Box<dyn FnOnce() + Send>
            };
            let writer = {
                let table = Arc::clone(&table);
                let epoch = Arc::clone(&epoch);
                Box::new(move || {
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
