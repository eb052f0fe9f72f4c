//! Executor scenarios over the **shipped** protocol implementations.
//!
//! Each scenario instantiates the real generic types —
//! `sack_kernel::sync::Rcu` and `sack_kernel::ring::RingIn` — with
//! [`SchedBackend`], so every statement the production hot path executes
//! is the statement explored here; only
//! the primitives underneath are swapped for scheduler-controlled ones.
//! In the Rcu scenarios threads 0..n-1 are readers/hooks and the last
//! thread is the writer.
//!
//! The invariants asserted:
//!
//! * [`rcu_read_write`] — no freed snapshot acquired (structural, via the
//!   executor's freed registry), snapshots linearizable, graveyard
//!   bounded by the hazard-slot count. With one slot, one reader and two
//!   writes the bound binds (a writer that never reclaims breaks it), and
//!   two readers against one write drive the second reader into
//!   `Rcu::read`'s all-slots-occupied writer-mutex fallback.
//! * [`profile_publish`] — profile-table snapshots are never torn, and
//!   the publish-before-bump ordering means a reader that observed the
//!   bumped epoch can never read the old table.
//! * the ring scenarios — the real MPSC submission ring
//!   (`sack_kernel::ring::RingIn`, the event plane's ingestion structure)
//!   on each path `EventPlane` drives: [`ring_produce_drain`] (two
//!   `try_enqueue` producers race the tail CAS against a draining
//!   consumer), [`ring_force_enqueue_drain`] and
//!   [`ring_force_enqueue_producers`] (drop-oldest `force_enqueue`
//!   against a consumer and against a second producer),
//!   [`ring_batch_drain`] (`try_enqueue_batch` against `dequeue_batch`)
//!   and [`ring_batch_vs_dequeuers`] (`try_enqueue_batch` waiting out
//!   racing `try_dequeue` releases).
//!   Frames are tagged `producer << 4 | index`; after every schedule the
//!   drained frames plus the residue hold no duplicate, keep each
//!   producer's order and number exactly produced − `dropped()`, and the
//!   per-call `force_enqueue` discard counts sum to `dropped()`
//!   (`check_ring`). The `RingTornPublish` mutation, a producer that
//!   publishes after losing its claim CAS, is caught on the
//!   `try_enqueue` and on the drop-oldest producers.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Mutex};

use sack_kernel::ring::RingIn;
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
    let mut threads = vec!["reader"; readers];
    threads.push("writer");
    Scenario {
        name: format!("rcu-read-vs-write-{readers}r-{writes}w"),
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
                    let snap = *cell.read();
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

type SRing = RingIn<u64, SchedBackend>;

/// Ring capacity of every ring scenario: two slots put a full ring, a
/// wrap and a drop within a handful of frames.
const RING_SLOTS: usize = 2;

/// The frame `producer` enqueues as its `index`-th: tagged
/// `producer << 4 | index`, so the invariants can follow every frame.
fn frame(producer: usize, index: usize) -> u64 {
    ((producer << 4) | index) as u64
}

/// A producer body pushing `count` tagged frames through
/// `RingIn::force_enqueue`, adding each call's discard count to
/// `discards`.
fn force_producer(
    ring: &Arc<SRing>,
    discards: &Arc<AtomicU64>,
    producer: usize,
    count: usize,
) -> Box<dyn FnOnce() + Send> {
    let ring = Arc::clone(ring);
    let discards = Arc::clone(discards);
    Box::new(move || {
        for index in 0..count {
            let n = ring.force_enqueue(frame(producer, index));
            discards.fetch_add(n, SeqCst);
        }
    })
}

/// A consumer body making `probes` `try_dequeue` calls, recording what
/// it drains; an empty probe (consumer ran first) is tolerated.
fn probing_consumer(
    ring: &Arc<SRing>,
    drained: &Arc<Mutex<Vec<u64>>>,
    probes: usize,
) -> Box<dyn FnOnce() + Send> {
    let ring = Arc::clone(ring);
    let drained = Arc::clone(drained);
    Box::new(move || {
        for _ in 0..probes {
            if let Some(v) = ring.try_dequeue() {
                poison_tolerant(&drained).push(v);
            }
        }
    })
}

/// The exact-accounting invariant of every ring scenario, checked after
/// the schedule. `produced[p]` is how many frames producer `p` enqueued
/// and `discards` the sum of its `force_enqueue` return values. The
/// consumer's drained frames followed by the residue left in the ring
/// must hold no duplicate, keep each producer's enqueue order, and number
/// exactly produced − `dropped()`; and the per-call discard counts must
/// sum to `dropped()`.
fn check_ring(
    ring: &SRing,
    drained: &Mutex<Vec<u64>>,
    discards: u64,
    produced: &[usize],
) -> Result<(), String> {
    let mut frames = poison_tolerant(drained).clone();
    while let Some(v) = ring.try_dequeue() {
        frames.push(v);
    }
    let dropped = ring.dropped();
    let total: usize = produced.iter().sum();
    let mut unique = frames.clone();
    unique.sort_unstable();
    unique.dedup();
    if unique.len() != frames.len() || frames.len() as u64 + dropped != total as u64 {
        return Err(format!(
            "ring lost or duplicated frames: drained + residue = {frames:x?} with \
             {dropped} dropped, from {total} produced"
        ));
    }
    for (p, &count) in produced.iter().enumerate() {
        let mine: Vec<u64> = frames
            .iter()
            .copied()
            .filter(|&v| v >> 4 == p as u64)
            .collect();
        if mine.windows(2).any(|w| w[0] >= w[1]) || mine.iter().any(|&v| v & 0xF >= count as u64) {
            return Err(format!(
                "ring reordered producer {p}'s frames: delivered {mine:x?}"
            ));
        }
    }
    if discards != dropped {
        return Err(format!(
            "drop count drift: force_enqueue reported {discards} discards, dropped() = {dropped}"
        ));
    }
    Ok(())
}

/// Two producers enqueue one frame each into the real 2-slot
/// [`RingIn`] while a consumer runs bounded `try_dequeue` probes — the
/// event plane's submit-vs-drain race at full contention (both producers
/// fight over the same tail position).
///
/// Invariants: `check_ring`, with nothing dropped (capacity equals the
/// frame count). The `RingTornPublish` mutation makes a producer that
/// lost the tail CAS publish anyway, and the executor finds the schedule
/// where one frame overwrites the other.
pub fn ring_produce_drain() -> Scenario {
    Scenario {
        name: "ring-produce-vs-drain".into(),
        threads: vec!["producer", "producer", "consumer"],
        make: Box::new(|| {
            let ring: Arc<SRing> = Arc::new(RingIn::new_in(RING_SLOTS));
            let drained: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for producer in 0..2 {
                let ring = Arc::clone(&ring);
                bodies.push(Box::new(move || {
                    // Two frames into two slots: the ring can never be
                    // full, so a single try_enqueue must succeed (its
                    // internal CAS loop retries lost races).
                    ring.try_enqueue(frame(producer, 0))
                        .unwrap_or_else(|_| panic!("2-slot ring full with 2 producers"));
                }));
            }
            bodies.push(probing_consumer(&ring, &drained, 2));
            let check = Box::new(move || check_ring(&ring, &drained, 0, &[1, 1]));
            ScenarioRun { bodies, check }
        }),
    }
}

/// `SACK/sds/ring`'s drop-oldest submit (`EventPlane::submit`) against
/// the drain: one producer pushes three frames through the real
/// `force_enqueue` into the 2-slot ring while a consumer runs two
/// `try_dequeue` probes. The producer overflows the ring, discards the
/// oldest frames, and waits in `spin_wait` when every frame is claimed
/// by the consumer but not yet released.
///
/// Invariants: `check_ring`.
pub fn ring_force_enqueue_drain() -> Scenario {
    Scenario {
        name: "ring-force-enqueue-vs-drain".into(),
        threads: vec!["producer", "consumer"],
        make: Box::new(|| {
            let ring: Arc<SRing> = Arc::new(RingIn::new_in(RING_SLOTS));
            let drained = Arc::new(Mutex::new(Vec::new()));
            let discards = Arc::new(AtomicU64::new(0));
            let bodies = vec![
                force_producer(&ring, &discards, 0, 3),
                probing_consumer(&ring, &drained, 2),
            ];
            let check = Box::new(move || check_ring(&ring, &drained, discards.load(SeqCst), &[3]));
            ScenarioRun { bodies, check }
        }),
    }
}

/// Two producers push two and one frames through the real
/// `force_enqueue` into the 2-slot ring with no consumer: each one's
/// drop-oldest path discards frames the other may be claiming or
/// publishing. The `RingTornPublish` mutation is caught here too.
///
/// Invariants: `check_ring`.
pub fn ring_force_enqueue_producers() -> Scenario {
    Scenario {
        name: "ring-force-enqueue-producers".into(),
        threads: vec!["producer", "producer"],
        make: Box::new(|| {
            let ring: Arc<SRing> = Arc::new(RingIn::new_in(RING_SLOTS));
            let discards = Arc::new(AtomicU64::new(0));
            let bodies = vec![
                force_producer(&ring, &discards, 0, 2),
                force_producer(&ring, &discards, 1, 1),
            ];
            let check = Box::new(move || {
                check_ring(
                    &ring,
                    &Mutex::new(Vec::new()),
                    discards.load(SeqCst),
                    &[2, 1],
                )
            });
            ScenarioRun { bodies, check }
        }),
    }
}

/// The one-write-one-batch path of the SACKfs ring node
/// (`EventPlane::submit_batch`) against the batch drain
/// (`EventPlane::drain`): one producer claims a two-frame span with the
/// real `try_enqueue_batch` while a consumer runs one `dequeue_batch`,
/// which may claim the span before it is published and wait the publish
/// out in `spin_wait`.
///
/// Invariants: `check_ring`, and the batch must fit (the ring starts
/// empty and has no other producer).
pub fn ring_batch_drain() -> Scenario {
    Scenario {
        name: "ring-batch-vs-batch-drain".into(),
        threads: vec!["producer", "consumer"],
        make: Box::new(|| {
            let ring: Arc<SRing> = Arc::new(RingIn::new_in(RING_SLOTS));
            let drained: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let producer = {
                let ring = Arc::clone(&ring);
                Box::new(move || {
                    ring.try_enqueue_batch(&[frame(0, 0), frame(0, 1)])
                        .unwrap_or_else(|_| {
                            panic!("2-frame batch rejected by an empty 2-slot ring")
                        });
                }) as Box<dyn FnOnce() + Send>
            };
            let consumer = {
                let ring = Arc::clone(&ring);
                let drained = Arc::clone(&drained);
                Box::new(move || {
                    let mut out = Vec::new();
                    ring.dequeue_batch(&mut out, usize::MAX);
                    poison_tolerant(&drained).extend(out);
                }) as Box<dyn FnOnce() + Send>
            };
            let check = Box::new(move || check_ring(&ring, &drained, 0, &[2]));
            ScenarioRun {
                bodies: vec![producer, consumer],
                check,
            }
        }),
    }
}

/// The batch publish's wait: a full 2-slot ring (two frames enqueued
/// during setup) is drained by two racing `try_dequeue` threads while a
/// producer submits a two-frame `try_enqueue_batch`. The dequeuers claim
/// head positions in order but may release out of order, so the batch
/// can win its span claim on the released last slot and then wait in
/// `spin_wait` for the first slot's release.
///
/// Invariants: `check_ring`, with the batch counted when it fit.
pub fn ring_batch_vs_dequeuers() -> Scenario {
    Scenario {
        name: "ring-batch-vs-dequeuers".into(),
        threads: vec!["dequeuer", "dequeuer", "producer"],
        make: Box::new(|| {
            let ring: Arc<SRing> = Arc::new(RingIn::new_in(RING_SLOTS));
            ring.try_enqueue_batch(&[frame(0, 0), frame(0, 1)])
                .unwrap_or_else(|_| panic!("setup batch rejected by an empty ring"));
            let drained: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let batched = Arc::new(AtomicU64::new(0));
            let producer = {
                let ring = Arc::clone(&ring);
                let batched = Arc::clone(&batched);
                Box::new(move || {
                    if ring.try_enqueue_batch(&[frame(1, 0), frame(1, 1)]).is_ok() {
                        batched.store(2, SeqCst);
                    }
                }) as Box<dyn FnOnce() + Send>
            };
            let bodies = vec![
                probing_consumer(&ring, &drained, 1),
                probing_consumer(&ring, &drained, 1),
                producer,
            ];
            let check = Box::new(move || {
                // Each dequeuer takes at most one frame, so the order in
                // which the two append says nothing; sort their frames
                // and check the residue's order after them.
                poison_tolerant(&drained).sort_unstable();
                check_ring(&ring, &drained, 0, &[2, batched.load(SeqCst) as usize])
            });
            ScenarioRun { bodies, check }
        }),
    }
}
