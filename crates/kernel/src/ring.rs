//! Bounded MPSC submission ring for the async sensor-event plane.
//!
//! An io_uring-style submission queue between sensor-frame producers (the
//! SDS, one thread per sensor cluster) and the kernel-side drain that
//! consumes frames in batches (DESIGN.md §11). The algorithm is the
//! classic bounded ring with a per-slot sequence number (Vyukov's MPMC
//! queue): producers claim a slot by CAS on the tail cursor, publish the
//! frame, then release the slot to the consumer by advancing its sequence;
//! the drain claims from the head cursor the same way. Enqueue is
//! lock-free — a producer never blocks on another producer or on the
//! drain, it either wins its claim CAS or retries on the advanced cursor.
//!
//! Backpressure is the caller's policy decision, built from two
//! primitives: [`RingIn::try_enqueue`] fails when the ring is full
//! (block-style callers drain and retry), and [`RingIn::force_enqueue`]
//! discards the oldest frames to make room, counting every discard in a
//! producer-visible drop counter (drop-oldest policy). Dropping the
//! *oldest* frame is the right semantics for sensor streams: the newest
//! observation supersedes stale ones, and the coalescing drain collapses
//! runs of frames anyway.
//!
//! Like `Rcu`, every atomic goes through the [`shim::Backend`] seam, and
//! so does every wait: the drop-oldest retry and the two batch publish
//! and drain waits call [`Backend::spin_wait`]. `sack-analyze` therefore
//! explores this exact code under its deterministic scheduler
//! (`RingIn<u64, SchedBackend>`), including `force_enqueue` and both
//! batch paths, and the `RingTornPublish` mutation plants the canonical
//! lost-frame bug (a producer that ignores a lost claim CAS) for the
//! executor to catch.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering::SeqCst;

use crate::sync::shim::{self, RawAtomicU64, RawAtomicUsize};
use crate::sync::{Backend, Mutation, StdBackend};

/// One ring slot: the sequence word arbitrates ownership (see module
/// docs), the cell holds the frame while the slot is full.
struct Slot<T, B: Backend> {
    seq: B::AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Error returned by [`RingIn::try_enqueue`] on a full ring; carries the
/// rejected frame back to the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull<T>(pub T);

/// The bounded MPSC submission ring. `T` is the fixed-size frame type
/// (`Copy`, so slots never need dropping and a reload-racing reader can
/// never observe a torn non-trivial destructor); `B` selects the
/// synchronisation backend exactly as for `Rcu`.
pub struct RingIn<T: Copy, B: Backend = StdBackend> {
    slots: Box<[Slot<T, B>]>,
    mask: usize,
    /// Producer cursor: next slot index to claim for enqueue.
    tail: B::AtomicUsize,
    /// Consumer cursor: next slot index to claim for dequeue.
    head: B::AtomicUsize,
    /// Frames successfully enqueued over the ring's lifetime.
    enqueued: B::AtomicU64,
    /// Frames successfully dequeued (drained or discarded).
    dequeued: B::AtomicU64,
    /// Frames discarded by [`RingIn::force_enqueue`] to make room — the
    /// producer-visible backpressure counter.
    dropped: B::AtomicU64,
}

/// Production-backend ring, the type the event plane instantiates.
pub type Ring<T> = RingIn<T, StdBackend>;

// SAFETY: the sequence protocol hands each slot to exactly one thread at
// a time (the claimant between its claim CAS and its sequence release),
// so the `UnsafeCell` is never accessed concurrently; `T: Send` moves
// frames across threads, `T: Copy` keeps slot reclamation trivial.
unsafe impl<T: Copy + Send, B: Backend> Send for RingIn<T, B> {}
unsafe impl<T: Copy + Send, B: Backend> Sync for RingIn<T, B> {}

impl<T: Copy> Ring<T> {
    /// Creates a production-backend ring with `capacity` slots.
    pub fn new(capacity: usize) -> Ring<T> {
        Ring::new_in(capacity)
    }
}

impl<T: Copy, B: Backend> RingIn<T, B> {
    /// Creates a ring with `capacity` slots on backend `B`.
    ///
    /// # Panics
    ///
    /// `capacity` must be a power of two and at least 2 (the cursor
    /// arithmetic masks slot indexes).
    pub fn new_in(capacity: usize) -> RingIn<T, B> {
        assert!(
            capacity.is_power_of_two() && capacity >= 2,
            "ring capacity must be a power of two >= 2, got {capacity}"
        );
        RingIn {
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: shim::RawAtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: capacity - 1,
            tail: shim::RawAtomicUsize::new(0),
            head: shim::RawAtomicUsize::new(0),
            enqueued: shim::RawAtomicU64::new(0),
            dequeued: shim::RawAtomicU64::new(0),
            dropped: shim::RawAtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Frames currently in the ring. Racy under concurrent producers —
    /// a stats/threshold snapshot, not a synchronisation primitive.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(SeqCst);
        let head = self.head.load(SeqCst);
        tail.wrapping_sub(head).min(self.capacity())
    }

    /// True when no frame is enqueued (racy snapshot, as [`RingIn::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lock-free producer enqueue.
    ///
    /// # Errors
    ///
    /// Returns the frame back inside [`RingFull`] when every slot holds an
    /// unconsumed frame — the caller picks the backpressure policy (drain
    /// and retry, or [`RingIn::force_enqueue`]).
    pub fn try_enqueue(&self, value: T) -> Result<(), RingFull<T>> {
        let mut pos = self.tail.load(SeqCst);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(SeqCst);
            let dif = seq.wrapping_sub(pos) as isize;
            if dif == 0 {
                // Slot is free for this lap: claim it by advancing tail.
                let claimed =
                    match self
                        .tail
                        .compare_exchange(pos, pos.wrapping_add(1), SeqCst, SeqCst)
                    {
                        Ok(_) => true,
                        Err(cur) => {
                            if B::mutation(Mutation::RingTornPublish) {
                                // Planted bug (executor-only): pretend the lost
                                // claim succeeded and publish into a slot another
                                // producer owns — one of the two frames vanishes.
                                true
                            } else {
                                pos = cur;
                                false
                            }
                        }
                    };
                if claimed {
                    // SAFETY: the claim CAS (tail: pos -> pos+1) succeeded,
                    // so this thread exclusively owns slot `pos` until the
                    // sequence release below.
                    unsafe { (*slot.value.get()).write(value) };
                    slot.seq.store(pos.wrapping_add(1), SeqCst);
                    self.enqueued.fetch_add(1, SeqCst);
                    return Ok(());
                }
            } else if dif < 0 {
                // The slot still holds the frame from one lap ago: full.
                return Err(RingFull(value));
            } else {
                // Another producer claimed this position; reload the cursor.
                pos = self.tail.load(SeqCst);
            }
        }
    }

    /// Enqueue under the drop-oldest backpressure policy: when the ring is
    /// full, discard the oldest pending frames (counting each in the drop
    /// counter) until the new frame fits. Returns how many frames this
    /// call discarded, so the producer sees the loss it caused.
    pub fn force_enqueue(&self, mut value: T) -> u64 {
        let mut discarded = 0;
        loop {
            match self.try_enqueue(value) {
                Ok(()) => return discarded,
                Err(RingFull(back)) => {
                    value = back;
                    if self.try_dequeue().is_some() {
                        self.dropped.fetch_add(1, SeqCst);
                        discarded += 1;
                    } else {
                        // Nothing to discard: a concurrent drain emptied
                        // the ring, or every frame sits between another
                        // thread's claim and its release. Let that thread
                        // move, then retry.
                        B::spin_wait();
                    }
                }
            }
        }
    }

    /// Lock-free batch enqueue: claims a contiguous span of
    /// `items.len()` slots with a **single** tail CAS, then publishes the
    /// frames slot by slot — the per-frame claim cost of
    /// [`RingIn::try_enqueue`] amortizes over the whole batch, which is
    /// what makes the SACKfs ring node's one-write-one-batch path cheap.
    ///
    /// The span is admissible when the *last* slot of the span is free
    /// for this lap: the consumer side claims head positions in order, so
    /// every earlier slot of the span is then free too, or owned by a
    /// racing dequeuer that is about to release it (the publish loop
    /// waits that handful of instructions out).
    ///
    /// # Errors
    ///
    /// [`RingFull`] when the ring has fewer than `items.len()` free slots
    /// (or the batch exceeds the capacity outright) — nothing is
    /// enqueued; the caller falls back to per-frame backpressure.
    pub fn try_enqueue_batch(&self, items: &[T]) -> Result<(), RingFull<()>> {
        let k = items.len();
        if k == 0 {
            return Ok(());
        }
        if k > self.capacity() {
            return Err(RingFull(()));
        }
        let mut pos = self.tail.load(SeqCst);
        loop {
            let last = pos.wrapping_add(k - 1);
            let slot = &self.slots[last & self.mask];
            let seq = slot.seq.load(SeqCst);
            let dif = seq.wrapping_sub(last) as isize;
            if dif == 0 {
                match self
                    .tail
                    .compare_exchange(pos, pos.wrapping_add(k), SeqCst, SeqCst)
                {
                    Ok(_) => {
                        for (i, item) in items.iter().enumerate() {
                            let p = pos.wrapping_add(i);
                            let slot = &self.slots[p & self.mask];
                            // A racing dequeuer may have claimed this
                            // slot's previous lap without releasing it
                            // yet; its release is imminent.
                            while slot.seq.load(SeqCst) != p {
                                B::spin_wait();
                            }
                            // SAFETY: the span claim CAS (tail: pos ->
                            // pos+k) succeeded and the slot's sequence
                            // reached `p`, so this thread exclusively
                            // owns slot `p` until the release below.
                            unsafe { (*slot.value.get()).write(*item) };
                            slot.seq.store(p.wrapping_add(1), SeqCst);
                        }
                        self.enqueued.fetch_add(k as u64, SeqCst);
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                // Not enough free slots for the whole span.
                return Err(RingFull(()));
            } else {
                pos = self.tail.load(SeqCst);
            }
        }
    }

    /// Dequeues the oldest frame, or `None` when the ring is empty. Used
    /// by the kernel-side drain and by [`RingIn::force_enqueue`]'s
    /// drop-oldest path, so claims go through the same head CAS.
    pub fn try_dequeue(&self) -> Option<T> {
        let mut pos = self.head.load(SeqCst);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(SeqCst);
            let dif = seq.wrapping_sub(pos.wrapping_add(1)) as isize;
            if dif == 0 {
                // Slot holds a published frame for this lap: claim it.
                match self
                    .head
                    .compare_exchange(pos, pos.wrapping_add(1), SeqCst, SeqCst)
                {
                    Ok(_) => {
                        // SAFETY: the claim CAS (head: pos -> pos+1)
                        // succeeded, so this thread exclusively owns the
                        // published frame in slot `pos`.
                        let value = unsafe { (*slot.value.get()).assume_init() };
                        // Release the slot to producers, one lap ahead.
                        slot.seq.store(pos.wrapping_add(self.mask + 1), SeqCst);
                        self.dequeued.fetch_add(1, SeqCst);
                        return Some(value);
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                // The slot is not yet published for this lap: empty (or a
                // producer claimed it but has not released it yet — to the
                // consumer that is the same thing).
                return None;
            } else {
                pos = self.head.load(SeqCst);
            }
        }
    }

    /// Batch dequeue: claims every currently-published frame (up to
    /// `max`) with a **single** head CAS and appends them to `out`,
    /// returning the count — the drain-side twin of
    /// [`RingIn::try_enqueue_batch`]. A claimed slot whose producer has
    /// not finished publishing is waited out (the producer is between its
    /// claim and its release, a handful of instructions).
    pub fn dequeue_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut pos = self.head.load(SeqCst);
        loop {
            let tail = self.tail.load(SeqCst);
            let avail = tail.wrapping_sub(pos);
            if avail == 0 || avail > self.capacity() {
                // Empty — or a stale head snapshot (avail can only exceed
                // the capacity when `pos` lagged a concurrent claim).
                let cur = self.head.load(SeqCst);
                if cur == pos {
                    return 0;
                }
                pos = cur;
                continue;
            }
            let k = avail.min(max);
            match self
                .head
                .compare_exchange(pos, pos.wrapping_add(k), SeqCst, SeqCst)
            {
                Ok(_) => {
                    for i in 0..k {
                        let p = pos.wrapping_add(i);
                        let slot = &self.slots[p & self.mask];
                        // The claim span runs up to a tail snapshot, so
                        // each slot is published or about to be.
                        while slot.seq.load(SeqCst) != p.wrapping_add(1) {
                            B::spin_wait();
                        }
                        // SAFETY: the span claim CAS (head: pos -> pos+k)
                        // succeeded and the slot's sequence shows a
                        // published frame, so this thread exclusively
                        // owns it.
                        let value = unsafe { (*slot.value.get()).assume_init() };
                        slot.seq.store(p.wrapping_add(self.mask + 1), SeqCst);
                        out.push(value);
                    }
                    self.dequeued.fetch_add(k as u64, SeqCst);
                    return k;
                }
                Err(cur) => pos = cur,
            }
        }
    }

    /// Frames successfully enqueued over the ring's lifetime.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(SeqCst)
    }

    /// Frames dequeued (drained plus discarded) over the ring's lifetime.
    pub fn dequeued(&self) -> u64 {
        self.dequeued.load(SeqCst)
    }

    /// Frames discarded by drop-oldest backpressure — the producer-visible
    /// loss counter.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(SeqCst)
    }
}

impl<T: Copy, B: Backend> fmt::Debug for RingIn<T, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("enqueued", &self.enqueued())
            .field("dequeued", &self.dequeued())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_within_capacity() {
        let ring: Ring<u32> = Ring::new(8);
        for i in 0..8 {
            ring.try_enqueue(i).unwrap();
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.try_enqueue(99), Err(RingFull(99)));
        for i in 0..8 {
            assert_eq!(ring.try_dequeue(), Some(i));
        }
        assert_eq!(ring.try_dequeue(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn wraparound_many_laps() {
        let ring: Ring<u64> = Ring::new(4);
        for i in 0..1000u64 {
            ring.try_enqueue(i).unwrap();
            assert_eq!(ring.try_dequeue(), Some(i));
        }
        assert_eq!(ring.enqueued(), 1000);
        assert_eq!(ring.dequeued(), 1000);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn force_enqueue_drops_oldest_with_exact_count() {
        let ring: Ring<u32> = Ring::new(4);
        for i in 0..4 {
            assert_eq!(ring.force_enqueue(i), 0);
        }
        // Ring full: each further frame evicts exactly the oldest.
        assert_eq!(ring.force_enqueue(4), 1);
        assert_eq!(ring.force_enqueue(5), 1);
        assert_eq!(ring.dropped(), 2);
        // Oldest two (0, 1) are gone; order of the rest is preserved.
        let drained: Vec<u32> = std::iter::from_fn(|| ring.try_dequeue()).collect();
        assert_eq!(drained, vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn capacity_must_be_power_of_two() {
        let _ = Ring::<u32>::new(6);
    }

    #[test]
    fn batch_enqueue_dequeue_round_trip() {
        let ring: Ring<u32> = Ring::new(8);
        ring.try_enqueue_batch(&[1, 2, 3]).unwrap();
        ring.try_enqueue_batch(&[]).unwrap();
        ring.try_enqueue_batch(&[4, 5]).unwrap();
        assert_eq!(ring.len(), 5);
        let mut out = Vec::new();
        assert_eq!(ring.dequeue_batch(&mut out, 4), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(ring.dequeue_batch(&mut out, usize::MAX), 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(ring.dequeue_batch(&mut out, usize::MAX), 0);
        assert_eq!(ring.enqueued(), 5);
        assert_eq!(ring.dequeued(), 5);
    }

    #[test]
    fn batch_enqueue_rejects_spans_that_do_not_fit() {
        let ring: Ring<u32> = Ring::new(4);
        assert_eq!(ring.try_enqueue_batch(&[0; 5]), Err(RingFull(())));
        ring.try_enqueue_batch(&[1, 2, 3]).unwrap();
        // Only one slot free: a 2-frame span must fail without enqueuing
        // anything, and the single free slot must still be claimable.
        assert_eq!(ring.try_enqueue_batch(&[8, 9]), Err(RingFull(())));
        assert_eq!(ring.len(), 3);
        ring.try_enqueue_batch(&[4]).unwrap();
        let drained: Vec<u32> = std::iter::from_fn(|| ring.try_dequeue()).collect();
        assert_eq!(drained, vec![1, 2, 3, 4]);
    }

    #[test]
    fn batch_ops_wrap_across_many_laps() {
        let ring: Ring<u64> = Ring::new(8);
        let mut next = 0u64;
        let mut expect = 0u64;
        let mut out = Vec::new();
        for lap in 0..200u64 {
            let k = (lap % 7 + 1) as usize;
            let batch: Vec<u64> = (0..k as u64).map(|i| next + i).collect();
            ring.try_enqueue_batch(&batch).unwrap();
            next += k as u64;
            out.clear();
            assert_eq!(ring.dequeue_batch(&mut out, usize::MAX), k);
            for v in &out {
                assert_eq!(*v, expect);
                expect += 1;
            }
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn concurrent_batch_producers_lose_no_frames() {
        const PRODUCERS: u64 = 4;
        const BATCHES: u64 = 500;
        const BATCH: u64 = 8;
        let ring: Arc<Ring<u64>> = Arc::new(Ring::new(64));
        let consumed = thread::scope(|s| {
            for p in 0..PRODUCERS {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for b in 0..BATCHES {
                        let base = (p * BATCHES + b) * BATCH;
                        let batch: Vec<u64> = (0..BATCH).map(|i| base + i).collect();
                        while ring.try_enqueue_batch(&batch).is_err() {
                            thread::yield_now();
                        }
                    }
                });
            }
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                let mut got: Vec<u64> = Vec::new();
                while (got.len() as u64) < PRODUCERS * BATCHES * BATCH {
                    if ring.dequeue_batch(&mut got, usize::MAX) == 0 {
                        thread::yield_now();
                    }
                }
                got
            })
            .join()
            .unwrap()
        });
        assert_eq!(consumed.len() as u64, PRODUCERS * BATCHES * BATCH);
        let mut sorted = consumed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), consumed.len(), "duplicated frame");
        // Each producer's frames arrive in its enqueue order, and each
        // batch's span is contiguous in the consumed stream.
        for p in 0..PRODUCERS {
            let lo = p * BATCHES * BATCH;
            let hi = (p + 1) * BATCHES * BATCH;
            let mine: Vec<u64> = consumed
                .iter()
                .copied()
                .filter(|v| (lo..hi).contains(v))
                .collect();
            let mut expected = mine.clone();
            expected.sort_unstable();
            assert_eq!(mine, expected, "producer {p} frames reordered");
        }
    }

    #[test]
    fn mpsc_stress_accounts_for_every_frame() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let ring: Arc<Ring<u64>> = Arc::new(Ring::new(64));
        let consumed = thread::scope(|s| {
            for p in 0..PRODUCERS {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut frame = p * PER_PRODUCER + i;
                        // Alternate both backpressure primitives.
                        if i % 2 == 0 {
                            ring.force_enqueue(frame);
                        } else {
                            while let Err(RingFull(back)) = ring.try_enqueue(frame) {
                                frame = back;
                                thread::yield_now();
                            }
                        }
                    }
                });
            }
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                let mut got: Vec<u64> = Vec::new();
                loop {
                    if let Some(v) = ring.try_dequeue() {
                        got.push(v);
                        continue;
                    }
                    // Every produced frame bumps `enqueued` exactly once;
                    // quit once all are in and the ring is drained.
                    if ring.enqueued() == PRODUCERS * PER_PRODUCER && ring.is_empty() {
                        break;
                    }
                    thread::yield_now();
                }
                got
            })
            .join()
            .unwrap()
        });
        // Drain any residue (a racing force_enqueue may land after the
        // consumer's final emptiness check).
        let mut consumed = consumed;
        while let Some(v) = ring.try_dequeue() {
            consumed.push(v);
        }
        // Exact accounting: every produced frame was either consumed by
        // the drain or discarded (and counted) by backpressure.
        assert_eq!(
            consumed.len() as u64 + ring.dropped(),
            PRODUCERS * PER_PRODUCER,
            "lost or duplicated frames"
        );
        // No duplicates.
        let mut sorted = consumed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), consumed.len(), "duplicated frame");
        // Per-producer order: each producer's surviving frames appear in
        // the order that producer enqueued them.
        for p in 0..PRODUCERS {
            let mine: Vec<u64> = consumed
                .iter()
                .copied()
                .filter(|v| v / PER_PRODUCER == p)
                .collect();
            let mut sorted = mine.clone();
            sorted.sort_unstable();
            assert_eq!(mine, sorted, "producer {p} frames reordered");
        }
    }
}
