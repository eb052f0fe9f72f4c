//! sack-trace consumers: per-hook latency histograms and the flight
//! recorder, attached to a [`TraceHub`] as dynamically registered
//! callbacks.
//!
//! The kernel layer (`sack_kernel::trace`) only *emits*; everything
//! stateful lives here:
//!
//! * [`SackTracing`] — the metrics recorder. Subscribes to every
//!   tracepoint, maintains one lock-free [`LatencyHistogram`] per
//!   (hook, verdict) key, and feeds the flight recorder. Each key counts
//!   every `hook_exit` exactly and buckets the latencies of the sampled
//!   ones (about one dispatch in [`sack_kernel::lsm::SAMPLE_MEAN_GAP`]
//!   per thread is timed).
//! * [`FlightRecorder`] — a bounded MPSC ring of the last N control-plane
//!   events (SSM transitions, policy publishes, epoch bumps, recompiles,
//!   denials), so a denial can be replayed against the situation history
//!   that led to it. Producers claim slots with a single `fetch_add` and
//!   write them under a per-slot mutex; entries carry both a global and a
//!   per-producer sequence number, and the overflow count
//!   (`claimed − capacity`) says exactly how many records were overwritten.
//!
//! Recording into a saturated ring takes no map lookup and no lock beyond
//! the slot's own: each thread reaches its per-recorder ledger (its next
//! per-producer sequence number and its eviction count) through a
//! single-entry thread-local cache, and each slot keeps the ledger of the
//! record it holds, so an eviction is one atomic add on the evicted
//! producer's ledger. `dropped_by_producer()` reads those ledgers, one per
//! producer, not the slots.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sack_kernel::trace::{TraceEvent, TraceHandle, TraceHook, TraceHub, TraceVerdict, Tracepoint};

use crate::stats::{HistogramSnapshot, LatencyHistogram};

/// Default flight-recorder capacity (records retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One retained flight-recorder record.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Global sequence number: the claim index, dense across all producers.
    pub seq: u64,
    /// Stable id of the producing thread.
    pub producer: u64,
    /// Per-(producer, recorder) sequence number, dense per producer; a gap
    /// in a producer's surviving numbers proves records were overwritten.
    pub producer_seq: u64,
    /// The recorded event.
    pub event: TraceEvent,
}

/// One producer's accounting in one recorder: registered the first time a
/// thread records into the recorder, then reached through the thread's
/// single-entry ledger cache without touching the recorder's lock.
#[derive(Debug)]
struct ProducerLedger {
    producer: u64,
    /// Records this producer has claimed, i.e. its next `producer_seq`.
    /// Only the owning thread writes it.
    produced: AtomicU64,
    /// This producer's records evicted or lap-discarded before a reader saw
    /// them.
    evicted: AtomicU64,
}

struct FlightSlot {
    // The mutex stands in for the per-slot seqlock a real kernel ring would
    // use: it is uncontended except when a producer laps a stalled one, and
    // it makes torn reads unrepresentable in safe Rust. The retained record
    // keeps its producer's ledger, so evicting it is one atomic add.
    entry: Mutex<Option<(FlightEntry, Arc<ProducerLedger>)>>,
}

/// Monotonic id source for flight recorders (keys the per-thread ledger
/// cache, so one thread writing to two recorders keeps two independent
/// dense sequences, and a recorder at a reused address is never confused
/// with a dropped one).
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

/// Monotonic id source for producer (thread) ids.
static NEXT_PRODUCER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static PRODUCER_ID: u64 = NEXT_PRODUCER.fetch_add(1, Ordering::Relaxed);
    /// This thread's ledger in the recorder it last recorded into:
    /// (recorder id, ledger). One entry bounds the per-thread state however
    /// many recorders the thread ever writes to.
    static LEDGER: RefCell<Option<(u64, Arc<ProducerLedger>)>> = const { RefCell::new(None) };
}

/// This thread's producer id (`0` once its thread-locals are torn down).
fn producer_id() -> u64 {
    PRODUCER_ID.try_with(|p| *p).unwrap_or(0)
}

/// Bounded MPSC ring of the last N trace events.
///
/// Claiming is one `fetch_add`, and the claimed global sequence *is* the
/// record's identity; the slot write then takes that slot's (normally
/// uncontended) mutex. Readers snapshot without stopping producers; the
/// overflow count (`claimed − capacity`) and the per-producer sequence
/// numbers let them say precisely what they missed.
pub struct FlightRecorder {
    id: u64,
    slots: Box<[FlightSlot]>,
    claimed: AtomicU64,
    // Every producer that ever recorded here. Locked only on a thread's
    // ledger-cache miss and by readers of `dropped_by_producer`.
    ledgers: Mutex<Vec<Arc<ProducerLedger>>>,
}

impl FlightRecorder {
    /// Creates a ring retaining the last `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight capacity must be non-zero");
        FlightRecorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            slots: (0..capacity)
                .map(|_| FlightSlot {
                    entry: Mutex::new(None),
                })
                .collect(),
            claimed: AtomicU64::new(0),
            ledgers: Mutex::new(Vec::new()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records an event; returns its global sequence number.
    pub fn record(&self, event: TraceEvent) -> u64 {
        let ledger = self.ledger();
        let seq = self.claimed.fetch_add(1, Ordering::Relaxed);
        self.store(seq, ledger, event);
        seq
    }

    /// The calling thread's ledger in this recorder.
    fn ledger(&self) -> Arc<ProducerLedger> {
        LEDGER
            .try_with(|cache| {
                let mut cache = cache.borrow_mut();
                match &*cache {
                    Some((id, ledger)) if *id == self.id => Arc::clone(ledger),
                    _ => {
                        let ledger = self.register_producer(producer_id());
                        *cache = Some((self.id, Arc::clone(&ledger)));
                        ledger
                    }
                }
            })
            // Thread-local teardown: fall back to the lock every time.
            .unwrap_or_else(|_| self.register_producer(producer_id()))
    }

    /// Finds or creates `producer`'s ledger.
    #[cold]
    fn register_producer(&self, producer: u64) -> Arc<ProducerLedger> {
        let mut ledgers = self.ledgers.lock();
        if let Some(ledger) = ledgers.iter().find(|l| l.producer == producer) {
            return Arc::clone(ledger);
        }
        let ledger = Arc::new(ProducerLedger {
            producer,
            produced: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        });
        ledgers.push(Arc::clone(&ledger));
        ledger
    }

    /// Writes the record claimed as `seq` into its slot.
    fn store(&self, seq: u64, ledger: Arc<ProducerLedger>, event: TraceEvent) {
        // Single writer per ledger, so a load/store pair is enough.
        let producer_seq = ledger.produced.load(Ordering::Relaxed);
        ledger.produced.store(producer_seq + 1, Ordering::Relaxed);
        let entry = FlightEntry {
            seq,
            producer: ledger.producer,
            producer_seq,
            event,
        };
        let cap = self.slots.len() as u64;
        let mut slot = self.slots[(seq % cap) as usize].entry.lock();
        // A producer that claimed an older sequence but got here after being
        // lapped must not clobber the newer record.
        let discarded = match slot.as_ref() {
            Some((existing, _)) if existing.seq > seq => Some((entry, ledger)),
            // Evicting a retained record: the loss belongs to the producer
            // whose record is being overwritten.
            _ => slot.replace((entry, ledger)),
        };
        drop(slot);
        if let Some((_, owner)) = discarded {
            owner.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total records ever claimed.
    pub fn total(&self) -> u64 {
        self.claimed.load(Ordering::Relaxed)
    }

    /// Records overwritten before a reader could see them: every claim past
    /// the first `capacity` displaces exactly one record.
    pub fn dropped(&self) -> u64 {
        self.total().saturating_sub(self.capacity() as u64)
    }

    /// Per-producer loss counts: how many of each producer's records were
    /// evicted (or lap-discarded) before a reader saw them. The values sum
    /// to [`FlightRecorder::dropped`] once all in-flight writes land, which
    /// is what lets a ring-overflow detector localize the lossy producer
    /// instead of only reporting a global count.
    ///
    /// Reads one counter per producer, never the slots.
    pub fn dropped_by_producer(&self) -> BTreeMap<u64, u64> {
        self.ledgers
            .lock()
            .iter()
            .map(|l| (l.producer, l.evicted.load(Ordering::Relaxed)))
            .filter(|&(_, evicted)| evicted > 0)
            .collect()
    }

    /// Snapshot of the retained records, oldest first (global-seq order).
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        let mut entries: Vec<FlightEntry> = self
            .slots
            .iter()
            .filter_map(|slot| slot.entry.lock().as_ref().map(|(e, _)| e.clone()))
            .collect();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// Renders the ring as the `tracing/flight` node's text:
    /// a `# flight capacity=<C> total=<N> dropped=<D>` header, then one
    /// `seq=<s> producer=<p> pseq=<q> <event>` line per retained record.
    pub fn render(&self) -> String {
        let entries = self.snapshot();
        let mut out = format!(
            "# flight capacity={} total={} dropped={}\n",
            self.capacity(),
            self.total(),
            self.dropped()
        );
        for e in &entries {
            out.push_str(&format!(
                "seq={} producer={} pseq={} {}\n",
                e.seq, e.producer, e.producer_seq, e.event
            ));
        }
        out
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("total", &self.total())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Ledger-cache entries held by the calling thread (0 or 1).
#[cfg(test)]
fn cached_ledgers() -> usize {
    LEDGER.with(|cache| usize::from(cache.borrow().is_some()))
}

const VERDICTS: usize = 2;
const HIST_KEYS: usize = TraceHook::ALL.len() * VERDICTS;

struct RecorderState {
    hists: Vec<LatencyHistogram>,
    flight: FlightRecorder,
}

impl RecorderState {
    fn hist(&self, hook: TraceHook, verdict: TraceVerdict) -> &LatencyHistogram {
        &self.hists[hook.index() * VERDICTS + verdict.index()]
    }

    fn on_event(&self, event: &TraceEvent) {
        match event {
            TraceEvent::HookExit {
                hook,
                verdict,
                latency_ns,
            } => {
                self.hist(*hook, *verdict).record_dispatch(*latency_ns);
                if *verdict == TraceVerdict::Deny {
                    self.flight.record(event.clone());
                }
            }
            TraceEvent::SsmTransition { .. }
            | TraceEvent::PolicyPublish { .. }
            | TraceEvent::RcuEpochBump { .. }
            | TraceEvent::ProfileRecompile { .. }
            | TraceEvent::AuditEmit { .. }
            | TraceEvent::SdsCoalesce { .. } => {
                self.flight.record(event.clone());
            }
        }
    }
}

/// The sack-trace metrics recorder: histograms + flight recorder behind a
/// registered hub callback. Dropping it unregisters from the hub.
pub struct SackTracing {
    hub: Arc<TraceHub>,
    state: Arc<RecorderState>,
    handle: TraceHandle,
}

impl SackTracing {
    /// Attaches a recorder with the default flight capacity.
    pub fn attach(hub: Arc<TraceHub>) -> Arc<SackTracing> {
        SackTracing::attach_with_flight_capacity(hub, DEFAULT_FLIGHT_CAPACITY)
    }

    /// Attaches a recorder with an explicit flight-recorder capacity.
    pub fn attach_with_flight_capacity(hub: Arc<TraceHub>, capacity: usize) -> Arc<SackTracing> {
        let state = Arc::new(RecorderState {
            hists: (0..HIST_KEYS).map(|_| LatencyHistogram::new()).collect(),
            flight: FlightRecorder::new(capacity),
        });
        let cb_state = Arc::clone(&state);
        let handle = hub.register_all(Arc::new(move |ev| cb_state.on_event(ev)));
        Arc::new(SackTracing { hub, state, handle })
    }

    /// The hub this recorder listens on.
    pub fn hub(&self) -> &Arc<TraceHub> {
        &self.hub
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.state.flight
    }

    /// Snapshot of one (hook, verdict) histogram.
    pub fn histogram(&self, hook: TraceHook, verdict: TraceVerdict) -> HistogramSnapshot {
        self.state.hist(hook, verdict).snapshot()
    }

    /// Merged latency distribution for a hook across verdicts.
    pub fn hook_histogram(&self, hook: TraceHook) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for verdict in [TraceVerdict::Allow, TraceVerdict::Deny] {
            merged.merge(&self.histogram(hook, verdict));
        }
        merged
    }

    /// Every (hook, verdict) histogram with at least one dispatch, timed or
    /// not, in dense key order — the raw material for the `metrics` node.
    pub fn histogram_snapshots(&self) -> Vec<(TraceHook, TraceVerdict, HistogramSnapshot)> {
        let mut out = Vec::new();
        for hook in TraceHook::ALL {
            for verdict in [TraceVerdict::Allow, TraceVerdict::Deny] {
                let snap = self.histogram(hook, verdict);
                if !snap.is_empty() {
                    out.push((hook, verdict, snap));
                }
            }
        }
        out
    }

    /// Renders the `tracing/events` node: one line per tracepoint with its
    /// enabled state and fired count.
    pub fn render_events(&self) -> String {
        let mut out = format!(
            "# tracepoints enabled={}\n",
            if self.hub.enabled() { 1 } else { 0 }
        );
        for point in Tracepoint::ALL {
            out.push_str(&format!("{} {}\n", point.name(), self.hub.fired(point)));
        }
        out
    }
}

impl fmt::Debug for SackTracing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SackTracing")
            .field("enabled", &self.hub.enabled())
            .field("flight", &self.state.flight)
            .finish()
    }
}

impl Drop for SackTracing {
    fn drop(&mut self) {
        self.hub.unregister(self.handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn flight_assigns_dense_global_seqs() {
        let ring = FlightRecorder::new(8);
        for i in 0..5 {
            assert_eq!(ring.record(TraceEvent::RcuEpochBump { epoch: i }), i);
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 5);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 0);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn flight_wraparound_keeps_newest_and_counts_drops() {
        let ring = FlightRecorder::new(4);
        for i in 0..10 {
            ring.record(TraceEvent::RcuEpochBump { epoch: i });
        }
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 4, "bounded at capacity");
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.dropped(), 6, "six oldest overwritten");
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest survive in order");
        // Single producer: surviving per-producer seqs are a contiguous
        // suffix, and the gap before them equals the drop count.
        let pseqs: Vec<u64> = entries.iter().map(|e| e.producer_seq).collect();
        assert_eq!(pseqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn flight_multi_producer_seq_gap_detection() {
        let ring = Arc::new(FlightRecorder::new(8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        ring.record(TraceEvent::RcuEpochBump { epoch: i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total(), 200);
        assert_eq!(ring.dropped(), 192);
        let entries = ring.snapshot();
        assert_eq!(entries.len(), 8);
        // Global seqs are unique and sorted.
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted);
        // Each producer's surviving pseqs are strictly increasing (gaps are
        // allowed — they mark overwritten records — regressions are not).
        let mut per_producer: HashMap<u64, Vec<u64>> = HashMap::new();
        for e in &entries {
            per_producer
                .entry(e.producer)
                .or_default()
                .push(e.producer_seq);
        }
        for (producer, pseqs) in per_producer {
            assert!(
                pseqs.windows(2).all(|w| w[0] < w[1]),
                "producer {producer} seqs must increase: {pseqs:?}"
            );
        }
    }

    /// Multi-producer stress: with a ring big enough that nothing is
    /// dropped, every producer's seq stream must be dense (0..n gapless),
    /// the global seq must be a complete monotone sequence, and the dropped
    /// counter must be exactly zero.
    #[test]
    fn flight_multi_producer_stress_gapless_when_nothing_drops() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 500;
        let ring = Arc::new(FlightRecorder::new(PRODUCERS * PER_PRODUCER));
        let barrier = Arc::new(std::sync::Barrier::new(PRODUCERS));
        let threads: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_PRODUCER as u64 {
                        ring.record(TraceEvent::RcuEpochBump { epoch: i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let expected = (PRODUCERS * PER_PRODUCER) as u64;
        assert_eq!(ring.total(), expected);
        assert_eq!(ring.dropped(), 0, "nothing may drop in an oversized ring");
        let entries = ring.snapshot();
        assert_eq!(entries.len(), expected as usize);
        // Global seq: complete and strictly monotone — 0..expected with no
        // holes and no duplicates (snapshot sorts by seq).
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "global seq must be gapless");
        }
        // Per-producer seqs: each of the 8 producers emitted exactly
        // PER_PRODUCER records with a dense 0..PER_PRODUCER seq stream.
        let mut per_producer: HashMap<u64, Vec<u64>> = HashMap::new();
        for e in &entries {
            per_producer
                .entry(e.producer)
                .or_default()
                .push(e.producer_seq);
        }
        assert_eq!(per_producer.len(), PRODUCERS);
        for (producer, mut pseqs) in per_producer {
            pseqs.sort_unstable();
            let dense: Vec<u64> = (0..PER_PRODUCER as u64).collect();
            assert_eq!(pseqs, dense, "producer {producer} has a seq gap");
        }
    }

    /// Multi-producer stress under wraparound: the dropped counter must
    /// account for exactly `total - capacity` records — an operator reading
    /// `dropped()` knows precisely how much history the ring lost.
    #[test]
    fn flight_multi_producer_stress_exact_drop_count_under_wraparound() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 500;
        const CAP: usize = 64;
        let ring = Arc::new(FlightRecorder::new(CAP));
        let barrier = Arc::new(std::sync::Barrier::new(PRODUCERS));
        let threads: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_PRODUCER as u64 {
                        ring.record(TraceEvent::RcuEpochBump { epoch: i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = (PRODUCERS * PER_PRODUCER) as u64;
        assert_eq!(ring.total(), total);
        assert_eq!(
            ring.dropped(),
            total - CAP as u64,
            "drop count must be exact"
        );
        let entries = ring.snapshot();
        assert_eq!(entries.len(), CAP);
        // Surviving records are unique by global seq and monotone.
        for pair in entries.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "global seq regressed");
        }
    }

    #[test]
    fn flight_per_producer_drop_ledger_sums_to_global() {
        let ring = FlightRecorder::new(4);
        for i in 0..10 {
            ring.record(TraceEvent::RcuEpochBump { epoch: i });
        }
        let by = ring.dropped_by_producer();
        assert_eq!(by.len(), 1, "single producer: one ledger entry");
        let sum: u64 = by.values().sum();
        assert_eq!(sum, ring.dropped(), "ledger must sum to the global count");
        // A ring that never wraps keeps an empty ledger.
        let quiet = FlightRecorder::new(8);
        quiet.record(TraceEvent::RcuEpochBump { epoch: 0 });
        assert!(quiet.dropped_by_producer().is_empty());
    }

    #[test]
    fn per_thread_ledger_state_stays_bounded() {
        for i in 0..1000 {
            let ring = FlightRecorder::new(2);
            for epoch in 0..3 {
                ring.record(TraceEvent::RcuEpochBump { epoch });
            }
            assert_eq!(ring.dropped_by_producer().values().sum::<u64>(), 1);
            drop(ring);
            assert_eq!(cached_ledgers(), 1, "recorder {i} grew per-thread state");
        }
    }

    /// The accounting the flight ring used before per-producer ledgers:
    /// replays slot writes in the order they landed and charges each loss
    /// to a `producer → count` map, as the old `dropped_by` mutex did.
    fn reference_ledger(cap: u64, landings: &[(u64, u64)]) -> BTreeMap<u64, u64> {
        let mut slots: Vec<Option<(u64, u64)>> = vec![None; cap as usize];
        let mut dropped_by = BTreeMap::new();
        for &(seq, producer) in landings {
            let slot = &mut slots[(seq % cap) as usize];
            match *slot {
                Some((held, owner)) if held < seq => {
                    *slot = Some((seq, producer));
                    *dropped_by.entry(owner).or_insert(0) += 1;
                }
                Some(_) => *dropped_by.entry(producer).or_insert(0) += 1,
                None => *slot = Some((seq, producer)),
            }
        }
        dropped_by
    }

    /// Each producer's records minus its survivors: the gap a reader sees
    /// in its `pseq` stream.
    fn survivor_gaps(ring: &FlightRecorder, produced: &BTreeMap<u64, u64>) -> BTreeMap<u64, u64> {
        let entries = ring.snapshot();
        let mut gaps = BTreeMap::new();
        for (&producer, &n) in produced {
            let pseqs: Vec<u64> = entries
                .iter()
                .filter(|e| e.producer == producer)
                .map(|e| e.producer_seq)
                .collect();
            assert!(pseqs.iter().all(|&q| q < n), "pseq past produced count");
            let survivors = pseqs.len() as u64;
            if n > survivors {
                gaps.insert(producer, n - survivors);
            }
        }
        gaps
    }

    enum Op {
        Record(u64),
        Claim,
        Store,
    }

    /// A producer thread driven one operation at a time; each reply lists
    /// the `(seq, producer)` slot writes that landed, in order.
    struct Producer {
        ops: std::sync::mpsc::Sender<Op>,
        landed: std::sync::mpsc::Receiver<Vec<(u64, u64)>>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Producer {
        fn spawn(ring: &Arc<FlightRecorder>) -> Producer {
            let ring = Arc::clone(ring);
            let (ops, op_rx) = std::sync::mpsc::channel();
            let (landed_tx, landed) = std::sync::mpsc::channel();
            let thread = std::thread::spawn(move || {
                let mut held = None;
                for op in op_rx {
                    let producer = producer_id();
                    let landed = match op {
                        Op::Record(n) => (0..n)
                            .map(|i| {
                                let seq = ring.record(TraceEvent::RcuEpochBump { epoch: i });
                                (seq, producer)
                            })
                            .collect(),
                        Op::Claim => {
                            let ledger = ring.ledger();
                            held = Some((ring.claimed.fetch_add(1, Ordering::Relaxed), ledger));
                            Vec::new()
                        }
                        Op::Store => {
                            let (seq, ledger) = held.take().expect("store without claim");
                            ring.store(seq, ledger, TraceEvent::RcuEpochBump { epoch: seq });
                            vec![(seq, producer)]
                        }
                    };
                    landed_tx.send(landed).unwrap();
                }
            });
            Producer {
                ops,
                landed,
                thread,
            }
        }

        fn run(&self, op: Op) -> Vec<(u64, u64)> {
            self.ops.send(op).unwrap();
            self.landed.recv().unwrap()
        }
    }

    #[test]
    fn flight_ledgers_match_reference_under_wraparound_and_lapping() {
        const CAP: u64 = 4;
        let ring = Arc::new(FlightRecorder::new(CAP as usize));
        let producers: Vec<Producer> = (0..4).map(|_| Producer::spawn(&ring)).collect();
        let mut landings = Vec::new();
        let mut run = |who: usize, op: Op| landings.extend(producers[who].run(op));
        for i in 0..30 {
            run(i % 4, Op::Record(1 + i as u64 % 3));
        }
        // Producer 0 claims, then is lapped before its write lands.
        run(0, Op::Claim);
        for who in 1..4 {
            run(who, Op::Record(CAP));
        }
        run(0, Op::Store);
        // Two stalled producers, lapped by a third, land out of order.
        run(1, Op::Claim);
        run(2, Op::Claim);
        run(3, Op::Record(2 * CAP + 1));
        run(2, Op::Store);
        run(1, Op::Store);
        for i in 0..9 {
            run(3 - i % 4, Op::Record(1 + i as u64 % 5));
        }
        for p in producers {
            drop(p.ops);
            p.thread.join().unwrap();
        }

        let mut produced = BTreeMap::new();
        for &(_, producer) in &landings {
            *produced.entry(producer).or_insert(0) += 1;
        }
        assert_eq!(produced.len(), 4);
        assert_eq!(ring.total(), landings.len() as u64);
        let by = ring.dropped_by_producer();
        assert_eq!(by, reference_ledger(CAP, &landings));
        assert_eq!(by.values().sum::<u64>(), ring.dropped());
        assert_eq!(by, survivor_gaps(&ring, &produced));
    }

    #[test]
    fn flight_ledgers_sum_and_match_gaps_under_contention() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 2000;
        let ring = Arc::new(FlightRecorder::new(8));
        let barrier = Arc::new(std::sync::Barrier::new(PRODUCERS as usize));
        let threads: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for epoch in 0..PER_PRODUCER {
                        ring.record(TraceEvent::RcuEpochBump { epoch });
                    }
                    producer_id()
                })
            })
            .collect();
        let produced: BTreeMap<u64, u64> = threads
            .into_iter()
            .map(|t| (t.join().unwrap(), PER_PRODUCER))
            .collect();
        let by = ring.dropped_by_producer();
        assert_eq!(by.values().sum::<u64>(), ring.dropped());
        assert_eq!(ring.dropped(), PRODUCERS * PER_PRODUCER - 8);
        assert_eq!(by, survivor_gaps(&ring, &produced));
    }

    #[test]
    fn flight_render_has_header_and_records() {
        let ring = FlightRecorder::new(4);
        ring.record(TraceEvent::SsmTransition {
            from: "normal".into(),
            to: "emergency".into(),
            event: "crash".into(),
        });
        let text = ring.render();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "# flight capacity=4 total=1 dropped=0"
        );
        let record = lines.next().unwrap();
        assert!(record.starts_with("seq=0 "), "{record}");
        assert!(
            record.contains("ssm_transition from=normal to=emergency event=crash"),
            "{record}"
        );
    }

    #[test]
    fn recorder_keys_histograms_by_hook_and_verdict() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        hub.set_enabled(true);
        let hook = TraceHook::FileOpen;
        for (verdict, ns) in [
            (TraceVerdict::Allow, Some(800)),
            (TraceVerdict::Allow, None),
            (TraceVerdict::Allow, Some(50)),
            (TraceVerdict::Deny, Some(300)),
        ] {
            hub.emit(&TraceEvent::HookExit {
                hook,
                verdict,
                latency_ns: ns,
            });
        }
        // An untimed dispatch on its own still surfaces its key.
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::Capable,
            verdict: TraceVerdict::Deny,
            latency_ns: None,
        });
        let allow = tracing.histogram(hook, TraceVerdict::Allow);
        let deny = tracing.histogram(hook, TraceVerdict::Deny);
        assert_eq!((allow.dispatches, allow.count(), allow.sum), (3, 2, 850));
        assert_eq!((deny.dispatches, deny.count(), deny.sum), (1, 1, 300));
        assert_eq!(tracing.hook_histogram(hook).count(), 3);
        assert_eq!(tracing.hook_histogram(hook).dispatches, 4);
        let capable = tracing.histogram(TraceHook::Capable, TraceVerdict::Deny);
        assert_eq!((capable.dispatches, capable.count()), (1, 0));
        assert_eq!(tracing.histogram_snapshots().len(), 3);
    }

    #[test]
    fn recorder_flight_captures_denials_and_control_plane() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        hub.set_enabled(true);
        hub.emit(&TraceEvent::SsmTransition {
            from: "normal".into(),
            to: "emergency".into(),
            event: "crash".into(),
        });
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Deny,
            latency_ns: None,
        });
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Allow,
            latency_ns: Some(45),
        });
        let events: Vec<TraceEvent> = tracing
            .flight()
            .snapshot()
            .into_iter()
            .map(|e| e.event)
            .collect();
        assert_eq!(events.len(), 2, "allowed exits stay out of the flight");
        // Untimed denials are flight-recorded like timed ones.
        assert!(matches!(events[0], TraceEvent::SsmTransition { .. }));
        assert!(matches!(
            events[1],
            TraceEvent::HookExit {
                verdict: TraceVerdict::Deny,
                ..
            }
        ));
    }

    #[test]
    fn drop_unregisters_from_hub() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        assert_eq!(hub.callback_count(), 1);
        drop(tracing);
        assert_eq!(hub.callback_count(), 0);
    }

    #[test]
    fn render_events_lists_every_tracepoint() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        hub.set_enabled(true);
        hub.emit(&TraceEvent::AuditEmit { seq: 0 });
        let text = tracing.render_events();
        assert!(text.starts_with("# tracepoints enabled=1\n"));
        for point in Tracepoint::ALL {
            assert!(text.contains(point.name()), "missing {point}");
        }
        assert_eq!(text.lines().count(), 1 + Tracepoint::ALL.len());
        assert!(text.contains("audit_emit 1\n"));
    }
}
