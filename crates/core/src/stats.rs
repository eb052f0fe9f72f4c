//! Striped (per-thread sharded) statistics counters.
//!
//! The hook-path counters in [`crate::SackStats`] used to be single
//! `AtomicU64`s: correct, but every concurrent task bounced the same cache
//! line on every `file_permission` call. A [`ShardedCounter`] spreads the
//! increments over [`STRIPES`] cache-line-padded atomics — each thread
//! hashes to a stable stripe — and folds them on read. Reads (the
//! securityfs `stats` node, tests) are rare and tolerate the fold cost;
//! writes are the hot path and now touch a line shared with ~1/16th of the
//! threads instead of all of them.
//!
//! The API deliberately mirrors the `AtomicU64` subset the call sites used
//! (`fetch_add` / `load`), so swapping the field type did not change any
//! increment or read site.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of stripes; a power of two so thread ids fold with a mask.
pub const STRIPES: usize = 16;

/// One cache-line-padded stripe.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Monotonic id source for thread → stripe assignment.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Stable per-thread stripe index.
    static STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
}

/// A monotonically increasing counter striped across cache lines.
#[derive(Debug, Default)]
pub struct ShardedCounter {
    stripes: [Stripe; STRIPES],
}

impl ShardedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> ShardedCounter {
        ShardedCounter::default()
    }

    /// Adds `val` to the calling thread's stripe. Returns the previous
    /// value of *that stripe* (mirroring `AtomicU64::fetch_add`; callers
    /// on the hook path discard it).
    pub fn fetch_add(&self, val: u64, order: Ordering) -> u64 {
        let idx = STRIPE.try_with(|s| *s).unwrap_or(0);
        self.stripes[idx].0.fetch_add(val, order)
    }

    /// Folds all stripes into the counter's total.
    pub fn load(&self, order: Ordering) -> u64 {
        self.stripes.iter().map(|stripe| stripe.0.load(order)).sum()
    }

    /// Resets every stripe to zero (test support).
    pub fn store(&self, val: u64, order: Ordering) {
        for (i, stripe) in self.stripes.iter().enumerate() {
            stripe.0.store(if i == 0 { val } else { 0 }, order);
        }
    }

    /// Folds a whole family of counters in one stripe-major pass.
    ///
    /// The securityfs `stats` and `metrics` nodes read every counter at
    /// once; folding counter-major re-walks the stripe array per counter
    /// and touches each counter's cache lines in row order. Stripe-major
    /// iteration visits each stripe index across all counters before
    /// moving on, which both halves the pointer chasing and yields a
    /// *consistent pass*: stripe `s` of every counter is read before any
    /// stripe `s+1`. Returns the totals in `counters` order.
    pub fn snapshot_all(counters: &[&ShardedCounter], order: Ordering) -> Vec<u64> {
        let mut totals = vec![0u64; counters.len()];
        for stripe in 0..STRIPES {
            for (total, counter) in totals.iter_mut().zip(counters) {
                *total += counter.stripes[stripe].0.load(order);
            }
        }
        totals
    }
}

/// Number of log2 latency buckets: bucket 0 holds 0 ns, bucket `i ≥ 1`
/// holds `[2^(i-1), 2^i)` ns; the top bucket also absorbs anything larger
/// (2^38 ns ≈ 4.5 min, far beyond any hook latency).
pub const HIST_BUCKETS: usize = 40;

/// One cache-line-aligned histogram stripe: a full bucket array plus the
/// running sum of recorded values, so percentile *and* mean come out of the
/// same snapshot, and the exact count of dispatches, timed or not.
#[repr(align(64))]
#[derive(Debug)]
struct HistStripe {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    dispatches: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
        }
    }
}

/// A lock-free log2-bucketed latency histogram.
///
/// Same striping discipline as [`ShardedCounter`]: each recording thread
/// lands on a stable cache-line-padded stripe, so concurrent `record`
/// calls from different stripes never contend; [`LatencyHistogram::snapshot`]
/// folds the stripes on the rare read path.
///
/// Beside the sampled latencies it keeps an exact dispatch count:
/// [`LatencyHistogram::record_dispatch`] counts every dispatch and buckets
/// only the timed ones, so `dispatches` stays exact while the buckets,
/// `sum` and `count()` describe a sample.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    stripes: [HistStripe; STRIPES],
}

/// The log2 bucket a nanosecond value falls into.
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, for rendering and interpolation.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one timed dispatch. Lock-free; relaxed ordering is
    /// sufficient because snapshots only need eventual counts.
    pub fn record(&self, ns: u64) {
        self.record_dispatch(Some(ns));
    }

    /// Counts one dispatch, and buckets its latency when it was timed.
    pub fn record_dispatch(&self, latency_ns: Option<u64>) {
        let idx = STRIPE.try_with(|s| *s).unwrap_or(0);
        let stripe = &self.stripes[idx];
        stripe.dispatches.fetch_add(1, Ordering::Relaxed);
        if let Some(ns) = latency_ns {
            stripe.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
            stripe.sum.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Folds every stripe into a mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for stripe in &self.stripes {
            for (total, bucket) in snap.buckets.iter_mut().zip(&stripe.buckets) {
                *total += bucket.load(Ordering::Relaxed);
            }
            snap.sum += stripe.sum.load(Ordering::Relaxed);
            snap.dispatches += stripe.dispatches.load(Ordering::Relaxed);
        }
        snap
    }
}

/// An owned, mergeable histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts of the timed observations (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of the timed observations in nanoseconds.
    pub sum: u64,
    /// Exact count of dispatches, timed or not; at least [`count`].
    ///
    /// [`count`]: HistogramSnapshot::count
    pub dispatches: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
            dispatches: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Timed observations: the sample the percentiles and mean describe.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True when nothing has been recorded, timed or not.
    pub fn is_empty(&self) -> bool {
        self.dispatches == 0 && self.count() == 0
    }

    /// Accumulates `other` into `self` (bucket-wise addition), so per-hook
    /// snapshots roll up into per-verdict or global distributions.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.dispatches += other.dispatches;
    }

    /// Mean of the recorded values, in nanoseconds.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimates the `p`-quantile (`0.0 < p <= 1.0`) by linear
    /// interpolation inside the log2 bucket containing the target rank.
    /// Returns 0 for an empty snapshot. The estimate is exact for bucket
    /// boundaries and at most one bucket-width off inside a bucket — the
    /// standard HDR-style trade-off for a fixed-size lock-free layout.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (p * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cumulative + n >= target {
                let lower = if i <= 1 { i as u64 } else { 1u64 << (i - 1) };
                let upper = bucket_upper_bound(i).max(lower);
                let into = (target - cumulative) as f64 / n as f64;
                return lower + ((upper - lower) as f64 * into) as u64;
            }
            cumulative += n;
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn folds_to_the_total() {
        let c = ShardedCounter::new();
        for _ in 0..100 {
            c.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(c.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Arc::new(ShardedCounter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 80_000);
    }

    #[test]
    fn store_resets() {
        let c = ShardedCounter::new();
        c.fetch_add(7, Ordering::Relaxed);
        c.store(0, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 0);
        c.store(3, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn snapshot_all_matches_individual_loads() {
        let counters: Vec<ShardedCounter> = (0..5).map(|_| ShardedCounter::new()).collect();
        for (i, c) in counters.iter().enumerate() {
            for _ in 0..(i + 1) * 10 {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }
        let refs: Vec<&ShardedCounter> = counters.iter().collect();
        let totals = ShardedCounter::snapshot_all(&refs, Ordering::Relaxed);
        let individual: Vec<u64> = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(totals, individual);
        assert_eq!(totals, vec![10, 20, 30, 40, 50]);
        assert!(ShardedCounter::snapshot_all(&[], Ordering::Relaxed).is_empty());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 2);
        assert_eq!(bucket_upper_bound(10), 1024);
    }

    #[test]
    fn histogram_records_and_counts() {
        let h = LatencyHistogram::new();
        for ns in [0u64, 1, 3, 100, 100, 5000] {
            h.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.dispatches, 6);
        assert_eq!(snap.sum, 5204);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[bucket_of(100)], 2);
        assert!((snap.mean() - 5204.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn untimed_dispatches_count_but_stay_out_of_the_buckets() {
        let h = LatencyHistogram::new();
        h.record_dispatch(None);
        let snap = h.snapshot();
        assert!(!snap.is_empty(), "an untimed dispatch still shows");
        assert_eq!((snap.dispatches, snap.count(), snap.sum), (1, 0, 0));
        for latency in [Some(100), None, None, Some(300)] {
            h.record_dispatch(latency);
        }
        let snap = h.snapshot();
        assert_eq!((snap.dispatches, snap.count(), snap.sum), (5, 2, 400));
        assert_eq!(snap.mean(), 200.0);
    }

    #[test]
    fn histogram_merge_is_bucketwise_sum() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for ns in [10u64, 20, 30] {
            a.record(ns);
        }
        for ns in [1000u64, 2000] {
            b.record(ns);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.dispatches, 5);
        assert_eq!(merged.sum, 60 + 3000);
        // Merging in the other order gives the identical snapshot.
        let mut other = b.snapshot();
        other.merge(&a.snapshot());
        assert_eq!(merged, other);
    }

    #[test]
    fn percentiles_are_ordered_and_bracketed() {
        let h = LatencyHistogram::new();
        // 90 fast observations (~64 ns) and 10 slow ones (~65 µs).
        for _ in 0..90 {
            h.record(64);
        }
        for _ in 0..10 {
            h.record(65_000);
        }
        let snap = h.snapshot();
        let p50 = snap.percentile(0.50);
        let p95 = snap.percentile(0.95);
        let p99 = snap.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "quantiles must be monotone");
        // p50 lands in the bucket containing 64 ns: [64, 128).
        assert!((64..128).contains(&p50), "p50={p50}");
        // p95/p99 land in the bucket containing 65 000 ns: [32768, 65536).
        assert!((32_768..65_536).contains(&p95), "p95={p95}");
        assert!((32_768..65_536).contains(&p99), "p99={p99}");
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = HistogramSnapshot::default();
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(0.99), 0);
        assert_eq!(empty.mean(), 0.0);

        let h = LatencyHistogram::new();
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.percentile(1.0), 0);

        let h2 = LatencyHistogram::new();
        for _ in 0..4 {
            h2.record(u64::MAX);
        }
        let top = h2.snapshot().percentile(0.99);
        assert_eq!(top, bucket_upper_bound(HIST_BUCKETS - 1));
    }
}
