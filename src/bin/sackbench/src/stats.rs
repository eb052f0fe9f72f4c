//! Latency histograms and the order statistics every reported number uses.

/// Linear sub-buckets per power of two: a bucket is at most 1/64 (1.6%) of
/// its lower edge wide.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^48 ns (about three days) are bucketed.
const MAX_EXP: u32 = 48;
const BUCKETS: usize = (SUB + (MAX_EXP - SUB_BITS) as u64 * SUB) as usize;

/// A log-linear histogram of nanosecond values. Values below 64 get one
/// bucket each; above, every power of two is split into 64 equal buckets.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()).min(MAX_EXP - 1);
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    (SUB + u64::from(exp - SUB_BITS) * SUB + sub) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, i as f64 + 1.0);
    }
    let exp = (i - SUB) / SUB + u64::from(SUB_BITS);
    let sub = (i - SUB) % SUB;
    let width = 1u64 << (exp - u64::from(SUB_BITS));
    let lo = (1u64 << exp) + sub * width;
    (lo as f64, (lo + width) as f64)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile, interpolated linearly inside its bucket so that it
    /// moves continuously with the data rather than jumping bucket to
    /// bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, hi) = bucket_range(i);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            below += c;
        }
        bucket_range(BUCKETS - 1).1
    }

    /// Samples strictly above the bucket holding the `q` quantile: the
    /// tail a percentile is computed from.
    pub fn beyond(&self, q: f64) -> u64 {
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for &c in &self.counts {
            below += c;
            if below as f64 >= rank {
                return self.total - below;
            }
        }
        0
    }
}

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so a spread printed here reads the
/// same as one computed from the printed values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let q = |j: usize| {
                let m = (n + 1) as f64 * j as f64 / 4.0;
                let k = (m.floor() as usize).clamp(1, n - 1);
                let frac = m - k as f64;
                v[k - 1] + (v[k] - v[k - 1]) * frac
            };
            (q(1), median(values), q(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_at_most_two_percent_wide() {
        for i in SUB as usize..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert!((hi - lo) / lo <= 0.02, "bucket {i}: [{lo}, {hi})");
        }
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, 1 << 40] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn quantiles_track_the_data() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.02, "{p99}");
        // The 1% tail, less the rest of the bucket the p99 falls in
        // ([98304, 99328) holds 102 samples here).
        let tail = h.beyond(0.99);
        assert_eq!(tail, 68);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(iqr(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
