//! Mergeable, delta-capable telemetry export for the fleet plane.
//!
//! A [`TelemetrySnapshot`] is the unit the `sack-fleet` aggregator pulls
//! from each kernel instance: every tracepoint fired-counter, every
//! (hook, verdict) key with at least one dispatch — its exact dispatch
//! count and its histogram of sampled latencies — and the flight
//! recorder's loss accounting — stamped with the instance id and a
//! monotonic capture generation.
//!
//! Two algebraic properties make aggregation trees fold freely, and are
//! pinned by property tests in `tests/fleet_rollout.rs`:
//!
//! * **merge is associative and commutative** — every field merges with an
//!   associative-commutative operator (counters and histograms by sum,
//!   the instance→generation map by union-with-max), so
//!   `merge(a, merge(b, c)) == merge(merge(a, b), c)` and partial folds
//!   from any subset of instances combine in any order;
//! * **delta replay is exact** — all counters are monotone, so
//!   `base.merged(&current.delta_since(&base)) == current` holds exactly
//!   and an aggregator can ship deltas instead of full snapshots.

use std::collections::BTreeMap;

use sack_kernel::trace::{TraceHook, TraceVerdict, Tracepoint};

use crate::stats::HistogramSnapshot;
use crate::trace::SackTracing;

/// Number of distinct (hook, verdict) histogram keys.
pub const TELEMETRY_HIST_KEYS: usize = TraceHook::ALL.len() * 2;

/// Dense key for one (hook, verdict) histogram.
pub fn hist_key(hook: TraceHook, verdict: TraceVerdict) -> u16 {
    (hook.index() * 2 + verdict.index()) as u16
}

/// Inverse of [`hist_key`]; `None` for out-of-range keys.
pub fn decode_hist_key(key: u16) -> Option<(TraceHook, TraceVerdict)> {
    let key = key as usize;
    if key >= TELEMETRY_HIST_KEYS {
        return None;
    }
    let verdict = if key.is_multiple_of(2) {
        TraceVerdict::Allow
    } else {
        TraceVerdict::Deny
    };
    Some((TraceHook::ALL[key / 2], verdict))
}

/// One instance's (or a merged subtree's) telemetry at a capture point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Instance id → capture generation for every instance folded into this
    /// snapshot. A fresh capture has exactly one entry; merges union the
    /// maps keeping the highest generation per instance.
    pub instances: BTreeMap<u64, u64>,
    /// Fired count per tracepoint, in [`Tracepoint::ALL`] order.
    pub points: Vec<u64>,
    /// Every key with at least one dispatch, keyed by [`hist_key`]: the
    /// exact `dispatches` count and the sampled latency histogram.
    pub hists: BTreeMap<u16, HistogramSnapshot>,
    /// Flight-recorder records ever claimed.
    pub flight_total: u64,
    /// Flight-recorder records lost to ring overflow.
    pub flight_dropped: u64,
    /// Flight-recorder loss per producer id (the satellite the overflow
    /// detector uses to localize lossy producers).
    pub flight_dropped_by_producer: BTreeMap<u64, u64>,
}

impl TelemetrySnapshot {
    /// Captures the current telemetry of one tracing recorder, stamping the
    /// recorder's instance id and the next capture generation.
    pub fn capture(tracing: &SackTracing) -> TelemetrySnapshot {
        let generation = tracing.next_generation();
        let mut instances = BTreeMap::new();
        instances.insert(tracing.instance(), generation);
        let points = Tracepoint::ALL
            .iter()
            .map(|p| tracing.hub().fired(*p))
            .collect();
        let hists = tracing
            .histogram_snapshots()
            .into_iter()
            .map(|(hook, verdict, snap)| (hist_key(hook, verdict), snap))
            .collect();
        let flight = tracing.flight();
        TelemetrySnapshot {
            instances,
            points,
            hists,
            flight_total: flight.total(),
            flight_dropped: flight.dropped(),
            flight_dropped_by_producer: flight.dropped_by_producer(),
        }
    }

    /// Fired count of one tracepoint (0 for an empty snapshot).
    pub fn point(&self, point: Tracepoint) -> u64 {
        self.points.get(point.index()).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`. Every field uses an associative and
    /// commutative operator, so fold order never changes the result.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (id, generation) in &other.instances {
            let slot = self.instances.entry(*id).or_insert(0);
            *slot = (*slot).max(*generation);
        }
        if self.points.len() < other.points.len() {
            self.points.resize(other.points.len(), 0);
        }
        for (a, b) in self.points.iter_mut().zip(&other.points) {
            *a += b;
        }
        for (key, hist) in &other.hists {
            self.hists.entry(*key).or_default().merge(hist);
        }
        self.flight_total += other.flight_total;
        self.flight_dropped += other.flight_dropped;
        for (producer, dropped) in &other.flight_dropped_by_producer {
            *self
                .flight_dropped_by_producer
                .entry(*producer)
                .or_insert(0) += dropped;
        }
    }

    /// Consuming form of [`TelemetrySnapshot::merge`], for fold chains.
    pub fn merged(mut self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
        self.merge(other);
        self
    }

    /// The change since `base`, an earlier capture of the same instance(s).
    ///
    /// All counters are monotone, so for captures `base` (earlier) and
    /// `self` (later) the delta replays exactly:
    /// `base.merged(&delta) == self`. Zero-valued entries are elided so a
    /// quiet interval produces a near-empty delta.
    pub fn delta_since(&self, base: &TelemetrySnapshot) -> TelemetrySnapshot {
        let points = self
            .points
            .iter()
            .enumerate()
            .map(|(i, &v)| v.saturating_sub(base.points.get(i).copied().unwrap_or(0)))
            .collect();
        let mut hists = BTreeMap::new();
        for (key, hist) in &self.hists {
            let delta = match base.hists.get(key) {
                Some(prior) => hist_sub(hist, prior),
                None => hist.clone(),
            };
            if !delta.is_empty() {
                hists.insert(*key, delta);
            }
        }
        let mut dropped_by = BTreeMap::new();
        for (producer, dropped) in &self.flight_dropped_by_producer {
            let prior = base
                .flight_dropped_by_producer
                .get(producer)
                .copied()
                .unwrap_or(0);
            let delta = dropped.saturating_sub(prior);
            if delta > 0 {
                dropped_by.insert(*producer, delta);
            }
        }
        TelemetrySnapshot {
            instances: self.instances.clone(),
            points,
            hists,
            flight_total: self.flight_total.saturating_sub(base.flight_total),
            flight_dropped: self.flight_dropped.saturating_sub(base.flight_dropped),
            flight_dropped_by_producer: dropped_by,
        }
    }

    /// Total hook denials: the exact deny-verdict dispatch counts summed
    /// across hooks.
    pub fn denials(&self) -> u64 {
        self.hists
            .iter()
            .filter_map(|(key, hist)| {
                decode_hist_key(*key).and_then(|(_, verdict)| {
                    (verdict == TraceVerdict::Deny).then_some(hist.dispatches)
                })
            })
            .sum()
    }

    /// Total hook dispatches (`hook_exit` fired count).
    pub fn hook_exits(&self) -> u64 {
        self.point(Tracepoint::HookExit)
    }

    /// SSM transitions.
    pub fn transitions(&self) -> u64 {
        self.point(Tracepoint::SsmTransition)
    }

    /// All hook latency samples folded into one distribution — the source
    /// of the fleet-level p50/95/99.
    pub fn hook_latency(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for hist in self.hists.values() {
            merged.merge(hist);
        }
        merged
    }

    /// The producer that lost the most flight records, if any loss occurred.
    pub fn worst_flight_producer(&self) -> Option<(u64, u64)> {
        self.flight_dropped_by_producer
            .iter()
            .max_by_key(|(_, dropped)| **dropped)
            .map(|(producer, dropped)| (*producer, *dropped))
    }
}

/// Bucket-wise saturating subtraction (later minus earlier).
fn hist_sub(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = later.clone();
    for (a, b) in out.buckets.iter_mut().zip(&earlier.buckets) {
        *a = a.saturating_sub(*b);
    }
    out.sum = out.sum.saturating_sub(earlier.sum);
    out.dispatches = out.dispatches.saturating_sub(earlier.dispatches);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sack_kernel::trace::{TraceEvent, TraceHub};

    fn sample(instance: u64, dispatches: u64, latency_ns: u64) -> TelemetrySnapshot {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        tracing.set_instance(instance);
        hub.set_enabled(true);
        for _ in 0..dispatches {
            hub.emit(&TraceEvent::HookExit {
                hook: TraceHook::FileOpen,
                verdict: TraceVerdict::Allow,
                latency_ns: Some(latency_ns),
            });
        }
        TelemetrySnapshot::capture(&tracing)
    }

    #[test]
    fn key_encoding_round_trips() {
        let mut seen = std::collections::BTreeSet::new();
        for hook in TraceHook::ALL {
            for verdict in [TraceVerdict::Allow, TraceVerdict::Deny] {
                let key = hist_key(hook, verdict);
                assert!(seen.insert(key), "key collision at {key}");
                assert_eq!(decode_hist_key(key), Some((hook, verdict)));
            }
        }
        assert_eq!(seen.len(), TELEMETRY_HIST_KEYS);
        assert_eq!(decode_hist_key(TELEMETRY_HIST_KEYS as u16), None);
    }

    #[test]
    fn capture_stamps_instance_and_generation() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(hub);
        tracing.set_instance(42);
        let first = TelemetrySnapshot::capture(&tracing);
        let second = TelemetrySnapshot::capture(&tracing);
        assert_eq!(first.instances.len(), 1);
        assert!(first.instances[&42] < second.instances[&42]);
    }

    #[test]
    fn merge_sums_counters_and_unions_instances() {
        let a = sample(1, 3, 100);
        let b = sample(2, 5, 2_000);
        let merged = a.clone().merged(&b);
        assert_eq!(merged.instances.len(), 2);
        assert_eq!(merged.hook_exits(), 8);
        assert_eq!(merged.hook_latency().count(), 8);
        assert_eq!(
            merged.hook_latency().sum,
            a.hook_latency().sum + b.hook_latency().sum
        );
    }

    #[test]
    fn delta_replay_reconstructs_later_capture() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        tracing.set_instance(7);
        hub.set_enabled(true);
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Deny,
            latency_ns: Some(500),
        });
        let base = TelemetrySnapshot::capture(&tracing);
        for epoch in 0..3 {
            hub.emit(&TraceEvent::RcuEpochBump { epoch });
        }
        let current = TelemetrySnapshot::capture(&tracing);
        let delta = current.delta_since(&base);
        assert_eq!(delta.point(Tracepoint::RcuEpochBump), 3);
        assert!(delta.hists.is_empty(), "quiet hooks elide their histograms");
        assert_eq!(base.clone().merged(&delta), current);
    }

    #[test]
    fn derived_rates_read_the_right_keys() {
        let hub = TraceHub::new();
        let tracing = SackTracing::attach(Arc::clone(&hub));
        hub.set_enabled(true);
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Deny,
            latency_ns: Some(90),
        });
        // Untimed denials count as denials too.
        hub.emit(&TraceEvent::HookExit {
            hook: TraceHook::FileOpen,
            verdict: TraceVerdict::Deny,
            latency_ns: None,
        });
        let snap = TelemetrySnapshot::capture(&tracing);
        assert_eq!(snap.denials(), 2);
        assert_eq!(snap.hook_exits(), 2);
        assert_eq!(snap.hook_latency().count(), 1);
    }
}
