//! Streaming anomaly detectors over per-cohort telemetry deltas.
//!
//! Each detector consumes the per-cohort delta stream produced by
//! [`FleetAggregator::tick`](crate::FleetAggregator::tick) and emits a typed
//! [`FleetAlert`] naming the offending cohort, with a flight-recorder
//! excerpt from that cohort's lossiest instance so an operator (or the
//! rollout driver) can replay the seconds before the anomaly.
//!
//! The denial-rate detector keeps a per-cohort EWMA baseline; the first
//! observation primes the baseline without alerting, so a rollout driver
//! that ticks once before pushing gets a traffic-calibrated floor for free.

use std::collections::BTreeMap;
use std::fmt;

use crate::aggregator::{FleetAggregator, FleetTick};

/// The typed kind of a fleet anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAlertKind {
    /// Per-tick denial count spiked above the EWMA baseline.
    DenialSpike,
    /// Situation-transition rate exceeded the storm threshold.
    TransitionStorm,
    /// A flight recorder overflowed (records were dropped) this tick.
    FlightOverflow,
}

impl FleetAlertKind {
    /// Stable label used in metrics and alert rendering.
    pub fn name(self) -> &'static str {
        match self {
            FleetAlertKind::DenialSpike => "denial_spike",
            FleetAlertKind::TransitionStorm => "transition_storm",
            FleetAlertKind::FlightOverflow => "flight_overflow",
        }
    }
}

impl fmt::Display for FleetAlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One anomaly raised by the detector bank.
#[derive(Debug, Clone)]
pub struct FleetAlert {
    /// What tripped.
    pub kind: FleetAlertKind,
    /// The offending cohort.
    pub cohort: String,
    /// Aggregation tick at which the anomaly was observed.
    pub tick: u64,
    /// Human-readable cause, with the numbers that tripped the threshold.
    pub detail: String,
    /// Rendered tail of the cohort's lossiest flight recorder.
    pub flight_excerpt: Vec<String>,
}

impl fmt::Display for FleetAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[tick {}] {} cohort={}: {}",
            self.tick, self.kind, self.cohort, self.detail
        )
    }
}

/// Thresholds for the detector bank. `Default` is tuned for the in-process
/// simulation: small floors so tests can trip detectors deterministically,
/// EWMA smoothing close to the metricsd convention.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// EWMA smoothing factor for the denial baseline (0 < alpha <= 1).
    pub denial_alpha: f64,
    /// Spike multiple over baseline that raises [`FleetAlertKind::DenialSpike`].
    pub denial_spike_factor: f64,
    /// Absolute per-tick denial floor below which spikes are ignored.
    pub denial_min: u64,
    /// Per-tick transition count that raises [`FleetAlertKind::TransitionStorm`].
    pub transition_storm: u64,
    /// Flight entries attached to each alert.
    pub excerpt_len: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            denial_alpha: 0.3,
            denial_spike_factor: 4.0,
            denial_min: 8,
            transition_storm: 256,
            excerpt_len: 8,
        }
    }
}

/// Per-cohort streaming state plus the thresholds: feed it every
/// [`FleetTick`] and collect alerts.
#[derive(Debug)]
pub struct DetectorBank {
    config: DetectorConfig,
    /// EWMA of per-tick denials, keyed by cohort. Absent until primed by
    /// the cohort's first observation.
    denial_baseline: BTreeMap<String, f64>,
}

impl DetectorBank {
    /// A bank with the given thresholds and no primed baselines.
    pub fn new(config: DetectorConfig) -> DetectorBank {
        DetectorBank {
            config,
            denial_baseline: BTreeMap::new(),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs every detector over one tick's per-cohort deltas. Alerts are
    /// also counted on `aggregator`'s Prometheus endpoint.
    pub fn observe(&mut self, tick: &FleetTick, aggregator: &FleetAggregator) -> Vec<FleetAlert> {
        let mut alerts = Vec::new();
        for (cohort, report) in &tick.cohorts {
            if report.live == 0 {
                continue;
            }
            let delta = &report.delta;

            // Denial-rate spike: EWMA baseline, primed on first sight.
            let denials = delta.denials();
            match self.denial_baseline.get(cohort).copied() {
                None => {
                    self.denial_baseline.insert(cohort.clone(), denials as f64);
                }
                Some(baseline) => {
                    let threshold = (baseline * self.config.denial_spike_factor)
                        .max(self.config.denial_min as f64);
                    if denials as f64 > threshold {
                        alerts.push(self.alert(
                            FleetAlertKind::DenialSpike,
                            cohort,
                            tick.tick,
                            format!(
                                "denials={denials}/tick vs baseline={baseline:.1} \
                                 (threshold {threshold:.1})"
                            ),
                            aggregator,
                        ));
                    }
                    let updated = self.config.denial_alpha * denials as f64
                        + (1.0 - self.config.denial_alpha) * baseline;
                    self.denial_baseline.insert(cohort.clone(), updated);
                }
            }

            // Transition storm.
            let transitions = delta.transitions();
            if transitions >= self.config.transition_storm {
                alerts.push(self.alert(
                    FleetAlertKind::TransitionStorm,
                    cohort,
                    tick.tick,
                    format!(
                        "{transitions} transitions/tick (threshold {})",
                        self.config.transition_storm
                    ),
                    aggregator,
                ));
            }

            // Flight-ring overflow: any loss this tick is an anomaly.
            if delta.flight_dropped > 0 {
                let worst = delta
                    .flight_dropped_by_producer
                    .iter()
                    .max_by_key(|(_, n)| **n)
                    .map(|(p, n)| format!(" worst producer {p} lost {n}"))
                    .unwrap_or_default();
                alerts.push(self.alert(
                    FleetAlertKind::FlightOverflow,
                    cohort,
                    tick.tick,
                    format!("{} flight records dropped;{worst}", delta.flight_dropped),
                    aggregator,
                ));
            }
        }
        alerts
    }

    fn alert(
        &self,
        kind: FleetAlertKind,
        cohort: &str,
        tick: u64,
        detail: String,
        aggregator: &FleetAggregator,
    ) -> FleetAlert {
        aggregator.record_alert(kind.name());
        FleetAlert {
            kind,
            cohort: cohort.to_string(),
            tick,
            detail,
            flight_excerpt: aggregator.flight_excerpt(cohort, self.config.excerpt_len),
        }
    }
}
