//! Paper-style table rendering: rows per operation, one column per LSM
//! configuration, each non-baseline cell annotated with the performance
//! delta (`↑` = faster/more bandwidth than baseline, `↓` = slower/less,
//! matching the arrows in the paper's Tables II and III).

use std::fmt::Write as _;

use crate::sds::SdsSweep;
use crate::suite::{ContendedScenario, ContendedSweep, LmbenchResult, Op, OpGroup};

/// Formats a value in its op's unit.
fn format_value(op: Op, value: f64) -> String {
    if op.smaller_is_better() {
        if value >= 1000.0 {
            format!("{value:.1}µs")
        } else {
            format!("{value:.3}µs")
        }
    } else if value >= 1024.0 {
        format!("{:.2}K MB/s", value / 1024.0)
    } else {
        format!("{value:.1} MB/s")
    }
}

/// Formats the delta annotation for a cell vs. the baseline.
fn format_delta(op: Op, baseline: f64, value: f64) -> String {
    if baseline == 0.0 {
        return String::new();
    }
    let better = if op.smaller_is_better() {
        value < baseline
    } else {
        value > baseline
    };
    let pct = ((value - baseline) / baseline * 100.0).abs();
    if pct < 0.005 {
        " (=)".to_string()
    } else if better {
        format!(" (↑{pct:.2}%)")
    } else {
        format!(" (↓{pct:.2}%)")
    }
}

fn group_heading(group: OpGroup) -> &'static str {
    match group {
        OpGroup::Processes => "Processes (times in µs - smaller is better)",
        OpGroup::FileAccess => "File Access (in µs - smaller is better)",
        OpGroup::Bandwidth => "Local Communication Bandwidths (in MB/s - bigger is better)",
        OpGroup::ContextSwitch => "Context Switching (in µs - smaller is better)",
    }
}

/// Renders a comparison table.
///
/// `baseline` is the first column; every other column shows its value plus
/// the delta against the baseline. Ops missing from all columns are
/// skipped, so the same renderer serves the full Table II and the reduced
/// Table III row set.
pub fn render_comparison(
    title: &str,
    baseline: (&str, &LmbenchResult),
    variants: &[(&str, &LmbenchResult)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {title} ===");

    let mut labels = vec![baseline.0.to_string()];
    labels.extend(variants.iter().map(|(l, _)| l.to_string()));
    let name_width = Op::ALL
        .iter()
        .map(|op| op.name().len())
        .max()
        .unwrap_or(12)
        .max("Configuration".len());
    let col_width = 26usize;

    let _ = write!(out, "{:<name_width$}", "Configuration");
    for label in &labels {
        let _ = write!(out, " | {label:<col_width$}");
    }
    let _ = writeln!(out);

    let mut current_group: Option<OpGroup> = None;
    for op in Op::ALL {
        let base_value = baseline.1.get(op);
        let any_value = base_value.is_some() || variants.iter().any(|(_, r)| r.get(op).is_some());
        if !any_value {
            continue;
        }
        if current_group != Some(op.group()) {
            current_group = Some(op.group());
            let _ = writeln!(out, "--- {} ---", group_heading(op.group()));
        }
        let _ = write!(out, "{:<name_width$}", op.name());
        match base_value {
            Some(v) => {
                let _ = write!(out, " | {:<col_width$}", format_value(op, v));
            }
            None => {
                let _ = write!(out, " | {:<col_width$}", "-");
            }
        }
        for (_, result) in variants {
            let cell = match (result.get(op), base_value) {
                (Some(v), Some(b)) => format!("{}{}", format_value(op, v), format_delta(op, b, v)),
                (Some(v), None) => format_value(op, v),
                (None, _) => "-".to_string(),
            };
            let _ = write!(out, " | {cell:<col_width$}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders a single-series sweep (Fig. 3a / Fig. 3b style): parameter value
/// vs. mean overhead percentage against a baseline.
pub fn render_sweep(title: &str, param_name: &str, points: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {title} ===");
    let _ = writeln!(out, "{param_name:>16} | mean overhead vs baseline");
    for (param, overhead) in points {
        let pct = overhead * 100.0;
        let bar_len = (pct.abs().min(30.0) * 2.0) as usize;
        let bar: String = std::iter::repeat_n('#', bar_len).collect();
        let _ = writeln!(out, "{param:>16} | {pct:+6.2}% {bar}");
    }
    out
}

/// Renders the contended SMP sweep (DESIGN.md §9): one block per scenario,
/// one row per thread count, with p50/p90/p99 per-hook latency, aggregate
/// throughput, and scaling efficiency normalised to
/// `min(threads, available_parallelism)`.
pub fn render_contended_sweep(sweep: &ContendedSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== Contended hook dispatch (available parallelism: {}, {} hooks/thread) ===",
        sweep.available_parallelism, sweep.iters_per_thread
    );
    let _ = writeln!(
        out,
        "{:<14} {:>8} | {:>9} {:>9} {:>9} | {:>12} {:>11}",
        "scenario", "threads", "p50", "p90", "p99", "hooks/sec", "efficiency"
    );
    for scenario in ContendedScenario::ALL {
        for point in sweep.points.iter().filter(|p| p.scenario == scenario) {
            let efficiency = sweep
                .efficiency(scenario, point.threads)
                .map(|e| format!("{e:.2}x"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<14} {:>8} | {:>7}ns {:>7}ns {:>7}ns | {:>12.0} {:>11}",
                scenario.name(),
                point.threads,
                point.p50_ns,
                point.p90_ns,
                point.p99_ns,
                point.ops_per_sec,
                efficiency
            );
        }
    }
    out
}

/// Renders the SDS event-plane sweep (DESIGN.md §11): one row per target
/// sensor rate comparing per-event sync ingestion against batched
/// coalesced ingestion, then the warm-hook impact pair the bench gate
/// checks.
pub fn render_sds_sweep(sweep: &SdsSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== SDS event-plane ingestion ({} events/point) ===",
        sweep.events_per_point
    );
    let _ = writeln!(
        out,
        "{:>10} {:>7} | {:>13} {:>13} | {:>8}",
        "rate", "batch", "sync ev/s", "batched ev/s", "speedup"
    );
    for point in &sweep.points {
        let _ = writeln!(
            out,
            "{:>10} {:>7} | {:>13.0} {:>13.0} | {:>7.2}x",
            point.rate, point.batch, point.sync_eps, point.batched_eps, point.speedup
        );
    }
    let _ = writeln!(
        out,
        "warm-hook p50: base {}ns, plane active {}ns ({:.3}x)",
        sweep.warm_base_p50_ns,
        sweep.warm_plane_p50_ns,
        sweep.warm_impact()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Scale;
    use crate::testbed::{LsmConfig, TestBed, TestBedOptions};

    #[test]
    fn renders_real_comparison() {
        let base_bed = TestBed::boot(&TestBedOptions::new(LsmConfig::NoLsm));
        let base = crate::suite::run_suite(&base_bed, Scale::quick());
        let aa_bed = TestBed::boot(&TestBedOptions::new(LsmConfig::AppArmor));
        let aa = crate::suite::run_suite(&aa_bed, Scale::quick());
        let table = render_comparison("Table II", ("no-lsm", &base), &[("apparmor", &aa)]);
        assert!(table.contains("syscall"));
        assert!(table.contains("2p/16K ctxsw"));
        assert!(table.contains("Processes"));
        assert!(table.contains("MB/s"));
    }

    #[test]
    fn delta_formatting_directions() {
        // Latency: higher value = worse = ↓.
        assert!(format_delta(Op::Stat, 10.0, 11.0).contains('↓'));
        assert!(format_delta(Op::Stat, 10.0, 9.0).contains('↑'));
        // Bandwidth: higher value = better = ↑.
        assert!(format_delta(Op::PipeBw, 100.0, 110.0).contains('↑'));
        assert!(format_delta(Op::PipeBw, 100.0, 90.0).contains('↓'));
        assert_eq!(format_delta(Op::Stat, 10.0, 10.0), " (=)");
    }

    #[test]
    fn value_formatting_units() {
        assert!(format_value(Op::Stat, 1.234).ends_with("µs"));
        assert!(format_value(Op::PipeBw, 2048.0).contains("K MB/s"));
        assert!(format_value(Op::PipeBw, 512.0).ends_with("MB/s"));
    }

    #[test]
    fn sds_sweep_rendering() {
        let sweep = SdsSweep {
            points: vec![crate::sds::SdsPoint {
                rate: 100_000,
                batch: 100,
                sync_eps: 50_000.0,
                batched_eps: 400_000.0,
                speedup: 8.0,
            }],
            events_per_point: 2_000,
            warm_base_p50_ns: 120,
            warm_plane_p50_ns: 126,
        };
        let text = render_sds_sweep(&sweep);
        assert!(text.contains("100000"));
        assert!(text.contains("8.00x"));
        assert!(text.contains("warm-hook p50"));
        assert!(text.contains("1.050x"));
    }

    #[test]
    fn sweep_rendering() {
        let points = vec![("1".to_string(), 0.001), ("100".to_string(), 0.018)];
        let text = render_sweep("Fig 3a", "states", &points);
        assert!(text.contains("states"));
        assert!(text.contains("+1.80%"));
    }
}
