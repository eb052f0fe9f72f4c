//! `sackbench`: what SACK adds to a syscall, end to end and layer by layer.
//!
//! ```text
//! sackbench [--workload tree-walk|fd-hot|file-churn|vehicle|all] [--seed N]
//!           [--seconds S] [--trace 0|1|SPANS.json]
//! ```
//!
//! Every workload runs under each LSM configuration in interleaved rounds
//! and prints each end-to-end metric with its unit, sample count and spread;
//! the last line of standard output is one JSON object with the result.
//! `--trace 1` (or a span file path) adds a replay that times every layer
//! from outside and reports the per-layer metrics instead. The exit code is
//! non-zero when any output of the system was wrong.

mod env;
mod files;
mod json;
mod reference;
mod rng;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod vehicle;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use files::{FileBench, FileKind};
use run::{absolute, run_schedule, slowdowns, Metric, RunResult, Workload};
use stats::{iqr, median};
use trace::{replay, Spans, REPLAY_OPS};
use vehicle::VehicleBench;

const WORKLOADS: [&str; 4] = ["tree-walk", "fd-hot", "file-churn", "vehicle"];

/// Timed rounds per configuration, spread over the boots.
const ROUNDS: usize = 48;
/// Default measured time per workload.
const SECONDS: f64 = 16.0;

/// Boots a run of `workload` spreads its rounds over; `setup_s` is the
/// median of their set-up times, each scaled by the reference timed right
/// after it. `vehicle` sets up in milliseconds, so it boots more often and
/// averages over more memory layouts.
fn default_boots(workload: &str) -> usize {
    if workload == "vehicle" {
        12
    } else {
        3
    }
}

#[derive(Debug, Clone, PartialEq)]
enum TraceMode {
    Off,
    On(Option<PathBuf>),
}

#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    rounds: usize,
    /// Boots per run, when not the workload's default.
    boots: Option<usize>,
    replay_ops: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workloads: WORKLOADS.to_vec(),
            seed: 1,
            seconds: SECONDS,
            trace: TraceMode::Off,
            rounds: ROUNDS,
            boots: None,
            replay_ops: REPLAY_OPS,
        }
    }
}

const USAGE: &str = "usage: sackbench [--workload tree-walk|fd-hot|file-churn|vehicle|all] \
[--seed N] [--seconds S] [--trace 0|1|SPANS.json]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads = match v.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    name => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?],
                };
            }
            "--seed" => {
                let v = value()?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On(None),
                    path => TraceMode::On(Some(PathBuf::from(path))),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "tree-walk" => Box::new(FileBench::setup(FileKind::TreeWalk, seed)),
        "fd-hot" => Box::new(FileBench::setup(FileKind::FdHot, seed)),
        "file-churn" => Box::new(FileBench::setup(FileKind::Churn, seed)),
        "vehicle" => Box::new(VehicleBench::setup(seed)),
        other => unreachable!("workload names are validated: {other}"),
    }
}

/// One workload's outcome.
struct Report {
    workload: &'static str,
    /// The metrics the JSON line carries (end-to-end, or per-layer when
    /// traced).
    metrics: Vec<Metric>,
    /// Further numbers printed for the reader only.
    extra: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// Runs `name` with `o`: several boots, each running its share of the
/// interleaved rounds, then the replay when tracing.
///
/// Every boot lays the kernels out in memory anew. On an op of a few
/// hundred nanoseconds that layout alone can move one configuration by
/// several percent for the whole boot, so the rounds are spread over
/// several boots and the slowdown is a median over all of them.
fn run_workload(name: &'static str, o: &Options) -> Report {
    let traced = o.trace != TraceMode::Off;
    let boots = o.boots.unwrap_or_else(|| default_boots(name));
    let per_boot = o.rounds.div_ceil(boots);
    let rounds = per_boot * boots;
    let configs = env::Config::ALL.len();
    // One untimed warm-up round per configuration and boot.
    let round_len = Duration::from_secs_f64(o.seconds / ((rounds + boots) * configs) as f64);
    let (mut setups, mut walls, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let mut result: Option<RunResult> = None;
    let mut workload = None;
    for _ in 0..boots {
        // Tear the previous boot down before timing the next.
        drop(workload.take());
        let t0 = Instant::now();
        let mut w = setup(name, o.seed);
        let wall = t0.elapsed().as_secs_f64();
        // After the set-up, not before: the reference's freed heap would
        // change what the set-up pays for its memory.
        let reference = reference::time();
        setups.push(wall * reference::NOMINAL_S / reference);
        walls.push(wall);
        refs.push(reference);
        let run = run_schedule(w.as_mut(), per_boot, round_len);
        match &mut result {
            Some(all) => all.absorb(run),
            None => result = Some(run),
        }
        workload = Some(w);
    }
    let mut w = workload.expect("at least one boot ran");
    let result = result.expect("at least one boot ran");
    let setup_s = Metric {
        name: "setup_s".to_string(),
        value: median(&setups),
        unit: "s",
        samples: setups.len() as u64,
        rounds: setups.len(),
        iqr: iqr(&setups),
        beyond: None,
    };
    let mut end_to_end = vec![setup_s];
    end_to_end.extend(slowdowns(&result));
    let mut per_layer = absolute(&result);
    let mut extra = vec![
        Metric::over("setup_wall_s", "s", walls.len() as u64, &walls),
        Metric::over("reference_s", "s", refs.len() as u64, &refs),
    ];
    extra.extend(w.run_extras(&result));
    let mut notes = vec![
        format!(
            "seed {} · digest {:016x} · {} boots × {} configs × ({} + 1 warm-up) rounds of {:.3} s, \
             order reversed every round",
            o.seed,
            w.digest(),
            boots,
            configs,
            per_boot,
            round_len.as_secs_f64()
        ),
        format!(
            "ops attempted {} · failed {} · unchecked (straddled a transition) {}",
            result.attempted(),
            result.failed(),
            result.unchecked()
        ),
    ];
    notes.extend(counter_notes(&result));
    let (mut attempted, mut failed) = (result.attempted(), result.failed());
    if traced {
        let mut spans = Spans::new();
        let r = replay(w.as_mut(), &result, &mut spans, o.replay_ops);
        attempted += r.attempted;
        failed += r.failed;
        per_layer.extend(r.metrics);
        extra.extend(r.extra);
        extra.extend(w.trace_extras(&mut spans, o.replay_ops as usize));
        notes.push(format!(
            "tracing overhead: traced uctx.op_ns is {:+.1}% of the untraced independent p50",
            r.overhead * 100.0
        ));
        // A failed check means the attribution is wrong: it fails the run.
        for c in &r.checks {
            attempted += 1;
            failed += u64::from(!c.pass);
            notes.push(format!(
                "check {}: {} ({})",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        if let TraceMode::On(Some(path)) = &o.trace {
            match spans.write(path) {
                Ok(()) => notes.push(format!(
                    "{} spans written to {}",
                    spans.len(),
                    path.display()
                )),
                Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
            }
        }
    }
    // The result line carries one metric set; the other is printed too.
    let (metrics, shown) = if traced {
        (per_layer, end_to_end)
    } else {
        (end_to_end, per_layer)
    };
    extra.splice(0..0, shown);
    Report {
        workload: name,
        metrics,
        extra,
        notes,
        attempted,
        failed,
    }
}

/// Counter totals over the timed rounds, per configuration.
fn counter_notes(result: &RunResult) -> Vec<String> {
    result
        .configs
        .iter()
        .zip(&result.per_config)
        .map(|(config, run)| {
            let c = run.counters();
            let aa: u64 = run.rounds.iter().map(|r| r.apparmor_audit).sum();
            format!(
                "{:<12} lsm calls {} denials {} · sack checks {} denials {} unprotected {} \
                 cache hits {} misses {} · audit {} lost {} · apparmor audit {} · \
                 ring frames {} transitions {} · profile compiles {}",
                config.name(),
                c.lsm_calls,
                c.lsm_denials,
                c.sack_checks,
                c.sack_denials,
                c.sack_unprotected,
                c.cache_hits,
                c.cache_misses,
                c.audit_records,
                c.audit_lost,
                aa,
                c.plane_frames,
                c.plane_transitions,
                c.profile_compiles,
            )
        })
        .collect()
}

fn print_metric(m: &Metric) {
    let beyond = m.beyond.map_or(String::new(), |b| format!(" beyond={b}"));
    println!(
        "  {:<42} {:>16.4} {:<6} n={:<10} rounds={:<3} iqr={:.4}{beyond}",
        m.name, m.value, m.unit, m.samples, m.rounds, m.iqr
    );
}

fn print_report(r: &Report) {
    println!("sackbench {}", r.workload);
    for m in r.metrics.iter().chain(&r.extra) {
        print_metric(m);
    }
    for n in &r.notes {
        println!("  {n}");
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for name in &o.workloads {
        let report = run_workload(name, &o);
        print_report(&report);
        println!("{}", result_json(&report));
        all_correct &= report.failed == 0;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
