//! The measurement schedule shared by every workload: interleaved rounds of
//! all configurations, per-op timing into histograms, and the end-to-end
//! metrics computed from them.

use std::time::{Duration, Instant};

use crate::env::{Config, Counters, Env, HookCall};
use crate::stats::{iqr, median, Histogram};
use crate::trace::Spans;
use sack_kernel::lsm::HookCtx;
use sack_kernel::path::KPath;

/// What one operation reported: its latency (the harness times only the
/// calls into the system, never its own checks) and whether its outputs
/// were correct.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    pub ns: u64,
    pub ok: bool,
    /// False when the expected outcome was unknowable (an op that
    /// straddled a situation transition); its errno was still checked.
    pub checked: bool,
}

/// One round of one configuration.
#[derive(Clone, Default)]
pub struct Round {
    pub ops: u64,
    pub failed: u64,
    pub unchecked: u64,
    pub op_ns: u128,
    pub wall: Duration,
    pub hist: Histogram,
    /// Open-loop event latency: due time to `SACK/sds/ring` write return.
    pub events: Histogram,
    /// How late the open-loop generator sent each frame.
    pub lag: Histogram,
    pub frames: u64,
    /// Event-carrying frames whose ring write failed.
    pub event_failures: u64,
    /// AppArmor audit records drained after the round.
    pub apparmor_audit: u64,
    pub counters: Counters,
}

impl Round {
    pub fn record(&mut self, r: OpResult) {
        self.ops += 1;
        self.op_ns += u128::from(r.ns);
        self.hist.record(r.ns);
        if !r.ok {
            self.failed += 1;
        }
        if !r.checked {
            self.unchecked += 1;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.op_ns as f64 / self.ops as f64
        }
    }
}

/// Runs `op` back to back for `len`: a closed loop with one client.
pub fn closed_loop(len: Duration, round: &mut Round, mut op: impl FnMut() -> OpResult) {
    let start = Instant::now();
    let deadline = start + len;
    loop {
        round.record(op());
        // Reading the clock every op would add its cost to the loop.
        if round.ops.is_multiple_of(16) && Instant::now() >= deadline {
            break;
        }
    }
    round.wall = start.elapsed();
}

/// The layer inputs of one operation, replayed by the traced run.
pub struct LayerInputs {
    /// The calling task's identity at syscall entry.
    pub ctx: HookCtx,
    /// Paths the operation walks with `Vfs::resolve_full`. When
    /// `resolves` is false the op walks none and these are the paths its
    /// descriptors were opened by (probed, not attributed to the op).
    pub paths: Vec<KPath>,
    pub resolves: bool,
    /// The hooks the operation dispatches, in order.
    pub hooks: Vec<HookCall>,
    /// `(create, rename target)` pairs: files the operation creates,
    /// renames and unlinks.
    pub mutations: Vec<(KPath, KPath)>,
}

/// A workload: its configurations, booted, plus the generated inputs.
pub trait Workload {
    fn configs(&self) -> &[Config];
    fn env(&self, ci: usize) -> &Env;
    /// One round of configuration `ci`, `len` long.
    fn run_round(&mut self, ci: usize, len: Duration, round: &mut Round);
    /// Executes op `seq` of the stream on `ci` outside any round.
    fn replay_op(&mut self, ci: usize, seq: u64) -> OpResult;
    /// Moves the world along before a replay executes op `seq`, as it
    /// moved during the rounds.
    fn advance(&mut self, _ci: usize, _seq: u64) {}
    /// The layer inputs op `seq` passes on `ci`.
    fn layer_inputs(&self, ci: usize, seq: u64) -> LayerInputs;
    /// Digest of every generated input.
    fn digest(&self) -> u64;
    /// Numbers only this workload has, from the untraced rounds.
    fn run_extras(&self, _result: &RunResult) -> Vec<Metric> {
        Vec::new()
    }
    /// Layers only this workload reaches, timed for the traced run over
    /// its first `ops` inputs.
    fn trace_extras(&self, _spans: &mut Spans, _ops: usize) -> Vec<Metric> {
        Vec::new()
    }
}

/// Everything measured for one configuration over a run.
#[derive(Default)]
pub struct ConfigRun {
    /// The timed rounds.
    pub rounds: Vec<Round>,
    /// Over every round, warm-up rounds included.
    pub attempted: u64,
    pub failed: u64,
    pub unchecked: u64,
}

impl ConfigRun {
    /// One of the rounds' histograms, merged over the timed rounds.
    pub fn merged(&self, pick: impl Fn(&Round) -> &Histogram) -> Histogram {
        let mut all = Histogram::new();
        for r in &self.rounds {
            all.merge(pick(r));
        }
        all
    }

    /// Counter deltas summed over the timed rounds.
    pub fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for r in &self.rounds {
            sum.add(&r.counters);
        }
        sum
    }

    /// Ops of the timed rounds.
    pub fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }
}

/// The outcome of the interleaved schedule.
pub struct RunResult {
    pub configs: Vec<Config>,
    pub per_config: Vec<ConfigRun>,
}

impl RunResult {
    pub fn index(&self, config: Config) -> Option<usize> {
        self.configs.iter().position(|c| *c == config)
    }

    pub fn attempted(&self) -> u64 {
        self.per_config.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.per_config.iter().map(|c| c.failed).sum()
    }

    pub fn unchecked(&self) -> u64 {
        self.per_config.iter().map(|c| c.unchecked).sum()
    }

    /// Appends the rounds of `other`, a run of the same configurations on
    /// another boot.
    pub fn absorb(&mut self, other: RunResult) {
        assert_eq!(self.configs, other.configs, "runs of one workload");
        for (run, more) in self.per_config.iter_mut().zip(other.per_config) {
            run.attempted += more.attempted;
            run.failed += more.failed;
            run.unchecked += more.unchecked;
            run.rounds.extend(more.rounds);
        }
    }
}

/// Runs one untimed warm-up round per configuration, then `rounds` timed
/// rounds per configuration, each `len` long. The configuration order
/// reverses every round (ABBA), so drift over the run hits every
/// configuration alike.
pub fn run_schedule(w: &mut dyn Workload, rounds: usize, len: Duration) -> RunResult {
    let configs = w.configs().to_vec();
    let n = configs.len();
    let mut per_config: Vec<ConfigRun> = (0..n).map(|_| ConfigRun::default()).collect();
    for r in 0..=rounds {
        let order: Vec<usize> = if r % 2 == 0 {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for ci in order {
            let before = w.env(ci).counters();
            let mut round = Round::default();
            w.run_round(ci, len, &mut round);
            round.counters = w.env(ci).counters().since(&before);
            let run = &mut per_config[ci];
            run.attempted += round.ops + round.frames;
            run.failed += round.failed + round.event_failures;
            run.unchecked += round.unchecked;
            if r > 0 {
                run.rounds.push(round);
            }
        }
    }
    RunResult {
        configs,
        per_config,
    }
}

/// One reported number with the evidence behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value is computed from.
    pub samples: u64,
    /// Rounds (or repetitions) the spread is taken over.
    pub rounds: usize,
    /// Interquartile range over those rounds, in `unit`.
    pub iqr: f64,
    /// For a percentile: samples beyond it.
    pub beyond: Option<u64>,
}

impl Metric {
    /// The mean of `values`, with their spread.
    pub fn mean(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let mut m = Metric::over(name, unit, values.len() as u64, values);
        m.value = values.iter().sum::<f64>() / values.len().max(1) as f64;
        m
    }

    /// The median of `values`, with their spread.
    pub fn over(name: &str, unit: &'static str, samples: u64, values: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            value: median(values),
            unit,
            samples,
            rounds: values.len(),
            iqr: iqr(values),
            beyond: None,
        }
    }
}

fn per_round(run: &ConfigRun, f: impl Fn(&Round) -> f64) -> Vec<f64> {
    run.rounds.iter().map(f).collect()
}

/// A latency percentile of the merged histograms `pick` chooses, in
/// microseconds when `micros`, with its spread over the rounds.
pub fn percentile(
    name: &str,
    run: &ConfigRun,
    q: f64,
    pick: impl Fn(&Round) -> &Histogram,
    micros: bool,
) -> Metric {
    let (scale, unit) = if micros { (1e-3, "us") } else { (1.0, "ns") };
    let hist = run.merged(&pick);
    let values = per_round(run, |r| pick(r).quantile(q) * scale);
    Metric {
        name: name.to_string(),
        value: hist.quantile(q) * scale,
        unit,
        samples: hist.count(),
        rounds: values.len(),
        iqr: iqr(&values),
        beyond: (q > 0.5).then(|| hist.beyond(q)),
    }
}

/// The SACK configurations with their run index and the run of their
/// same-run baseline.
fn sack_runs(result: &RunResult) -> impl Iterator<Item = (&'static str, &ConfigRun, &ConfigRun)> {
    [Config::Independent, Config::Enhanced]
        .into_iter()
        .filter_map(|sack| {
            let run = &result.per_config[result.index(sack)?];
            let base = &result.per_config[result.index(sack.baseline()?)?];
            Some((sack.name(), run, base))
        })
}

/// What SACK adds over its same-run baseline: the median over rounds of
/// the paired ratio of round-mean op latency (`independent / no-lsm`,
/// `enhanced / apparmor`). Both members of a pair run back to back in the
/// same round, so drift of the host between rounds cancels.
pub fn slowdowns(result: &RunResult) -> Vec<Metric> {
    sack_runs(result)
        .map(|(name, run, base)| {
            let ratios: Vec<f64> = run
                .rounds
                .iter()
                .zip(&base.rounds)
                .map(|(s, b)| s.mean_ns() / b.mean_ns())
                .collect();
            Metric::over(
                &format!("{name}.slowdown"),
                "ratio",
                run.ops() + base.ops(),
                &ratios,
            )
        })
        .collect()
}

/// Throughput and per-op latency of the SACK configurations, as measured:
/// unlike the slowdowns, these move with the host's speed from run to run.
pub fn absolute(result: &RunResult) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, run, _) in sack_runs(result) {
        out.push(Metric::over(
            &format!("{name}.ops_per_s"),
            "ops/s",
            run.ops(),
            &per_round(run, |r| r.ops as f64 / r.wall.as_secs_f64()),
        ));
        out.push(percentile(
            &format!("{name}.p50_ns"),
            run,
            0.50,
            |r| &r.hist,
            false,
        ));
        out.push(percentile(
            &format!("{name}.p99_ns"),
            run,
            0.99,
            |r| &r.hist,
            false,
        ));
    }
    out
}

/// Open-loop event latency of the SACK configurations: from each
/// event-carrying frame's due time to the return of its ring write.
pub fn event_latency(result: &RunResult) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, run, _) in sack_runs(result) {
        out.push(percentile(
            &format!("{name}.event_p50_us"),
            run,
            0.50,
            |r| &r.events,
            true,
        ));
        out.push(percentile(
            &format!("{name}.event_p99_us"),
            run,
            0.99,
            |r| &r.events,
            true,
        ));
    }
    out
}
