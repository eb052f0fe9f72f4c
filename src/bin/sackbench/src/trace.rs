//! The traced run: per-layer costs, timed from outside each layer.
//!
//! After the untraced rounds, the first ops of the same seeded stream are
//! replayed on the `independent` kernel, back to back as in the rounds
//! (layer calls between ops would cool the caches the next op runs in).
//! Blocks of `BLOCK` recorded ops alternate with blocks of as many plain
//! ops (ABBA), so the gap between the two is the recorder's own cost and
//! not the host's drift, which moves per-op times by half within a second
//! on a shared machine. Then every layer function each recorded op reached
//! is called directly on that op's own inputs, `REPS` times per span to
//! amortise the clock reads.
//! Spans record name, start, end, parent and op id and stay in memory
//! until the run ends. A child span stands for one pass of its calls, so a
//! layer's self time is its per-op cost minus its children's.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use sack_core::rules::SubjectCtx;
use sack_kernel::kernel::Kernel;
use sack_kernel::lsm::SecurityModule;
use sack_kernel::types::Mode;
use sack_kernel::{Gid, Uid};

use crate::env::{Config, Counters};
use crate::json;
use crate::run::{Metric, RunResult, Workload};
use crate::stats::{iqr, median, Histogram};

/// Ops the traced run replays.
pub const REPLAY_OPS: u64 = 20_000;
/// Passes over a layer's calls per span.
const REPS: u64 = 16;
/// Replayed ops per block; recorded and plain blocks alternate (ABBA).
/// Short blocks follow the host's drift closely; long ones keep what the
/// recorder does between two ops from reaching the plain block after it.
const BLOCK: u64 = 50;

pub struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
    /// Calls the span covers (passes × calls per pass).
    calls: u64,
}

/// Spans of one run, kept in memory and written out at exit.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        (start, end): (u64, u64),
        parent: Option<usize>,
        op: u64,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
            calls,
        });
        self.spans.len() - 1
    }

    /// Times `REPS` passes of `pass` (which makes `per_pass` calls) as one
    /// span; returns the span and the mean time of one call.
    fn time(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        per_pass: usize,
        mut pass: impl FnMut(),
    ) -> (usize, f64) {
        let start = self.now();
        for _ in 0..REPS {
            pass();
        }
        let calls = REPS * per_pass.max(1) as u64;
        let span = self.push(name, (start, self.now()), parent, op, calls);
        let s = &self.spans[span];
        (span, (s.end - s.start) as f64 / calls as f64)
    }

    /// Times one call of `f` as a span.
    pub fn once<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let out = f();
        let span = self.push(name, (start, self.now()), None, op, 1);
        let s = &self.spans[span];
        (out, (s.end - s.start) as f64)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as a JSON array.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"calls\":{}}}{}",
                json::string(s.name),
                s.start,
                s.end,
                s.op,
                s.calls,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// A named pass/fail check of the trace's own consistency.
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

/// What the traced run reports.
pub struct Replay {
    /// The per-layer metrics of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Layer numbers only this workload has.
    pub extra: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Gap between the recorded and plain replay's p50, as a share of the
    /// plain one.
    pub overhead: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Per-op values, one entry per replayed op.
#[derive(Default)]
struct PerOp {
    op: Vec<f64>,
    op_self: Vec<f64>,
    resolve: Vec<f64>,
    path_bytes: Vec<f64>,
    mutate: Vec<f64>,
    attributed: Vec<f64>,
    dispatch: Vec<f64>,
    lsm_self: Vec<f64>,
    hooks: Vec<f64>,
    sack: Vec<f64>,
    sack_self: Vec<f64>,
    decide_attributed: Vec<f64>,
    decide: Vec<f64>,
    enh_dispatch: Vec<f64>,
    apparmor: Vec<f64>,
}

fn ns(name: &str, values: &[f64]) -> Metric {
    Metric::over(name, "ns", values.len() as u64, values)
}

/// A counter of the untraced timed rounds of `ci` as a ratio `f(counters) /
/// g(counters, ops)`, with the spread of its per-round values.
fn ratio(
    name: &str,
    unit: &'static str,
    result: &RunResult,
    ci: usize,
    f: impl Fn(&Counters, u64) -> (f64, f64),
) -> Metric {
    let run = &result.per_config[ci];
    let of = |c: &Counters, ops: u64| {
        let (num, den) = f(c, ops);
        num / den.max(1.0)
    };
    let per_round: Vec<f64> = run.rounds.iter().map(|r| of(&r.counters, r.ops)).collect();
    Metric {
        name: name.to_string(),
        value: of(&run.counters(), run.ops()),
        unit,
        samples: run.ops(),
        rounds: per_round.len(),
        iqr: iqr(&per_round),
        beyond: None,
    }
}

/// Events counted by `f` per op of the untraced timed rounds of `ci`.
fn per_op(name: &str, result: &RunResult, ci: usize, f: fn(&Counters) -> u64) -> Metric {
    ratio(name, "count/op", result, ci, |c, ops| {
        (f(c) as f64, ops as f64)
    })
}

fn check(name: &str, pass: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        pass,
        detail,
    }
}

/// Replays ops `0..ops` of `w`'s stream and derives the per-layer metrics.
pub fn replay(w: &mut dyn Workload, result: &RunResult, spans: &mut Spans, ops: u64) -> Replay {
    let ind = result
        .index(Config::Independent)
        .expect("every workload runs independent SACK");
    let enh = result
        .index(Config::Enhanced)
        .expect("every workload runs enhanced SACK");
    // Mutations are timed on a twin kernel without security modules.
    let twin = Kernel::boot_default();
    let mut v = PerOp::default();
    let (mut attempted, mut failed, mut model_mismatches) = (0u64, 0u64, 0u64);
    // The ops, back to back: only their own timing, and when recorded the
    // span clock and LsmStats, are read between two of them. Ops
    // `0..2 * ops` run in blocks, plain and recorded in ABBA order, so both
    // halves meet the same host load and the same stretch of the stream.
    let (mut plain, mut traced) = (Histogram::new(), Histogram::new());
    let mut ran = Vec::with_capacity(ops as usize);
    for (block, first) in (0..2 * ops).step_by(BLOCK as usize).enumerate() {
        let record = matches!(block % 4, 1 | 2);
        for seq in first..(first + BLOCK).min(2 * ops) {
            w.advance(ind, seq);
            let r = if record {
                let calls_before = w.env(ind).lsm_calls();
                let start = spans.now();
                let r = w.replay_op(ind, seq);
                let end = spans.now();
                let calls = w.env(ind).lsm_calls() - calls_before;
                ran.push((seq, start, end, r.ns, calls));
                traced.record(r.ns);
                r
            } else {
                let r = w.replay_op(ind, seq);
                plain.record(r.ns);
                r
            };
            attempted += 1;
            failed += u64::from(!r.ok);
        }
    }
    let recorded = ran.len();
    for (seq, start, end, ns, calls) in ran {
        // The span also covers the harness's output checks; the metric
        // takes the op's own timing of its syscalls, as the rounds do.
        let op_span = spans.push("uctx.op", (start, end), None, seq, 1);
        let op_ns = ns as f64;
        let li = w.layer_inputs(ind, seq);
        let le = w.layer_inputs(enh, seq);
        let counted = li.hooks.iter().filter(|h| h.counted()).count() as u64;
        model_mismatches += u64::from(calls != counted);
        for (src, dst) in &li.mutations {
            for p in [src, dst] {
                let dir = p.parent().expect("mutated files have parents");
                twin.vfs().mkdir_all(&dir).expect("twin directories build");
            }
        }
        let env = w.env(ind);
        let sack = env.sack.as_ref().expect("independent stacks SACK");
        let vfs = env.kernel.vfs();
        let parent = li.resolves.then_some(op_span);
        let (_, resolve) = spans.time("vfs.resolve", parent, seq, li.paths.len(), || {
            for p in &li.paths {
                let _ = black_box(vfs.resolve_full(black_box(p)));
            }
        });
        let mut mutate = 0.0;
        if !li.mutations.is_empty() {
            let tv = twin.vfs();
            mutate = spans
                .time("vfs.mutate", Some(op_span), seq, li.mutations.len(), || {
                    for (src, dst) in &li.mutations {
                        let _ = black_box(tv.create_file(src, Mode::REGULAR, Uid::ROOT, Gid(0)));
                        let _ = black_box(tv.rename(src, dst));
                        let _ = black_box(tv.unlink(dst));
                    }
                })
                .1
                * li.mutations.len() as f64;
        }
        let stack = env.kernel.lsm();
        let hooks = li.hooks.len() as f64;
        let (dispatch_span, dispatch) =
            spans.time("lsm.dispatch", Some(op_span), seq, li.hooks.len(), || {
                for h in &li.hooks {
                    let _ = black_box(h.dispatch(stack, &li.ctx));
                }
            });
        let module: &dyn SecurityModule = &**sack;
        let lookups = |s: &sack_core::SackStats| {
            use std::sync::atomic::Ordering::Relaxed;
            (s.cache_hits.load(Relaxed), s.cache_misses.load(Relaxed))
        };
        let (hits0, misses0) = lookups(sack.stats());
        let (sack_span, sack_call) = spans.time(
            "sack.hook",
            Some(dispatch_span),
            seq,
            li.hooks.len(),
            || {
                for h in &li.hooks {
                    let _ = black_box(h.call(module, &li.ctx));
                }
            },
        );
        let (hits1, misses1) = lookups(sack.stats());
        let misses = (misses1 - misses0) as f64;
        let miss_share = misses / ((hits1 - hits0) as f64 + misses).max(1.0);
        let decisions: Vec<_> = li.hooks.iter().flat_map(|h| h.sack_decisions()).collect();
        let active = sack.active();
        let dfa = active.policy.state_dfa(active.ssm.current());
        let subject = SubjectCtx {
            uid: li.ctx.cred.uid.0,
            exe: li.ctx.exe.as_ref().map(|p| p.as_str()),
            profile: None,
        };
        let (_, decide) = spans.time(
            "statedfa.decide",
            Some(sack_span),
            seq,
            decisions.len(),
            || {
                for (path, perms) in &decisions {
                    black_box(dfa.decide(&subject, path, *perms));
                }
            },
        );
        // Share of one hook call spent walking the DFA on a cache miss.
        let decide_attributed = decide * decisions.len() as f64 / hooks * miss_share;

        let env_e = w.env(enh);
        let stack_e = env_e.kernel.lsm();
        let (enh_span, enh_dispatch) =
            spans.time("enhanced.lsm.dispatch", None, seq, le.hooks.len(), || {
                for h in &le.hooks {
                    let _ = black_box(h.dispatch(stack_e, &le.ctx));
                }
            });
        let aa: &dyn SecurityModule = &**env_e.apparmor.as_ref().expect("enhanced stacks AppArmor");
        let (_, apparmor) =
            spans.time("apparmor.hook", Some(enh_span), seq, le.hooks.len(), || {
                for h in &le.hooks {
                    let _ = black_box(h.call(aa, &le.ctx));
                }
            });

        let resolved = if li.resolves {
            resolve * li.paths.len() as f64
        } else {
            0.0
        };
        let attributed = resolved + mutate + dispatch * hooks;
        v.op.push(op_ns);
        v.op_self.push(op_ns - attributed);
        v.attributed.push(attributed);
        v.resolve.push(resolve);
        v.path_bytes.push(
            li.paths.iter().map(|p| p.as_str().len()).sum::<usize>() as f64 / li.paths.len() as f64,
        );
        if !li.mutations.is_empty() {
            v.mutate.push(mutate);
        }
        v.dispatch.push(dispatch);
        v.lsm_self.push(dispatch - sack_call);
        v.hooks.push(hooks);
        v.sack.push(sack_call);
        v.sack_self.push(sack_call - decide_attributed);
        v.decide_attributed.push(decide_attributed);
        v.decide.push(decide);
        v.enh_dispatch.push(enh_dispatch);
        v.apparmor.push(apparmor);
    }
    if let Some(aa) = &w.env(enh).apparmor {
        aa.take_audit_log();
    }

    let (op_p50, untraced_p50) = (traced.quantile(0.5), plain.quantile(0.5));
    let rounds_p50 = result.per_config[ind].merged(|r| &r.hist).quantile(0.5);
    let overhead = op_p50 / untraced_p50 - 1.0;
    let env = w.env(ind);
    let sack = env.sack.as_ref().expect("independent stacks SACK");
    let active = sack.active();
    let residual = active
        .policy
        .state_dfa(active.ssm.current())
        .residual_rule_count();
    let compiles = w.env(enh).counters().profile_compiles;

    let metrics = vec![
        Metric {
            value: op_p50,
            ..ns("uctx.op_ns", &v.op)
        },
        ns("uctx.self_ns", &v.op_self),
        ns("vfs.resolve_ns", &v.resolve),
        Metric::over(
            "vfs.path_bytes",
            "bytes",
            v.path_bytes.len() as u64,
            &v.path_bytes,
        ),
        ns("lsm.dispatch_ns", &v.dispatch),
        ns("lsm.self_ns", &v.lsm_self),
        Metric::mean("lsm.hooks_per_op", "count", &v.hooks),
        ns("sack.hook_ns", &v.sack),
        ns("sack.self_ns", &v.sack_self),
        per_op("sack.checks", result, ind, |c| c.sack_checks),
        per_op("cache.hits", result, ind, |c| c.cache_hits),
        per_op("cache.misses", result, ind, |c| c.cache_misses),
        ratio("cache.hit_rate", "ratio", result, ind, |c, _| {
            (c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64)
        }),
        ns("statedfa.decide_ns", &v.decide),
        Metric::over("statedfa.residual_rules", "count", 1, &[residual as f64]),
        ns("apparmor.hook_ns", &v.apparmor),
        Metric::over("apparmor.profile_compiles", "count", 1, &[compiles as f64]),
    ];

    let mut extra = vec![
        ns("enhanced.lsm.dispatch_ns", &v.enh_dispatch),
        per_op("lsm.denials", result, ind, |c| c.lsm_denials),
        per_op("sack.denials", result, ind, |c| c.sack_denials),
        per_op("sack.unprotected", result, ind, |c| c.sack_unprotected),
    ];
    if !v.mutate.is_empty() {
        extra.push(ns("vfs.mutate_ns", &v.mutate));
    }

    let within = |part: f64, whole: f64| part <= whole * 1.05;
    let parts = median(&v.attributed);
    let decide_part = median(&v.decide_attributed);
    let checks = vec![
        check(
            "uctx.op >= vfs + lsm",
            within(parts, op_p50),
            format!("children {parts:.1} ns of op {op_p50:.1} ns"),
        ),
        check(
            "lsm.dispatch >= sack.hook",
            within(median(&v.sack), median(&v.dispatch)),
            format!(
                "sack.hook {:.1} ns of dispatch {:.1} ns",
                median(&v.sack),
                median(&v.dispatch)
            ),
        ),
        check(
            "sack.hook >= statedfa.decide x miss share",
            within(decide_part, median(&v.sack)),
            format!(
                "decide {decide_part:.1} ns of hook {:.1} ns",
                median(&v.sack)
            ),
        ),
        check(
            "enhanced.lsm.dispatch >= apparmor.hook",
            within(median(&v.apparmor), median(&v.enh_dispatch)),
            format!(
                "apparmor.hook {:.1} ns of dispatch {:.1} ns",
                median(&v.apparmor),
                median(&v.enh_dispatch)
            ),
        ),
        check(
            "traced uctx.op_ns within 10% of untraced p50",
            overhead.abs() <= 0.10,
            format!(
                "traced {op_p50:.1} ns, untraced {untraced_p50:.1} ns in the blocks between, \
                 {rounds_p50:.1} ns in the rounds"
            ),
        ),
        check(
            "hook model matches LsmStats",
            model_mismatches == 0,
            format!("{model_mismatches} of {recorded} ops dispatched other hooks than modelled"),
        ),
    ];
    Replay {
        metrics,
        extra,
        checks,
        overhead,
        attempted,
        failed,
    }
}
