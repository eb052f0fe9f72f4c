//! **Ablation (DESIGN.md §5.3, §7)** — the SACK hook hot path two ways on
//! the same policy: the unified per-state DFA walk every hook takes, and
//! the linear scan it replaced (protected-set match + per-state rule
//! walk, still the differential oracle), plus a 100/1k/10k rule-count
//! sweep pitting the two against each other.
//!
//! Drives the LSM hooks directly with a fabricated [`HookCtx`] so the
//! numbers isolate the module's decision cost from VFS bookkeeping. The
//! final section boots a full kernel and dumps the module's sackfs `stats`
//! node, so the counters a hook bumps can be eyeballed end to end.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sack_core::{Sack, SackPolicy};
use sack_kernel::cred::Credentials;
use sack_kernel::lsm::{AccessMask, HookCtx, ObjectRef, SecurityModule};
use sack_kernel::path::KPath;
use sack_kernel::types::Pid;
use sack_lmbench::workload::synthetic_independent_policy;

/// A 100-rule policy over four situation states.
const STATES: usize = 4;
const RULES: usize = 100;

fn build_sack() -> Arc<Sack> {
    let text = synthetic_independent_policy(STATES, RULES);
    assert!(
        SackPolicy::parse(&text)
            .unwrap()
            .compile()
            .unwrap()
            .rule_count()
            >= RULES,
        "workload must generate at least {RULES} rules"
    );
    Sack::independent(&text).unwrap()
}

fn hook_ctx(pid: u32) -> HookCtx {
    HookCtx::new(
        Pid(pid),
        Credentials::user(1000, 1000),
        Some(KPath::new("/usr/bin/app").unwrap()),
    )
}

/// One protected path per device; `/protected/area0/s0/**` is granted
/// `rw` in the initial state `s0`.
fn protected_path(i: usize) -> KPath {
    KPath::new(&format!("/protected/area0/s0/devices/dev{i}")).unwrap()
}

/// Times `file_open` on `paths` round-robin, once with the DFA matcher
/// and once with the scan, on the same module instance.
fn bench_matchers(c: &mut Criterion, group: &str, sack: &Sack, ctx: &HookCtx, paths: &[KPath]) {
    let mut group = c.benchmark_group(group);
    for (arm, dfa) in [("dfa", true), ("scan", false)] {
        sack.set_dfa_matcher_enabled(dfa);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(arm), sack, |b, s| {
            b.iter(|| {
                let obj = ObjectRef::regular(&paths[i % paths.len()]);
                i = i.wrapping_add(1);
                criterion::black_box(s.file_open(ctx, &obj, AccessMask::READ)).unwrap();
            });
        });
    }
    sack.set_dfa_matcher_enabled(true);
    group.finish();
}

fn bench_single_path(c: &mut Criterion) {
    let sack = build_sack();
    let paths = [protected_path(0)];
    bench_matchers(
        c,
        &format!("hook_matcher/{RULES}rules_single"),
        &sack,
        &hook_ctx(4242),
        &paths,
    );
}

/// A task touching a working set of distinct files: the realistic shape
/// of the paper's door/window device loop.
fn bench_working_set(c: &mut Criterion) {
    const SET: usize = 64;
    let sack = build_sack();
    let paths: Vec<KPath> = (0..SET).map(protected_path).collect();
    bench_matchers(
        c,
        &format!("hook_matcher/{RULES}rules_wset{SET}"),
        &sack,
        &hook_ctx(4243),
        &paths,
    );
}

/// DFA walk versus linear scan as the rule count grows 100 → 1k → 10k.
/// One policy bed per rule count; the two arms toggle the matcher on the
/// same module instance so they see identical policy objects. Group names
/// (`sweepNrules`) are chosen so the gate's substring matching cannot
/// collide across counts.
fn bench_rule_sweep(c: &mut Criterion) {
    let ctx = hook_ctx(4244);
    for rules in [100usize, 1_000, 10_000] {
        let text = synthetic_independent_policy(STATES, rules);
        let sack = Sack::independent(&text).unwrap();
        // Probe the *median* rule of the active state's block: a first-rule
        // path lets the linear scan short-circuit immediately and would
        // flatter it; the DFA walk costs the same wherever the rule sits.
        let median_area = rules / STATES / 2;
        let path = KPath::new(&format!("/protected/area{median_area}/s0/devices/dev0")).unwrap();
        bench_matchers(
            c,
            &format!("hook_matcher/sweep{rules}rules"),
            &sack,
            &ctx,
            &[path],
        );
    }
}

/// End-to-end sanity: the counters surface through the sackfs `stats` node
/// of a booted kernel, and real syscall decisions stay intact.
fn dump_sackfs_stats() {
    let sack = build_sack();
    let kernel = sack_kernel::KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    kernel
        .vfs()
        .mkdir_all(&KPath::new("/protected/area0/s0").unwrap())
        .unwrap();
    kernel
        .vfs()
        .create_file(
            &KPath::new("/protected/area0/s0/devices").unwrap(),
            sack_kernel::Mode(0o666),
            sack_kernel::Uid::ROOT,
            sack_kernel::Gid(0),
        )
        .unwrap();
    let task = kernel.spawn(Credentials::user(1000, 1000));
    for _ in 0..100 {
        task.read_to_vec("/protected/area0/s0/devices").unwrap();
    }
    let stats = task.read_to_vec("/sys/kernel/security/SACK/stats").unwrap();
    print!("{}", String::from_utf8_lossy(&stats));
}

fn bench_hook_matcher(c: &mut Criterion) {
    bench_single_path(c);
    bench_working_set(c);
    bench_rule_sweep(c);
    dump_sackfs_stats();
}

fn config_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
        .sample_size(10)
}

criterion_group! {
    name = hook_matcher;
    config = config_criterion();
    targets = bench_hook_matcher
}
criterion_main!(hook_matcher);
