//! **Reload-latency benchmarks (DESIGN.md §12)** — the cost of swapping
//! a whole profile bundle into the `PolicyDb`, swept across table sizes
//! and compile strategies:
//!
//! * `bulk_compile_{100,1000,10000}/{serial,parallel}` — an eager bulk
//!   load of N distinct-bodied profiles with the worker pool pinned to 1
//!   (the pre-pipeline serial baseline) versus sized to the host.
//! * `lazy_reload_1000/load` — the same 1000-profile bundle loaded in
//!   lazy mode: stubs only, zero DFA builds, the reload critical path.
//! * `lazy_reload_1000/cold_attach` — lazy load plus the first hook
//!   touch on one profile: the end-to-end latency from "reload starts"
//!   to "first confined decision through a compiled DFA".
//!
//! `scripts/bench_gate.sh` extracts every arm and enforces the
//! parallel-over-serial floor at 1k (normalised to the host's cores;
//! single-core runners are exempt) and the cold-attach ceiling as a
//! fraction of the serial 1k rebuild.
//!
//! Every generated profile has a *distinct* body — the profile index is
//! baked into each glob — so content dedup cannot collapse the workload,
//! and every pattern draws on one fixed byte vocabulary (letters in
//! `p/dir/sub`, digits, `/`, `*`) so no load ever splits the shared
//! byte-class alphabet mid-sweep.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sack_apparmor::profile::{FilePerms, PathRule, Profile};
use sack_apparmor::{CompileMode, PolicyDb};

const RULES_PER_PROFILE: usize = 4;

/// `n` profiles, each with [`RULES_PER_PROFILE`] rules whose globs embed
/// the profile index — distinct bodies by construction.
fn distinct_profiles(n: usize) -> Vec<Profile> {
    (0..n)
        .map(|i| {
            let mut profile = Profile::new(format!("p{i}"));
            for r in 0..RULES_PER_PROFILE {
                profile.path_rules.push(
                    PathRule::allow(
                        &format!("/p{i}/dir{}/sub{r}/**", r % 2),
                        FilePerms::READ | FilePerms::WRITE,
                    )
                    .expect("generated pattern compiles"),
                );
            }
            profile
        })
        .collect()
}

fn eager_db(workers: usize) -> PolicyDb {
    let db = PolicyDb::new();
    db.set_compile_workers(workers);
    db
}

/// Eager bulk load, serial vs parallel, across table sizes.
fn bench_bulk_compile(c: &mut Criterion) {
    for &n in &[100usize, 1000, 10000] {
        let profiles = distinct_profiles(n);
        let mut group = c.benchmark_group(format!("bulk_compile_{n}"));
        group.bench_with_input(BenchmarkId::from_parameter("serial"), &profiles, |b, p| {
            b.iter(|| {
                let db = eager_db(1);
                std::hint::black_box(db.load_many(p.clone()));
                debug_assert_eq!(db.compile_count(), n as u64);
            });
        });
        group.bench_with_input(
            BenchmarkId::from_parameter("parallel"),
            &profiles,
            |b, p| {
                b.iter(|| {
                    // 0 = size the pool to the host (available_parallelism).
                    let db = eager_db(0);
                    std::hint::black_box(db.load_many(p.clone()));
                    debug_assert_eq!(db.compile_count(), n as u64);
                });
            },
        );
        group.finish();
    }
}

/// Lazy reload: stub installation only, and stub installation plus one
/// first-touch compile (the cold-attach path a hook pays after a
/// reload).
fn bench_lazy_reload(c: &mut Criterion) {
    let profiles = distinct_profiles(1000);
    let mut group = c.benchmark_group("lazy_reload_1000");
    group.bench_with_input(BenchmarkId::from_parameter("load"), &profiles, |b, p| {
        b.iter(|| {
            let db = PolicyDb::new();
            db.set_compile_mode(CompileMode::Lazy);
            std::hint::black_box(db.load_many(p.clone()));
            debug_assert_eq!(db.compile_count(), 0);
        });
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("cold_attach"),
        &profiles,
        |b, p| {
            b.iter(|| {
                let db = PolicyDb::new();
                db.set_compile_mode(CompileMode::Lazy);
                db.load_many(p.clone());
                // First confined decision: compiles exactly this profile.
                let compiled = db.get("p42").expect("profile loaded");
                std::hint::black_box(compiled.rules().evaluate_dfa("/p42/dir0/sub0/x"));
                debug_assert_eq!(db.compile_count(), 1);
            });
        },
    );
    group.finish();
}

fn config_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
        .sample_size(10)
}

criterion_group! {
    name = profile_compile;
    config = config_criterion();
    targets = bench_bulk_compile, bench_lazy_reload
}
criterion_main!(profile_compile);
