//! **Reload-latency benchmarks (DESIGN.md §12)** — the cost of swapping
//! a whole profile bundle into the `PolicyDb`, swept across table sizes:
//!
//! * `bulk_compile_{100,1000,10000}/{serial,parallel}` — a bulk load of
//!   N distinct-bodied profiles with the worker pool pinned to 1 (the
//!   pre-pipeline serial baseline) versus sized to the host.
//!
//! `scripts/bench_gate.sh` extracts every arm and enforces the
//! parallel-over-serial floor at 1k (normalised to the host's cores;
//! single-core runners are exempt).
//!
//! Every generated profile has a *distinct* body — the profile index is
//! baked into each glob — so content dedup cannot collapse the workload.
//! Each arm loads into a fresh database, so every body compiles.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sack_apparmor::profile::{FilePerms, PathRule, Profile};
use sack_apparmor::PolicyDb;

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

/// Bulk load, serial vs parallel, across table sizes.
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

fn config_criterion() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(400))
        .sample_size(10)
}

criterion_group! {
    name = profile_compile;
    config = config_criterion();
    targets = bench_bulk_compile
}
criterion_main!(profile_compile);
