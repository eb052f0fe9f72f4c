//! **Profile-table benchmarks (DESIGN.md §7.1)** — the AppArmor
//! `PolicyDb` after DFA compilation behind `Rcu<ProfileTable>`:
//!
//! * `profile_table_1000rules` — one hook-path match through a profile's
//!   compiled DFA versus the naive scan-every-rule baseline, at the
//!   1k-rule profile size the paper's Table 3 sweeps.
//! * `recompile_100profiles` — the cost of a single-rule profile edit on
//!   a 100-profile table (only the touched profile is installed again)
//!   versus the full-reload baseline that compiles every profile.
//!
//! `scripts/bench_gate.sh` extracts both groups and enforces the
//! DFA-vs-scan and incremental-vs-full speedup floors.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sack_apparmor::profile::{FilePerms, PathRule, Profile};
use sack_apparmor::PolicyDb;

/// A profile with `n` rules spread over `n / 8 + 1` top-level
/// directories.
fn synthetic_profile(name: &str, n: usize) -> Profile {
    let mut profile = Profile::new(name);
    let dirs = n / 8 + 1;
    for i in 0..n {
        let dir = i % dirs;
        profile.path_rules.push(
            PathRule::allow(
                &format!("/dir{dir}/sub{i}/**"),
                FilePerms::READ | FilePerms::WRITE,
            )
            .expect("generated pattern compiles"),
        );
    }
    profile
}

/// One access check against a 1000-rule profile loaded through the
/// `PolicyDb`: the unified-DFA walk the hook takes when the matcher is
/// enabled, versus the rule scan it falls back to when disabled.
fn bench_hook_match(c: &mut Criterion) {
    let db = PolicyDb::new();
    db.load(synthetic_profile("big", 1000));
    let compiled = db.get("big").expect("profile loaded");
    // A path matching one rule: the scan baseline still walks the whole
    // list because later rules could contribute permission bits.
    let path = "/dir0/sub0/file.txt";

    let mut group = c.benchmark_group("profile_table_1000rules");
    group.bench_with_input(BenchmarkId::from_parameter("dfa"), &compiled, |b, p| {
        b.iter(|| std::hint::black_box(p.rules().evaluate_dfa(path)));
    });
    group.bench_with_input(BenchmarkId::from_parameter("scan"), &compiled, |b, p| {
        b.iter(|| std::hint::black_box(p.scan(path)));
    });
    group.finish();
}

/// A single-rule edit on a 100-profile table. The incremental arm
/// patches one profile twice per iteration (push a rule, then pop it in
/// a separate patch — two genuine edits, so the table round-trips to its
/// starting contents). The database keeps every body it has compiled, so
/// after the first iteration both bodies are resident and the arm times
/// the install path around a DFA reuse: body key, lookup, one publish.
/// The full-reload arm rebuilds the entire table from scratch in a fresh
/// database, which is what every edit cost before incremental
/// recompilation.
fn bench_recompile(c: &mut Criterion) {
    let profiles: Vec<Profile> = (0..100)
        .map(|i| synthetic_profile(&format!("app{i}"), 10))
        .collect();

    let mut group = c.benchmark_group("recompile_100profiles");
    let db = PolicyDb::new();
    for profile in &profiles {
        db.load(profile.clone());
    }
    let extra = PathRule::allow("/dir0/sub999/**", FilePerms::READ).expect("pattern compiles");
    group.bench_with_input(BenchmarkId::from_parameter("incremental"), &db, |b, db| {
        b.iter(|| {
            db.patch("app42", |p| p.path_rules.push(extra.clone()))
                .expect("profile exists");
            db.patch("app42", |p| {
                p.path_rules.pop();
            })
            .expect("profile exists");
        });
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("full"),
        &profiles,
        |b, profiles| {
            b.iter(|| {
                let db = PolicyDb::new();
                for profile in profiles {
                    db.load(profile.clone());
                }
                std::hint::black_box(db.revision())
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
    name = profile_table;
    config = config_criterion();
    targets = bench_hook_match, bench_recompile
}
criterion_main!(profile_table);
