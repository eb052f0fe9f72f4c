//! CI smoke for the profile-compilation pipeline (DESIGN.md §12).
//!
//! Run by `scripts/check.sh`: proves on every box — including
//! single-core CI where the benchmark gate's parallel floor is exempt —
//! that the parallel bulk-compile path actually executes: a 2-worker bulk
//! load of 64 distinct-bodied profiles compiles every body exactly once
//! through the scoped worker pool, and every profile's DFA decides like
//! the scan oracle over its rules (`CompiledProfile::scan`).
//!
//! Exits non-zero with a message on any violation.

use sack_apparmor::profile::{FilePerms, PathRule, Profile};
use sack_apparmor::PolicyDb;

const PROFILES: usize = 64;

fn bundle() -> Vec<Profile> {
    (0..PROFILES)
        .map(|i| {
            let mut profile = Profile::new(format!("smoke{i}"));
            for r in 0..3 {
                profile.path_rules.push(
                    PathRule::allow(
                        &format!("/smoke{i}/dir{r}/**"),
                        FilePerms::READ | FilePerms::WRITE,
                    )
                    .expect("generated pattern compiles"),
                );
            }
            profile
        })
        .collect()
}

fn main() {
    // Parallel bulk load on a pinned 2-worker pool.
    let db = PolicyDb::new();
    db.set_compile_workers(2);
    let n = db.load_many(bundle());
    assert_eq!(n, PROFILES, "bulk load installed {n}/{PROFILES} profiles");
    assert_eq!(
        db.compile_count(),
        PROFILES as u64,
        "2-worker bulk load must compile every distinct body exactly once"
    );
    for i in 0..PROFILES {
        let compiled = db.get(&format!("smoke{i}")).expect("profile loaded");
        for probe in [
            format!("/smoke{i}/dir0/x"),
            format!("/smoke{}/dir0/x", i + 1),
        ] {
            let decision = compiled.rules().evaluate_dfa(&probe);
            assert_eq!(
                decision,
                compiled.scan(&probe),
                "smoke{i} @ {probe}: DFA and scan disagree"
            );
        }
        assert!(
            compiled
                .rules()
                .evaluate_dfa(&format!("/smoke{i}/dir0/x"))
                .permits(FilePerms::READ),
            "smoke{i}: decision must match the loaded rules"
        );
    }
    println!("profile_compile_smoke: parallel bulk load compiled {PROFILES} profiles on 2 workers");
}
