//! CI smoke for the profile-compilation pipeline (DESIGN.md §12).
//!
//! Run by `scripts/check.sh`: proves on every box — including
//! single-core CI where the benchmark gate's parallel floor is exempt —
//! that the parallel bulk-compile path and the lazy first-touch path
//! actually execute:
//!
//! * a 2-worker bulk load of 64 distinct-bodied profiles compiles every
//!   body exactly once through the scoped worker pool;
//! * a lazy load of the same bundle compiles nothing, and one forced
//!   first touch compiles exactly the touched profile while the rest
//!   stay stubs.
//!
//! Exits non-zero with a message on any violation.

use sack_apparmor::profile::{FilePerms, PathRule, Profile};
use sack_apparmor::{CompileMode, PolicyDb};

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
    // Parallel eager bulk load on a pinned 2-worker pool.
    let eager = PolicyDb::new();
    eager.set_compile_workers(2);
    let n = eager.load_many(bundle());
    assert_eq!(n, PROFILES, "bulk load installed {n}/{PROFILES} profiles");
    assert_eq!(
        eager.compile_count(),
        PROFILES as u64,
        "2-worker bulk load must compile every distinct body exactly once"
    );
    for i in 0..PROFILES {
        let compiled = eager.get(&format!("smoke{i}")).expect("profile loaded");
        assert!(
            compiled.rules().dfa_handle().is_compiled(),
            "smoke{i}: eager bulk load left an uncompiled stub"
        );
    }
    println!("profile_compile_smoke: parallel bulk load compiled {PROFILES} profiles on 2 workers");

    // Lazy load + one forced first touch.
    let lazy = PolicyDb::new();
    lazy.set_compile_mode(CompileMode::Lazy);
    lazy.load_many(bundle());
    assert_eq!(lazy.compile_count(), 0, "lazy load must not compile");
    let touched = lazy.get("smoke7").expect("profile loaded");
    let decision = touched.rules().evaluate_dfa("/smoke7/dir0/x");
    assert!(
        decision.permits(FilePerms::READ),
        "first-touch decision must match the loaded rules"
    );
    assert_eq!(
        lazy.compile_count(),
        1,
        "first touch must compile exactly the touched profile"
    );
    assert!(touched.rules().dfa_handle().is_compiled());
    let untouched = lazy.get("smoke8").expect("profile loaded");
    assert!(
        !untouched.rules().dfa_handle().is_compiled(),
        "untouched profile must stay a stub"
    );
    println!("profile_compile_smoke: lazy load deferred all builds; first touch compiled 1");
}
