//! Workload constants and synthetic policy generators for the sweeps.

/// Path of the benchmark executable inside the simulated system.
pub const BENCH_EXE: &str = "/usr/bin/lmbench";

/// Source file for the file-reread bandwidth benchmark.
pub const REREAD_FILE: &str = "/tmp/bench/reread.dat";

/// Size of the reread file (512 KiB — big enough to dominate dispatch
/// costs, small enough to keep the suite fast).
pub const REREAD_SIZE: usize = 512 * 1024;

/// AppArmor profile confining the benchmark process: broad enough that the
/// workload runs, narrow enough that matching is non-trivial.
pub const BENCH_PROFILE: &str = r#"
profile bench /usr/bin/lmbench {
    /usr/bin/** rxm,
    /usr/lib/** rm,
    /tmp/** rwm,
    /etc/* r,
    /dev/car/** r,
    network unix,
    network inet,
}
"#;

/// Generates an independent-SACK policy with `states` situation states and
/// at least `rules` MAC rules, protecting `/protected/**` paths (which the
/// LMBench workload never touches — matching the paper's "default
/// policies" methodology where the benchmark exercises the hook dispatch
/// and protected-set lookup, not a denial path).
pub fn synthetic_independent_policy(states: usize, rules: usize) -> String {
    let states = states.max(2);
    let mut out = String::new();
    out.push_str("states {\n");
    for i in 0..states {
        out.push_str(&format!("  s{i} = {i};\n"));
    }
    out.push_str("}\nevents {\n");
    for i in 0..states {
        out.push_str(&format!("  goto_s{i};\n"));
    }
    out.push_str("}\ntransitions {\n");
    // Fully connected ring plus direct jumps from s0.
    for i in 0..states {
        let next = (i + 1) % states;
        out.push_str(&format!("  s{i} -goto_s{next}-> s{next};\n"));
    }
    out.push_str("}\ninitial s0;\npermissions {\n");
    for i in 0..states {
        out.push_str(&format!("  P{i};\n"));
    }
    out.push_str("}\nstate_per {\n");
    for i in 0..states {
        out.push_str(&format!("  s{i}: P{i};\n"));
    }
    out.push_str("}\nper_rules {\n");
    // Distribute the requested rule count across the permissions.
    let per_perm = rules.div_ceil(states).max(1);
    for i in 0..states {
        out.push_str(&format!("  P{i}:\n"));
        for j in 0..per_perm {
            out.push_str(&format!(
                "    allow subject=* /protected/area{j}/s{i}/** rw;\n"
            ));
        }
    }
    out.push_str("}\n");
    out
}

/// Generates the equivalent enhanced-mode policy: same state machine, but
/// rules target the `bench` profile (which must be loaded).
pub fn synthetic_enhanced_policy(states: usize, rules: usize) -> String {
    synthetic_independent_policy(states, rules).replace("subject=*", "subject=profile:bench")
}

/// Path prefix granted in *every* state by [`synthetic_racing_policy`].
pub const RACING_SHARED_PREFIX: &str = "/shared";

/// Like [`synthetic_independent_policy`], but every state's permission
/// additionally grants `/shared/**` — a decision whose *verdict* is
/// identical in all states. The contended reload-racing sweep hammers a
/// `/shared` path while situation transitions and reloads churn the
/// policy snapshot: the measured cost is the DFA walk against whichever
/// snapshot is current, never a verdict flip into the (allocating) audit
/// path.
pub fn synthetic_racing_policy(states: usize, rules: usize) -> String {
    let mut out = String::new();
    let mut inside_per_rules = false;
    for line in synthetic_independent_policy(states, rules).lines() {
        out.push_str(line);
        out.push('\n');
        if line.starts_with("per_rules {") {
            inside_per_rules = true;
        } else if inside_per_rules && line.trim_end().ends_with(':') {
            // Head of a permission's rule block: prepend the shared grant.
            out.push_str(&format!(
                "    allow subject=* {RACING_SHARED_PREFIX}/** rw;\n"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use sack_core::SackPolicy;

    #[test]
    fn independent_policy_scales() {
        for (states, rules) in [(2, 0), (5, 10), (10, 100), (3, 1000)] {
            let text = super::synthetic_independent_policy(states, rules);
            let compiled = SackPolicy::parse(&text)
                .unwrap_or_else(|e| panic!("{states}/{rules}: {e}"))
                .compile()
                .unwrap_or_else(|e| panic!("{states}/{rules}: {e:?}"));
            assert_eq!(compiled.space().state_count(), states.max(2));
            assert!(compiled.rule_count() >= rules);
            assert!(compiled.warnings().is_empty(), "{:?}", compiled.warnings());
        }
    }

    #[test]
    fn enhanced_policy_targets_bench_profile() {
        let text = super::synthetic_enhanced_policy(2, 4);
        assert!(text.contains("subject=profile:bench"));
        assert!(!text.contains("subject=*"));
        SackPolicy::parse(&text).unwrap().compile().unwrap();
    }

    #[test]
    fn racing_policy_grants_shared_in_every_state() {
        let text = super::synthetic_racing_policy(4, 8);
        let compiled = SackPolicy::parse(&text).unwrap().compile().unwrap();
        assert_eq!(compiled.space().state_count(), 4);
        // One shared grant per state on top of the requested rules.
        assert!(compiled.rule_count() >= 8 + 4);
        assert!(compiled.warnings().is_empty(), "{:?}", compiled.warnings());
    }

    #[test]
    fn bench_profile_parses() {
        let profiles = sack_apparmor::parse_profiles(super::BENCH_PROFILE).unwrap();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].name, "bench");
    }
}
