//! Integration gate for the deterministic-schedule executor: the real
//! `Rcu` code passes bounded-exhaustive
//! exploration, and every planted bug is caught with a concrete
//! counterexample schedule.

use sack_analyze::sched::{explore, scenarios, SchedConfig};
use sack_kernel::sync::Mutation;

/// Every core scenario must be explored to completion with zero
/// violations — the "no schedule exists" claim of DESIGN.md §10.
#[test]
fn core_scenarios_are_exhaustively_safe() {
    let cfg = SchedConfig::exhaustive();
    for scenario in [
        scenarios::rcu_read_write(1, 2),
        scenarios::rcu_read_write(2, 1),
        scenarios::profile_publish(),
    ] {
        let stats = explore(&scenario, &cfg)
            .unwrap_or_else(|v| panic!("{} must be schedule-safe:\n{v}", scenario.name));
        assert!(stats.complete, "{}: space not exhausted", scenario.name);
        assert!(
            stats.schedules > 0,
            "{}: no schedule completed",
            scenario.name
        );
    }
}

fn assert_caught(scenario: &sack_analyze::sched::Scenario, mutation: Option<Mutation>) {
    let mut cfg = SchedConfig::exhaustive();
    cfg.mutation = mutation;
    let violation = explore(scenario, &cfg).expect_err("planted bug must be caught");
    assert!(
        !violation.schedule.is_empty(),
        "violation must carry a schedule"
    );
    // The printed counterexample names the scenario, the seed, and every
    // step — what a developer needs to replay it.
    let printed = violation.to_string();
    assert!(printed.contains(&scenario.name), "{printed}");
    assert!(printed.contains("seed"), "{printed}");
}

#[test]
fn planted_rcu_skip_validation_is_caught() {
    for scenario in [
        scenarios::rcu_read_write(1, 2),
        scenarios::rcu_read_write(2, 1),
    ] {
        assert_caught(&scenario, Some(Mutation::RcuSkipValidation));
    }
}

#[test]
fn planted_rcu_free_before_scan_is_caught() {
    for scenario in [
        scenarios::rcu_read_write(1, 2),
        scenarios::rcu_read_write(2, 1),
    ] {
        assert_caught(&scenario, Some(Mutation::RcuFreeBeforeScan));
    }
}

/// The scenarios the planted mutations break must pass when no mutation
/// is planted — the mutation tests are meaningful only if the unmutated
/// runs are clean.
#[test]
fn unmutated_runs_are_clean_where_mutations_bite() {
    let cfg = SchedConfig::exhaustive();
    for scenario in [
        scenarios::rcu_read_write(1, 2),
        scenarios::rcu_read_write(2, 1),
    ] {
        explore(&scenario, &cfg).unwrap_or_else(|v| panic!("{v}"));
    }
}

/// Explorations and counterexamples are reproducible from the seed alone.
#[test]
fn exploration_is_seed_deterministic() {
    let cfg = SchedConfig {
        seed: 0x5EED_0001,
        ..SchedConfig::exhaustive()
    };
    let a = explore(&scenarios::rcu_read_write(2, 1), &cfg).unwrap();
    let b = explore(&scenarios::rcu_read_write(2, 1), &cfg).unwrap();
    assert_eq!(a, b);

    let mut mcfg = cfg;
    mcfg.mutation = Some(Mutation::RcuFreeBeforeScan);
    let a = explore(&scenarios::rcu_read_write(2, 1), &mcfg).unwrap_err();
    let b = explore(&scenarios::rcu_read_write(2, 1), &mcfg).unwrap_err();
    assert_eq!(a.schedule, b.schedule);
}
