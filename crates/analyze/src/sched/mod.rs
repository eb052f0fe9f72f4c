//! `sack-sched`: the deterministic-schedule executor.
//!
//! This module explores the **real code** of the SACK concurrency
//! protocol, not a model of it: the generic `Rcu<T, B, SLOTS>`
//! implementation is instantiated with [`SchedBackend`], whose every
//! atomic/mutex/lifecycle operation parks the calling thread until a
//! deterministic controller grants the turn. Bounded depth-first
//! enumeration with sleep-set partial-order reduction (see [`executor`])
//! then proves, per scenario, that *no schedule exists* in which the
//! shipped implementation violates the scenario's invariants or
//! deadlocks — or prints the counterexample schedule when one does (the
//! planted-mutation tests).
//!
//! Layering:
//!
//! * [`backend`] — the instrumented `shim::Backend` instance,
//! * [`executor`] — controller, DFS exploration, sleep sets, violations,
//! * [`scenarios`] — the real-code scenarios and their invariants.

pub mod backend;
pub mod executor;
pub mod scenarios;

pub use backend::SchedBackend;
pub use executor::{
    explore, OpDesc, OpKind, Scenario, ScenarioRun, SchedConfig, SchedExploration, SchedViolation,
    Step,
};

#[cfg(test)]
mod tests {
    use sack_kernel::sync::Mutation;

    use super::executor::{explore, SchedConfig};
    use super::scenarios;

    /// The two `Rcu` shapes: one reader against two writes (the graveyard
    /// bound binds) and two readers against one write (the second reader
    /// takes the all-slots-occupied fallback).
    fn rcu_shapes() -> [super::Scenario; 2] {
        [
            scenarios::rcu_read_write(1, 2),
            scenarios::rcu_read_write(2, 1),
        ]
    }

    #[test]
    fn rcu_read_write_is_exhaustively_safe() {
        for scenario in rcu_shapes() {
            let stats =
                explore(&scenario, &SchedConfig::exhaustive()).unwrap_or_else(|v| panic!("{v}"));
            assert!(stats.complete, "exploration must exhaust the space");
            assert!(stats.schedules > 10, "space must be non-trivial");
        }
    }

    #[test]
    fn rcu_skip_validation_is_caught_in_real_code() {
        for scenario in rcu_shapes() {
            let violation = explore(
                &scenario,
                &SchedConfig::with_mutation(Mutation::RcuSkipValidation),
            )
            .expect_err("the planted bug must produce a violating schedule");
            assert!(violation.message.contains("use-after-free"), "{violation}");
            assert!(!violation.schedule.is_empty());
        }
    }

    #[test]
    fn rcu_free_before_scan_is_caught_in_real_code() {
        for scenario in rcu_shapes() {
            let violation = explore(
                &scenario,
                &SchedConfig::with_mutation(Mutation::RcuFreeBeforeScan),
            )
            .expect_err("the planted bug must produce a violating schedule");
            assert!(violation.message.contains("use-after-free"), "{violation}");
        }
    }

    #[test]
    fn seeded_exploration_is_deterministic() {
        let cfg = SchedConfig {
            seed: 0xDEAD_BEEF,
            ..SchedConfig::exhaustive()
        };
        let a = explore(&scenarios::profile_publish(), &cfg).unwrap();
        let b = explore(&scenarios::profile_publish(), &cfg).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same exploration");
    }

    #[test]
    fn mutation_counterexample_is_reproducible_from_its_seed() {
        let cfg = SchedConfig {
            seed: 7,
            ..SchedConfig::with_mutation(Mutation::RcuSkipValidation)
        };
        for scenario in rcu_shapes() {
            let a = explore(&scenario, &cfg).unwrap_err();
            let b = explore(&scenario, &cfg).unwrap_err();
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.message, b.message);
        }
    }
}
