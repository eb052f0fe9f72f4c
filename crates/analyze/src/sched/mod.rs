//! `sack-sched`: the deterministic-schedule executor.
//!
//! Where [`crate::interleave`] exhaustively explores hand-written
//! *models* of the SACK concurrency protocols, this module explores the
//! **real code**: the generic `Rcu<T, B, SLOTS>`, `RingIn<T, B>` and
//! `LazySlot<T, B>` implementations are instantiated with
//! [`SchedBackend`], whose every atomic/mutex/lifecycle operation and
//! every `spin_wait` parks the calling thread until a deterministic
//! controller grants the turn. Bounded depth-first enumeration with
//! sleep-set partial-order reduction (see [`executor`]) then proves, per
//! scenario, that *no schedule exists* in which the shipped
//! implementation violates the scenario's invariants, deadlocks or spins
//! with no thread left to release it — or prints the counterexample
//! schedule when one does (mutation tests, [`conformance`] replays).
//!
//! Layering:
//!
//! * [`backend`] — the instrumented `shim::Backend` instance,
//! * [`executor`] — controller, DFS exploration, sleep sets, violations,
//! * [`scenarios`] — the real-code scenarios and their invariants,
//! * [`conformance`] — abstract-model counterexamples replayed through
//!   the real implementation.

pub mod backend;
pub mod conformance;
pub mod executor;
pub mod scenarios;

pub use backend::SchedBackend;
pub use conformance::ConformanceReport;
pub use executor::{
    explore, OpDesc, OpKind, Scenario, ScenarioRun, SchedConfig, SchedExploration, SchedViolation,
    Step,
};

#[cfg(test)]
mod tests {
    use sack_kernel::sync::Mutation;

    use super::executor::{explore, SchedConfig};
    use super::scenarios;

    #[test]
    fn rcu_read_write_is_exhaustively_safe() {
        let stats = explore(&scenarios::rcu_read_write(1), &SchedConfig::exhaustive())
            .unwrap_or_else(|v| panic!("{v}"));
        assert!(stats.complete, "exploration must exhaust the space");
        assert!(stats.schedules > 10, "space must be non-trivial");
    }

    #[test]
    fn rcu_skip_validation_is_caught_in_real_code() {
        let violation = explore(
            &scenarios::rcu_read_write(1),
            &SchedConfig::with_mutation(Mutation::RcuSkipValidation),
        )
        .expect_err("the planted bug must produce a violating schedule");
        assert!(violation.message.contains("use-after-free"), "{violation}");
        assert!(!violation.schedule.is_empty());
    }

    #[test]
    fn rcu_free_before_scan_is_caught_in_real_code() {
        let violation = explore(
            &scenarios::rcu_read_write(1),
            &SchedConfig::with_mutation(Mutation::RcuFreeBeforeScan),
        )
        .expect_err("the planted bug must produce a violating schedule");
        assert!(violation.message.contains("use-after-free"), "{violation}");
    }

    #[test]
    fn ring_produce_drain_is_exhaustively_safe() {
        let stats = explore(&scenarios::ring_produce_drain(), &SchedConfig::exhaustive())
            .unwrap_or_else(|v| panic!("{v}"));
        assert!(stats.complete, "exploration must exhaust the space");
        assert!(stats.schedules > 10, "space must be non-trivial");
    }

    #[test]
    fn ring_torn_publish_is_caught_in_real_code() {
        let violation = explore(
            &scenarios::ring_produce_drain(),
            &SchedConfig::with_mutation(Mutation::RingTornPublish),
        )
        .expect_err("the planted bug must produce a violating schedule");
        assert!(
            violation.message.contains("lost or duplicated frames"),
            "{violation}"
        );
    }

    /// Explores a ring scenario to completion without a violation.
    fn exhaust(scenario: &super::Scenario) {
        let stats = explore(scenario, &SchedConfig::exhaustive()).unwrap_or_else(|v| panic!("{v}"));
        assert!(stats.complete, "{}: space not exhausted", scenario.name);
        assert!(
            stats.schedules > 10,
            "{}: space must be non-trivial",
            scenario.name
        );
    }

    #[test]
    fn ring_force_enqueue_against_a_consumer_is_exhaustively_safe() {
        exhaust(&scenarios::ring_force_enqueue_drain());
    }

    #[test]
    fn ring_force_enqueue_producers_are_exhaustively_safe() {
        exhaust(&scenarios::ring_force_enqueue_producers());
    }

    #[test]
    fn ring_batch_against_batch_drain_is_exhaustively_safe() {
        exhaust(&scenarios::ring_batch_drain());
    }

    #[test]
    fn ring_batch_against_racing_dequeuers_is_exhaustively_safe() {
        exhaust(&scenarios::ring_batch_vs_dequeuers());
    }

    #[test]
    fn ring_torn_publish_is_caught_on_drop_oldest_producers() {
        let violation = explore(
            &scenarios::ring_force_enqueue_producers(),
            &SchedConfig::with_mutation(Mutation::RingTornPublish),
        )
        .expect_err("the planted bug must produce a violating schedule");
        assert!(
            violation.message.contains("lost or duplicated frames"),
            "{violation}"
        );
    }

    #[test]
    fn lazy_first_touch_is_exhaustively_safe() {
        let stats = explore(&scenarios::lazy_first_touch(), &SchedConfig::exhaustive())
            .unwrap_or_else(|v| panic!("{v}"));
        assert!(stats.complete, "exploration must exhaust the space");
        // The slot protocol is two CASes and a load per thread, so the
        // reduced space is small — but it must still contain a real race.
        assert!(stats.schedules > 1, "space must be non-trivial");
    }

    #[test]
    fn lazy_double_publish_is_caught_in_real_code() {
        let violation = explore(
            &scenarios::lazy_first_touch(),
            &SchedConfig::with_mutation(Mutation::LazyDoublePublish),
        )
        .expect_err("the planted bug must produce a violating schedule");
        assert!(!violation.schedule.is_empty());
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
        let a = explore(&scenarios::rcu_read_write(1), &cfg).unwrap_err();
        let b = explore(&scenarios::rcu_read_write(1), &cfg).unwrap_err();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.message, b.message);
    }
}
