//! Model-conformance harness: abstract-model counterexamples replayed
//! through the real implementation.
//!
//! The exhaustive models in [`crate::models`] prove the protocols at the
//! level of hand-transcribed program counters, and their mutation tests
//! produce counterexample *schedules* — sequences of model thread ids.
//! This module closes the loop the transcription leaves open: for each
//! model mutation, it plants the corresponding bug in the **real** code
//! (via the shim's `Mutation` hooks or scenario glue), feeds the model's
//! counterexample schedule to the executor as its thread-priority hint,
//! and demands the executor find a violating schedule of the real
//! implementation too. The abstract models are thereby *validated by*
//! the implementation instead of standing in for it: a model that cried
//! wolf (a counterexample the real code cannot reproduce even with the
//! bug planted) fails conformance.
//!
//! Thread-id mapping: models and scenarios share the convention that
//! readers come first and the writer is last, so a model schedule maps
//! onto a scenario by clamping the writer id and dropping reader ids the
//! scenario does not have (see [`map_hint`]).

use sack_kernel::sync::Mutation;

use crate::interleave;
use crate::models::{RcuConfig, RcuModel};

use super::executor::{explore, Scenario, SchedConfig, SchedViolation};
use super::scenarios;

/// Outcome of one model-to-implementation replay.
#[derive(Debug)]
pub struct ConformanceReport {
    /// Which abstract model produced the counterexample.
    pub model: &'static str,
    /// The model's violating schedule (model thread ids).
    pub model_schedule: Vec<usize>,
    /// The model's violation message.
    pub model_message: String,
    /// The violating schedule the executor found in the real code with
    /// the same bug planted, hinted by the model schedule.
    pub real_violation: SchedViolation,
}

/// Maps a model schedule onto a scenario's thread-id space: model
/// readers `0..model_readers` keep their id if the scenario has that many
/// readers (ids beyond are dropped), the model writer (`model_readers`)
/// becomes the scenario's last thread.
fn map_hint(schedule: &[usize], model_readers: usize, scenario_threads: usize) -> Vec<usize> {
    let scenario_writer = scenario_threads - 1;
    schedule
        .iter()
        .filter_map(|&t| {
            if t >= model_readers {
                Some(scenario_writer)
            } else if t < scenario_writer {
                Some(t)
            } else {
                None
            }
        })
        .collect()
}

/// Runs one replay: obtain the model counterexample, hint the executor
/// with it, and require a real-code violation.
fn replay<M: interleave::Model>(
    name: &'static str,
    model: M,
    model_readers: usize,
    scenario: &Scenario,
    mutation: Option<Mutation>,
) -> Result<ConformanceReport, String> {
    let model_violation = interleave::explore(&model, 64)
        .err()
        .ok_or_else(|| format!("{name}: the mutated abstract model no longer violates"))?;
    let mut cfg = SchedConfig::exhaustive();
    cfg.mutation = mutation;
    cfg.hint = map_hint(
        &model_violation.schedule,
        model_readers,
        scenario.threads.len(),
    );
    match explore(scenario, &cfg) {
        Err(real_violation) => Ok(ConformanceReport {
            model: name,
            model_schedule: model_violation.schedule,
            model_message: model_violation.message,
            real_violation,
        }),
        Ok(stats) => Err(format!(
            "{name}: model predicts a bug but the real implementation survived \
             {} schedules (complete = {}) with the same mutation planted — \
             the abstract model has drifted from the code",
            stats.schedules, stats.complete
        )),
    }
}

/// Replays the `RcuModel` skip-validation counterexample through the real
/// `Rcu::read` with `Mutation::RcuSkipValidation` planted.
#[allow(clippy::missing_errors_doc)]
pub fn rcu_skip_validation() -> Result<ConformanceReport, String> {
    let config = RcuConfig {
        skip_validation: true,
        ..RcuConfig::correct(1, 1)
    };
    replay(
        "RcuModel/skip_validation",
        RcuModel::new(config),
        1,
        &scenarios::rcu_read_write(1),
        Some(Mutation::RcuSkipValidation),
    )
}

/// Replays the `RcuModel` skip-hazard-scan counterexample through the
/// real writer path with `Mutation::RcuFreeBeforeScan` planted.
#[allow(clippy::missing_errors_doc)]
pub fn rcu_free_before_scan() -> Result<ConformanceReport, String> {
    let config = RcuConfig {
        skip_hazard_scan: true,
        ..RcuConfig::correct(1, 1)
    };
    replay(
        "RcuModel/skip_hazard_scan",
        RcuModel::new(config),
        1,
        &scenarios::rcu_read_write(1),
        Some(Mutation::RcuFreeBeforeScan),
    )
}

/// Runs every model-to-implementation replay. Returns the reports, or
/// the first conformance failure.
#[allow(clippy::missing_errors_doc)]
pub fn run_all() -> Result<Vec<ConformanceReport>, String> {
    Ok(vec![rcu_skip_validation()?, rcu_free_before_scan()?])
}
