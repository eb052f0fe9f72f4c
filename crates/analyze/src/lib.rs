//! `sack-analyze` — pre-deployment correctness tooling for SACK policy
//! bundles and the lock-free hot path.
//!
//! Three pillars:
//!
//! 1. **Static policy/SSM analysis** ([`analyzer`]): aggregates the core
//!    checker's per-policy diagnostics (reachability, dead states, events
//!    that never fire, shadowed rules, allow/deny conflicts) and layers on
//!    cross-layer checks that only make sense with the whole bundle in
//!    view — privilege widening across situations, SACK-protected paths
//!    left wide open in a stacked AppArmor profile, and TE policies that
//!    statically allow what SACK gates behind a situation. Findings are
//!    [`diag::Diagnostic`]s with severity, stable check ids, and rule
//!    provenance, renderable as text or a machine-readable JSON
//!    [`diag::Report`].
//! 2. **Trace forensics** ([`trace`]): a parser and linter for the
//!    sack-trace flight-recorder dumps exported at
//!    `/sys/kernel/security/SACK/tracing/flight`, plus a Prometheus
//!    exposition validator for the `tracing/metrics` node and an
//!    end-to-end `--self-check` that boots an in-memory stacked kernel
//!    and proves the whole observability path (`sack-analyze trace`).
//! 3. **Deterministic-schedule execution** ([`sched`]): bounded,
//!    exhaustive exploration of thread interleavings over the **real**
//!    implementations — `Rcu` and `RingIn` (`try_enqueue`, drop-oldest
//!    `force_enqueue`, and the batch enqueue and drain) run unmodified
//!    over the `sack_kernel::sync::shim` seam with every primitive and
//!    every spin wait under scheduler control. The
//!    scenarios assert memory safety, the bounded `Rcu` graveyard,
//!    untorn profile-table reads and exact ring accounting; planted
//!    mutations are caught with printed counterexample schedules. The
//!    [`sync_lint`] source pass keeps the seam airtight by rejecting
//!    direct `std::sync` use and raw spin hints in the protocol files.
//!
//! The `sack-analyze` binary wires the static pillar to the command line;
//! `PolicySimulator` and `Sack::reload_policy` run the per-policy subset
//! automatically at load time.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod diag;
pub mod sched;
pub mod sync_lint;
pub mod trace;

pub use analyzer::{profile_dfa_sizes_of, Analyzer};
pub use diag::{CompiledDfaSize, DfaSize, Diagnostic, ProfileDfaSize, Report};
pub use sched::{SchedBackend, SchedConfig, SchedExploration, SchedViolation};
pub use sync_lint::{lint_paths, LintFinding};
pub use trace::{
    lint_flight, parse_flight, render_report, self_check, validate_prometheus, Anomaly, FlightDump,
    FlightRecord,
};
