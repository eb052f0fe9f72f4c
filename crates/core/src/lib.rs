//! # sack-core — Situation-aware Access Control in the Kernel
//!
//! A full reproduction of SACK (Chen et al., DATE 2025) against the
//! simulated Linux substrate in `sack-kernel`:
//!
//! * **situation states** as a new kernel security context
//!   ([`situation`]);
//! * the **situation state machine** driven by situation events
//!   ([`ssm`], Algorithm 1);
//! * the four-interface **policy language** (`States`, `Permissions`,
//!   `State_Per`, `Per_Rules`) with parser and checking tools ([`policy`]);
//! * **SACKfs**, the securityfs transmission interface
//!   (`/sys/kernel/security/SACK/events`, [`sackfs`]);
//! * **independent SACK**: an LSM enforcing per-state MAC rules
//!   ([`sack`], [`rules`]);
//! * **SACK-enhanced AppArmor**: the adaptive policy enforcer that patches
//!   AppArmor profiles on situation transitions ([`enhance`]).
//!
//! ## Example: door control only in emergencies
//!
//! ```
//! use std::sync::Arc;
//! use sack_core::Sack;
//! use sack_kernel::{KernelBuilder, Credentials, SecurityModule, Capability};
//! use sack_kernel::file::OpenFlags;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sack = Sack::independent(r#"
//!     states { normal = 0; emergency = 1; }
//!     events { crash; }
//!     transitions { normal -crash-> emergency; }
//!     initial normal;
//!     permissions { CONTROL_CAR_DOORS; }
//!     state_per { emergency: CONTROL_CAR_DOORS; }
//!     per_rules { CONTROL_CAR_DOORS: allow subject=* /dev/car/** wi; }
//! "#)?;
//! let kernel = KernelBuilder::new()
//!     .security_module(sack.clone() as Arc<dyn SecurityModule>)
//!     .boot();
//! sack.attach(&kernel)?;
//!
//! kernel.vfs().mkdir_all(&"/dev/car".parse()?)?;
//! kernel.vfs().create_file(&"/dev/car/door0".parse()?,
//!     sack_kernel::Mode(0o666), sack_kernel::Uid::ROOT, sack_kernel::Gid(0))?;
//!
//! // An unprivileged service holding only CAP_MAC_ADMIN (root would hold
//! // CAP_MAC_OVERRIDE, which rightly bypasses SACK).
//! let daemon = kernel.spawn(Credentials::user(500, 500)
//!     .with_capability(Capability::MacAdmin));
//! // Normal situation: door writes are denied in the kernel.
//! assert!(daemon.open("/dev/car/door0", OpenFlags::write_only()).is_err());
//! // The SDS reports a crash through SACKfs...
//! let fd = daemon.open("/sys/kernel/security/SACK/events", OpenFlags::write_only())?;
//! daemon.write(fd, b"crash\n")?;
//! // ...and the door can now be opened for rescue.
//! assert!(daemon.open("/dev/car/door0", OpenFlags::write_only()).is_ok());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod enhance;
pub mod eventplane;
pub mod policy;
pub mod rules;
pub mod sack;
pub mod sackfs;
pub mod simulate;
pub mod situation;
pub mod ssm;
pub mod statedfa;
pub mod stats;
pub mod trace;

pub use audit::{AuditLog, AuditRecord, Denial};
pub use enhance::{AppArmorEnhancer, EnhanceError, SACK_RULE_ORIGIN};
pub use eventplane::EventPlane;
pub use policy::{
    CompiledPolicy, IssueKind, IssueSeverity, PolicyIssue, RuleProvenance, SackPolicy,
};
pub use rules::{MacRule, Permission, PermissionId, RuleEffect, StateRuleSet, SubjectMatch};
pub use sack::{ActivePolicy, EnforcementMode, Sack, SackError, SackStats};
pub use simulate::{AccessQuery, PolicySimulator, Step, StepResult};
pub use situation::{EventId, SituationEvent, SituationState, StateId, StateSpace};
pub use ssm::{
    CoalescedOutcome, Ssm, TransitionListener, TransitionOutcome, TransitionRecord, TransitionRule,
};
pub use statedfa::{StateDecision, StateDfa};
pub use stats::{HistogramSnapshot, LatencyHistogram, ShardedCounter};
pub use trace::{FlightEntry, FlightRecorder, SackTracing};
