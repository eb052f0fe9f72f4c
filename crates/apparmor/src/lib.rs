//! # sack-apparmor — AppArmor-like baseline MAC module
//!
//! A path-based mandatory-access-control security module for the simulated
//! kernel in `sack-kernel`, modelled on AppArmor: named profiles with glob
//! file rules, capability and network rules, enforce/complain modes,
//! executable attachment, fork inheritance, and live profile replacement.
//!
//! This is the baseline the SACK paper compares against (Table II) and the
//! enforcement backend that SACK-enhanced AppArmor patches at situation
//! transitions (`sack-core::enhance`).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use sack_apparmor::{AppArmor, PolicyDb};
//! use sack_kernel::{KernelBuilder, Credentials, SecurityModule};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let policy = Arc::new(PolicyDb::new());
//! policy.load_text("profile app { /tmp/** rw, }")?;
//! let apparmor = AppArmor::new(Arc::clone(&policy));
//! let kernel = KernelBuilder::new()
//!     .security_module(apparmor.clone() as Arc<dyn SecurityModule>)
//!     .boot();
//! let proc = kernel.spawn(Credentials::root());
//! apparmor.set_profile(proc.pid(), "app")?;
//! proc.write_file("/tmp/ok", b"fine")?;          // allowed
//! assert!(proc.write_file("/etc/x", b"no").is_err()); // denied
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dfa;
pub mod glob;
pub mod logprof;
pub mod matcher;
pub mod module;
pub mod parser;
pub mod pipeline;
pub mod policy;
pub mod profile;

pub use dfa::{Alphabet, Dfa, DfaBuilder, DfaStats};
pub use glob::Glob;
pub use logprof::Suggestions;
pub use matcher::{CompiledRules, RuleDecision};
pub use module::{AppArmor, AuditEvent};
pub use parser::{parse_profiles, ParseProfileError};
pub use policy::{CompiledProfile, LoadDiagnostic, PolicyDb, UnknownProfileError};
pub use profile::{FilePerms, PathRule, Profile, ProfileMode};
