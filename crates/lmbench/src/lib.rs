//! # sack-lmbench — LMBench-style microbenchmarks for the simulated kernel
//!
//! Reproduces the measurement methodology of the paper's evaluation
//! (Tables II and III, Fig. 3): the classic LMBench operation set —
//! process, file-access, local-communication-bandwidth and context-switch
//! micro-benchmarks — run against the simulated syscall layer under each
//! LSM configuration the paper compares.
//!
//! * [`testbed`] boots a kernel per configuration (no-LSM, AppArmor,
//!   SACK-enhanced AppArmor, independent SACK) with synthetic policy-load
//!   sweeps (rule count, situation-state count);
//! * [`suite`] implements the operations and the runner;
//! * [`report`] renders paper-style comparison tables with ↑/↓ deltas.
//!
//! ## Example
//!
//! ```
//! use sack_lmbench::testbed::{TestBed, TestBedOptions, LsmConfig};
//! use sack_lmbench::suite::{run_suite, Scale, Op};
//!
//! let bed = TestBed::boot(&TestBedOptions::new(LsmConfig::AppArmor));
//! let result = run_suite(&bed, Scale::quick());
//! assert!(result.get(Op::Syscall).unwrap() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod report;
pub mod sds;
pub mod suite;
pub mod testbed;
pub mod workload;

pub use report::{render_comparison, render_contended_sweep, render_sds_sweep, render_sweep};
pub use sds::{run_sds_sweep, SdsPoint, SdsSweep};
pub use suite::{
    run_contended_sweep, run_suite, ContendedPoint, ContendedScenario, ContendedSweep,
    LmbenchResult, Op, OpGroup, Scale,
};
pub use testbed::{LsmConfig, TestBed, TestBedOptions};
