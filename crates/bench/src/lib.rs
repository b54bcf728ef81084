//! # minoan-bench — the paper-reproduction harness
//!
//! Shared plumbing for the `repro_table{1,2,3}` and `ablation_params`
//! binaries: dataset construction, method execution, and the paper's
//! reference numbers for side-by-side comparison. Performance is
//! measured by `spine/` (see `spine/README.md`), not here.

#![warn(missing_docs)]

pub mod paper;
pub mod runner;

pub use paper::{PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3};
pub use runner::{default_scale, run_methods, DatasetRun, MethodResult, DEFAULT_SEED};
