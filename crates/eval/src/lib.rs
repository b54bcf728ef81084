//! # minoan-eval — evaluation harness
//!
//! [`MatchQuality`]: pairwise precision/recall/F1 against ground truth,
//! as the paper reports them; [`paper`]: the paper's Tables I–III as
//! transcribed numbers; [`Table`]: plain-text tables that print them
//! beside the measured values (`tests/pipeline_integration.rs` does,
//! under `--nocapture`).

#![warn(missing_docs)]

pub mod metrics;
pub mod paper;
pub mod report;

pub use metrics::MatchQuality;
pub use report::{scientific, Table};
