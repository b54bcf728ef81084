//! # minoan-baselines — comparison methods
//!
//! The baselines MinoanER is evaluated against in Table III:
//!
//! - [`unique_mapping_clustering`]: the clustering step shared by
//!   pairwise baselines;
//! - [`run_bsl`]: the paper's oracle-tuned, value-only baseline (480
//!   configurations over n-grams × weighting × measure × threshold);
//! - [`run_sigma`]: a SiGMa-like greedy iterative matcher with neighbor
//!   propagation;
//! - [`run_paris`]: a PARIS-like probabilistic matcher driven by exact
//!   shared values and relation functionality.
//!
//! LINDA and RiMOM are not re-run: their Table III rows are quoted from
//! the paper in `minoan_eval::paper`, and the Table III test in
//! `tests/pipeline_integration.rs` prints them beside the measured rows.

#![warn(missing_docs)]

pub mod bsl;
pub mod paris;
pub mod sigma;
pub mod umc;

pub use bsl::{run_bsl, threshold_grid, BslConfig, BslResult};
pub use paris::{run_paris, ParisConfig};
pub use sigma::{run_sigma, SigmaConfig};
pub use umc::{umc_trace, unique_mapping_clustering, ScoredPair};
