//! # minoan-blocking — schema-agnostic blocking for MinoanER
//!
//! Implements the blocking layer the whole MinoanER pipeline runs on:
//!
//! - bilateral [`BlockCollection`]s with per-entity indices;
//! - [`token_blocking()`] (`BT`) over the shared token dictionary;
//! - [`name_blocking()`] (`BN`) over distinctive entity names, plus the
//!   H1-level [`unique_name_pairs`] decision;
//! - comparison-based [`purge`] (Block Purging, smoothing 1.025);
//! - [`block_metrics`]: the recall/precision/F1 rows of Table II.

#![warn(missing_docs)]

pub mod block;
pub mod metrics;
pub mod name_blocking;
pub mod purging;
pub mod token_blocking;

pub use block::{Block, BlockCollection, BlockKind};
pub use metrics::{block_metrics, BlockMetrics};
pub use name_blocking::{canonical_name, name_blocking, name_blocking_with, unique_name_pairs};
pub use purging::{
    purge, purge_with, purge_with_exec, purging_threshold, purging_threshold_with, PurgeReport,
    DEFAULT_SMOOTHING,
};
pub use token_blocking::{token_blocking, token_blocking_with};
