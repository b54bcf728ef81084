//! # minoan-blocking — schema-agnostic blocking for MinoanER
//!
//! Implements the blocking layer the whole MinoanER pipeline runs on:
//!
//! - bilateral [`BlockCollection`]s with per-entity indices;
//! - [`token_blocking_with`] (`BT`) over the shared token dictionary;
//! - [`name_blocking_with`] (`BN`) over distinctive entity names, plus the
//!   H1-level [`unique_name_pairs`] decision;
//! - comparison-based [`purge_with_exec`] (Block Purging, smoothing 1.025);
//! - [`block_metrics`]: the recall/precision/F1 rows of Table II.
//!
//! Each stage takes the [`minoan_exec::Executor`] it runs on; its result
//! is identical for every backend and thread count.

#![warn(missing_docs)]

pub mod block;
pub mod metrics;
pub mod name_blocking;
pub mod purging;
pub mod token_blocking;

pub use block::{Block, BlockCollection, BlockKind};
pub use metrics::{block_metrics, BlockMetrics};
pub use name_blocking::{canonical_name, name_blocking_with, unique_name_pairs};
pub use purging::{purge_with_exec, purging_threshold_with, PurgeReport, DEFAULT_SMOOTHING};
pub use token_blocking::token_blocking_with;
