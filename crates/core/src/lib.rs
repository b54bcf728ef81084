//! # minoan-core — the MinoanER matching framework
//!
//! A Rust implementation of *"Simplifying Entity Resolution on Web Data
//! with Schema-agnostic, Non-iterative Matching"* (Efthymiou, Papadakis,
//! Stefanidis, Christophides — ICDE 2018).
//!
//! MinoanER resolves entities across two heterogeneous KBs with no
//! schema alignment, no domain expert and no iterative convergence:
//!
//! 1. data statistics pick the *distinctive name attributes* and the
//!    *important relations* ([`importance`]);
//! 2. schema-agnostic blocks are built and purged (`minoan-blocking`);
//! 3. a [`SimilarityIndex`] derives `valueSim` and `neighborNSim` for all
//!    co-occurring pairs straight from block statistics;
//! 4. four threshold-free heuristics decide:
//!    `M = (H1 ∨ H2 ∨ H3) ∧ H4` ([`heuristics`], [`MinoanEr`]).
//!
//! Every stage takes the [`minoan_exec::Executor`] it runs on; a job's
//! cancel token rides on that executor (see [`minoan_exec::cancel`]).
//!
//! ```
//! use minoan_core::MinoanEr;
//! use minoan_exec::Executor;
//! use minoan_kb::{KbBuilder, KbPair};
//!
//! let mut a = KbBuilder::new("E1");
//! a.add_literal("a:1", "name", "Palace of Knossos");
//! let mut b = KbBuilder::new("E2");
//! b.add_literal("b:1", "label", "Knossos Palace");
//! let pair = KbPair::new(a.finish(), b.finish());
//!
//! let out = MinoanEr::with_defaults().run_with(&pair, &Executor::sequential());
//! assert_eq!(out.matching.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod candidates;
pub mod config;
pub mod delta;
pub mod heuristics;
pub mod importance;
pub mod pipeline;
pub mod simindex;

pub use artifact::{ArtifactMeta, IndexArtifact, MatchAnswer, MAX_CANDIDATES};
pub use candidates::{Candidate, CandidateCsr, CandidateRow};
pub use config::MinoanConfig;
pub use delta::{DeltaReport, PATCH_FAULT_SITE};
pub use heuristics::{
    h1_name_matches, h2_value_matches_with, h3_rank_matches_with, h3_top_candidate, h4_reciprocal,
    h4_reciprocal_batch,
};
pub use importance::{
    attribute_importance_with, entity_names_with, relation_importance_with, top_neighbors_with,
    Importance,
};
pub use pipeline::{
    build_blocks, BlockingArtifacts, IndexedOutput, MatchOutput, MinoanEr, PipelineReport, Timings,
};
pub use simindex::{Ranked, SimilarityIndex};
