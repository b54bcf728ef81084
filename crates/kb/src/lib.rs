//! # minoan-kb — knowledge-base substrate for MinoanER
//!
//! This crate provides everything below the ER algorithms:
//!
//! - a compact, interned data model for *entity descriptions*
//!   ([`KnowledgeBase`], [`KbBuilder`], [`Value`]): URI-identified sets of
//!   attribute–value pairs whose values are literals or references to
//!   other descriptions, forming an entity graph;
//! - parsers for an N-Triples subset and a TSV exchange format, each in
//!   a whole-string flavor ([`parse::parse_ntriples`],
//!   [`parse::parse_tsv`]) and a **streaming chunked** flavor
//!   ([`parse::parse_ntriples_reader`], [`parse::parse_tsv_reader`]) that
//!   parses line-aligned chunks in parallel into per-thread
//!   [`KbBuilder`]s and never holds the whole input in memory;
//! - structural statistics mirroring the paper's Table I ([`KbStats`]);
//! - pair/ground-truth containers ([`KbPair`], [`Matching`]);
//! - fast hashing ([`FxHashMap`], [`FxHashSet`]), string interning
//!   ([`Interner`]), compressed sparse rows ([`Csr`]) and minimal JSON
//!   ([`Json`]) used across the workspace;
//! - a versioned, checksummed binary container for persisted index
//!   artifacts ([`artifact`]);
//! - the entity-level mutation vocabulary for updates ([`DeltaOp`],
//!   [`delta::apply_to_pair`]), shared by the patch path, the wire
//!   protocols, and the tests' reference.

#![warn(missing_docs)]

pub mod artifact;
pub mod csr;
pub mod delta;
pub mod hash;
pub mod ids;
pub mod interner;
pub mod json;
pub mod model;
pub mod pair;
pub mod parse;
pub mod stats;

pub use artifact::{ArtifactError, ArtifactFile, ArtifactWriter};
pub use csr::Csr;
pub use delta::DeltaOp;
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{AttrId, BlockId, EntityId, KbSide, PairEntity, TokenId};
pub use interner::Interner;
pub use json::Json;
pub use model::{Edge, KbBuilder, KnowledgeBase, Object, Statement, Value};
pub use pair::{GroundTruth, KbPair, Matching};
pub use stats::{is_type_attr, local_name, namespace_prefix, KbStats};
