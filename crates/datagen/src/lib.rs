//! # minoan-datagen — synthetic benchmark datasets
//!
//! The paper evaluates on four real KB pairs (OAEI Restaurant,
//! Rexa–DBLP, BBCmusic–DBpedia, YAGO–IMDb) that are not redistributable
//! or laptop-scale. This crate generates *signature-preserving synthetic
//! analogues*: seeded worlds of canonical entities rendered into two
//! heterogeneous KBs with controlled name uniqueness, token overlap,
//! schema scatter and link structure. The real pairs' statistics are
//! transcribed in `minoan_eval::paper`; `tests/pipeline_integration.rs`
//! checks the generated pairs against their signature.
//!
//! ```
//! use minoan_datagen::DatasetKind;
//! let d = DatasetKind::Restaurant.generate_scaled(42, 0.1);
//! assert!(d.truth.len() > 0);
//! ```

#![warn(missing_docs)]

pub mod datasets;
pub mod mutate;
pub mod render;
pub mod words;
pub mod world;

pub use datasets::{Dataset, DatasetKind};
pub use mutate::mutate_stream;
pub use render::{render_pair, render_side, ClassRender, RenderSpec, RenderedSide};
pub use words::{synth_word, WordPool};
pub use world::{CanonicalEntity, ClassSpec, FieldSpec, Presence, World};
