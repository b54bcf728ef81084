//! # minoaner — schema-agnostic, non-iterative entity resolution
//!
//! A Rust implementation of **MinoanER** (Efthymiou, Papadakis,
//! Stefanidis, Christophides: *"Simplifying Entity Resolution on Web
//! Data with Schema-agnostic, Non-iterative Matching"*, ICDE 2018),
//! together with every substrate it needs: a knowledge-base model,
//! schema-agnostic blocking, similarity measures, the baselines it is
//! evaluated against, synthetic benchmark datasets and an evaluation
//! harness.
//!
//! ## Architecture
//!
//! The workspace is layered bottom-up; this crate is a facade
//! re-exporting every member:
//!
//! - [`obs`] — the **observability layer**: leveled structured tracing
//!   into a bounded drop-oldest ring ([`obs::trace`]), log-bucketed
//!   latency histograms ([`obs::hist`]), and the `MINOAN_LOG` console
//!   sink — dependency-free, threaded through every layer above;
//! - [`exec`] — the **executor layer**: an [`exec::Executor`] with
//!   `Sequential` and `Pool` backends that every hot stage fans out on,
//!   providing ordered fan-out over index ranges (`map_parts`,
//!   `map_range`) and boundary-aligned byte ranges (`map_chunks` — the
//!   primitive behind streaming ingest). Each stage has one entry point
//!   taking the executor, and a job's cancel token rides on it;
//! - [`kb`] — entity descriptions, arena-backed interning, statistics,
//!   the shared substrate (Fx hashing, CSR row storage ([`kb::Csr`]),
//!   minimal JSON) and **ingest**: each input format has a whole-string
//!   parser and a streaming chunked parser
//!   ([`kb::parse::parse_ntriples_reader`], [`kb::parse::parse_tsv_reader`])
//!   that never materializes the file as one `String` — line-aligned
//!   byte blocks fan out over the executor into per-thread
//!   [`kb::KbBuilder`]s (chunk-local interners, no shared state) that
//!   merge in input order, reproducing the sequential parser's output
//!   byte for byte;
//! - [`text`] — tokenization, n-grams, the tokenized pair view; the
//!   tokenizer fans out over entity ranges, looking tokens up in the
//!   dictionary built so far and interning new ones in part-local
//!   dictionaries merged in first-seen order;
//! - [`blocking`] — token/name blocking, Block Purging, block metrics;
//! - [`sim`] — `valueSim` (ARCS variant) and vector-space measures;
//! - [`core`] — attribute/relation importance (data-parallel passes with
//!   order-independent integer merges), the CSR-backed
//!   [`core::SimilarityIndex`] (one row-major `valueSim` kernel over a
//!   dense scratch),
//!   heuristics H1–H4, the non-iterative pipeline with per-stage
//!   [`core::Timings`];
//! - [`serve`] — the **multi-pair serving layer**: a live
//!   bounded-memory admission queue ([`serve::JobQueue`]) scheduling
//!   pairs-first (intra-pair threads widen for stragglers) with
//!   pre-load footprint estimates, failure isolation and **cooperative
//!   mid-job cancellation** carried by the job's executor; drained
//!   either by `minoaner batch` (JSON manifests) or by the
//!   long-running `minoaner serve` daemon, whose line-delimited JSON
//!   socket protocol (submit / status / cancel / wait / shutdown, see
//!   [`serve::daemon`]) feeds jobs in as they arrive — with per-job
//!   results bit-identical to solo sequential runs either way;
//! - [`baselines`] — Unique Mapping Clustering, BSL, SiGMa-like,
//!   PARIS-like;
//! - [`datagen`] — the four synthetic benchmark profiles;
//! - [`eval`] — precision/recall/F1 and report tables.
//!
//! The paper's matching process is *massively parallel* by design
//! (every similarity is a function of block statistics), and since the
//! ingest pipeline went chunked there is no serial prefix left: parse,
//! tokenize, importance, blocking, similarity indexing and the H2–H4
//! scans all run on the executor. Parallel runs are **bit-identical**
//! to sequential ones — per-pair floating-point sums keep block order,
//! partials merge in part/chunk order, dictionaries merge in first-seen
//! order, and ties break by entity id.
//!
//! Every pipeline call takes the executor it runs on as an argument
//! ([`exec::Executor::pool`], the parallel backend on all cores, or
//! [`exec::Executor::sequential`]; `--executor` on the CLI), so
//! [`core::MinoanConfig`] holds only the paper's parameters. The CLI
//! streams input files through the chunked parsers in
//! [`kb::parse::DEFAULT_CHUNK_BYTES`]-sized worker chunks.
//!
//! ```
//! use minoaner::core::MinoanEr;
//! use minoaner::exec::Executor;
//! use minoaner::kb::{KbBuilder, KbPair};
//!
//! let mut a = KbBuilder::new("E1");
//! a.add_literal("a:1", "name", "Palace of Knossos");
//! let mut b = KbBuilder::new("E2");
//! b.add_literal("b:1", "label", "Knossos Palace");
//! let pair = KbPair::new(a.finish(), b.finish());
//! let out = MinoanEr::with_defaults().run_with(&pair, &Executor::sequential());
//! assert_eq!(out.matching.len(), 1);
//! ```

#![warn(missing_docs)]

pub use minoan_baselines as baselines;
pub use minoan_blocking as blocking;
pub use minoan_core as core;
pub use minoan_datagen as datagen;
pub use minoan_eval as eval;
pub use minoan_exec as exec;
pub use minoan_kb as kb;
pub use minoan_obs as obs;
pub use minoan_serve as serve;
pub use minoan_sim as sim;
pub use minoan_text as text;
