//! # minoan-serve — the multi-pair serving layer
//!
//! MinoanER resolves one KB pair; production traffic is a *fleet* of
//! pairs. This crate is the layer that turns the engine into a service:
//! a live bounded-memory admission queue ([`scheduler::JobQueue`])
//! schedules jobs across the executor with **pair-level parallelism
//! first** and intra-pair parallelism for stragglers, and streams
//! per-job results, timings and peak-RSS metrics into a report. Two
//! front-ends feed the same queue, and one fleet runner staffs and
//! drains it for both: **batch mode** ([`run_batch`]) submits a whole
//! manifest and closes the queue before the workers start, and
//! **daemon mode** ([`run_server`], `minoaner serve`) accepts jobs as
//! they arrive over the dependency-free HTTP/1.1 front-end
//! (`--listen-http`, see [`http`] for the endpoint table, bearer-token
//! auth, request limits and Prometheus metrics) and the line-delimited
//! JSON framing (`--listen`, see [`daemon`] for the op table and
//! cancellation granularity). One router answers both: each line-JSON
//! op is translated to its HTTP request, so submit / status / cancel /
//! wait / shutdown behave identically, including cooperative
//! **mid-job cancellation** through the job's own token on its
//! executor — the only way a job is cancelled.
//!
//! ## Manifest format
//!
//! A manifest is a JSON document `{"jobs":[…]}` (see [`manifest`] for
//! the full field reference; `examples/fleet.json` is a ready-made
//! one). Each job is either *synthetic* (`dataset`/`seed`/`scale`, a
//! benchmark profile generated in-process) or *file-based*
//! (`first`/`second` KB paths with an optional `truth` file), with
//! optional per-job overrides (`theta`, `k`, `purge`, `timeout_ms`,
//! `max_retries`). Fleet and daemon settings are not manifest fields:
//! [`ServeOptions`] holds every one of them, and the command line is
//! their one source.
//!
//! ## Admission policy
//!
//! Jobs are admitted strictly in submission order under a memory
//! budget (manifest order in batch mode, socket arrival order in
//! daemon mode).
//! Each job's footprint is estimated **before any input is loaded** —
//! from the profile's entity budget for synthetic jobs, from on-disk
//! file sizes for file jobs — and a job waits until the in-flight
//! estimates leave room. The head job is always admitted when nothing
//! else runs, so an over-budget job degrades to running alone rather
//! than deadlocking the fleet. One poisoned job (corrupt input, bad
//! config, a panic) fails alone; the fleet completes.
//!
//! ## Supervised lifecycle
//!
//! Jobs run under supervision (see the state diagram in [`scheduler`]):
//! per-job deadlines (`timeout_ms`) expire at the next wave of the
//! job's executor into a `TimedOut` report; transient failures
//! (I/O errors, timeouts) re-enter the queue with exponential backoff
//! and deterministic jitter under a `max_retries` budget (default `0`:
//! one attempt, bit-identical to the historical behavior); a job that
//! panics twice is quarantined as `Poisoned`; an optional RSS watchdog
//! ([`ServeOptions::rss_kill_factor`]) kills jobs that grow past a
//! multiple of their admission estimate (`KilledOverBudget`); and the
//! daemon sheds submissions past a queue-depth or admitted-bytes
//! high-water mark (HTTP `429` + `Retry-After`, line-JSON
//! `"retryable":true`) instead of collapsing under overload.
//!
//! ## Determinism
//!
//! Per-job outputs are bit-identical regardless of fleet size, thread
//! count or scheduling order: the pipeline itself is bit-identical
//! across executors ([`minoan_core::MinoanEr::run_with`]), jobs share no
//! mutable state, and reports are assembled in manifest order.
//! [`JobReport::fingerprint`] canonicalizes exactly the deterministic
//! part of a result, which is what the equivalence tests compare.

#![warn(missing_docs)]

pub mod daemon;
mod events;
pub mod http;
mod intake;
pub mod manifest;
pub mod registry;
pub mod report;
pub mod scheduler;
pub mod telemetry;

pub use daemon::{run_server, Frontends};
pub use http::prometheus_metrics;
pub use registry::{IndexEntry, IndexRegistry, RegistryError};

pub use manifest::{JobInput, JobSpec, Manifest};
pub use report::{current_rss_bytes, fnv1a, peak_rss_bytes, JobReport, JobStatus, ServeReport};
pub use scheduler::{
    load_kb_file, load_truth_file, run_batch, run_batch_streaming, CancelOutcome, CancelToken,
    Cancelled, JobId, JobPhase, JobQueue, JobSnapshot, QueueStats, ServeOptions, SubmitError,
    DEFAULT_SHED_QUEUE_DEPTH, POISON_PANICS, RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP,
    SHED_BYTES_FACTOR,
};
