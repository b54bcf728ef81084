//! Batch manifests: which KB pairs to resolve, with what parameters.
//!
//! A manifest is a JSON document listing resolution jobs and nothing
//! else (`examples/fleet.json` is a ready-made one; the HTTP and
//! line-JSON `submit` bodies take the same job objects):
//!
//! ```json
//! {
//!   "jobs": [
//!     {"name": "rexa-small", "dataset": "rexa", "seed": 20180416, "scale": 0.1},
//!     {"name": "films", "first": "data/yago.nt", "second": "data/imdb.tsv",
//!      "truth": "data/truth.tsv", "theta": 0.5, "k": 10, "purge": false,
//!      "timeout_ms": 60000, "max_retries": 2}
//!   ]
//! }
//! ```
//!
//! Fleet settings are not manifest fields: they come from the command
//! line (`--slots`, `--memory-mib`, `--timeout-ms`, `--max-retries`,
//! see [`crate::ServeOptions`]). A manifest that still sets one of
//! them at the top level fails to load, and the error names the flag.
//!
//! Job fields: every job has a unique `name` and is either *synthetic* —
//! `dataset` (`restaurant` | `rexa` | `bbc` | `yago`) with optional
//! `seed` and `scale`, a benchmark profile generated in-process, so a
//! manifest of these needs no data files — or *file-based* — `first` and
//! `second` on-disk KBs (`.tsv` / `.nt`) with an optional `truth` file
//! (2-column TSV of matching URIs). Either kind takes the per-job
//! overrides `theta`, `k` (in `1..=128`,
//! [`minoan_core::MAX_CANDIDATES`]), `purge`, `timeout_ms` and
//! `max_retries`. Serving one profile twice under different names, seeds or overrides
//! is fine: jobs share no state, and per-job outputs are bit-identical
//! to running each pair alone.
//!
//! The scheduler admits jobs in manifest order under the memory budget: a
//! job's footprint is **estimated before loading anything** — from the
//! profile's entity budget for synthetic jobs ([`JobSpec::estimated_bytes`])
//! and from on-disk file sizes for file jobs — and the job waits until
//! the in-flight estimate leaves room (the head job always runs alone
//! rather than deadlocking when it is bigger than the whole budget).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use minoan_core::{MinoanConfig, MAX_CANDIDATES};
use minoan_datagen::DatasetKind;
use minoan_kb::Json;

use crate::registry::IndexRegistry;

/// Estimated resident bytes per synthetic entity once parsed, tokenized,
/// blocked and indexed (measured on the benchmark profiles, rounded up).
pub const BYTES_PER_ENTITY: u64 = 4 << 10;

/// Estimated in-memory blow-up of an on-disk KB file after parsing,
/// tokenization, blocking and similarity indexing.
pub const FILE_FOOTPRINT_FACTOR: u64 = 12;

/// The input of one resolution job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobInput {
    /// A synthetic benchmark profile (deterministic in seed and scale).
    Synthetic {
        /// Which profile to generate.
        kind: DatasetKind,
        /// Generation seed.
        seed: u64,
        /// Entity-count scale factor.
        scale: f64,
    },
    /// Two on-disk KB files (`.nt`/`.ntriples` or TSV).
    Files {
        /// First KB path.
        first: PathBuf,
        /// Second KB path.
        second: PathBuf,
    },
    /// A delta patch of a persisted index artifact
    /// (`PATCH /v1/indexes/{id}`). Like [`JobSpec::persist`], this is an
    /// *internal* input set by the serving layer — the manifest wire
    /// schema never parses it, so clients cannot aim patches at
    /// arbitrary filesystem paths.
    IndexPatch {
        /// The index id (registry key, also the artifact file stem).
        id: String,
        /// The registry serving the index: the patch starts from its
        /// loaded copy and publishes the result back into it.
        registry: Arc<IndexRegistry>,
        /// The delta stream to apply, in order.
        ops: Vec<minoan_kb::DeltaOp>,
    },
}

/// One resolution job: a KB pair plus optional parameter overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job name (report key).
    pub name: String,
    /// Where the KB pair comes from.
    pub input: JobInput,
    /// Optional ground-truth file (2-column TSV of matching URIs).
    /// Synthetic jobs carry their own ground truth and ignore this.
    pub truth: Option<PathBuf>,
    /// Per-job `θ` override.
    pub theta: Option<f64>,
    /// Per-job `K` (candidate list size) override.
    pub candidates_k: Option<usize>,
    /// Per-job Block Purging override.
    pub purge_blocks: Option<bool>,
    /// Per-job run deadline in milliseconds, measured from dispatch
    /// (`None` = inherit the fleet default; `Some(0)` = explicitly no
    /// deadline). A job past its deadline unwinds at its executor's next
    /// wave or pool task and reports `timed_out`.
    pub timeout_ms: Option<u64>,
    /// Per-job retry budget for *transient* failures (IO errors, fault
    /// stalls, timeouts). `None` = inherit the fleet default, which
    /// itself defaults to `0` — no retries, so fingerprint gates see
    /// exactly one attempt unless a manifest opts in.
    pub max_retries: Option<u32>,
    /// Where to persist the built index artifact, if anywhere. This is
    /// an *internal* field set by the serving layer for
    /// `POST /v1/indexes` builds — it is not part of the manifest wire
    /// schema ([`JobSpec::from_json`] never sets it), so clients cannot
    /// point the daemon at arbitrary filesystem paths.
    pub persist: Option<PathBuf>,
}

impl JobSpec {
    /// Parses one job from the manifest job schema — the object shape a
    /// `jobs` array element uses, and the shape the daemon's `submit` op
    /// takes over the wire.
    pub fn from_json(json: &Json) -> Result<JobSpec, String> {
        job_from_json(json)
    }

    /// Validates this job on its own: non-empty name, parameters in
    /// range. (Cross-job rules like name uniqueness live in
    /// [`Manifest::validate`]; a daemon accepts repeated names because
    /// ids, not names, key its reports.)
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("job has an empty name".into());
        }
        if let JobInput::Synthetic { scale, .. } = self.input {
            let positive = scale.is_finite() && scale > 0.0;
            if !positive {
                return Err(format!("scale must be positive, got {scale}"));
            }
        }
        if let Some(theta) = self.theta {
            if !(0.0 < theta && theta < 1.0) {
                return Err(format!("theta must be in (0,1), got {theta}"));
            }
        }
        if let Some(k) = self.candidates_k {
            if !(1..=MAX_CANDIDATES).contains(&k) {
                return Err(format!("k must be in 1..={MAX_CANDIDATES}, got {k}"));
            }
        }
        Ok(())
    }

    /// The matching configuration for this job: the paper's defaults
    /// with this job's overrides applied.
    pub fn config(&self) -> MinoanConfig {
        let mut config = MinoanConfig::default();
        if let Some(theta) = self.theta {
            config.theta = theta;
        }
        if let Some(k) = self.candidates_k {
            config.candidates_k = k;
        }
        if let Some(purge) = self.purge_blocks {
            config.purge_blocks = purge;
        }
        config
    }

    /// Estimated peak resident footprint of running this job, computed
    /// **before** loading anything: synthetic jobs scale the profile's
    /// entity budget ([`DatasetKind::approx_entities`], the KB-stats
    /// side of admission), file jobs scale the on-disk sizes. A file
    /// that cannot be stat-ed estimates as zero — the job will fail
    /// cleanly at load time instead.
    pub fn estimated_bytes(&self) -> u64 {
        match &self.input {
            JobInput::Synthetic { kind, scale, .. } => {
                kind.approx_entities(*scale) as u64 * BYTES_PER_ENTITY
            }
            JobInput::Files { first, second } => {
                let size = |p: &PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
                (size(first) + size(second)) * FILE_FOOTPRINT_FACTOR
            }
            JobInput::IndexPatch { id, registry, .. } => {
                // The artifact is a flat serialization of the loaded
                // structures, so resident ≈ file size; ×3 covers the
                // loaded copy, the patched copy and the re-encode.
                let size = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
                registry.path_for(id).map_or(0, size) * 3
            }
        }
    }

    /// The calibration bucket this job's footprint estimate belongs to:
    /// jobs of one profile share an estimate formula, so they share a
    /// measured estimate-accuracy ratio too (see the scheduler's
    /// self-calibrating admission). Synthetic jobs bucket by dataset
    /// profile, file jobs all share the `"file"` bucket.
    pub fn profile_key(&self) -> &'static str {
        match &self.input {
            JobInput::Synthetic { kind, .. } => kind.name(),
            JobInput::Files { .. } => "file",
            JobInput::IndexPatch { .. } => "patch",
        }
    }
}

/// A parsed batch manifest: the jobs, in admission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The jobs, in admission order.
    pub jobs: Vec<JobSpec>,
}

impl Manifest {
    /// Loads a JSON manifest from `path`. A `.toml` path is refused by
    /// name rather than answered with a JSON syntax error at its first
    /// `#` or `=`.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("toml"))
        {
            return Err(format!(
                "{}: manifests are JSON (see examples/fleet.json), not TOML",
                path.display()
            ));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Manifest::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses a manifest from JSON text.
    pub fn parse_json(text: &str) -> Result<Manifest, String> {
        Manifest::from_json(&Json::parse(text)?)
    }

    /// Builds a manifest from its JSON object. Unknown fields error,
    /// like [`MinoanConfig::from_json`]; a fleet setting names the flag
    /// that sets it instead.
    pub fn from_json(json: &Json) -> Result<Manifest, String> {
        let Json::Obj(fields) = json else {
            return Err("manifest must be an object".into());
        };
        let mut manifest = Manifest { jobs: Vec::new() };
        for (key, value) in fields {
            let flag =
                |flag| format!("manifest field {key:?} is not supported: set it with {flag}");
            match key.as_str() {
                "jobs" => {
                    let Json::Arr(items) = value else {
                        return Err(format!("{key} must be an array"));
                    };
                    for (i, item) in items.iter().enumerate() {
                        manifest
                            .jobs
                            .push(job_from_json(item).map_err(|e| format!("job #{}: {e}", i + 1))?);
                    }
                }
                "slots" => return Err(flag("--slots")),
                "memory_budget_mib" => return Err(flag("--memory-mib")),
                "timeout_ms" => return Err(flag("--timeout-ms")),
                "max_retries" => return Err(flag("--max-retries")),
                other => return Err(format!("unknown manifest field {other:?}")),
            }
        }
        manifest.validate()?;
        Ok(manifest)
    }

    /// Validates the manifest: at least one job, unique names, per-job
    /// rules ([`JobSpec::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.jobs.is_empty() {
            return Err("manifest has no jobs".into());
        }
        for (i, job) in self.jobs.iter().enumerate() {
            if job.name.is_empty() {
                return Err(format!("job #{} has an empty name", i + 1));
            }
            let ctx = |msg: String| format!("job #{} ({}): {msg}", i + 1, job.name);
            if self.jobs[..i].iter().any(|j| j.name == job.name) {
                return Err(ctx("duplicate job name".into()));
            }
            job.validate().map_err(ctx)?;
        }
        Ok(())
    }
}

fn job_from_json(json: &Json) -> Result<JobSpec, String> {
    let Json::Obj(fields) = json else {
        return Err("job must be an object".into());
    };
    let mut name = None;
    let mut dataset = None;
    let mut seed: Option<u64> = None;
    let mut scale: Option<f64> = None;
    let mut first = None;
    let mut second = None;
    let mut truth = None;
    let mut theta = None;
    let mut candidates_k = None;
    let mut purge_blocks = None;
    let mut timeout_ms = None;
    let mut max_retries = None;
    for (key, value) in fields {
        let bad = || format!("bad value for {key}");
        match key.as_str() {
            "name" => name = Some(value.as_str().ok_or_else(bad)?.to_string()),
            "dataset" => {
                let raw = value.as_str().ok_or_else(bad)?;
                dataset = Some(DatasetKind::parse(raw).ok_or_else(|| {
                    format!("unknown dataset {raw:?} (expected restaurant|rexa|bbc|yago)")
                })?);
            }
            "seed" => {
                let s = value.as_usize().ok_or_else(bad)?;
                // Manifest numbers travel through f64: a seed above 2^53
                // would already have been rounded by the number parse,
                // silently running a different seed than written. A
                // parsed value of exactly 2^53 is indistinguishable from
                // a rounded 2^53+1, so the boundary itself is rejected
                // too.
                if s >= (1 << f64::MANTISSA_DIGITS) {
                    return Err(format!(
                        "seed {s} is not exactly representable in the manifest \
                         number format (seeds must be below 2^{})",
                        f64::MANTISSA_DIGITS
                    ));
                }
                seed = Some(s as u64);
            }
            "scale" => scale = Some(value.as_f64().ok_or_else(bad)?),
            "first" => first = Some(PathBuf::from(value.as_str().ok_or_else(bad)?)),
            "second" => second = Some(PathBuf::from(value.as_str().ok_or_else(bad)?)),
            "truth" => truth = Some(PathBuf::from(value.as_str().ok_or_else(bad)?)),
            "theta" => theta = Some(value.as_f64().ok_or_else(bad)?),
            "k" => candidates_k = Some(value.as_usize().ok_or_else(bad)?),
            "purge" => purge_blocks = Some(value.as_bool().ok_or_else(bad)?),
            "timeout_ms" => timeout_ms = Some(value.as_usize().ok_or_else(bad)? as u64),
            "max_retries" => {
                max_retries =
                    Some(u32::try_from(value.as_usize().ok_or_else(bad)?).map_err(|_| bad())?)
            }
            other => return Err(format!("unknown job field {other:?}")),
        }
    }
    let name = name.ok_or("job needs a name")?;
    let input = match (dataset, first, second) {
        (Some(kind), None, None) => JobInput::Synthetic {
            kind,
            seed: seed.unwrap_or(20180416),
            scale: scale.unwrap_or(1.0),
        },
        (None, Some(first), Some(second)) => {
            // Same strictness as unknown fields: a synthetic-only knob
            // on a file job would otherwise be silently dropped.
            if seed.is_some() || scale.is_some() {
                return Err("seed/scale apply to synthetic jobs only, not file jobs".into());
            }
            JobInput::Files { first, second }
        }
        (Some(_), _, _) => {
            return Err(
                "a job is either synthetic (dataset) or file-based (first/second), not both".into(),
            )
        }
        _ => return Err("job needs either dataset or first+second".into()),
    };
    Ok(JobSpec {
        name,
        input,
        truth,
        theta,
        candidates_k,
        purge_blocks,
        timeout_ms,
        max_retries,
        persist: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON: &str = r#"{
        "jobs": [
            {"name": "syn", "dataset": "rexa", "seed": 7, "scale": 0.25,
             "timeout_ms": 500, "max_retries": 3},
            {"name": "fil", "first": "a.tsv", "second": "b.nt", "truth": "t.tsv",
             "theta": 0.5, "k": 9, "purge": false}
        ]
    }"#;

    #[test]
    fn json_manifest_parses() {
        let m = Manifest::parse_json(JSON).unwrap();
        assert_eq!(m.jobs.len(), 2);
        assert_eq!(m.jobs[0].timeout_ms, Some(500), "per-job override");
        assert_eq!(m.jobs[0].max_retries, Some(3));
        assert_eq!(m.jobs[1].timeout_ms, None, "inherits the fleet default");
        assert_eq!(m.jobs[1].max_retries, None);
        assert_eq!(
            m.jobs[0].input,
            JobInput::Synthetic {
                kind: DatasetKind::RexaDblp,
                seed: 7,
                scale: 0.25
            }
        );
        assert_eq!(m.jobs[1].theta, Some(0.5));
        assert_eq!(m.jobs[1].candidates_k, Some(9));
        assert_eq!(m.jobs[1].purge_blocks, Some(false));
        assert_eq!(m.jobs[1].truth.as_deref(), Some(Path::new("t.tsv")));
    }

    #[test]
    fn json_round_trip() {
        let m = Manifest::parse_json(JSON).unwrap();
        let reprinted = Json::parse(JSON).unwrap().pretty();
        assert_ne!(reprinted, JSON);
        let back = Manifest::parse_json(&reprinted).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn overrides_apply_to_config() {
        let m = Manifest::parse_json(JSON).unwrap();
        let c0 = m.jobs[0].config();
        assert_eq!(
            c0,
            MinoanConfig::default(),
            "no override keeps the defaults"
        );
        let c1 = m.jobs[1].config();
        assert_eq!(c1.theta, 0.5);
        assert_eq!(c1.candidates_k, 9);
        assert!(!c1.purge_blocks);
    }

    #[test]
    fn synthetic_estimates_scale_with_entities() {
        let small = JobSpec {
            name: "s".into(),
            input: JobInput::Synthetic {
                kind: DatasetKind::RexaDblp,
                seed: 1,
                scale: 0.1,
            },
            truth: None,
            theta: None,
            candidates_k: None,
            purge_blocks: None,
            timeout_ms: None,
            max_retries: None,
            persist: None,
        };
        let mut big = small.clone();
        big.input = JobInput::Synthetic {
            kind: DatasetKind::RexaDblp,
            seed: 1,
            scale: 1.0,
        };
        assert!(small.estimated_bytes() > 0);
        assert!(big.estimated_bytes() > 5 * small.estimated_bytes());
    }

    #[test]
    fn bad_manifests_are_rejected() {
        let rexa =
            |extra: &str| format!(r#"{{"jobs": [{{"name": "x", "dataset": "rexa"{extra}}}]}}"#);
        for (text, needle) in [
            (r#"{"jobs": []}"#.to_string(), "no jobs"),
            (
                r#"{"jobs": [{"dataset": "rexa"}]}"#.to_string(),
                "needs a name",
            ),
            (
                r#"{"jobs": [{"name": "x"}]}"#.to_string(),
                "either dataset or",
            ),
            (rexa(r#", "first": "a", "second": "b""#), "not both"),
            (
                r#"{"jobs": [{"name": "x", "dataset": "mars"}]}"#.to_string(),
                "unknown dataset",
            ),
            (rexa(r#", "theta": 1.5"#), "theta"),
            (rexa(r#", "k": 0"#), "k must be in 1..=128, got 0"),
            (rexa(r#", "k": 129"#), "k must be in 1..=128, got 129"),
            (rexa(r#", "scale": 0"#), "scale"),
            (
                r#"{"jobs": [{"name": "x", "dataset": "rexa"}, {"name": "x", "dataset": "bbc"}]}"#
                    .to_string(),
                "duplicate",
            ),
            (r#"{"wat": 1}"#.to_string(), "unknown manifest field"),
            (
                r#"{"threads": 2, "jobs": [{"name": "x", "dataset": "rexa"}]}"#.to_string(),
                r#"unknown manifest field "threads""#,
            ),
            (rexa(r#", "wat": 1"#), "unknown job field"),
            // Fleet settings are flags; the error names the one to use.
            (
                r#"{"slots": 4, "jobs": [{"name": "x", "dataset": "rexa"}]}"#.to_string(),
                r#"manifest field "slots" is not supported: set it with --slots"#,
            ),
            (
                r#"{"memory_budget_mib": 1024, "jobs": []}"#.to_string(),
                "--memory-mib",
            ),
            (
                r#"{"timeout_ms": 0, "jobs": []}"#.to_string(),
                "--timeout-ms",
            ),
            (
                r#"{"max_retries": 1, "jobs": []}"#.to_string(),
                "--max-retries",
            ),
            // 2^53 + 1: rounds to 2^53 in the f64 number pipeline, so it
            // must be rejected rather than silently run as a neighbor.
            (
                rexa(r#", "seed": 9007199254740993"#),
                "not exactly representable",
            ),
            (
                r#"{"jobs": [{"name": "x", "first": "a.tsv", "second": "b.tsv", "scale": 0.1}]}"#
                    .to_string(),
                "synthetic jobs only",
            ),
        ] {
            let err = Manifest::parse_json(&text).unwrap_err();
            assert!(err.contains(needle), "{text:?} -> {err}");
        }
    }
}
