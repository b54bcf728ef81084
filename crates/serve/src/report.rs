//! Per-job and fleet-level reports.
//!
//! A [`JobReport`] separates the **deterministic** result of a job (its
//! matching, stage counters, quality — identical regardless of fleet
//! size, thread count or scheduling order) from run metrics (timings,
//! thread allotment, peak RSS). [`JobReport::fingerprint`] canonicalizes
//! exactly the deterministic part, which is what the determinism tests
//! and the serving acceptance check compare byte for byte.

use std::time::Duration;

use minoan_core::Timings;
use minoan_eval::MatchQuality;
use minoan_kb::Json;

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Resolved successfully.
    Ok,
    /// Failed (load error, bad config, or a panic caught by the
    /// scheduler); the rest of the fleet is unaffected.
    Failed(String),
    /// Cancelled by an operator or client request (or skipped because
    /// the fleet was cancelled before dispatch).
    Cancelled,
    /// The job's deadline (`timeout_ms`) expired; the supervisor
    /// cancelled its token and the job unwound at its next wave.
    TimedOut,
    /// The job panicked twice across retry attempts and was quarantined
    /// so it cannot wedge the fleet; carries the last panic message.
    Poisoned(String),
    /// The RSS watchdog observed the job exceeding `k×` its admission
    /// estimate and killed it gracefully at its next wave.
    KilledOverBudget,
}

impl JobStatus {
    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }

    /// Short status label (`ok` / `failed` / `cancelled` / `timed_out`
    /// / `poisoned` / `killed_over_budget`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed(_) => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Poisoned(_) => "poisoned",
            JobStatus::KilledOverBudget => "killed_over_budget",
        }
    }

    /// The error detail carried by failure-like states, if any.
    pub fn error(&self) -> Option<&str> {
        match self {
            JobStatus::Failed(e) | JobStatus::Poisoned(e) => Some(e),
            _ => None,
        }
    }
}

/// Peak resident set size of this process in bytes, where the platform
/// exposes it (Linux `/proc/self/status` `VmHWM`); `None` elsewhere.
/// This is the process high-water mark — monotone over a fleet run, so
/// per-job values record "RSS never exceeded this by the time the job
/// finished", not a per-job delta.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Current resident set size of this process in bytes (Linux
/// `/proc/self/status` `VmRSS`); `None` elsewhere. Unlike
/// [`peak_rss_bytes`] this can go down, which is what the scheduler's
/// RSS watchdog needs to measure live growth against a baseline.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The result of one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name (manifest key).
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// The matching as URI pairs, in pipeline insertion order.
    pub matches: Vec<(String, String)>,
    /// Matches contributed by H1.
    pub h1_matches: usize,
    /// Matches contributed by H2.
    pub h2_matches: usize,
    /// Matches contributed by H3.
    pub h3_matches: usize,
    /// Pairs discarded by H4.
    pub h4_removed: usize,
    /// Quality against ground truth, when the job has one.
    pub quality: Option<MatchQuality>,
    /// Pipeline stage timings (run metric, not part of the fingerprint).
    pub timings: Option<Timings>,
    /// Wall-clock time of the whole job including input loading.
    pub wall: Duration,
    /// Worker threads the scheduler allotted this job.
    pub threads: usize,
    /// The admission estimate the job was charged against the budget.
    pub estimated_bytes: u64,
    /// Process peak RSS observed when the job finished.
    pub peak_rss_bytes: Option<u64>,
    /// How much the process RSS high-water mark **grew** while this job
    /// ran: `VmHWM` after minus `VmHWM` before, saturating at zero.
    /// Because the high-water mark is process-wide and monotone, this is
    /// an attribution, not an isolated measurement — a job that runs
    /// concurrently with a bigger one, or after a bigger one already
    /// raised the mark, records zero. It is the measured counterpart of
    /// [`JobReport::estimated_bytes`], the first input for tightening
    /// admission estimates from observations.
    pub peak_rss_delta_bytes: Option<u64>,
}

impl JobReport {
    /// A report for a job that never produced output.
    pub fn empty(name: &str, status: JobStatus) -> JobReport {
        JobReport {
            name: name.to_string(),
            status,
            matches: Vec::new(),
            h1_matches: 0,
            h2_matches: 0,
            h3_matches: 0,
            h4_removed: 0,
            quality: None,
            timings: None,
            wall: Duration::ZERO,
            threads: 0,
            estimated_bytes: 0,
            peak_rss_bytes: None,
            peak_rss_delta_bytes: None,
        }
    }

    /// `measured RSS delta / admission estimate`, when both are known
    /// and non-zero — the over/under-estimation factor of the static
    /// footprint heuristics for this job. `None` when either side is
    /// missing or zero (a zero delta carries no signal: another job
    /// already held the process high-water mark).
    pub fn rss_estimate_ratio(&self) -> Option<f64> {
        let delta = self.peak_rss_delta_bytes.filter(|&d| d > 0)?;
        (self.estimated_bytes > 0).then(|| delta as f64 / self.estimated_bytes as f64)
    }

    /// Canonical serialization of the job's **deterministic** result:
    /// name, status, stage counters, quality counts and every match
    /// pair — and nothing that varies run to run (timings, threads,
    /// RSS). Two runs of the same job spec must produce byte-identical
    /// fingerprints regardless of fleet size, thread count or where in
    /// the manifest the job sat.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let status = match &self.status {
            JobStatus::Ok => "ok".to_string(),
            JobStatus::Failed(e) => format!("failed:{e}"),
            JobStatus::Cancelled => "cancelled".to_string(),
            JobStatus::TimedOut => "timed_out".to_string(),
            JobStatus::Poisoned(e) => format!("poisoned:{e}"),
            JobStatus::KilledOverBudget => "killed_over_budget".to_string(),
        };
        let _ = write!(
            out,
            "{}\u{1}{status}\u{1}h1={} h2={} h3={} h4-={}",
            self.name, self.h1_matches, self.h2_matches, self.h3_matches, self.h4_removed
        );
        if let Some(q) = &self.quality {
            let _ = write!(
                out,
                "\u{1}tp={} pred={} actual={}",
                q.true_positives, q.predicted, q.actual
            );
        }
        for (a, b) in &self.matches {
            let _ = write!(out, "\u{2}{a}\u{3}{b}");
        }
        out
    }

    /// The report as JSON. `include_pairs` controls whether every match
    /// pair is listed (reports for large fleets may want counts and the
    /// fingerprint digest only).
    pub fn to_json(&self, include_pairs: bool) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::str(&self.name)),
            ("status".into(), Json::str(self.status.label())),
        ];
        if let Some(e) = self.status.error() {
            fields.push(("error".into(), Json::str(e)));
        }
        fields.push(("matches".into(), Json::num(self.matches.len() as f64)));
        fields.push((
            "fingerprint_fnv1a".into(),
            Json::str(format!("{:016x}", fnv1a(self.fingerprint().as_bytes()))),
        ));
        fields.push(("h1_matches".into(), Json::num(self.h1_matches as f64)));
        fields.push(("h2_matches".into(), Json::num(self.h2_matches as f64)));
        fields.push(("h3_matches".into(), Json::num(self.h3_matches as f64)));
        fields.push(("h4_removed".into(), Json::num(self.h4_removed as f64)));
        if let Some(q) = &self.quality {
            fields.push((
                "quality".into(),
                Json::obj([
                    ("precision", Json::Num(q.precision())),
                    ("recall", Json::Num(q.recall())),
                    ("f1", Json::Num(q.f1())),
                ]),
            ));
        }
        if let Some(t) = &self.timings {
            fields.push((
                "timings_ms".into(),
                Json::obj([
                    ("tokenize", Json::Num(t.tokenize.as_secs_f64() * 1e3)),
                    ("names_h1", Json::Num(t.names_h1.as_secs_f64() * 1e3)),
                    ("blocking", Json::Num(t.blocking.as_secs_f64() * 1e3)),
                    (
                        "similarities",
                        Json::Num(t.similarities.as_secs_f64() * 1e3),
                    ),
                    ("matching", Json::Num(t.matching.as_secs_f64() * 1e3)),
                    ("total", Json::Num(t.total().as_secs_f64() * 1e3)),
                ]),
            ));
        }
        fields.push(("wall_ms".into(), Json::Num(self.wall.as_secs_f64() * 1e3)));
        fields.push(("threads".into(), Json::num(self.threads as f64)));
        fields.push((
            "estimated_bytes".into(),
            Json::num(self.estimated_bytes as f64),
        ));
        fields.push((
            "peak_rss_bytes".into(),
            match self.peak_rss_bytes {
                Some(b) => Json::num(b as f64),
                None => Json::Null,
            },
        ));
        fields.push((
            "peak_rss_delta_bytes".into(),
            match self.peak_rss_delta_bytes {
                Some(b) => Json::num(b as f64),
                None => Json::Null,
            },
        ));
        if let Some(ratio) = self.rss_estimate_ratio() {
            fields.push(("rss_estimate_ratio".into(), Json::Num(ratio)));
        }
        if include_pairs {
            fields.push((
                "pairs".into(),
                Json::arr(
                    self.matches
                        .iter()
                        .map(|(a, b)| Json::arr([Json::str(a), Json::str(b)])),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

/// The result of a fleet run: one report per job, in manifest order.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-job reports, in manifest order (not completion order).
    pub jobs: Vec<JobReport>,
    /// Fleet slots the scheduler ran with.
    pub slots: usize,
    /// Total worker-thread budget.
    pub threads: usize,
    /// Admission budget in bytes (`0` = unlimited).
    pub memory_budget_bytes: u64,
    /// Highest number of jobs observed running at once.
    pub peak_concurrent_jobs: usize,
    /// Wall-clock time of the whole fleet.
    pub wall: Duration,
    /// Process peak RSS after the fleet finished.
    pub peak_rss_bytes: Option<u64>,
}

impl ServeReport {
    /// Number of successfully resolved jobs.
    pub fn ok_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_ok()).count()
    }

    /// Number of failed jobs.
    pub fn failed_count(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.status, JobStatus::Failed(_)))
            .count()
    }

    /// The fleet report as JSON.
    pub fn to_json(&self, include_pairs: bool) -> Json {
        Json::obj([
            ("slots", Json::num(self.slots as f64)),
            ("threads", Json::num(self.threads as f64)),
            (
                "memory_budget_bytes",
                Json::num(self.memory_budget_bytes as f64),
            ),
            (
                "peak_concurrent_jobs",
                Json::num(self.peak_concurrent_jobs as f64),
            ),
            ("ok", Json::num(self.ok_count() as f64)),
            ("failed", Json::num(self.failed_count() as f64)),
            ("wall_ms", Json::Num(self.wall.as_secs_f64() * 1e3)),
            (
                "peak_rss_bytes",
                match self.peak_rss_bytes {
                    Some(b) => Json::num(b as f64),
                    None => Json::Null,
                },
            ),
            (
                "jobs",
                Json::arr(self.jobs.iter().map(|j| j.to_json(include_pairs))),
            ),
        ])
    }
}

/// 64-bit FNV-1a, the digest behind `fingerprint_fnv1a`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_run_metrics() {
        let mut a = JobReport::empty("j", JobStatus::Ok);
        a.matches = vec![("x:1".into(), "y:1".into())];
        a.h1_matches = 1;
        let mut b = a.clone();
        b.threads = 16;
        b.wall = Duration::from_secs(5);
        b.peak_rss_bytes = Some(123);
        b.peak_rss_delta_bytes = Some(45);
        b.timings = Some(Timings::default());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn rss_estimate_ratio_needs_both_sides() {
        let mut r = JobReport::empty("j", JobStatus::Ok);
        assert_eq!(r.rss_estimate_ratio(), None, "nothing measured");
        r.estimated_bytes = 1000;
        assert_eq!(r.rss_estimate_ratio(), None, "no delta");
        r.peak_rss_delta_bytes = Some(0);
        assert_eq!(r.rss_estimate_ratio(), None, "zero delta has no signal");
        r.peak_rss_delta_bytes = Some(1500);
        assert_eq!(r.rss_estimate_ratio(), Some(1.5));
        r.estimated_bytes = 0;
        assert_eq!(r.rss_estimate_ratio(), None, "no estimate to compare");
    }

    #[test]
    fn fingerprint_sees_result_changes() {
        let mut a = JobReport::empty("j", JobStatus::Ok);
        a.matches = vec![("x:1".into(), "y:1".into())];
        let mut b = a.clone();
        b.matches = vec![("x:1".into(), "y:2".into())];
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = JobReport::empty("j", JobStatus::Failed("boom".into()));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = JobReport::empty("j", JobStatus::Failed("nope".into()));
        r.estimated_bytes = 42;
        let j = r.to_json(true);
        assert_eq!(j.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(j.get("error").unwrap().as_str(), Some("nope"));
        assert_eq!(j.get("matches").unwrap().as_usize(), Some(0));
        assert!(j.get("pairs").is_some());
        assert!(j.get("fingerprint_fnv1a").is_some());
        let no_pairs = r.to_json(false);
        assert!(no_pairs.get("pairs").is_none());
    }

    #[test]
    fn lifecycle_states_have_distinct_labels_and_fingerprints() {
        let states = [
            JobStatus::Ok,
            JobStatus::Failed("e".into()),
            JobStatus::Cancelled,
            JobStatus::TimedOut,
            JobStatus::Poisoned("p".into()),
            JobStatus::KilledOverBudget,
        ];
        for (i, a) in states.iter().enumerate() {
            for b in states.iter().skip(i + 1) {
                assert_ne!(a.label(), b.label());
                assert_ne!(
                    JobReport::empty("j", a.clone()).fingerprint(),
                    JobReport::empty("j", b.clone()).fingerprint()
                );
            }
        }
        let poisoned = JobReport::empty("j", JobStatus::Poisoned("kaboom".into()));
        let j = poisoned.to_json(false);
        assert_eq!(j.get("status").unwrap().as_str(), Some("poisoned"));
        assert_eq!(j.get("error").unwrap().as_str(), Some("kaboom"));
        assert!(JobReport::empty("j", JobStatus::TimedOut)
            .to_json(false)
            .get("error")
            .is_none());
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(b) = peak_rss_bytes() {
            assert!(b > 1 << 20, "a test process uses more than 1 MiB, got {b}");
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
