//! Chaos suite: supervised-lifecycle tests under **deterministic fault
//! injection** (`minoaner::exec::faults`). Every scenario here arms a
//! seeded fault plan, drives real jobs through the scheduler or the
//! HTTP front-end, and asserts the supervisor's contract: transient
//! failures retry to **bit-identical** results, deadlines expire within
//! a checkpoint quantum, repeated panics quarantine, the RSS watchdog
//! kills only the offender, and overload sheds with retryable errors.
//!
//! Fault arming is process-global, so every test serializes on one
//! lock and disarms on exit (panic-safe via [`DisarmGuard`]). The CI
//! bench-smoke sweeps this binary at `MINOAN_FAULTS=seed:1|7|42`; the
//! seed flows into each test's plan through [`ci_seed`], so the suite
//! must hold at any seed.

use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use minoaner::core::{IndexArtifact, MinoanEr};
use minoaner::datagen::DatasetKind;
use minoaner::exec::{faults, Executor};
use minoaner::kb::{DeltaOp, KbBuilder, KbPair, KbSide, Object};
use minoaner::serve::{
    CancelToken, HttpOptions, JobInput, JobQueue, JobSpec, JobStatus, QueueStats, ServeOptions,
};

mod common;
use common::{with_server, ScratchDir};

/// Serializes every test in this binary: fault plans are process-global
/// state, and an armed site would otherwise fire in a neighbor test's
/// jobs. Poison-tolerant so one failed test does not cascade.
static ARM_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    ARM_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Disarms the fault plan when dropped, even if the test panicked.
struct DisarmGuard;

impl Drop for DisarmGuard {
    fn drop(&mut self) {
        faults::disarm();
    }
}

/// The seed this run should derive its fault plans from: the `seed:N`
/// clause of `MINOAN_FAULTS` when the CI sweep sets one, else a fixed
/// default. Parsed from the environment directly (not via
/// [`faults::armed_seed`]) because tests re-arm and disarm the global
/// plan as they run.
fn ci_seed() -> u64 {
    std::env::var("MINOAN_FAULTS")
        .ok()
        .and_then(|spec| {
            spec.split(',')
                .find_map(|clause| clause.trim().strip_prefix("seed:")?.trim().parse().ok())
        })
        .unwrap_or(42)
}

/// A tiny two-sided TSV pair whose entities match on a distinctive name.
fn tsv_pair(tag: usize) -> (String, String) {
    let mut a = String::new();
    let mut b = String::new();
    for i in 0..8 {
        a.push_str(&format!("a:{i}\tname\tlit\tspecimen{tag}x{i} artifact\n"));
        b.push_str(&format!("b:{i}\tlabel\tlit\tspecimen{tag}x{i} artifact\n"));
    }
    (a, b)
}

fn file_spec(name: &str, first: std::path::PathBuf, second: std::path::PathBuf) -> JobSpec {
    JobSpec {
        name: name.into(),
        input: JobInput::Files { first, second },
        truth: None,
        theta: None,
        candidates_k: None,
        purge_blocks: None,
        timeout_ms: None,
        max_retries: None,
        persist: None,
    }
}

fn synthetic_spec(name: &str, scale: f64) -> JobSpec {
    JobSpec {
        name: name.into(),
        input: JobInput::Synthetic {
            kind: DatasetKind::Restaurant,
            seed: 20180416,
            scale,
        },
        truth: None,
        theta: None,
        candidates_k: None,
        purge_blocks: None,
        timeout_ms: None,
        max_retries: None,
        persist: None,
    }
}

/// Closes the queue, runs its workers to completion, and returns the
/// final telemetry (reports stay in the queue for `into_reports`).
fn drain(queue: &JobQueue, opts: &ServeOptions) -> QueueStats {
    queue.close();
    std::thread::scope(|scope| {
        for _ in 0..queue.slots() {
            scope.spawn(|| queue.worker(opts, &|_, _| {}));
        }
    });
    queue.stats()
}

/// An injected transient I/O failure must burn one retry attempt and
/// still produce a result **bit-identical** to an un-faulted run: the
/// retried attempt starts from a fresh token and the same inputs, so
/// the fingerprint cannot drift.
#[test]
fn injected_io_fault_retries_to_a_bit_identical_fingerprint() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    let scratch = ScratchDir::new("retry-fp");
    let (a, b) = tsv_pair(3);
    let first = scratch.file("a.tsv", &a);
    let second = scratch.file("b.tsv", &b);
    let opts = ServeOptions::default();

    // Baseline: no faults, no retries.
    faults::disarm();
    let queue = JobQueue::new(1, 0);
    queue
        .submit(file_spec("pair", first.clone(), second.clone()))
        .unwrap();
    drain(&queue, &opts);
    let baseline = queue.into_reports().remove(0);
    assert_eq!(baseline.status, JobStatus::Ok);
    assert_eq!(baseline.matches.len(), 8);
    let fingerprint = baseline.fingerprint();

    // Prove the fault actually fires: with no retry budget the injected
    // read error surfaces as a plain failure.
    let plan = format!("seed:{},kb.parse.read:1:io:1", ci_seed());
    faults::arm(&plan).unwrap();
    let queue = JobQueue::new(1, 0);
    queue
        .submit(file_spec("pair", first.clone(), second.clone()))
        .unwrap();
    let stats = drain(&queue, &opts);
    let failed = queue.into_reports().remove(0);
    let JobStatus::Failed(err) = &failed.status else {
        panic!(
            "armed run without retries should fail, got {:?}",
            failed.status
        );
    };
    assert!(err.contains("injected fault"), "unexpected error: {err}");
    assert_eq!(stats.retries_scheduled, 0);

    // Re-arm (resetting the fire counter) and grant one retry: the
    // first attempt eats the fault, the second runs clean.
    faults::arm(&plan).unwrap();
    let queue = JobQueue::new(1, 0);
    let mut spec = file_spec("pair", first, second);
    spec.max_retries = Some(1);
    let id = queue.submit(spec).unwrap();
    let stats = drain(&queue, &opts);
    // Each attempt ran under its own trace ID, so the faulted attempt's
    // spans and events can never interleave with the clean one's.
    let traces = queue.trace_ids(id).expect("retried job is known");
    assert_eq!(traces.len(), 2, "one trace per attempt: {traces:?}");
    assert_ne!(traces[0], traces[1], "attempts must not share a trace ID");
    let retried = queue.into_reports().remove(0);
    assert_eq!(retried.status, JobStatus::Ok, "retry must recover");
    assert_eq!(stats.retries_scheduled, 1);
    assert_eq!(stats.done_failed, 0);
    assert_eq!(
        retried.fingerprint(),
        fingerprint,
        "a retried job must be bit-identical to an un-faulted run"
    );
}

/// Two injected panics across retry attempts quarantine the job as
/// `Poisoned` even with retry budget left, so a deterministic crasher
/// cannot wedge the fleet in a retry loop.
#[test]
fn a_job_that_panics_twice_is_poisoned() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    let plan = format!("seed:{},serve.job.execute:1:panic:2", ci_seed());
    faults::arm(&plan).unwrap();
    let opts = ServeOptions::default();
    let queue = JobQueue::new(1, 0);
    let mut spec = synthetic_spec("crasher", 0.03);
    spec.max_retries = Some(3);
    let id = queue.submit(spec).unwrap();
    let stats = drain(&queue, &opts);
    // Both attempts (the retried panic and the terminal one) got
    // pairwise-distinct trace IDs.
    let traces = queue.trace_ids(id).expect("poisoned job is known");
    assert_eq!(traces.len(), 2, "one trace per attempt: {traces:?}");
    assert_ne!(traces[0], traces[1], "attempts must not share a trace ID");
    let report = queue.into_reports().remove(0);
    let JobStatus::Poisoned(detail) = &report.status else {
        panic!("two panics should poison the job, got {:?}", report.status);
    };
    assert!(detail.contains("injected panic"), "detail: {detail}");
    assert_eq!(stats.done_poisoned, 1);
    // One retry after the first panic; the second panic is terminal
    // despite two attempts of budget remaining.
    assert_eq!(stats.retries_scheduled, 1);
    assert!(report.matches.is_empty());
}

/// A deadline expiring during an injected stall resolves to `TimedOut`
/// within roughly one checkpoint quantum — and a concurrent job with no
/// deadline sails through the same stall untouched.
#[test]
fn deadline_expiry_is_contained_to_the_stalled_job() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    // Both jobs stall 100ms at execute; only the victim has a 20ms
    // deadline racing that stall.
    let plan = format!("seed:{},serve.job.execute:1:delay:2", ci_seed());
    faults::arm(&plan).unwrap();
    let opts = ServeOptions::default();
    let queue = JobQueue::new(2, 0);
    let mut victim = synthetic_spec("victim", 0.03);
    victim.timeout_ms = Some(20);
    queue.submit(victim).unwrap();
    queue.submit(synthetic_spec("neighbor", 0.03)).unwrap();
    let stats = drain(&queue, &opts);
    let reports = queue.into_reports();
    assert_eq!(reports[0].status, JobStatus::TimedOut);
    assert!(reports[0].matches.is_empty());
    // The expiry is observed at the first checkpoint after the stall,
    // not after the full pipeline: the victim's wall time stays in the
    // stall's order of magnitude.
    assert!(
        reports[0].wall < Duration::from_secs(2),
        "timeout observed too late: {:?}",
        reports[0].wall
    );
    assert_eq!(
        reports[1].status,
        JobStatus::Ok,
        "a neighbor without a deadline must be undisturbed"
    );
    assert_eq!(stats.done_timed_out, 1);
    assert_eq!(stats.done_ok, 1);
}

/// The RSS watchdog kills a job whose injected allocation spike blows
/// past its admission estimate — and only that job: the next job in the
/// same fleet completes normally.
#[test]
fn rss_watchdog_kills_the_over_budget_job_and_spares_the_fleet() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    // One 64 MiB resident spike at the first execute; tiny file jobs
    // have admission estimates orders of magnitude below it.
    let plan = format!("seed:{},serve.job.execute:1:alloc:1", ci_seed());
    faults::arm(&plan).unwrap();
    let scratch = ScratchDir::new("rss");
    let (a, b) = tsv_pair(5);
    let first = scratch.file("a.tsv", &a);
    let second = scratch.file("b.tsv", &b);
    let opts = ServeOptions {
        rss_kill_factor: Some(1.0),
        ..ServeOptions::default()
    };
    // One slot: jobs run one at a time, so the process-wide RSS spike
    // is attributed to the job that caused it.
    let queue = JobQueue::new(1, 0);
    queue
        .submit(file_spec("spiker", first.clone(), second.clone()))
        .unwrap();
    queue.submit(file_spec("neighbor", first, second)).unwrap();
    let stats = drain(&queue, &opts);
    let reports = queue.into_reports();
    assert_eq!(
        reports[0].status,
        JobStatus::KilledOverBudget,
        "the spiking job must be killed by the watchdog"
    );
    assert!(reports[0].matches.is_empty());
    assert_eq!(
        reports[1].status,
        JobStatus::Ok,
        "the fleet must absorb the kill"
    );
    assert_eq!(reports[1].matches.len(), 8);
    assert_eq!(stats.done_killed_over_budget, 1);
    assert_eq!(stats.done_ok, 1);
}

/// Overload shedding end to end through a real HTTP client: past the
/// queue-depth high-water mark a submit gets `429` + `Retry-After`, and
/// the *same* submission succeeds once the queue drains — the
/// shed-then-retry loop a well-behaved client runs.
#[test]
fn http_sheds_past_the_high_water_mark_then_accepts_the_retry() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    // Stall the first job 100ms at execute so the queue is reliably
    // backed up while the client probes the shed path.
    let plan = format!("seed:{},serve.job.execute:1:delay:1", ci_seed());
    faults::arm(&plan).unwrap();
    let opts = ServeOptions {
        slots: Some(1),
        shed_queue_depth: Some(1),
        ..ServeOptions::default()
    };
    with_server(opts, HttpOptions::default(), |http| {
        let first = http.submit("running", "restaurant", 0.08);
        http.await_running(first);
        // One slot is busy; this job parks in the queue at the mark.
        let queued = http.submit("queued", "restaurant", 0.03);
        // Past the mark: shed with a retryable 429.
        let shed = http.submit_raw("shed", "restaurant", 0.03);
        assert_eq!(shed.status, 429, "expected shed, got: {}", shed.body);
        assert!(
            shed.head.contains("Retry-After:"),
            "429 must carry Retry-After: {}",
            shed.head
        );
        assert!(shed.body.contains("overloaded"), "body: {}", shed.body);

        // Drain, then retry the shed submission: it must be accepted.
        assert_eq!(http.wait(first).1, "ok");
        assert_eq!(http.wait(queued).1, "ok");
        let retried = http.submit("shed", "restaurant", 0.03);
        assert_eq!(http.wait(retried).1, "ok");

        // The shed is visible in the Prometheus telemetry.
        let metrics = http.request("GET", "/v1/metrics", None);
        assert_eq!(metrics.status, 200);
        assert!(
            metrics.body.contains("minoan_jobs_shed_total 1"),
            "metrics must count the shed submission"
        );
        http.shutdown();
    });
}

/// Past the connection cap the accept loop answers `503` +
/// `Retry-After` without spawning a handler; once a slot frees, new
/// connections are served again.
#[test]
fn connection_cap_rejects_excess_connections_with_503() {
    let _lock = locked();
    let opts = ServeOptions {
        slots: Some(1),
        ..ServeOptions::default()
    };
    let options = HttpOptions {
        max_connections: Some(1),
        ..HttpOptions::default()
    };
    with_server(opts, options, |http| {
        // Hold the single handler slot with an idle connection. Wait
        // for a probe to confirm the accept loop has claimed it.
        let hog = TcpStream::connect(http.addr).expect("connect hog");
        let t0 = Instant::now();
        loop {
            let r = http.request("GET", "/v1/metrics", None);
            if r.status == 503 {
                assert!(
                    r.head.contains("Retry-After:"),
                    "503 must carry Retry-After: {}",
                    r.head
                );
                break;
            }
            // The hog's accept may still be in flight; a 200 here means
            // our probe won the race — go again.
            assert_eq!(r.status, 200);
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "connection cap never engaged"
            );
        }
        // Release the slot; the server must recover.
        drop(hog);
        let t0 = Instant::now();
        loop {
            if http.request("GET", "/v1/metrics", None).status == 200 {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "server never recovered after the hog disconnected"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        http.shutdown();
    });
}

/// Builds a tiny two-sided pair, runs the pipeline, and persists the
/// artifact into the scratch dir — the victim for patch-fault tests.
fn persisted_artifact(scratch: &ScratchDir, id: &str) -> std::path::PathBuf {
    let mut a = KbBuilder::new("E1");
    let mut b = KbBuilder::new("E2");
    for i in 0..6 {
        a.add_literal(&format!("a:{i}"), "name", &format!("chaos specimen {i}"));
        b.add_literal(&format!("b:{i}"), "label", &format!("chaos specimen {i}"));
    }
    let pair = KbPair::new(a.finish(), b.finish());
    let matcher = MinoanEr::with_defaults();
    let indexed = matcher
        .run_cancellable_indexed(&pair, &Executor::sequential(), &CancelToken::new())
        .unwrap();
    let artifact = IndexArtifact::from_run(id, &pair, indexed, matcher.config());
    let path = scratch.0.join(format!("{id}.idx"));
    artifact.write_to(&path).unwrap();
    path
}

/// A patch job aimed at a persisted artifact — the internal input the
/// HTTP `PATCH /v1/indexes/{id}` route builds.
fn patch_spec(id: &str, path: std::path::PathBuf, ops: Vec<DeltaOp>) -> JobSpec {
    JobSpec {
        name: format!("{id}:patch"),
        input: JobInput::IndexPatch {
            id: id.into(),
            path,
            ops,
        },
        truth: None,
        theta: None,
        candidates_k: None,
        purge_blocks: None,
        timeout_ms: None,
        max_retries: None,
        persist: None,
    }
}

fn rename_op() -> DeltaOp {
    DeltaOp::Upsert {
        side: KbSide::First,
        uri: "a:0".into(),
        statements: vec![("name".into(), Object::Literal("renamed specimen 0".into()))],
    }
}

/// An injected fault at `core.delta.apply` — the site guarding the
/// patched artifact's persist — must leave the on-disk artifact
/// **byte-identical** to the pre-patch file (fully old), and a retry
/// of the same patch must land it completely (fully new). The patch
/// never tears: persist goes through a temp file + atomic rename.
#[test]
fn mid_patch_fault_leaves_the_artifact_fully_old_then_a_retry_lands_it() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    let scratch = ScratchDir::new("patch-apply");
    let path = persisted_artifact(&scratch, "victim");
    let original = std::fs::read(&path).unwrap();
    let opts = ServeOptions::default();

    // No retry budget: the injected persist failure surfaces as a
    // plain transient failure and the file must be fully old.
    let plan = format!("seed:{},core.delta.apply:1:io:1", ci_seed());
    faults::arm(&plan).unwrap();
    let queue = JobQueue::new(1, 0);
    queue
        .submit(patch_spec("victim", path.clone(), vec![rename_op()]))
        .unwrap();
    drain(&queue, &opts);
    let failed = queue.into_reports().remove(0);
    let JobStatus::Failed(err) = &failed.status else {
        panic!("armed patch should fail, got {:?}", failed.status);
    };
    assert!(err.contains("injected fault"), "unexpected error: {err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        original,
        "a failed patch must leave the artifact byte-identical (fully old)"
    );

    // Re-arm and grant one retry: the first attempt eats the fault,
    // the retry re-reads the (untouched) artifact and patches clean.
    faults::arm(&plan).unwrap();
    let queue = JobQueue::new(1, 0);
    let mut spec = patch_spec("victim", path.clone(), vec![rename_op()]);
    spec.max_retries = Some(1);
    queue.submit(spec).unwrap();
    let stats = drain(&queue, &opts);
    let retried = queue.into_reports().remove(0);
    assert_eq!(retried.status, JobStatus::Ok, "retry must recover");
    assert_eq!(stats.retries_scheduled, 1);
    let patched = IndexArtifact::read_from(&path).unwrap();
    assert_eq!(
        patched.meta().content_version,
        2,
        "the landed patch must be fully new"
    );
}

/// An injected fault at `store.artifact.read` — the artifact open path
/// — fails the patch attempt *before* any mutation, so the file stays
/// fully old; with retry budget the patch lands on the second attempt.
#[test]
fn artifact_read_fault_during_a_patch_is_transient_and_recovers() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    let scratch = ScratchDir::new("patch-read");
    let path = persisted_artifact(&scratch, "victim");
    let original = std::fs::read(&path).unwrap();
    let opts = ServeOptions::default();

    let plan = format!("seed:{},store.artifact.read:1:io:1", ci_seed());
    faults::arm(&plan).unwrap();
    let queue = JobQueue::new(1, 0);
    let mut spec = patch_spec("victim", path.clone(), vec![rename_op()]);
    spec.max_retries = Some(1);
    queue.submit(spec).unwrap();
    let stats = drain(&queue, &opts);
    let report = queue.into_reports().remove(0);
    assert_eq!(report.status, JobStatus::Ok, "retry must recover");
    assert_eq!(stats.retries_scheduled, 1);
    let patched = IndexArtifact::read_from(&path).unwrap();
    assert_eq!(patched.meta().content_version, 2);
    assert_ne!(
        std::fs::read(&path).unwrap(),
        original,
        "the landed patch must actually rewrite the artifact"
    );

    // The same fault under a match query is a transient 503: retryable,
    // with `Retry-After`, and the next query loads the artifact.
    faults::arm(&plan).unwrap();
    let opts = ServeOptions {
        index_dir: Some(scratch.0.clone()),
        ..ServeOptions::default()
    };
    with_server(opts, HttpOptions::default(), |http| {
        let query = "/v1/indexes/victim/match?entity=a:0";
        let r = http.request("GET", query, None);
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(r.head.contains("\r\nRetry-After: 1"), "{}", r.head);
        assert!(r.body.contains(r#""retryable":true"#), "{}", r.body);
        assert_eq!(http.request("GET", query, None).status, 200);
        http.shutdown();
    });
}

/// The fault plan itself is deterministic: same seed, site and hit
/// counter always produce the same decision, different seeds produce
/// different firing patterns, and the armed seed is observable so a
/// suite driven by `MINOAN_FAULTS=seed:N` can vary with N.
#[test]
fn fault_decisions_are_deterministic_and_seed_sensitive() {
    let _lock = locked();
    let _disarm = DisarmGuard;
    let seed = ci_seed();
    faults::arm(&format!("seed:{seed}")).unwrap();
    assert_eq!(faults::armed_seed(), Some(seed));

    for s in [seed, 1, 7, 42] {
        // Bit-stable across calls.
        for hit in 0..64 {
            assert_eq!(
                faults::decide(s, "kb.parse.read", hit, 0.5),
                faults::decide(s, "kb.parse.read", hit, 0.5)
            );
        }
        // Probability extremes are exact.
        assert!(faults::decide(s, "kb.parse.read", 0, 1.0));
        assert!(!faults::decide(s, "kb.parse.read", 0, 0.0));
        // The firing fraction tracks the probability (very loose
        // bounds: the plan is a hash, not a calibrated RNG).
        let fired = (0..512)
            .filter(|&hit| faults::decide(s, "serve.job.execute", hit, 0.25))
            .count();
        assert!(
            (10..410).contains(&fired),
            "seed {s}: implausible firing count {fired}/512 at p=0.25"
        );
    }
    // Different seeds reshuffle the plan.
    let pattern = |s: u64| -> Vec<bool> {
        (0..64)
            .map(|hit| faults::decide(s, "kb.parse.read", hit, 0.5))
            .collect()
    };
    assert_ne!(pattern(1), pattern(7), "seeds must change the plan");
}
