//! Failure-injection and edge-case tests: the pipeline must degrade
//! gracefully, never panic, on degenerate or corrupted inputs — and a
//! poisoned job in a serving fleet must fail alone.

use minoaner::core::{build_blocks, MinoanConfig, MinoanEr, MAX_CANDIDATES};
use minoaner::exec::Executor;
use minoaner::kb::{parse, KbBuilder, KbPair};
use minoaner::serve::{
    run_batch, CancelOutcome, JobInput, JobPhase, JobQueue, JobSpec, JobStatus, Manifest,
    ServeOptions,
};

mod common;
use common::ScratchDir;

#[test]
fn empty_kbs() {
    let pair = KbPair::new(KbBuilder::new("a").finish(), KbBuilder::new("b").finish());
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
    assert!(out.matching.is_empty());
}

#[test]
fn one_empty_side() {
    let mut a = KbBuilder::new("a");
    a.add_literal("a:1", "name", "something");
    let pair = KbPair::new(a.finish(), KbBuilder::new("b").finish());
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
    assert!(out.matching.is_empty());
}

#[test]
fn entities_without_literals() {
    let mut a = KbBuilder::new("a");
    a.add_uri("a:1", "knows", "a:2");
    a.declare_entity("a:2");
    let mut b = KbBuilder::new("b");
    b.add_uri("b:1", "knows", "b:2");
    b.declare_entity("b:2");
    let pair = KbPair::new(a.finish(), b.finish());
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
    // Nothing to match on, but nothing crashes either.
    assert!(out.matching.is_empty());
}

#[test]
fn kb_without_relations_disables_neighbor_evidence_gracefully() {
    let mut a = KbBuilder::new("a");
    let mut b = KbBuilder::new("b");
    for i in 0..20 {
        a.add_literal(
            &format!("a:{i}"),
            "name",
            &format!("distinct name number {i}"),
        );
        b.add_literal(
            &format!("b:{i}"),
            "label",
            &format!("distinct name number {i}"),
        );
    }
    let pair = KbPair::new(a.finish(), b.finish());
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
    assert_eq!(out.matching.len(), 20);
}

#[test]
fn self_loops_and_dangling_uris() {
    let mut a = KbBuilder::new("a");
    a.add_uri("a:1", "rel", "a:1"); // self-loop
    a.add_uri("a:1", "rel", "a:missing"); // dangling -> literal
    a.add_literal("a:1", "name", "weird entity");
    let mut b = KbBuilder::new("b");
    b.add_literal("b:1", "name", "weird entity");
    let pair = KbPair::new(a.finish(), b.finish());
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
    assert_eq!(out.matching.len(), 1);
}

#[test]
fn unicode_and_long_values() {
    let mut a = KbBuilder::new("a");
    let long = "πολύ ".repeat(5000);
    a.add_literal("a:1", "name", &long);
    a.add_literal("a:1", "emoji", "🏛️ ruins");
    let mut b = KbBuilder::new("b");
    b.add_literal("b:1", "label", &long);
    let pair = KbPair::new(a.finish(), b.finish());
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
    assert_eq!(out.matching.len(), 1);
}

#[test]
fn corrupted_ntriples_report_line_numbers() {
    let text = "<ok> <p> \"v\" .\nthis line is garbage\n";
    let err = parse::parse_ntriples("x", text).unwrap_err();
    assert_eq!(err.line, 2);
    assert!(!err.to_string().is_empty());
}

#[test]
fn duplicate_triples_are_harmless() {
    let mut a = KbBuilder::new("a");
    for _ in 0..10 {
        a.add_literal("a:1", "name", "same triple");
    }
    let mut b = KbBuilder::new("b");
    b.add_literal("b:1", "name", "same triple");
    let pair = KbPair::new(a.finish(), b.finish());
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());
    assert_eq!(out.matching.len(), 1);
}

#[test]
fn extreme_configs_do_not_panic() {
    // Every pair shares three tokens, so without purging every row runs
    // past MAX_CANDIDATES, and the larger side's rows are cut to it.
    let mut a = KbBuilder::new("a");
    let mut b = KbBuilder::new("b");
    for (kb, prefix, n) in [(&mut a, "a", 150), (&mut b, "b", 160)] {
        for i in 0..n {
            kb.add_literal(
                &format!("{prefix}:{i}"),
                "name",
                &format!("entity {i} shared words"),
            );
        }
    }
    let pair = KbPair::new(a.finish(), b.finish());
    assert!(MinoanEr::new(MinoanConfig {
        candidates_k: MAX_CANDIDATES + 1,
        ..Default::default()
    })
    .is_err());
    for config in [
        MinoanConfig {
            candidates_k: 1,
            ..Default::default()
        },
        // H4 reads every cut row to its last stored candidate.
        MinoanConfig {
            candidates_k: MAX_CANDIDATES,
            purge_blocks: false,
            ..Default::default()
        },
        MinoanConfig {
            theta: 0.001,
            ..Default::default()
        },
        MinoanConfig {
            theta: 0.999,
            ..Default::default()
        },
        MinoanConfig {
            top_relations_n: 100,
            name_attrs_k: 50,
            ..Default::default()
        },
    ] {
        let out = MinoanEr::new(config)
            .unwrap()
            .run_with(&pair, &Executor::default());
        assert!(!out.matching.is_empty());
    }
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

#[test]
fn corrupt_job_fails_alone_in_a_fleet() {
    let scratch = ScratchDir::new("fleet");
    let mut jobs = Vec::new();
    for tag in 0..3 {
        let (a, b) = tsv_pair(tag);
        jobs.push(JobSpec {
            name: format!("good-{tag}"),
            input: JobInput::Files {
                first: scratch.file(&format!("a{tag}.tsv"), &a),
                second: scratch.file(&format!("b{tag}.tsv"), &b),
            },
            truth: None,
            theta: None,
            candidates_k: None,
            purge_blocks: None,
            timeout_ms: None,
            max_retries: None,
            persist: None,
        });
    }
    // A truncated N-Triples file: the second line is cut mid-triple.
    let corrupt = scratch.file(
        "corrupt.nt",
        "<x:1> <name> \"fine\" .\n<x:2> <name> \"truncat",
    );
    let (_, good_side) = tsv_pair(9);
    jobs.insert(
        1, // poison in the middle of the queue, not at the edges
        JobSpec {
            name: "poisoned".into(),
            input: JobInput::Files {
                first: corrupt,
                second: scratch.file("ok.tsv", &good_side),
            },
            truth: None,
            theta: None,
            candidates_k: None,
            purge_blocks: None,
            timeout_ms: None,
            max_retries: None,
            persist: None,
        },
    );
    let manifest = Manifest { jobs };
    let report = run_batch(&manifest, &ServeOptions::default());

    // The poisoned job failed with a parse error naming the line…
    let poisoned = report.jobs.iter().find(|j| j.name == "poisoned").unwrap();
    let JobStatus::Failed(err) = &poisoned.status else {
        panic!("poisoned job should fail, got {:?}", poisoned.status);
    };
    assert!(err.contains("corrupt.nt"), "error names the file: {err}");
    assert!(poisoned.matches.is_empty());

    // …while every other job completed with its full matching.
    for job in report.jobs.iter().filter(|j| j.name != "poisoned") {
        assert!(job.status.is_ok(), "{}: {:?}", job.name, job.status);
        assert_eq!(job.matches.len(), 8, "{} lost matches", job.name);
    }
    assert_eq!(report.failed_count(), 1);
}

fn tiny_synthetic(name: &str) -> JobSpec {
    JobSpec {
        name: name.into(),
        input: JobInput::Synthetic {
            kind: minoaner::datagen::DatasetKind::Restaurant,
            seed: 20180416,
            scale: 0.03,
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

/// A cancel that races job dispatch must resolve to exactly one
/// terminal state — never a job that is simultaneously running and
/// cancelled. The queue's phase transitions are asserted internally
/// (an illegal transition panics the worker, which fails the scope),
/// and [`minoaner::serve::JobSnapshot`] carries a status **only** in
/// the `Done` phase, which a concurrent monitor verifies continuously.
#[test]
fn cancel_racing_dispatch_yields_exactly_one_terminal_state() {
    let opts = ServeOptions::default();
    for round in 0..6 {
        let queue = JobQueue::new(2, 0);
        for i in 0..3 {
            queue.submit(tiny_synthetic(&format!("job-{i}"))).unwrap();
        }
        queue.close();
        let outcome = std::sync::Mutex::new(None);
        std::thread::scope(|scope| {
            // The racing canceller goes first so some rounds hit the
            // job before dispatch and some mid-run.
            scope.spawn(|| {
                if round % 2 == 1 {
                    std::thread::yield_now();
                }
                *outcome.lock().unwrap() = Some(queue.cancel(1));
            });
            for _ in 0..2 {
                scope.spawn(|| queue.worker(&opts, &|_| {}));
            }
            // Monitor: no snapshot may ever pair a non-terminal phase
            // with a status (or Done without one).
            while queue
                .snapshot()
                .iter()
                .inspect(|s| {
                    assert_eq!(
                        s.status.is_some(),
                        s.phase == JobPhase::Done,
                        "round {round}: job #{} is {:?} with status {:?}",
                        s.id,
                        s.phase,
                        s.status
                    );
                })
                .any(|s| s.phase != JobPhase::Done)
            {
                std::thread::yield_now();
            }
        });
        let outcome = outcome.into_inner().unwrap().unwrap();
        let reports = queue.into_reports();
        assert_eq!(reports.len(), 3);
        // Jobs 0 and 2 were never cancelled.
        assert_eq!(reports[0].status, JobStatus::Ok, "round {round}");
        assert_eq!(reports[2].status, JobStatus::Ok, "round {round}");
        // Job 1 ended in exactly the state the cancel outcome promised:
        // flipped before dispatch => Cancelled; caught running => it
        // unwinds at a checkpoint (Cancelled) or had already passed the
        // last one (Ok) — but never anything else, and never both.
        match outcome {
            CancelOutcome::CancelledQueued => {
                assert_eq!(reports[1].status, JobStatus::Cancelled, "round {round}");
                assert!(reports[1].matches.is_empty());
            }
            CancelOutcome::Cancelling | CancelOutcome::AlreadyDone => {
                assert!(
                    matches!(reports[1].status, JobStatus::Cancelled | JobStatus::Ok),
                    "round {round}: {:?}",
                    reports[1].status
                );
            }
            CancelOutcome::Unknown => panic!("round {round}: job 1 was submitted"),
        }
        if reports[1].status == JobStatus::Cancelled {
            assert!(
                reports[1].matches.is_empty(),
                "round {round}: a cancelled job must not leak partial output"
            );
        }
    }
}

/// Mid-run cancellation on the pool backend unwinds within a bounded
/// number of work quanta instead of draining the whole wave: the claim
/// loop re-checks the token before every
/// [`minoaner::exec::POOL_TASK_ITEMS`]-sized task, so the latency is
/// one task's runtime plus unwind, not the wave's.
#[test]
fn pool_cancel_unwinds_within_one_quantum() {
    use minoaner::exec::{catch_cancel, Cancelled, Executor, POOL_TASK_ITEMS};
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    let token = minoaner::exec::CancelToken::new();
    let exec = Executor::pool().with_cancel(token.clone());
    // Size the wave so an *uncancelled* run takes several seconds on
    // any core count: ~256 quanta per pool worker, each quantum a few
    // tens of milliseconds of busy work.
    let n = POOL_TASK_ITEMS * 256 * exec.threads();

    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let start = Instant::now();
    let result = catch_cancel(|| {
        Ok(exec.map_range(n, |i| {
            let mut acc = i as u64;
            for k in 0..10_000u64 {
                acc = black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(k));
            }
            acc
        }))
    });
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    assert!(
        matches!(result, Err(Cancelled)),
        "a cancelled pool wave must unwind as Cancelled"
    );
    // One quantum of the busy loop above is tens of milliseconds; even
    // with a very generous CI margin the unwind lands far below the
    // multi-second full-wave runtime.
    assert!(
        elapsed < Duration::from_secs(2),
        "cancel latency {elapsed:?} exceeds the bounded-quantum promise"
    );
}

#[test]
fn blocking_artifacts_are_consistent_under_no_purging() {
    let mut a = KbBuilder::new("a");
    let mut b = KbBuilder::new("b");
    for i in 0..50 {
        a.add_literal(&format!("a:{i}"), "name", &format!("stopword entity {i}"));
        b.add_literal(&format!("b:{i}"), "name", &format!("stopword entity {i}"));
    }
    let pair = KbPair::new(a.finish(), b.finish());
    let cfg = MinoanConfig {
        purge_blocks: false,
        ..Default::default()
    };
    let art = build_blocks(&pair, &cfg, &Executor::default());
    assert!(art.purge.is_none());
    // "stopword" and "entity" blocks are 50x50 each.
    assert!(art.token_blocks.total_comparisons() >= 2 * 50 * 50);
}
