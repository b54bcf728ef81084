//! Batch serving layer tests: scheduler determinism, the example
//! manifest, and batch-vs-solo bit-identity (the serving acceptance
//! criterion: per-job outputs must match running each pair alone,
//! sequentially, regardless of fleet shape or manifest order).

use std::path::Path;

use minoaner::exec::ExecutorKind;
use minoaner::serve::{run_batch, JobInput, JobSpec, Manifest, ServeOptions};

fn example_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
}

/// A fast four-profile manifest for determinism sweeps.
fn four_profile_manifest() -> Manifest {
    let jobs = minoaner::datagen::DatasetKind::ALL
        .into_iter()
        .map(|kind| JobSpec {
            name: format!("{kind:?}"),
            input: JobInput::Synthetic {
                kind,
                seed: 20180416,
                scale: 0.08,
            },
            truth: None,
            theta: None,
            candidates_k: None,
            purge_blocks: None,
            timeout_ms: None,
            max_retries: None,
            persist: None,
        })
        .collect();
    Manifest { jobs }
}

/// Fingerprints keyed by job name (order-independent comparison).
fn fingerprints(manifest: &Manifest, opts: &ServeOptions) -> Vec<(String, String)> {
    let mut fp: Vec<(String, String)> = run_batch(manifest, opts)
        .jobs
        .iter()
        .map(|j| (j.name.clone(), j.fingerprint()))
        .collect();
    fp.sort();
    fp
}

/// The flags CI's batch smoke passes with the example manifest.
fn example_opts() -> ServeOptions {
    ServeOptions {
        slots: 4,
        memory_budget_bytes: 1024 << 20,
        ..ServeOptions::default()
    }
}

#[test]
fn example_manifest_parses() {
    let fleet = Manifest::load(&example_path("fleet.json")).expect("fleet.json parses");
    assert!(fleet.jobs.len() >= 4, "the example serves at least 4 pairs");
    // Manifests have one spelling; the other is refused by name.
    let err = Manifest::load(&example_path("fleet.toml")).unwrap_err();
    assert!(err.contains("fleet.toml"), "{err}");
    assert!(err.contains("manifests are JSON"), "{err}");
}

#[test]
fn example_fleet_resolves_every_pair_concurrently() {
    let manifest = Manifest::load(&example_path("fleet.json")).unwrap();
    let report = run_batch(&manifest, &example_opts());
    assert_eq!(report.ok_count(), manifest.jobs.len());
    for job in &report.jobs {
        assert!(!job.matches.is_empty(), "{} matched nothing", job.name);
        let q = job.quality.as_ref().expect("synthetic jobs carry truth");
        assert!(q.f1() > 0.5, "{}: F1 {:.3}", job.name, q.f1());
    }
    // All slots were actually exercised: with as many jobs as slots
    // ready and no memory pressure, the fleet reaches full width.
    assert!(
        report.peak_concurrent_jobs >= 4.min(report.slots),
        "peak concurrency {} below fleet width {}",
        report.peak_concurrent_jobs,
        report.slots
    );
}

#[test]
fn batch_output_is_bit_identical_to_solo_sequential_runs() {
    let manifest = four_profile_manifest();
    let batch = fingerprints(&manifest, &ServeOptions::default());
    for job in &manifest.jobs {
        let solo = Manifest {
            jobs: vec![job.clone()],
        };
        let solo_opts = ServeOptions {
            slots: 1,
            executor: ExecutorKind::Sequential,
            ..ServeOptions::default()
        };
        let solo_fp = fingerprints(&solo, &solo_opts);
        let batch_fp = batch.iter().find(|(n, _)| *n == job.name).unwrap();
        assert_eq!(
            solo_fp[0], *batch_fp,
            "{}: batch result differs from the solo sequential run",
            job.name
        );
    }
}

#[test]
fn scheduling_shape_never_changes_results() {
    let manifest = four_profile_manifest();
    let base = fingerprints(
        &manifest,
        &ServeOptions {
            slots: 1,
            ..ServeOptions::default()
        },
    );
    for (slots, executor) in [
        (1, ExecutorKind::Sequential),
        (2, ExecutorKind::Pool),
        (2, ExecutorKind::Sequential),
        (4, ExecutorKind::Pool),
    ] {
        let got = fingerprints(
            &manifest,
            &ServeOptions {
                slots,
                executor,
                ..ServeOptions::default()
            },
        );
        assert_eq!(base, got, "slots={slots} executor={executor}");
    }
}

#[test]
fn manifest_order_never_changes_results() {
    let manifest = four_profile_manifest();
    let base = fingerprints(&manifest, &ServeOptions::default());
    let mut shuffled = manifest.clone();
    shuffled.jobs.reverse();
    assert_eq!(base, fingerprints(&shuffled, &ServeOptions::default()));
    // An interleaving that is neither forward nor reversed.
    let mut mixed = manifest.clone();
    mixed.jobs.swap(0, 2);
    mixed.jobs.swap(1, 3);
    assert_eq!(base, fingerprints(&mixed, &ServeOptions::default()));
}

#[test]
fn memory_pressure_never_changes_results() {
    let manifest = four_profile_manifest();
    let base = fingerprints(&manifest, &ServeOptions::default());
    let strangled = ServeOptions {
        memory_budget_bytes: 1 << 20,
        ..ServeOptions::default()
    };
    assert_eq!(base, fingerprints(&manifest, &strangled));
}
