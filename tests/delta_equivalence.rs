//! Delta equivalence: the incremental re-resolution engine must
//! reproduce a from-scratch rebuild **bit for bit**. For every
//! benchmark profile we build an index, stream N seeded upserts and
//! deletes through [`apply_delta`](minoaner::core::IndexArtifact::apply_delta),
//! and compare the patched artifact against a full pipeline run over
//! the same mutated pair — identical matchings, identical CSR bytes,
//! identical stage counters — on every executor backend. This is the
//! contract that makes `PATCH /v1/indexes/{id}` an O(delta) shortcut
//! rather than a second, divergent resolution algorithm.

use minoaner::core::{IndexArtifact, MinoanConfig, MinoanEr};
use minoaner::datagen::{mutate_stream, DatasetKind};
use minoaner::exec::{CancelToken, Executor, ExecutorKind};
use minoaner::kb::{DeltaOp, KbPair, KbSide};

const SEED: u64 = 20180416;
const SCALE: f64 = 0.1;
const MUTATE_SEED: u64 = 7;
/// Ops per profile — the acceptance gate asks for at least 50.
const N_OPS: usize = 60;

const BACKENDS: [(ExecutorKind, usize); 2] =
    [(ExecutorKind::Sequential, 1), (ExecutorKind::Pool, 3)];

fn executor_for(kind: ExecutorKind, threads: usize) -> Executor {
    MinoanConfig {
        executor: kind,
        threads,
        ..MinoanConfig::default()
    }
    .executor()
}

fn build_artifact(pair: &KbPair, exec: &Executor) -> IndexArtifact {
    let matcher = MinoanEr::with_defaults();
    let indexed = matcher
        .run_cancellable_indexed(pair, exec, &CancelToken::new())
        .expect("no cancellation source");
    IndexArtifact::from_run("equivalence", pair, indexed, matcher.config())
}

/// The reference result: mutate a clone of the pair with the same ops
/// and run the whole pipeline from scratch.
fn rebuild(pair: &KbPair, ops: &[DeltaOp], exec: &Executor) -> IndexArtifact {
    let mut mutated = pair.clone();
    minoaner::kb::delta::apply_to_pair(&mut mutated, ops);
    build_artifact(&mutated, exec)
}

fn assert_bit_identical(patched: &IndexArtifact, reference: &IndexArtifact, label: &str) {
    assert_eq!(
        patched.matched_uri_pairs(),
        reference.matched_uri_pairs(),
        "{label}: matched pairs differ"
    );
    for side in [KbSide::First, KbSide::Second] {
        assert_eq!(
            patched.index().value_csr(side),
            reference.index().value_csr(side),
            "{label}: value CSR differs on {side:?}"
        );
        assert_eq!(
            patched.index().neighbor_csr(side),
            reference.index().neighbor_csr(side),
            "{label}: neighbor CSR differs on {side:?}"
        );
    }
    assert_eq!(
        patched.meta().matched_pairs,
        reference.meta().matched_pairs,
        "{label}: matched_pairs meta differs"
    );
    assert_eq!(
        patched.meta().token_block_count,
        reference.meta().token_block_count,
        "{label}: token_block_count differs"
    );
}

#[test]
fn incremental_patches_match_a_rebuild_on_every_profile_and_backend() {
    for kind in DatasetKind::ALL {
        let pair = kind.generate_scaled(SEED, SCALE).pair;
        let ops = mutate_stream(kind, SEED, SCALE, MUTATE_SEED, N_OPS);
        assert!(ops.len() >= 50, "{kind:?}: stream too short");
        for (backend, threads) in BACKENDS {
            let exec = executor_for(backend, threads);
            let mut artifact = build_artifact(&pair, &exec);
            let report = artifact
                .apply_delta(&ops, &exec, &CancelToken::new())
                .expect("no cancellation source");
            assert_eq!(
                report.ops_applied + report.ops_noop,
                N_OPS,
                "{kind:?}/{backend:?}: op accounting is off"
            );
            assert_bit_identical(
                &artifact,
                &rebuild(&pair, &ops, &exec),
                &format!("{kind:?}/{backend:?}"),
            );
        }
    }
}

/// A patch split into many small patches must land on the same bytes
/// as one big patch — incremental application is associative over the
/// stream, not just equivalent at the end.
#[test]
fn chunked_patches_converge_to_the_same_artifact() {
    let kind = DatasetKind::Restaurant;
    let pair = kind.generate_scaled(SEED, SCALE).pair;
    let ops = mutate_stream(kind, SEED, SCALE, MUTATE_SEED, N_OPS);
    let exec = executor_for(ExecutorKind::Sequential, 1);

    let mut one_shot = build_artifact(&pair, &exec);
    one_shot
        .apply_delta(&ops, &exec, &CancelToken::new())
        .unwrap();

    let mut chunked = build_artifact(&pair, &exec);
    for chunk in ops.chunks(7) {
        chunked
            .apply_delta(chunk, &exec, &CancelToken::new())
            .unwrap();
    }
    assert_bit_identical(&chunked, &one_shot, "chunked vs one-shot");
    assert!(chunked.meta().content_version > one_shot.meta().content_version);
}

/// Persisting a patch is atomic: the artifact on disk round-trips to
/// the patched bytes, and a reader holding the *old* path never sees a
/// half-written file (temp + rename).
#[test]
fn persisted_patch_round_trips() {
    let kind = DatasetKind::Restaurant;
    let pair = kind.generate_scaled(SEED, SCALE).pair;
    let ops = mutate_stream(kind, SEED, SCALE, MUTATE_SEED, N_OPS);
    let exec = executor_for(ExecutorKind::Sequential, 1);

    let dir = std::env::temp_dir().join(format!("minoan-delta-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("equivalence.idx");

    let mut artifact = build_artifact(&pair, &exec);
    artifact.write_to(&path).unwrap();
    artifact
        .apply_delta(&ops, &exec, &CancelToken::new())
        .unwrap();
    artifact.persist_patch(&path).unwrap();

    let reloaded = IndexArtifact::read_from(&path).unwrap();
    assert_eq!(reloaded.meta().content_version, 2);
    assert_bit_identical(&reloaded, &rebuild(&pair, &ops, &exec), "reloaded");
    std::fs::remove_dir_all(&dir).ok();
}
