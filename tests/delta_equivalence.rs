//! Delta equivalence: a patched index must equal a from-scratch rebuild
//! **bit for bit**. A patch applies its ops to the pair embedded in the
//! artifact and re-runs the one pipeline over it
//! ([`apply_delta`](minoaner::core::IndexArtifact::apply_delta)), so
//! for a single in-memory patch the equality holds by construction; the
//! first three legs keep it pinned on every profile and backend, across
//! chunkings of one stream, and through one persist. What can still
//! break it is the embedded pair itself — now a patch's *only* input —
//! drifting on its way through the container, which the last leg gates
//! with a chain of patches reloaded from disk between every step.
//! This is the contract that makes `PATCH /v1/indexes/{id}` a rebuild
//! in every respect but where its input comes from.

use minoaner::core::{IndexArtifact, MinoanConfig, MinoanEr};
use minoaner::datagen::{mutate_stream, DatasetKind};
use minoaner::exec::{CancelToken, Executor, ExecutorKind};
use minoaner::kb::{DeltaOp, KbPair, KbSide, Object};

const SEED: u64 = 20180416;
const SCALE: f64 = 0.1;
const MUTATE_SEED: u64 = 7;
/// Ops per profile — the acceptance gate asks for at least 50.
const N_OPS: usize = 60;

/// The chain-through-disk leg: patches per profile and ops per patch.
const CHAIN_PATCHES: usize = 6;
const CHAIN_OPS: usize = 10;

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
            patched.candidates(side),
            reference.candidates(side),
            "{label}: candidates differ on {side:?}"
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
/// as one big patch — application is associative over the stream, not
/// just equivalent at the end.
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

/// The embedded pair is a patch's only input, so it must come back from
/// disk exactly as it went in — tombstones, interner order, reverse
/// edges — or a chain of persisted patches drifts away from a rebuild.
/// Every patch here is persisted and the *reloaded* artifact takes the
/// next one, as a serving process does.
#[test]
fn a_patch_chain_through_disk_matches_one_rebuild_on_every_profile() {
    let exec = executor_for(ExecutorKind::Pool, 3);
    let dir = std::env::temp_dir().join(format!("minoan-delta-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chain.idx");
    let last_patch = (CHAIN_PATCHES - 1) * CHAIN_OPS;

    for kind in DatasetKind::ALL {
        let pair = kind.generate_scaled(SEED, SCALE).pair;
        let mut ops = mutate_stream(
            kind,
            SEED,
            SCALE,
            MUTATE_SEED,
            CHAIN_PATCHES * CHAIN_OPS - 1,
        );
        // Open the last patch with an upsert that revives a URI an
        // earlier patch tombstoned (and nothing re-described since).
        let (side, uri) = ops[..last_patch]
            .iter()
            .enumerate()
            .find_map(|(i, op)| {
                let untouched_after = ops[i + 1..last_patch]
                    .iter()
                    .all(|later| (later.side(), later.uri()) != (op.side(), op.uri()));
                (matches!(op, DeltaOp::Delete { .. }) && untouched_after)
                    .then(|| (op.side(), op.uri().to_string()))
            })
            .unwrap_or_else(|| panic!("{kind:?}: no lasting delete before the last patch"));
        ops.insert(
            last_patch,
            DeltaOp::Upsert {
                side,
                uri: uri.clone(),
                statements: vec![("label".into(), Object::Literal("revived entry".into()))],
            },
        );

        let mut artifact = build_artifact(&pair, &exec);
        for (i, patch) in ops.chunks(CHAIN_OPS).enumerate() {
            if i + 1 == CHAIN_PATCHES {
                let kb = artifact.pair().kb(side);
                let e = kb.entity_by_uri(&uri).expect("tombstones keep their URI");
                assert!(
                    kb.statements(e).is_empty(),
                    "{kind:?}: {uri} is not a tombstone"
                );
            }
            artifact
                .apply_delta(patch, &exec, &CancelToken::new())
                .unwrap();
            artifact.persist_patch(&path).unwrap();
            let loaded = IndexArtifact::read_from(&path).unwrap();
            for side in [KbSide::First, KbSide::Second] {
                assert!(
                    loaded.pair().kb(side) == artifact.pair().kb(side),
                    "{kind:?}: patch {i} changed the {side:?} KB on its way through disk"
                );
            }
            artifact = loaded;
        }
        assert_eq!(artifact.meta().content_version, 1 + CHAIN_PATCHES as u64);
        assert_bit_identical(
            &artifact,
            &rebuild(&pair, &ops, &exec),
            &format!("{kind:?} chain"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
