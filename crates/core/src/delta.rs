//! Delta patches: a patch is a rebuild.
//!
//! [`IndexArtifact::patched`] applies a stream of entity upserts and
//! deletes to a copy of the pair embedded in a loaded index
//! ([`minoan_kb::delta::apply_op`], the same code the tests' reference
//! uses) and then runs the one pipeline
//! ([`MinoanEr::run_cancellable_indexed`]) over the mutated pair with
//! the artifact's persisted parameters; [`IndexArtifact::apply_delta`]
//! is the same patch, in place. "Patched index ≡ index rebuilt from
//! the mutated pair" therefore holds by construction, bit for bit;
//! what `tests/delta_equivalence.rs` still has to gate is that the
//! embedded pair survives persist → reload → patch chains unchanged.
//! The serving registry patches from the copy it already holds and
//! publishes the result, so a served patch decodes no artifact file.
//!
//! There is deliberately no incremental engine. MinoanER is
//! non-iterative — every similarity is a function of block statistics,
//! computed once in one pass — and that cuts *against* row-level
//! patching: a block's weight, `1 / log2(ef1·ef2 + 1)`, depends on the
//! block's *size*, so an op that adds or removes one member of a token's
//! block changes the weight that token contributes to every row
//! containing it, and under the bit-exact contract above each of those
//! rows must be re-summed. Measured on 16-op streams (the benchmark's
//! traced replay at `09c4a8b`), the set of rows an incremental engine
//! had to recompute was **all** of them — 3 843 of 3 843 first-side
//! entities on YAGO-IMDb ×2, 1 863 of 1 863 on Rexa-DBLP ×2 — and with
//! the transposes, the neighbor pass, names, name blocking and H1–H4
//! re-run whole on top, the engine cost 1.15–1.32× the pipeline it was
//! meant to undercut. A design that patches rows again has to show a
//! measured frontier below 100 % *and* keep the bit-identity gate.
//!
//! Persisting a patch ([`IndexArtifact::persist_patch`]) passes the
//! [`PATCH_FAULT_SITE`] fault point and then the container layer's
//! atomic temp-file + rename, so a crash mid-patch leaves the previous
//! artifact intact — never a torn file.

use std::io;
use std::path::Path;

use minoan_exec::{faults, CancelToken, Cancelled, Executor};
use minoan_kb::{DeltaOp, Matching};

use crate::artifact::{ArtifactMeta, IndexArtifact};
use crate::pipeline::{MinoanEr, PipelineReport};

/// Fault-injection site armed at the start of a patch persist. Combined
/// with the atomic write underneath, an injected crash here must leave
/// the on-disk artifact fully old — the chaos suite's invariant.
pub const PATCH_FAULT_SITE: &str = "core.delta.apply";

/// What one applied delta patch did.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Ops that mutated the pair.
    pub ops_applied: usize,
    /// Ops that were no-ops (deletes of unknown URIs).
    pub ops_noop: usize,
    /// First-side similarity rows recomputed: every one, `|E1|` after
    /// the ops.
    pub affected_rows: usize,
    /// Pairs in the patched matching.
    pub matched_pairs: usize,
    /// The artifact's content version after the patch.
    pub content_version: u64,
    /// The report of the pipeline run the patch re-resolved with: its
    /// H1–H4 counters and stage timings.
    pub pipeline: PipelineReport,
}

impl IndexArtifact {
    /// Builds the artifact that patching this one with `ops` yields,
    /// leaving this one untouched: the embedded pair is copied, the ops
    /// are applied to the copy, and the pipeline runs over it on
    /// `exec`, with `cancel` attached to it (see
    /// [`MinoanEr::run_cancellable_indexed`]), and with the parameters
    /// the index was built with. The result holds that run's value
    /// candidates and matching, meta fields describing the run, and the
    /// content version bumped by one.
    ///
    /// This is the one patch path. A server that holds the loaded index
    /// behind an `Arc` patches from it without reading the file, and
    /// readers of the old artifact finish on it;
    /// [`IndexArtifact::apply_delta`] wraps it for an owner that
    /// replaces the artifact in place.
    pub fn patched(
        &self,
        ops: &[DeltaOp],
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<(IndexArtifact, DeltaReport), Cancelled> {
        let mut pair = {
            let _span = minoan_obs::trace::span(minoan_obs::Level::Debug, "patch.copy", || {
                self.meta.name.clone()
            });
            self.pair.clone()
        };
        let (ops_applied, ops_noop) = minoan_kb::delta::apply_to_pair(&mut pair, ops);
        let matcher = MinoanEr::new(self.config.clone())
            .expect("the config was validated when the artifact was built or opened");
        let indexed = matcher.run_cancellable_indexed(&pair, exec, cancel)?;
        let meta = ArtifactMeta::of_run(
            self.meta.name.clone(),
            self.meta.content_version + 1,
            self.config.to_json().compact(),
            &pair,
            &indexed,
        );
        let report = DeltaReport {
            ops_applied,
            ops_noop,
            affected_rows: pair.first.entity_count(),
            matched_pairs: indexed.output.matching.len(),
            content_version: meta.content_version,
            pipeline: indexed.output.report,
        };
        let patched = IndexArtifact {
            meta,
            config: self.config.clone(),
            pair,
            candidates: indexed.index.into_value_candidates(),
            matching: indexed.output.matching,
        };
        Ok((patched, report))
    }

    /// Patches the artifact in place: [`IndexArtifact::patched`], after
    /// the previous value candidates and matching are **released**, so
    /// a patch peaks at one index in memory, not two. The price is the
    /// error contract: after [`Cancelled`] the artifact holds its pair
    /// and no index, and the caller must discard it.
    pub fn apply_delta(
        &mut self,
        ops: &[DeltaOp],
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<DeltaReport, Cancelled> {
        self.candidates = Default::default();
        self.matching = Matching::new();
        let (patched, report) = self.patched(ops, exec, cancel)?;
        *self = patched;
        Ok(report)
    }

    /// Persists a patched artifact atomically: the [`PATCH_FAULT_SITE`]
    /// fault point fires first (so chaos runs crash *before* any bytes
    /// move), then the container writes to a temp file and renames — a
    /// reader never observes a torn artifact, only fully old or fully
    /// new. The meta then records the file's size and where its bytes
    /// are, as a read of the file would report them.
    pub fn persist_patch(&mut self, path: &Path) -> io::Result<u64> {
        faults::point(PATCH_FAULT_SITE)?;
        let (bytes, section_bytes) = self.write_sections(path)?;
        self.meta.file_bytes = bytes;
        self.meta.section_bytes = section_bytes;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinoanConfig;
    use crate::pipeline::Timings;
    use minoan_kb::{KbBuilder, KbPair, KbSide, Object};
    use std::time::Duration;

    fn sample_pair() -> KbPair {
        let mut a = KbBuilder::new("E1");
        let mut b = KbBuilder::new("E2");
        for (i, name) in ["Kri Kri Taverna", "Labyrinth Grill", "Phaistos Cafe"]
            .iter()
            .enumerate()
        {
            a.add_literal(&format!("a:r{i}"), "name", name);
            a.add_uri(&format!("a:r{i}"), "address", &format!("a:addr{i}"));
            a.add_literal(&format!("a:addr{i}"), "street", &format!("{i} Minos Ave"));
            b.add_literal(&format!("b:r{i}"), "title", name);
            b.add_uri(&format!("b:r{i}"), "location", &format!("b:addr{i}"));
            b.add_literal(
                &format!("b:addr{i}"),
                "street",
                &format!("{i} Minos Avenue"),
            );
        }
        KbPair::new(a.finish(), b.finish())
    }

    fn build_artifact(pair: &KbPair) -> IndexArtifact {
        build_artifact_with(pair, MinoanConfig::default())
    }

    fn build_artifact_with(pair: &KbPair, config: MinoanConfig) -> IndexArtifact {
        let matcher = MinoanEr::new(config).unwrap();
        let indexed = matcher
            .run_cancellable_indexed(pair, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        IndexArtifact::from_run("delta-test", pair, indexed, matcher.config())
    }

    /// The reference: mutate a clone of the pair with the same ops and
    /// run the whole pipeline from scratch.
    fn rebuild(pair: &KbPair, ops: &[DeltaOp]) -> IndexArtifact {
        rebuild_with(pair, ops, MinoanConfig::default())
    }

    fn rebuild_with(pair: &KbPair, ops: &[DeltaOp], config: MinoanConfig) -> IndexArtifact {
        let mut mutated = pair.clone();
        minoan_kb::delta::apply_to_pair(&mut mutated, ops);
        build_artifact_with(&mutated, config)
    }

    /// Writes `artifact` out and loads it back, as a patch job does.
    fn through_disk(artifact: &IndexArtifact, tag: &str) -> IndexArtifact {
        let dir = std::env::temp_dir().join("minoan-core-delta-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}-{}.idx", std::process::id()));
        artifact.write_to(&path).unwrap();
        let loaded = IndexArtifact::read_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    /// One rename, one insert, one delete.
    fn mixed_ops() -> Vec<DeltaOp> {
        vec![
            upsert(
                KbSide::First,
                "a:r1",
                &[("name", Object::Literal("Minotaur Grill".into()))],
            ),
            upsert(
                KbSide::Second,
                "b:r9",
                &[("title", Object::Literal("Kri Kri Taverna".into()))],
            ),
            DeltaOp::Delete {
                side: KbSide::Second,
                uri: "b:r2".to_string(),
            },
        ]
    }

    fn assert_bit_identical(patched: &IndexArtifact, reference: &IndexArtifact) {
        assert_eq!(patched.matched_uri_pairs(), reference.matched_uri_pairs());
        for side in [KbSide::First, KbSide::Second] {
            assert_eq!(
                patched.candidates(side),
                reference.candidates(side),
                "candidates differ on {side:?}"
            );
        }
        assert_eq!(patched.meta().matched_pairs, reference.meta().matched_pairs);
        assert_eq!(
            patched.meta().token_block_count,
            reference.meta().token_block_count
        );
    }

    fn upsert(side: KbSide, uri: &str, stmts: &[(&str, Object)]) -> DeltaOp {
        DeltaOp::Upsert {
            side,
            uri: uri.to_string(),
            statements: stmts
                .iter()
                .map(|(a, o)| (a.to_string(), o.clone()))
                .collect(),
        }
    }

    #[test]
    fn upserts_and_deletes_match_a_rebuild() {
        let pair = sample_pair();
        let mut artifact = build_artifact(&pair);
        let ops = vec![
            // Rename an existing restaurant on the first side.
            upsert(
                KbSide::First,
                "a:r1",
                &[
                    ("name", Object::Literal("Minotaur Grill".into())),
                    ("address", Object::Uri("a:addr1".into())),
                ],
            ),
            // Insert a brand-new matching pair.
            upsert(
                KbSide::First,
                "a:r9",
                &[("name", Object::Literal("Knossos Palace Bar".into()))],
            ),
            upsert(
                KbSide::Second,
                "b:r9",
                &[("title", Object::Literal("Knossos Palace Bar".into()))],
            ),
            // Delete a second-side entity.
            DeltaOp::Delete {
                side: KbSide::Second,
                uri: "b:r2".to_string(),
            },
        ];
        let report = artifact
            .apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(report.ops_applied, 4);
        assert_eq!(report.ops_noop, 0);
        assert!(report.affected_rows > 0);
        assert_bit_identical(&artifact, &rebuild(&pair, &ops));
    }

    #[test]
    fn unknown_uri_delete_is_a_noop() {
        let pair = sample_pair();
        let mut artifact = build_artifact(&pair);
        let before = artifact.matched_uri_pairs();
        let ops = vec![DeltaOp::Delete {
            side: KbSide::First,
            uri: "a:ghost".to_string(),
        }];
        let report = artifact
            .apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(report.ops_applied, 0);
        assert_eq!(report.ops_noop, 1);
        assert_eq!(artifact.matched_uri_pairs(), before);
    }

    #[test]
    fn content_version_bumps_per_patch() {
        let pair = sample_pair();
        let mut artifact = build_artifact(&pair);
        assert_eq!(artifact.meta().content_version, 1);
        // Provenance must describe the run that produced the current
        // content, so plant values no patch run can report.
        artifact.meta.build_timings = Timings::default();
        artifact.meta.built_unix_ms = 1;
        let op = vec![upsert(
            KbSide::First,
            "a:r0",
            &[("name", Object::Literal("Kri Kri Taverna Anew".into()))],
        )];
        artifact
            .apply_delta(&op, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(artifact.meta().content_version, 2);
        assert!(artifact.meta().build_timings.total() > Duration::ZERO);
        assert!(artifact.meta().built_unix_ms > 1);
        assert_eq!(artifact.meta().name, "delta-test");
        assert_eq!(
            artifact.meta().config_json,
            artifact.config.to_json().compact()
        );
        artifact
            .apply_delta(&op, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(artifact.meta().content_version, 3);
    }

    #[test]
    fn patched_artifact_round_trips_through_disk() {
        let pair = sample_pair();
        let mut artifact = build_artifact(&pair);
        let ops = vec![DeltaOp::Delete {
            side: KbSide::First,
            uri: "a:r0".to_string(),
        }];
        artifact
            .apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        let dir = std::env::temp_dir().join("minoan-core-delta-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("patched-{}.idx", std::process::id()));
        artifact.persist_patch(&path).unwrap();
        let loaded = IndexArtifact::read_from(&path).unwrap();
        assert_eq!(loaded.meta().content_version, 2);
        assert_eq!(loaded.matched_uri_pairs(), artifact.matched_uri_pairs());
        assert_bit_identical(&loaded, &rebuild(&pair, &ops));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn patching_a_borrowed_artifact_leaves_it_untouched() {
        let pair = sample_pair();
        let source = build_artifact(&pair);
        let before = source.matched_uri_pairs();
        let ops = mixed_ops();
        let (patched, report) = source
            .patched(&ops, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(source.matched_uri_pairs(), before);
        assert_eq!(source.meta().content_version, 1);
        assert_eq!(patched.meta().content_version, 2);
        assert_eq!(report.content_version, 2);
        assert_eq!(report.matched_pairs, patched.matching().len());
        assert_bit_identical(&patched, &rebuild(&pair, &ops));
        let mut in_place = build_artifact(&pair);
        in_place
            .apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_bit_identical(&in_place, &patched);
    }

    #[test]
    fn a_persisted_patch_describes_itself_as_its_file_does() {
        let pair = sample_pair();
        let (mut patched, _) = build_artifact(&pair)
            .patched(&mixed_ops(), &Executor::sequential(), &CancelToken::new())
            .unwrap();
        let dir = std::env::temp_dir().join("minoan-core-delta-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("described-{}.idx", std::process::id()));
        let bytes = patched.persist_patch(&path).unwrap();
        let on_disk = IndexArtifact::read_meta(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(patched.meta().file_bytes, bytes);
        assert_eq!(patched.meta().section_bytes, on_disk.section_bytes);
        assert_eq!(
            patched.meta().to_json().compact(),
            on_disk.to_json().compact()
        );
    }

    #[test]
    fn pre_cancelled_patch_unwinds() {
        let pair = sample_pair();
        let mut artifact = build_artifact(&pair);
        let cancel = CancelToken::new();
        cancel.cancel();
        let ops = vec![DeltaOp::Delete {
            side: KbSide::First,
            uri: "a:r0".to_string(),
        }];
        assert!(artifact
            .apply_delta(&ops, &Executor::sequential(), &cancel)
            .is_err());
    }

    #[test]
    fn repeated_upserts_of_the_same_entity_converge() {
        let pair = sample_pair();
        let mut artifact = build_artifact(&pair);
        let ops = vec![
            upsert(
                KbSide::First,
                "a:r0",
                &[("name", Object::Literal("transient garbage tokens".into()))],
            ),
            upsert(
                KbSide::First,
                "a:r0",
                &[
                    ("name", Object::Literal("Kri Kri Taverna".into())),
                    ("address", Object::Uri("a:addr0".into())),
                ],
            ),
        ];
        let report = artifact
            .apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(report.ops_applied, 2);
        assert_bit_identical(&artifact, &rebuild(&pair, &ops));
    }

    #[test]
    fn a_loaded_index_patches_with_the_parameters_it_was_built_with() {
        let config = MinoanConfig {
            theta: 0.25,
            candidates_k: 1,
            purge_blocks: false,
            ..MinoanConfig::default()
        };
        let pair = sample_pair();
        let mut loaded = through_disk(&build_artifact_with(&pair, config.clone()), "theta");
        assert_eq!(loaded.config, config, "not reset to the defaults");
        let ops = mixed_ops();
        loaded
            .apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_bit_identical(&loaded, &rebuild_with(&pair, &ops, config));
    }
}
