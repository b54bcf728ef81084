//! Incremental delta resolution: O(delta) re-resolution of a loaded
//! index.
//!
//! MinoanER is non-iterative — every similarity is a function of block
//! statistics and no matching decision is ever revisited — which makes
//! the pipeline unusually delta-friendly: an entity upsert or delete
//! only perturbs the blocks its tokens touch. [`IndexArtifact::apply_delta`]
//! exploits that:
//!
//! 1. **Mutate** the embedded pair through [`minoan_kb::delta::apply_op`]
//!    (the same code a reference rebuild of the final KB state uses),
//!    releasing and re-absorbing each dirty entity's tokens so the
//!    shared dictionary's entity frequencies stay exact.
//! 2. **Splice the blocks**: a [`MutableBlocks`] membership table is
//!    updated in O(dirty tokens · log block size) per op.
//! 3. **Bound the blast radius**: the affected first-side rows are the
//!    dirty entities plus the members of every *touched* token
//!    (membership changed on either side, so its weight changed) plus
//!    the members of every token whose purge-kept status *flipped*
//!    because the global threshold moved.
//! 4. **Recompute exactly there**: the purged token blocks are
//!    re-materialized in lexicographic token-string order — the
//!    canonical block order of [`minoan_blocking::token_blocking_with`]
//!    — and each affected row goes through the *same row kernel* a full
//!    build runs for every row (`simindex::value_rows`), so its
//!    floating-point sums are the rebuild's by construction. Unaffected
//!    rows are spliced through unchanged.
//! 5. **Re-derive the rest**: transposes, the neighbor pass and the
//!    H1–H4 matching phase are linear in the pair count and run through
//!    the same functions as a full build, so the patched artifact is
//!    fingerprint-identical to a from-scratch rebuild of the final KB
//!    state — the correctness gate `tests/delta_equivalence.rs` checks.
//!
//! Persisting a patch ([`IndexArtifact::persist_patch`]) passes the
//! [`PATCH_FAULT_SITE`] fault point and then the container layer's
//! atomic temp-file + rename, so a crash mid-patch leaves the previous
//! artifact intact — never a torn file.

use std::io;
use std::path::Path;

use minoan_blocking::{name_blocking_with, threshold_from_cards, BlockKind, MutableBlocks};
use minoan_exec::{faults, CancelToken, Cancelled, Executor};
use minoan_kb::{Csr, DeltaOp, EntityId, FxHashSet, KbSide, TokenId};
use minoan_text::Tokenizer;

use crate::artifact::IndexArtifact;
use crate::importance::{entity_names_with, top_neighbors_with};
use crate::pipeline::matching_phase;
use crate::simindex::{value_rows, Candidate, SimilarityIndex};

/// Fault-injection site armed at the start of a patch persist. Combined
/// with the atomic write underneath, an injected crash here must leave
/// the on-disk artifact fully old — the chaos suite's invariant.
pub const PATCH_FAULT_SITE: &str = "core.delta.apply";

/// Counters of one applied delta patch.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Ops that mutated the pair.
    pub ops_applied: usize,
    /// Ops that were no-ops (deletes of unknown URIs).
    pub ops_noop: usize,
    /// First-side similarity rows recomputed (the O(delta) frontier).
    pub affected_rows: usize,
    /// Tokens whose block membership changed.
    pub touched_tokens: usize,
    /// Matches contributed by H1 after the patch.
    pub h1_matches: usize,
    /// Matches contributed by H2 after the patch.
    pub h2_matches: usize,
    /// Matches contributed by H3 after the patch.
    pub h3_matches: usize,
    /// Pairs discarded by H4 after the patch.
    pub h4_removed: usize,
    /// Pairs in the patched matching.
    pub matched_pairs: usize,
    /// The artifact's content version after the patch.
    pub content_version: u64,
}

impl IndexArtifact {
    /// Applies `ops` to the loaded index, re-resolving only the affected
    /// neighborhood. The result — matching, similarity index, blocks —
    /// is bit-identical to a from-scratch pipeline run over the mutated
    /// pair; the artifact's content version is bumped. Cancellation
    /// follows the pipeline contract: the artifact is only mutated
    /// beyond the cheap KB/token splice once the run is committed, and
    /// a cancelled run returns [`Cancelled`] without publishing a
    /// half-patched index... with one caveat handled by the caller: the
    /// in-memory artifact must be discarded after an error (the serving
    /// registry reloads from disk, which a failed patch never touched).
    pub fn apply_delta(
        &mut self,
        ops: &[DeltaOp],
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<DeltaReport, Cancelled> {
        let exec = &exec.clone().with_cancel(cancel.clone());
        minoan_exec::catch_cancel(|| self.apply_delta_inner(ops, exec, cancel))
    }

    fn apply_delta_inner(
        &mut self,
        ops: &[DeltaOp],
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<DeltaReport, Cancelled> {
        let config = self.config.clone();
        let tokenizer = Tokenizer::default();
        cancel.checkpoint()?;

        // O(corpus) open: invert the token membership once.
        let mut blocks = MutableBlocks::from_tokenized(&self.tokens);
        let threshold_prev = config
            .purge_blocks
            .then(|| threshold_from_cards(blocks.cards(), config.purge_smoothing));
        cancel.checkpoint()?;

        // Sequentially splice each op into the KB pair, the token
        // dictionary and the membership table. `release` must run
        // *before* the mutation: the entity's current occurrence counts
        // are not recoverable from its deduplicated token row.
        let mut dirty: [FxHashSet<EntityId>; 2] = [FxHashSet::default(), FxHashSet::default()];
        let mut touched: FxHashSet<TokenId> = FxHashSet::default();
        let mut ops_applied = 0usize;
        let mut ops_noop = 0usize;
        for op in ops {
            let side = op.side();
            let old_row: Vec<TokenId> = match self.pair.kb(side).entity_by_uri(op.uri()) {
                Some(e) => self
                    .tokens
                    .release_entity(side, e, self.pair.kb(side), &tokenizer),
                None => Vec::new(),
            };
            let Some((side, e, _created)) = minoan_kb::delta::apply_op(&mut self.pair, op) else {
                ops_noop += 1;
                continue;
            };
            ops_applied += 1;
            dirty[side.index()].insert(e);
            let (new_row, new_tokens) =
                self.tokens
                    .absorb_entity(side, e, self.pair.kb(side), &tokenizer);
            for &t in &new_tokens {
                blocks.ensure_token(t);
            }
            // Both rows are sorted by token id; walk their difference.
            let (mut i, mut j) = (0, 0);
            while i < old_row.len() || j < new_row.len() {
                match (old_row.get(i), new_row.get(j)) {
                    (Some(&o), Some(&n)) if o == n => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&o), n) if n.is_none() || o < *n.expect("checked") => {
                        blocks.remove(side, o, e);
                        touched.insert(o);
                        i += 1;
                    }
                    (_, Some(&n)) => {
                        blocks.insert(side, n, e);
                        touched.insert(n);
                        j += 1;
                    }
                    _ => unreachable!("loop condition keeps one side non-empty"),
                }
            }
        }
        cancel.checkpoint()?;

        // A changed purge threshold can flip the kept status of blocks
        // no op touched; their members are affected too.
        let threshold_new = config
            .purge_blocks
            .then(|| threshold_from_cards(blocks.cards(), config.purge_smoothing));
        let mut affected_tokens = touched.clone();
        if let (Some(prev), Some(new)) = (threshold_prev, threshold_new) {
            if prev != new {
                let (lo, hi) = (prev.min(new), prev.max(new));
                for t in 0..blocks.token_count() as u32 {
                    let t = TokenId(t);
                    if let Some((c, _)) = blocks.card(t) {
                        if lo < c && c <= hi {
                            affected_tokens.insert(t);
                        }
                    }
                }
            }
        }
        let mut affected: FxHashSet<EntityId> = dirty[0].clone();
        for &t in &affected_tokens {
            affected.extend(blocks.members(KbSide::First, t).iter().copied());
        }
        let mut affected: Vec<EntityId> = affected.into_iter().collect();
        affected.sort_unstable();
        cancel.checkpoint()?;

        // Canonical token order: lexicographic by string, the order
        // `token_blocking_with` emits blocks in. Token ids differ
        // between this (appended) dictionary and a rebuild's
        // (first-seen) one; the string order is what both agree on.
        let dict = self.tokens.dict();
        let mut lex: Vec<TokenId> = (0..dict.len() as u32).map(TokenId).collect();
        lex.sort_unstable_by(|&a, &b| dict.token(a).cmp(dict.token(b)));

        let n1 = self.pair.first.entity_count();
        let n2 = self.pair.second.entity_count();
        let token_blocks = blocks.materialize(BlockKind::Token, &lex, threshold_new, n1, n2);
        cancel.checkpoint()?;

        // Recompute exactly the affected rows, with the kernel a full
        // build over `token_blocks` would run for them.
        let mut new_rows = value_rows(
            &token_blocks,
            &self.tokens,
            affected.len(),
            |i| affected[i],
            exec,
        );
        cancel.checkpoint()?;

        // Splice recomputed rows over the retained ones and re-derive
        // everything downstream of `value_firsts` with the same code a
        // full build runs.
        let old = self.index.value_csr(KbSide::First);
        let mut rows: Vec<Vec<Candidate>> = Vec::with_capacity(n1);
        let mut next = 0usize;
        for e in 0..n1 {
            if next < affected.len() && affected[next].index() == e {
                rows.push(std::mem::take(&mut new_rows[next]));
                next += 1;
            } else if e < old.rows() {
                rows.push(old.row(e).to_vec());
            } else {
                // New entities are always dirty, hence affected.
                unreachable!("appended entity {e} missing from the affected set");
            }
        }
        let tn1 = top_neighbors_with(
            &self.pair.first,
            config.top_relations_n,
            config.max_top_neighbors,
            exec,
        );
        cancel.checkpoint()?;
        let tn2 = top_neighbors_with(
            &self.pair.second,
            config.top_relations_n,
            config.max_top_neighbors,
            exec,
        );
        cancel.checkpoint()?;
        let index =
            SimilarityIndex::derive_from_value_firsts(Csr::from_rows(rows), n2, [&tn1, &tn2], exec);
        cancel.checkpoint()?;

        // Names, name blocking and the H1–H4 phase are linear stages;
        // re-running them whole through the shared functions keeps the
        // decision path literally identical to a rebuild's.
        let names1 = entity_names_with(&self.pair.first, config.name_attrs_k, exec);
        cancel.checkpoint()?;
        let names2 = entity_names_with(&self.pair.second, config.name_attrs_k, exec);
        cancel.checkpoint()?;
        let (name_blocks, _) = name_blocking_with(&names1, &names2, exec);
        let smaller = self.pair.smaller_side();
        let n_smaller = self.pair.kb(smaller).entity_count();
        let phase = matching_phase(
            &name_blocks,
            &index,
            smaller,
            n_smaller,
            &config,
            exec,
            cancel,
        )?;

        // Commit. Everything above this point only touched the KB/token
        // splice (which a discarded artifact never persists).
        self.name_blocks = name_blocks;
        self.token_blocks = token_blocks;
        self.index = index;
        self.matching = phase.matching;
        self.meta.entity_counts = [n1 as u64, n2 as u64];
        self.meta.token_count = self.tokens.dict().len() as u64;
        self.meta.name_block_count = self.name_blocks.len() as u64;
        self.meta.token_block_count = self.token_blocks.len() as u64;
        self.meta.value_pair_count = self.index.pair_count() as u64;
        self.meta.neighbor_pair_count = self.index.neighbor_pair_count() as u64;
        self.meta.matched_pairs = self.matching.len() as u64;
        self.meta.content_version += 1;
        Ok(DeltaReport {
            ops_applied,
            ops_noop,
            affected_rows: affected.len(),
            touched_tokens: touched.len(),
            h1_matches: phase.h1_matches,
            h2_matches: phase.h2_matches,
            h3_matches: phase.h3_matches,
            h4_removed: phase.h4_removed,
            matched_pairs: self.matching.len(),
            content_version: self.meta.content_version,
        })
    }

    /// Persists a patched artifact atomically: the [`PATCH_FAULT_SITE`]
    /// fault point fires first (so chaos runs crash *before* any bytes
    /// move), then the container writes to a temp file and renames — a
    /// reader never observes a torn artifact, only fully old or fully
    /// new.
    pub fn persist_patch(&mut self, path: &Path) -> io::Result<u64> {
        faults::point(PATCH_FAULT_SITE)?;
        let bytes = self.write_to(path)?;
        self.meta.file_bytes = bytes;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinoanConfig;
    use crate::pipeline::MinoanEr;
    use minoan_kb::{KbBuilder, KbPair, Object};

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
                patched.index().value_csr(side),
                reference.index().value_csr(side),
                "value CSR differs on {side:?}"
            );
            assert_eq!(
                patched.index().neighbor_csr(side),
                reference.index().neighbor_csr(side),
                "neighbor CSR differs on {side:?}"
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
        let op = vec![upsert(
            KbSide::First,
            "a:r0",
            &[("name", Object::Literal("Kri Kri Taverna Anew".into()))],
        )];
        artifact
            .apply_delta(&op, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(artifact.meta().content_version, 2);
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

    /// An index built when a third backend existed says
    /// `"executor":"rayon"` in its meta section for as long as the file
    /// lives; it must keep loading and patching like any other.
    #[test]
    fn a_legacy_rayon_artifact_patches_like_its_pool_twin() {
        let pair = sample_pair();
        let mut pool = build_artifact(&pair);
        let mut legacy = build_artifact(&pair);
        assert!(legacy.meta.config_json.contains(r#""executor":"pool""#));
        legacy.meta.config_json = legacy
            .meta
            .config_json
            .replace(r#""executor":"pool""#, r#""executor":"rayon""#);
        let mut legacy = through_disk(&legacy, "legacy");
        assert!(legacy.meta().config_json.contains("rayon"));
        assert_eq!(legacy.config, pool.config);
        let ops = mixed_ops();
        for artifact in [&mut pool, &mut legacy] {
            artifact
                .apply_delta(&ops, &Executor::pool(), &CancelToken::new())
                .unwrap();
        }
        assert_bit_identical(&legacy, &pool);
        assert_bit_identical(&legacy, &rebuild(&pair, &ops));
    }
}
