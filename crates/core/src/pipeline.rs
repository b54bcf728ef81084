//! The non-iterative MinoanER matching pipeline.
//!
//! `M(ei, ej) = (H1 ∨ H2 ∨ H3) ∧ H4` over the pruned disjunctive
//! blocking graph (paper Definition 1). Every similarity is computed
//! once, from blocks; no matching decision is ever revisited.

use std::time::{Duration, Instant};

use minoan_blocking::{
    name_blocking_with, purge_with_exec, token_blocking_with, BlockCollection, PurgeReport,
};
use minoan_exec::{CancelToken, Cancelled, Executor};
use minoan_kb::{EntityId, FxHashSet, KbPair, KbSide, Matching};
use minoan_text::{TokenizedPair, Tokenizer};

use crate::config::MinoanConfig;
use crate::heuristics::{
    h1_name_matches, h2_value_matches_with, h3_rank_matches_with, h4_reciprocal_batch,
};
use crate::importance::{entity_names_with, top_neighbors_with};
use crate::simindex::SimilarityIndex;

/// Per-stage counters and timings of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Matches contributed by H1 (names).
    pub h1_matches: usize,
    /// Matches contributed by H2 (strong value similarity).
    pub h2_matches: usize,
    /// Matches contributed by H3 (rank aggregation).
    pub h3_matches: usize,
    /// Pairs discarded by H4 (reciprocity).
    pub h4_removed: usize,
    /// Name blocks (`|BN|`).
    pub name_blocks: usize,
    /// Name-block comparisons (`||BN||`).
    pub name_comparisons: u64,
    /// Token blocks after purging (`|BT|`).
    pub token_blocks: usize,
    /// Token-block comparisons after purging (`||BT||`).
    pub token_comparisons: u64,
    /// The Block Purging report, if purging ran.
    pub purge: Option<PurgeReport>,
    /// Wall-clock time per stage.
    pub timings: Timings,
}

/// Wall-clock stage timings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timings {
    /// Tokenization of both KBs.
    pub tokenize: Duration,
    /// H1 alone (the unique-name scan over the finished name blocks).
    /// Name extraction and name blocking are clocked inside `blocking`.
    pub names_h1: Duration,
    /// Everything else [`build_blocks_cancellable`] does: name extraction
    /// for both KBs, name blocking, token blocking and purging.
    pub blocking: Duration,
    /// Both top-neighbor passes + similarity-index construction.
    pub similarities: Duration,
    /// H2 + H3 + H4.
    pub matching: Duration,
}

impl Timings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.tokenize + self.names_h1 + self.blocking + self.similarities + self.matching
    }
}

/// The result of a pipeline run.
#[derive(Debug, Clone)]
pub struct MatchOutput {
    /// The final matching (after H4).
    pub matching: Matching,
    /// Stage counters and timings.
    pub report: PipelineReport,
}

/// A pipeline run handed back whole: the matching plus every structure
/// it was decided from — the tokenized pair, both block collections and
/// the similarity index. Produced by
/// [`MinoanEr::run_cancellable_indexed`]; the `output` field is exactly
/// what [`MinoanEr::run_cancellable`] would have returned for the same
/// inputs, so persisting an index never perturbs the matching. A
/// persistent index ([`crate::IndexArtifact::from_run`]) keeps the
/// matching and the value candidates and only *counts* the rest.
pub struct IndexedOutput {
    /// The final matching and stage report.
    pub output: MatchOutput,
    /// Tokenization and blocking intermediates.
    pub artifacts: BlockingArtifacts,
    /// The similarity index the heuristics ran against.
    pub index: SimilarityIndex,
}

/// Intermediate artifacts of the pipeline, exposed for the benchmark
/// harness (Table II needs the block collections, BSL consumes the same
/// `BN ∪ BT` input as MinoanER).
pub struct BlockingArtifacts {
    /// The tokenized pair with the shared dictionary.
    pub tokens: TokenizedPair,
    /// Name blocks `BN`.
    pub name_blocks: BlockCollection,
    /// Token blocks `BT` (purged when the config says so).
    pub token_blocks: BlockCollection,
    /// The purge report, if purging ran.
    pub purge: Option<PurgeReport>,
    /// Extracted entity names per side.
    pub names: [Vec<Vec<String>>; 2],
    /// Wall-clock time spent tokenizing both KBs, measured separately so
    /// the pipeline can report it apart from blocking proper.
    pub tokenize_time: Duration,
}

/// A debug-level span around a pipeline stage or one of its passes;
/// stage timings for the report are measured by their own `Instant`
/// clocks, so observation and measurement never share state.
pub(crate) fn stage_span(name: &'static str) -> minoan_obs::trace::Span {
    minoan_obs::trace::span(minoan_obs::Level::Debug, name, String::new)
}

/// Builds the schema-agnostic blocking input (`BN`, `BT`) for a pair,
/// running the block construction and purging statistics on the
/// executor selected by `config`.
pub fn build_blocks(pair: &KbPair, config: &MinoanConfig) -> BlockingArtifacts {
    build_blocks_with(pair, config, &config.executor())
}

/// Like [`build_blocks`], but borrowing `exec` instead of constructing
/// one from the config: the serving layer schedules many concurrent
/// pipeline runs and owns the thread policy (how many workers each job
/// gets), so the pipeline itself must be re-entrant with respect to the
/// executor. The executor fields of `config` are ignored.
pub fn build_blocks_with(
    pair: &KbPair,
    config: &MinoanConfig,
    exec: &Executor,
) -> BlockingArtifacts {
    build_blocks_cancellable(pair, config, exec, &CancelToken::new())
        .expect("a fresh token is never cancelled")
}

/// Like [`build_blocks_with`], but observing `cancel` at cooperative
/// checkpoints **between executor waves** (tokenization, name
/// extraction per side, name blocking, token blocking, purging) — and,
/// on the pool backend, between the quantum-bounded tasks *inside* each
/// wave. A cancelled build unwinds with [`Cancelled`] within one task
/// quantum of work and leaves no partial artifacts behind.
pub fn build_blocks_cancellable(
    pair: &KbPair,
    config: &MinoanConfig,
    exec: &Executor,
    cancel: &CancelToken,
) -> Result<BlockingArtifacts, Cancelled> {
    // Hand the token to the executor so pool waves can abort mid-wave;
    // `catch_cancel` folds that unwind into the same `Err(Cancelled)`
    // the between-wave checkpoints produce.
    let exec = &exec.clone().with_cancel(cancel.clone());
    minoan_exec::catch_cancel(|| {
        let tokenizer = Tokenizer::default();
        cancel.checkpoint()?;
        let t_tok = Instant::now();
        let tokens = {
            let _s = stage_span("stage.tokenize");
            TokenizedPair::build_with(pair, &tokenizer, exec)
        };
        let tokenize_time = t_tok.elapsed();
        cancel.checkpoint()?;
        let (names1, names2) = {
            let _s = stage_span("stage.names");
            let names1 = entity_names_with(&pair.first, config.name_attrs_k, exec);
            cancel.checkpoint()?;
            let names2 = entity_names_with(&pair.second, config.name_attrs_k, exec);
            (names1, names2)
        };
        cancel.checkpoint()?;
        let (bn, _) = {
            let _s = stage_span("stage.name_blocking");
            name_blocking_with(&names1, &names2, exec)
        };
        cancel.checkpoint()?;
        let bt_raw = {
            let _s = stage_span("stage.token_blocking");
            token_blocking_with(&tokens, exec)
        };
        let (bt, purge) = if config.purge_blocks {
            cancel.checkpoint()?;
            let _s = stage_span("stage.purge");
            let (purged, report) = purge_with_exec(&bt_raw, config.purge_smoothing, exec);
            (purged, Some(report))
        } else {
            (bt_raw, None)
        };
        Ok(BlockingArtifacts {
            tokens,
            name_blocks: bn,
            token_blocks: bt,
            purge,
            names: [names1, names2],
            tokenize_time,
        })
    })
}

/// Outcome of the H1–H4 matching phase.
struct MatchingPhase {
    /// The final matching (after H4).
    matching: Matching,
    /// Matches contributed by H1.
    h1_matches: usize,
    /// Matches contributed by H2.
    h2_matches: usize,
    /// Matches contributed by H3.
    h3_matches: usize,
    /// Pairs discarded by H4.
    h4_removed: usize,
    /// Wall-clock time of H1.
    names_h1: Duration,
    /// Wall-clock time of H2 + H3 + H4.
    matching_time: Duration,
}

/// `(H1 ∨ H2 ∨ H3) ∧ H4` over a similarity index and name blocks.
/// Insertion order (H1, then H2, then H3; H4 retains in that order) is
/// part of the contract: `Matching` iterates in insertion order and
/// the persisted fingerprint hashes that order.
fn matching_phase(
    name_blocks: &BlockCollection,
    idx: &SimilarityIndex,
    smaller: KbSide,
    n_smaller: usize,
    config: &MinoanConfig,
    exec: &Executor,
    cancel: &CancelToken,
) -> Result<MatchingPhase, Cancelled> {
    // H1: unique-name matches.
    let t0 = Instant::now();
    let h1 = h1_name_matches(name_blocks);
    let names_h1 = t0.elapsed();

    let mut matched: [FxHashSet<EntityId>; 2] = [FxHashSet::default(), FxHashSet::default()];
    let mut matching = Matching::new();
    for &(e1, e2) in &h1 {
        matching.insert(e1, e2);
        matched[0].insert(e1);
        matched[1].insert(e2);
    }

    // H2 on the smaller KB.
    cancel.checkpoint()?;
    let t0 = Instant::now();
    let h2 = h2_value_matches_with(idx, smaller, n_smaller, [&matched[0], &matched[1]], exec);
    for &(e1, e2) in &h2 {
        matching.insert(e1, e2);
        matched[0].insert(e1);
        matched[1].insert(e2);
    }

    // H3 on what is left.
    cancel.checkpoint()?;
    let h3 = h3_rank_matches_with(
        idx,
        smaller,
        n_smaller,
        config.candidates_k,
        config.theta,
        [&matched[0], &matched[1]],
        exec,
    );
    for &(e1, e2) in &h3 {
        matching.insert(e1, e2);
    }

    // H4: reciprocity filter over everything — evaluated in parallel
    // (pure reads over the index), applied in insertion order.
    cancel.checkpoint()?;
    let before = matching.len();
    let pairs: Vec<(EntityId, EntityId)> = matching.iter().collect();
    let keep = h4_reciprocal_batch(idx, config.candidates_k, &pairs, exec);
    let mut keep_flags = keep.iter();
    matching.retain(|_, _| *keep_flags.next().expect("one flag per pair"));
    let h4_removed = before - matching.len();
    Ok(MatchingPhase {
        h1_matches: h1.len(),
        h2_matches: h2.len(),
        h3_matches: h3.len(),
        h4_removed,
        matching,
        names_h1,
        matching_time: t0.elapsed(),
    })
}

/// The MinoanER matcher.
#[derive(Debug, Clone, Default)]
pub struct MinoanEr {
    config: MinoanConfig,
}

impl MinoanEr {
    /// Creates a matcher, validating the configuration.
    pub fn new(config: MinoanConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Creates a matcher with the paper's default parameters.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &MinoanConfig {
        &self.config
    }

    /// Resolves `pair`, returning the matching and a stage report.
    pub fn run(&self, pair: &KbPair) -> MatchOutput {
        self.run_with(pair, &self.config.executor())
    }

    /// Like [`MinoanEr::run`], but borrowing `exec` instead of building
    /// one from the config. This is the re-entrant entry point the
    /// serving layer uses: many jobs share one process, each handed an
    /// executor sized by the fleet scheduler, while the matching
    /// parameters still come from this matcher's config. Results are
    /// bit-identical across executors and thread counts.
    pub fn run_with(&self, pair: &KbPair, exec: &Executor) -> MatchOutput {
        self.run_cancellable(pair, exec, &CancelToken::new())
            .expect("a fresh token is never cancelled")
    }

    /// Like [`MinoanEr::run_with`], but observing `cancel` at
    /// cooperative checkpoints **between executor waves**: after every
    /// blocking stage (see [`build_blocks_cancellable`]), after H1,
    /// between the top-neighbor passes, after the similarity-index
    /// build, and between each of the H2 / H3 / H4 scans. On the pool
    /// backend the token is additionally observed between the
    /// quantum-bounded tasks *inside* each wave, so cancellation latency
    /// is one task quantum rather than one unbounded wave; either way a
    /// cancelled run unwinds with [`Cancelled`], produces no partial
    /// matching, and never merges a torn wave — the job's wave workers
    /// are all joined by the time the error propagates. This is what
    /// makes mid-job cancellation in the serving layer safe.
    pub fn run_cancellable(
        &self,
        pair: &KbPair,
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<MatchOutput, Cancelled> {
        // As in `build_blocks_cancellable`: pool waves observe the token
        // between task quanta and abort by unwinding; fold that unwind
        // into the checkpoint error here at the stage boundary.
        let exec = &exec.clone().with_cancel(cancel.clone());
        minoan_exec::catch_cancel(|| {
            self.run_cancellable_inner(pair, exec, cancel)
                .map(|indexed| indexed.output)
        })
    }

    /// Like [`MinoanEr::run_cancellable`], but returning the
    /// [`IndexedOutput`] that keeps the tokenized pair, block
    /// collections and similarity index alive for the caller — an index
    /// build, or a harness inspecting them. This is the same code path
    /// as `run_cancellable` — the matching is bit-identical; only what
    /// survives the run differs.
    pub fn run_cancellable_indexed(
        &self,
        pair: &KbPair,
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<IndexedOutput, Cancelled> {
        let exec = &exec.clone().with_cancel(cancel.clone());
        minoan_exec::catch_cancel(|| self.run_cancellable_inner(pair, exec, cancel))
    }

    fn run_cancellable_inner(
        &self,
        pair: &KbPair,
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<IndexedOutput, Cancelled> {
        let mut report = PipelineReport::default();

        // Tokenize + block. `build_blocks_cancellable` measures
        // tokenization on its own clock, so blocking time excludes it.
        let t0 = Instant::now();
        let artifacts = build_blocks_cancellable(pair, &self.config, exec, cancel)?;
        report.timings.tokenize = artifacts.tokenize_time;
        report.timings.blocking = t0.elapsed().saturating_sub(artifacts.tokenize_time);
        report.name_blocks = artifacts.name_blocks.len();
        report.name_comparisons = artifacts.name_blocks.total_comparisons();
        report.token_blocks = artifacts.token_blocks.len();
        report.token_comparisons = artifacts.token_blocks.total_comparisons();
        report.purge = artifacts.purge.clone();

        // Similarity index over the purged token blocks.
        cancel.checkpoint()?;
        let t0 = Instant::now();
        let sim_span = stage_span("stage.similarities");
        let tn1 = top_neighbors_with(
            &pair.first,
            self.config.top_relations_n,
            self.config.max_top_neighbors,
            exec,
        );
        cancel.checkpoint()?;
        let tn2 = top_neighbors_with(
            &pair.second,
            self.config.top_relations_n,
            self.config.max_top_neighbors,
            exec,
        );
        cancel.checkpoint()?;
        let idx = SimilarityIndex::build_with(
            &artifacts.token_blocks,
            &artifacts.tokens,
            [&tn1, &tn2],
            exec,
        );
        report.timings.similarities = t0.elapsed();
        drop(sim_span);

        // H1 ∨ H2 ∨ H3, then the H4 reciprocity filter.
        let smaller = pair.smaller_side();
        let n_smaller = pair.kb(smaller).entity_count();
        let match_span = stage_span("stage.matching");
        let phase = matching_phase(
            &artifacts.name_blocks,
            &idx,
            smaller,
            n_smaller,
            &self.config,
            exec,
            cancel,
        )?;
        drop(match_span);
        report.h1_matches = phase.h1_matches;
        report.h2_matches = phase.h2_matches;
        report.h3_matches = phase.h3_matches;
        report.h4_removed = phase.h4_removed;
        report.timings.names_h1 = phase.names_h1;
        report.timings.matching = phase.matching_time;

        Ok(IndexedOutput {
            output: MatchOutput {
                matching: phase.matching,
                report,
            },
            artifacts,
            index: idx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_kb::KbBuilder;

    /// Two restaurant-style KBs with names, values and an address
    /// relation; r0/r1/r2 match their counterparts.
    fn restaurant_pair() -> KbPair {
        let mut a = KbBuilder::new("E1");
        for (i, (name, street)) in [
            ("Kri Kri Taverna", "12 Minos Avenue"),
            ("Labyrinth Grill", "3 Ariadne Street"),
            ("Phaistos Disk Cafe", "77 Festos Road"),
        ]
        .iter()
        .enumerate()
        {
            let r = format!("a:r{i}");
            a.add_literal(&r, "name", name);
            a.add_literal(&r, "cuisine", "greek traditional");
            a.add_uri(&r, "address", &format!("a:addr{i}"));
            a.add_literal(&format!("a:addr{i}"), "street", street);
        }
        let mut b = KbBuilder::new("E2");
        for (i, (name, street)) in [
            ("Kri Kri Taverna", "12 Minos Ave"),
            ("Labyrinth Grill", "3 Ariadne St"),
            ("Phaistos Disk Cafe", "77 Festos Rd"),
        ]
        .iter()
        .enumerate()
        {
            let r = format!("b:r{i}");
            b.add_literal(&r, "title", name);
            b.add_literal(&r, "category", "restaurant");
            b.add_uri(&r, "location", &format!("b:addr{i}"));
            b.add_literal(&format!("b:addr{i}"), "street", street);
        }
        KbPair::new(a.finish(), b.finish())
    }

    #[test]
    fn end_to_end_resolves_identical_names() {
        let pair = restaurant_pair();
        let out = MinoanEr::with_defaults().run(&pair);
        // All three restaurants match their counterparts.
        for i in 0..3u32 {
            let e1 = pair.first.entity_by_uri(&format!("a:r{i}")).unwrap();
            let e2 = pair.second.entity_by_uri(&format!("b:r{i}")).unwrap();
            assert!(
                out.matching.contains(e1, e2),
                "restaurant {i} not matched; got {:?}",
                out.matching.iter().collect::<Vec<_>>()
            );
        }
        assert!(out.report.h1_matches >= 3, "names should drive H1");
    }

    #[test]
    fn report_counts_are_consistent() {
        let pair = restaurant_pair();
        let out = MinoanEr::with_defaults().run(&pair);
        let r = &out.report;
        assert_eq!(
            out.matching.len() + r.h4_removed,
            r.h1_matches + r.h2_matches + r.h3_matches
        );
        assert!(r.token_blocks > 0);
        assert!(r.name_blocks > 0);
        assert!(r.purge.is_some());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let c = MinoanConfig {
            theta: 2.0,
            ..MinoanConfig::default()
        };
        assert!(MinoanEr::new(c).is_err());
    }

    #[test]
    fn empty_pair_produces_empty_matching() {
        let pair = KbPair::new(KbBuilder::new("x").finish(), KbBuilder::new("y").finish());
        let out = MinoanEr::with_defaults().run(&pair);
        assert!(out.matching.is_empty());
        assert_eq!(out.report.h1_matches, 0);
    }

    #[test]
    fn kb_without_relations_still_matches_on_values() {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:0", "name", "unique zanzibar artifact");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:0", "label", "unique zanzibar artifact museum");
        let pair = KbPair::new(a.finish(), b.finish());
        let out = MinoanEr::with_defaults().run(&pair);
        let e1 = pair.first.entity_by_uri("a:0").unwrap();
        let e2 = pair.second.entity_by_uri("b:0").unwrap();
        assert!(out.matching.contains(e1, e2));
    }

    #[test]
    fn tokenize_time_is_reported_separately_from_blocking() {
        let pair = restaurant_pair();
        let out = MinoanEr::with_defaults().run(&pair);
        let t = &out.report.timings;
        // Tokenization of a non-empty pair takes measurable time and is
        // no longer folded into the blocking stage.
        assert!(t.tokenize > Duration::ZERO, "tokenize must be measured");
        assert!(t.total() >= t.tokenize + t.blocking);
        let art = build_blocks(&pair, &MinoanConfig::default());
        assert!(art.tokenize_time > Duration::ZERO);
    }

    #[test]
    fn sequential_and_parallel_executors_agree() {
        let pair = restaurant_pair();
        let seq_cfg = MinoanConfig {
            executor: minoan_exec::ExecutorKind::Sequential,
            ..MinoanConfig::default()
        };
        let seq = MinoanEr::new(seq_cfg).unwrap().run(&pair);
        for threads in [2, 5] {
            let par_cfg = MinoanConfig {
                executor: minoan_exec::ExecutorKind::Pool,
                threads,
                ..MinoanConfig::default()
            };
            let par = MinoanEr::new(par_cfg).unwrap().run(&pair);
            assert_eq!(
                seq.matching.iter().collect::<Vec<_>>(),
                par.matching.iter().collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn purging_can_be_disabled() {
        let pair = restaurant_pair();
        let c = MinoanConfig {
            purge_blocks: false,
            ..MinoanConfig::default()
        };
        let out = MinoanEr::new(c).unwrap().run(&pair);
        assert!(out.report.purge.is_none());
        assert!(!out.matching.is_empty());
    }

    #[test]
    fn build_blocks_exposes_bn_and_bt() {
        let pair = restaurant_pair();
        let art = build_blocks(&pair, &MinoanConfig::default());
        assert!(art.name_blocks.len() >= 3);
        assert!(art.token_blocks.len() > art.name_blocks.len());
        assert_eq!(art.names[0].len(), pair.first.entity_count());
        assert_eq!(art.names[1].len(), pair.second.entity_count());
    }

    #[test]
    fn pre_cancelled_run_unwinds_before_doing_work() {
        let pair = restaurant_pair();
        let cancel = CancelToken::new();
        cancel.cancel();
        let exec = Executor::sequential();
        let matcher = MinoanEr::with_defaults();
        assert!(matches!(
            matcher.run_cancellable(&pair, &exec, &cancel),
            Err(Cancelled)
        ));
        assert!(build_blocks_cancellable(&pair, matcher.config(), &exec, &cancel).is_err());
    }

    #[test]
    fn uncancelled_run_cancellable_matches_run_with() {
        let pair = restaurant_pair();
        let matcher = MinoanEr::with_defaults();
        let exec = Executor::sequential();
        let plain = matcher.run_with(&pair, &exec);
        let cancellable = matcher
            .run_cancellable(&pair, &exec, &CancelToken::new())
            .unwrap();
        assert_eq!(
            plain.matching.iter().collect::<Vec<_>>(),
            cancellable.matching.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn mid_run_cancel_from_another_thread_is_observed() {
        // Cancel while runs are in flight: every run either completes
        // (cancel arrived after its last checkpoint) or unwinds with
        // `Cancelled` — it never panics or hangs.
        let pair = restaurant_pair();
        let matcher = MinoanEr::with_defaults();
        let cancel = CancelToken::new();
        let exec = Executor::sequential();
        let saw_cancelled = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| loop {
                // Terminates: once the token flips, the next run fails
                // at its first checkpoint.
                if matcher.run_cancellable(&pair, &exec, &cancel).is_err() {
                    saw_cancelled.store(true, std::sync::atomic::Ordering::SeqCst);
                    break;
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            cancel.cancel();
        });
        assert!(
            saw_cancelled.load(std::sync::atomic::Ordering::SeqCst),
            "a run after the cancel must observe a checkpoint"
        );
    }

    #[test]
    fn h3_contributes_when_values_are_weak_but_neighbors_strong() {
        // Movies share only a weak title token; their actors match
        // strongly. H3's neighbor evidence must link the movies.
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:m", "title", "the film");
        a.add_uri("a:m", "starring", "a:p");
        a.add_literal("a:p", "name", "melina mercouri unique");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:m", "label", "film");
        b.add_uri("b:m", "actor", "b:p");
        b.add_literal("b:p", "fullname", "unique melina mercouri");
        let pair = KbPair::new(a.finish(), b.finish());
        let out = MinoanEr::with_defaults().run(&pair);
        let m1 = pair.first.entity_by_uri("a:m").unwrap();
        let m2 = pair.second.entity_by_uri("b:m").unwrap();
        assert!(out.matching.contains(m1, m2));
    }
}
