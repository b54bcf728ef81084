//! The non-iterative MinoanER matching pipeline.
//!
//! `M(ei, ej) = (H1 ∨ H2 ∨ H3) ∧ H4` over the pruned disjunctive
//! blocking graph (paper Definition 1). Every similarity is computed
//! once, from blocks; no matching decision is ever revisited.

use std::time::Duration;

use minoan_blocking::{
    name_blocking_with, purge_with_exec, token_blocking_with, BlockCollection, PurgeReport,
};
use minoan_exec::{CancelToken, Cancelled, Executor};
use minoan_kb::{EntityId, FxHashSet, Json, KbPair, KbSide, Matching};
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

/// Wall-clock stage timings, each read off its stage's span (see
/// [`Timings::LABELS`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timings {
    /// `stage.tokenize`: tokenization of both KBs.
    pub tokenize: Duration,
    /// `stage.h1`: H1, the unique-name scan over the finished name
    /// blocks, seeding the matching.
    pub names_h1: Duration,
    /// `stage.blocking`: everything else [`build_blocks`] does — name
    /// extraction for both KBs, name blocking, token blocking and
    /// purging.
    pub blocking: Duration,
    /// `stage.similarities`: both top-neighbor passes + similarity-index
    /// construction.
    pub similarities: Duration,
    /// `stage.matching`: H2 + H3 + H4.
    pub matching: Duration,
}

impl Timings {
    /// The stage table: one label per field, in the order every
    /// consumer uses — the keys of the `timings_ms`-style JSON objects,
    /// the Prometheus `stage` label values, and the order of the five
    /// durations in an index's meta section.
    pub const LABELS: [&'static str; 5] = [
        "tokenize",
        "names_h1",
        "blocking",
        "similarities",
        "matching",
    ];

    /// The durations in [`Timings::LABELS`] order.
    pub fn durations(&self) -> [Duration; 5] {
        [
            self.tokenize,
            self.names_h1,
            self.blocking,
            self.similarities,
            self.matching,
        ]
    }

    /// The inverse of [`Timings::durations`].
    pub fn from_durations(
        [tokenize, names_h1, blocking, similarities, matching]: [Duration; 5],
    ) -> Self {
        Timings {
            tokenize,
            names_h1,
            blocking,
            similarities,
            matching,
        }
    }

    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.durations().iter().sum()
    }

    /// The table as a JSON object of milliseconds, one member per
    /// label plus `total`: a job report's `timings_ms` and an index's
    /// `build_timings_ms`.
    pub fn to_json_ms(&self) -> Json {
        let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
        Json::obj(
            Self::LABELS
                .into_iter()
                .zip(self.durations().map(ms))
                .chain([("total", ms(self.total()))]),
        )
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
/// what [`MinoanEr::run_with`] returns for the same inputs, so
/// persisting an index never perturbs the matching. A
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

/// Intermediate artifacts of the pipeline, exposed for the paper's
/// table tests (Table II needs the block collections, BSL consumes the
/// same `BN ∪ BT` input as MinoanER).
pub struct BlockingArtifacts {
    /// The tokenized pair with the shared dictionary.
    pub tokens: TokenizedPair,
    /// Name blocks `BN`.
    pub name_blocks: BlockCollection,
    /// Token blocks `BT` (purged when the config says so).
    pub token_blocks: BlockCollection,
    /// The purge report, if purging ran.
    pub purge: Option<PurgeReport>,
}

/// A debug-level span around a pipeline stage or one of its passes.
/// The five stage spans are also the stages' only clocks: closing one
/// ([`minoan_obs::trace::Span::close`]) yields its [`Timings`] field.
pub(crate) fn stage_span(name: &'static str) -> minoan_obs::trace::Span {
    minoan_obs::trace::span(minoan_obs::Level::Debug, name, String::new)
}

/// Builds the schema-agnostic blocking input (`BN`, `BT`) for a pair,
/// running tokenization, name extraction, name blocking, token blocking
/// and purging on `exec`. The serving layer schedules many concurrent
/// pipeline runs and owns the thread policy (how many workers each job
/// gets), so the executor is borrowed. A cancel token on `exec` stops
/// the build at its next wave (see [`minoan_exec::cancel`]).
pub fn build_blocks(pair: &KbPair, config: &MinoanConfig, exec: &Executor) -> BlockingArtifacts {
    build_blocks_timed(pair, config, exec, &mut Timings::default())
}

/// [`build_blocks`], setting `timings.tokenize` and `timings.blocking`
/// from the `stage.tokenize` and `stage.blocking` spans.
fn build_blocks_timed(
    pair: &KbPair,
    config: &MinoanConfig,
    exec: &Executor,
    timings: &mut Timings,
) -> BlockingArtifacts {
    let span = stage_span("stage.tokenize");
    let tokens = TokenizedPair::build_with(pair, &Tokenizer::default(), exec);
    timings.tokenize = span.close();

    let span = stage_span("stage.blocking");
    // The names live only as long as name blocking reads them.
    let (bn, _) = {
        let names = {
            let _s = stage_span("stage.names");
            [&pair.first, &pair.second].map(|kb| entity_names_with(kb, config.name_attrs_k, exec))
        };
        let _s = stage_span("stage.name_blocking");
        name_blocking_with(&names[0], &names[1], exec)
    };
    let bt_raw = {
        let _s = stage_span("stage.token_blocking");
        token_blocking_with(&tokens, exec)
    };
    let (bt, purge) = if config.purge_blocks {
        let _s = stage_span("stage.purge");
        let (purged, report) = purge_with_exec(&bt_raw, config.purge_smoothing, exec);
        (purged, Some(report))
    } else {
        (bt_raw, None)
    };
    timings.blocking = span.close();
    BlockingArtifacts {
        tokens,
        name_blocks: bn,
        token_blocks: bt,
        purge,
    }
}

/// `(H1 ∨ H2 ∨ H3) ∧ H4` over a similarity index and name blocks,
/// filling `report`'s H1–H4 counters and its `names_h1` and `matching`
/// timings. Insertion order (H1, then H2, then H3; H4 retains in that
/// order) is part of the contract: `Matching` iterates in insertion
/// order and the persisted fingerprint hashes that order.
fn matching_phase(
    name_blocks: &BlockCollection,
    idx: &SimilarityIndex,
    smaller: KbSide,
    n_smaller: usize,
    config: &MinoanConfig,
    exec: &Executor,
    report: &mut PipelineReport,
) -> Matching {
    // H1: unique-name matches.
    let span = stage_span("stage.h1");
    let h1 = h1_name_matches(name_blocks);
    let mut matched: [FxHashSet<EntityId>; 2] = [FxHashSet::default(), FxHashSet::default()];
    let mut matching = Matching::new();
    for &(e1, e2) in &h1 {
        matching.insert(e1, e2);
        matched[0].insert(e1);
        matched[1].insert(e2);
    }
    report.timings.names_h1 = span.close();

    // H2 on the smaller KB.
    let span = stage_span("stage.matching");
    let h2 = h2_value_matches_with(idx, smaller, n_smaller, [&matched[0], &matched[1]], exec);
    for &(e1, e2) in &h2 {
        matching.insert(e1, e2);
        matched[0].insert(e1);
        matched[1].insert(e2);
    }

    // H3 on what is left.
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
    let before = matching.len();
    let pairs: Vec<(EntityId, EntityId)> = matching.iter().collect();
    let keep = h4_reciprocal_batch(idx, config.candidates_k, &pairs, exec);
    let mut keep_flags = keep.iter();
    matching.retain(|_, _| *keep_flags.next().expect("one flag per pair"));
    minoan_obs::debug!(
        "simindex.tail_reads",
        "{} candidate reads ran past the ranked prefix",
        idx.tail_reads()
    );
    report.timings.matching = span.close();
    report.h1_matches = h1.len();
    report.h2_matches = h2.len();
    report.h3_matches = h3.len();
    report.h4_removed = before - matching.len();
    matching
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

    /// Resolves `pair` on `exec`, returning the matching and a stage
    /// report. The executor is borrowed: the serving layer runs many
    /// jobs in one process, each handed an executor sized by the fleet
    /// scheduler, while the matching parameters come from this
    /// matcher's config.
    /// Results are bit-identical across executors and thread counts.
    ///
    /// A cancel token on `exec` is observed at every wave start and,
    /// on the pool backend, between the quantum-bounded tasks inside a
    /// wave; once it fires the run unwinds with [`Cancelled`], produces
    /// no partial matching, and never merges a torn wave. Catch it at
    /// the job boundary, or use [`MinoanEr::run_cancellable_indexed`].
    pub fn run_with(&self, pair: &KbPair, exec: &Executor) -> MatchOutput {
        self.run_indexed(pair, exec).output
    }

    /// Like [`MinoanEr::run_with`], but returning the [`IndexedOutput`]
    /// that keeps the tokenized pair, block collections and similarity
    /// index alive for the caller — an index build, or a harness
    /// inspecting them — and catching cancellation: `cancel` is
    /// attached to `exec`, and a run it stops returns `Err(Cancelled)`
    /// once every wave worker has joined. The matching is bit-identical
    /// to [`MinoanEr::run_with`]'s; only what survives the run differs.
    pub fn run_cancellable_indexed(
        &self,
        pair: &KbPair,
        exec: &Executor,
        cancel: &CancelToken,
    ) -> Result<IndexedOutput, Cancelled> {
        let exec = exec.clone().with_cancel(cancel.clone());
        minoan_exec::catch_cancel(|| Ok(self.run_indexed(pair, &exec)))
    }

    fn run_indexed(&self, pair: &KbPair, exec: &Executor) -> IndexedOutput {
        let mut report = PipelineReport::default();

        // Tokenize + block.
        let artifacts = build_blocks_timed(pair, &self.config, exec, &mut report.timings);
        report.name_blocks = artifacts.name_blocks.len();
        report.name_comparisons = artifacts.name_blocks.total_comparisons();
        report.token_blocks = artifacts.token_blocks.len();
        report.token_comparisons = artifacts.token_blocks.total_comparisons();
        report.purge = artifacts.purge.clone();

        // Similarity index over the purged token blocks.
        let span = stage_span("stage.similarities");
        let [tn1, tn2] = {
            let _s = stage_span("stage.top_neighbors");
            [&pair.first, &pair.second].map(|kb| {
                top_neighbors_with(
                    kb,
                    self.config.top_relations_n,
                    self.config.max_top_neighbors,
                    exec,
                )
            })
        };
        let idx = SimilarityIndex::build_with(
            &artifacts.token_blocks,
            &artifacts.tokens,
            [&tn1, &tn2],
            exec,
        );
        report.timings.similarities = span.close();

        // H1 ∨ H2 ∨ H3, then the H4 reciprocity filter.
        let smaller = pair.smaller_side();
        let n_smaller = pair.kb(smaller).entity_count();
        let matching = matching_phase(
            &artifacts.name_blocks,
            &idx,
            smaller,
            n_smaller,
            &self.config,
            exec,
            &mut report,
        );

        IndexedOutput {
            output: MatchOutput { matching, report },
            artifacts,
            index: idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_exec::ExecutorKind;
    use minoan_kb::KbBuilder;

    /// Runs `matcher` on the pool executor.
    fn run(matcher: MinoanEr, pair: &KbPair) -> MatchOutput {
        matcher.run_with(pair, &Executor::pool())
    }

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
        let out = run(MinoanEr::with_defaults(), &pair);
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
        let out = run(MinoanEr::with_defaults(), &pair);
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
        let out = run(MinoanEr::with_defaults(), &pair);
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
        let out = run(MinoanEr::with_defaults(), &pair);
        let e1 = pair.first.entity_by_uri("a:0").unwrap();
        let e2 = pair.second.entity_by_uri("b:0").unwrap();
        assert!(out.matching.contains(e1, e2));
    }

    #[test]
    fn tokenize_time_is_reported_separately_from_blocking() {
        let pair = restaurant_pair();
        let out = run(MinoanEr::with_defaults(), &pair);
        let t = &out.report.timings;
        // Tokenization of a non-empty pair takes measurable time and is
        // no longer folded into the blocking stage.
        assert!(t.tokenize > Duration::ZERO, "tokenize must be measured");
        assert!(t.total() >= t.tokenize + t.blocking);
    }

    #[test]
    fn timings_are_read_off_the_stage_spans() {
        use minoan_obs::trace;
        let pair = restaurant_pair();
        let id = trace::new_trace_id();
        let out = {
            let _scope = trace::trace_scope(id, -1);
            MinoanEr::with_defaults().run_with(&pair, &Executor::sequential())
        };
        let tree = trace::assemble_trace(id, &trace::collector().records_for_traces(&[id]));
        let roots: Vec<&str> = tree.roots.iter().map(|n| n.name).collect();
        assert_eq!(
            roots,
            [
                "stage.tokenize",
                "stage.blocking",
                "stage.similarities",
                "stage.h1",
                "stage.matching"
            ],
            "the five stage spans, in run order, none nested in another"
        );
        // One span per `Timings` field, in `Timings::LABELS` order.
        let spans = [
            "stage.tokenize",
            "stage.h1",
            "stage.blocking",
            "stage.similarities",
            "stage.matching",
        ];
        let span = |name| tree.roots.iter().find(|n| n.name == name).unwrap();
        for (name, d) in spans.into_iter().zip(out.report.timings.durations()) {
            assert_eq!(span(name).dur_micros, Some(d.as_micros() as u64), "{name}");
        }
        let blocking: Vec<&str> = span("stage.blocking")
            .children
            .iter()
            .map(|n| n.name)
            .collect();
        assert_eq!(
            blocking,
            [
                "stage.names",
                "stage.name_blocking",
                "stage.token_blocking",
                "stage.purge"
            ]
        );
        let similarities: Vec<&str> = span("stage.similarities")
            .children
            .iter()
            .map(|n| n.name)
            .filter(|name| !name.starts_with("exec."))
            .collect();
        assert_eq!(
            similarities,
            [
                "stage.top_neighbors",
                "simindex.first_rows",
                "simindex.neighbor_reverse",
                "simindex.value_reverse"
            ]
        );
    }

    #[test]
    fn sequential_and_parallel_executors_agree() {
        let pair = restaurant_pair();
        let matcher = MinoanEr::with_defaults();
        let seq = matcher.run_with(&pair, &Executor::sequential());
        for threads in [2, 5] {
            let par = matcher.run_with(&pair, &Executor::new(ExecutorKind::Pool, threads));
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
        let out = run(MinoanEr::new(c).unwrap(), &pair);
        assert!(out.report.purge.is_none());
        assert!(!out.matching.is_empty());
    }

    #[test]
    fn build_blocks_exposes_bn_and_bt() {
        let pair = restaurant_pair();
        let art = build_blocks(&pair, &MinoanConfig::default(), &Executor::sequential());
        assert!(art.name_blocks.len() >= 3);
        assert!(art.token_blocks.len() > art.name_blocks.len());
    }

    #[test]
    fn pre_cancelled_run_unwinds_before_doing_work() {
        let pair = restaurant_pair();
        let cancel = CancelToken::new();
        cancel.cancel();
        let exec = Executor::sequential();
        let matcher = MinoanEr::with_defaults();
        assert!(matches!(
            matcher.run_cancellable_indexed(&pair, &exec, &cancel),
            Err(Cancelled)
        ));
        let exec = exec.with_cancel(cancel);
        let built = minoan_exec::catch_cancel(|| Ok(build_blocks(&pair, matcher.config(), &exec)));
        assert!(built.is_err());
    }

    #[test]
    fn uncancelled_run_cancellable_matches_run_with() {
        let pair = restaurant_pair();
        let matcher = MinoanEr::with_defaults();
        let exec = Executor::sequential();
        let plain = matcher.run_with(&pair, &exec);
        let cancellable = matcher
            .run_cancellable_indexed(&pair, &exec, &CancelToken::new())
            .unwrap();
        assert_eq!(
            plain.matching.iter().collect::<Vec<_>>(),
            cancellable.output.matching.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn mid_run_cancel_from_another_thread_is_observed() {
        // Cancel while runs are in flight: every run either completes
        // (cancel arrived after its last wave) or unwinds with
        // `Cancelled` — it never panics or hangs.
        let pair = restaurant_pair();
        let matcher = MinoanEr::with_defaults();
        let cancel = CancelToken::new();
        let exec = Executor::sequential();
        let saw_cancelled = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| loop {
                // Terminates: once the token flips, the next run fails
                // at its first wave.
                if matcher
                    .run_cancellable_indexed(&pair, &exec, &cancel)
                    .is_err()
                {
                    saw_cancelled.store(true, std::sync::atomic::Ordering::SeqCst);
                    break;
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            cancel.cancel();
        });
        assert!(
            saw_cancelled.load(std::sync::atomic::Ordering::SeqCst),
            "a run after the cancel must observe a wave start"
        );
    }

    /// A pair where H3's matched-candidate filter skips more than
    /// [`MAX_CANDIDATES`](crate::MAX_CANDIDATES) entries of a probe row.
    /// Every token is shared by exactly one entity per side, so Block
    /// Purging keeps every block and each shared token weighs 1. `a:x`
    /// shares four tokens with each `b:{i}` for `i < 150` and 1–3 with
    /// each `b:{j}` for `150 ≤ j < 200`, so its best 150 value
    /// candidates are `b:0..b:149` — each taken by H2 through
    /// `a:{i}`'s `u{i}` — and the usable ones behind them come in three
    /// tiers of tied values. `a:x` and `b:170` also point at the
    /// name-matched `a:y`/`b:y`, so `b:170` is `a:x`'s only neighbor
    /// candidate, H3 ranks it from its place in the read past entry
    /// 128, and H4 keeps the match.
    fn deep_h3_pair() -> KbPair {
        let mut a = KbBuilder::new("E1");
        let mut b = KbBuilder::new("E2");
        let mut probe = Vec::new();
        for i in 0..200 {
            let shared: Vec<String> = if i < 150 {
                ["p", "r", "s", "t"].map(|t| format!("{t}{i}")).to_vec()
            } else {
                ["qa", "qb", "qc"][..1 + i % 3]
                    .iter()
                    .map(|t| format!("{t}{i}"))
                    .collect()
            };
            let mut text = shared.join(" ");
            if i < 150 {
                a.add_literal(&format!("a:{i}"), "v", &format!("u{i}"));
                text.push_str(&format!(" u{i}"));
            }
            b.add_literal(&format!("b:{i}"), "v", &text);
            probe.extend(shared);
        }
        a.add_literal("a:x", "v", &probe.join(" "));
        a.add_uri("a:x", "rel", "a:y");
        a.add_literal("a:y", "v", "yname ysurname");
        b.add_uri("b:170", "rel", "b:y");
        b.add_literal("b:y", "v", "yname ysurname");
        KbPair::new(a.finish(), b.finish())
    }

    /// FNV-1a over the matching's `(e1, e2)` ids in insertion order.
    fn matching_hash(matching: &Matching) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (e1, e2) in matching.iter() {
            for b in [e1.0, e2.0].into_iter().flat_map(u32::to_le_bytes) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// [`deep_h3_pair`]'s matching at `K = MAX_CANDIDATES`, as
    /// [`matching_hash`] hashes it: captured when every probe row was
    /// stored whole.
    const DEEP_H3_MATCHING: u64 = 0x9d4c_5b7b_9bfb_33d6;

    #[test]
    fn h3_reading_past_the_prefix_matches_as_a_whole_row_build() {
        let pair = deep_h3_pair();
        assert_eq!(pair.smaller_side(), KbSide::First);
        let config = MinoanConfig {
            candidates_k: crate::MAX_CANDIDATES,
            ..MinoanConfig::default()
        };
        let matcher = MinoanEr::new(config).unwrap();
        let x = pair.first.entity_by_uri("a:x").unwrap();
        let b170 = pair.second.entity_by_uri("b:170").unwrap();
        for exec in [
            Executor::sequential(),
            Executor::new(minoan_exec::ExecutorKind::Pool, 3),
        ] {
            let run = matcher
                .run_cancellable_indexed(&pair, &exec, &CancelToken::new())
                .unwrap();
            let MatchOutput { matching, report } = &run.output;
            assert_eq!(report.h2_matches, 150);
            assert!(report.h3_matches >= 1);
            assert!(matching.contains(x, b170), "the deep H3 match survives H4");
            assert!(run.index.tail_reads() > 0, "nothing read past the prefix");
            assert_eq!(matching_hash(matching), DEEP_H3_MATCHING);
        }
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
        let out = run(MinoanEr::with_defaults(), &pair);
        let m1 = pair.first.entity_by_uri("a:m").unwrap();
        let m2 = pair.second.entity_by_uri("b:m").unwrap();
        assert!(out.matching.contains(m1, m2));
    }
}
