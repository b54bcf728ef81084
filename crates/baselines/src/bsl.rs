//! BSL — the paper's schema-agnostic, value-only baseline.
//!
//! BSL receives exactly the same input as MinoanER (the blocks `BN` and
//! `BT`), compares every co-occurring pair, and clusters with Unique
//! Mapping Clustering — but it uses *only value similarity*, no names, no
//! neighbors. To make it as strong as possible it is oracle-tuned: it
//! sweeps
//!
//! - token n-grams, `n ∈ {1, 2, 3}`,
//! - TF and TF-IDF weighting,
//! - Cosine, Jaccard, Generalized Jaccard and SiGMa similarity,
//! - thresholds `t ∈ [0, 1)` step `0.05`,
//!
//! and reports the configuration with the best F1 against the ground
//! truth (the paper's "420 configurations" sweep).

use minoan_blocking::BlockCollection;
use minoan_eval::MatchQuality;
use minoan_kb::{EntityId, GroundTruth, KnowledgeBase, Matching};
use minoan_sim::{build_vectors, Measure, Weighting};
use minoan_text::{token_ngrams_into, Tokenizer};

use crate::umc::umc_trace;

/// One point of the BSL configuration space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BslConfig {
    /// Token n-gram size (1, 2 or 3).
    pub ngram: usize,
    /// TF or TF-IDF.
    pub weighting: Weighting,
    /// The similarity measure.
    pub measure: Measure,
    /// The UMC similarity threshold.
    pub threshold: f64,
}

impl std::fmt::Display for BslConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-gram/{}/{}/t={:.2}",
            self.ngram, self.weighting, self.measure, self.threshold
        )
    }
}

/// The best configuration found by the sweep, with its matching.
#[derive(Debug, Clone)]
pub struct BslResult {
    /// The winning configuration.
    pub config: BslConfig,
    /// Its quality against the ground truth.
    pub quality: MatchQuality,
    /// Its matching.
    pub matching: Matching,
    /// How many configurations were evaluated.
    pub configs_evaluated: usize,
}

/// Threshold grid `0.00, 0.05, …, 0.95`.
pub fn threshold_grid() -> Vec<f64> {
    (0..20).map(|i| i as f64 * 0.05).collect()
}

/// One evaluated configuration: parameters, quality and the scored UMC
/// trace it was derived from.
type Evaluated = (BslConfig, MatchQuality, Vec<(EntityId, EntityId, f64)>);

/// The n-gram documents (per entity) of one KB.
fn ngram_docs(kb: &KnowledgeBase, n: usize, tokenizer: &Tokenizer) -> Vec<Vec<String>> {
    let mut docs = Vec::with_capacity(kb.entity_count());
    let mut toks = Vec::new();
    let mut buf = String::new();
    for e in kb.entities() {
        let mut doc = Vec::new();
        for lit in kb.literals(e) {
            toks.clear();
            tokenizer.for_each_token(lit, &mut buf, |t| toks.push(t.to_string()));
            token_ngrams_into(&toks, n, &mut doc);
        }
        docs.push(doc);
    }
    docs
}

/// Runs the full BSL sweep over the candidate pairs of `BN ∪ BT`.
///
/// The 24 vector-space configurations are evaluated in parallel (scoped
/// threads); each one reuses a single UMC trace for all 20 thresholds.
pub fn run_bsl(
    first: &KnowledgeBase,
    second: &KnowledgeBase,
    blocks: &[&BlockCollection],
    truth: &GroundTruth,
) -> BslResult {
    let tokenizer = Tokenizer::default();
    // Distinct candidate pairs across the union of the collections.
    let mut pairs: Vec<(EntityId, EntityId)> = Vec::new();
    {
        let mut seen = minoan_kb::FxHashSet::default();
        for c in blocks {
            for (a, b) in c.distinct_pairs() {
                if seen.insert((a, b)) {
                    pairs.push((a, b));
                }
            }
        }
    }
    pairs.sort_unstable();
    let thresholds = threshold_grid();
    let mut best: Option<Evaluated> = None;
    let mut evaluated = 0usize;
    // One vector space per (n, weighting); four measures share it.
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for n in 1..=3usize {
            let docs1 = ngram_docs(first, n, &tokenizer);
            let docs2 = ngram_docs(second, n, &tokenizer);
            for w in Weighting::ALL {
                let pairs = &pairs;
                let thresholds = &thresholds;
                let docs1 = docs1.clone();
                let docs2 = docs2.clone();
                handles.push(scope.spawn(move || {
                    let (v1, v2) = build_vectors(&docs1, &docs2, w);
                    let mut local: Vec<Evaluated> = Vec::new();
                    for m in Measure::ALL {
                        let scored: Vec<(EntityId, EntityId, f64)> = pairs
                            .iter()
                            .map(|&(a, b)| (a, b, m.compute(&v1[a.index()], &v2[b.index()])))
                            .filter(|&(_, _, s)| s > 0.0)
                            .collect();
                        let trace = umc_trace(&scored);
                        for &t in thresholds {
                            let matching = Matching::from_pairs(
                                trace
                                    .iter()
                                    .filter(|&&(_, _, s)| s > t)
                                    .map(|&(a, b, _)| (a, b)),
                            );
                            let q = MatchQuality::evaluate(&matching, truth);
                            local.push((
                                BslConfig {
                                    ngram: n,
                                    weighting: w,
                                    measure: m,
                                    threshold: t,
                                },
                                q,
                                trace.clone(),
                            ));
                        }
                    }
                    local
                }));
            }
        }
        for h in handles {
            for (cfg, q, trace) in h.join().expect("BSL worker panicked") {
                evaluated += 1;
                let better = match &best {
                    None => true,
                    Some((bc, bq, _)) => {
                        q.f1() > bq.f1() + 1e-12
                            || ((q.f1() - bq.f1()).abs() <= 1e-12
                                && (cfg.ngram, cfg.threshold as i64)
                                    < (bc.ngram, bc.threshold as i64))
                    }
                };
                if better {
                    best = Some((cfg, q, trace));
                }
            }
        }
    });
    let (config, quality, trace) = best.expect("at least one configuration evaluated");
    let matching = Matching::from_pairs(
        trace
            .iter()
            .filter(|&&(_, _, s)| s > config.threshold)
            .map(|&(a, b, _)| (a, b)),
    );
    BslResult {
        config,
        quality,
        matching,
        configs_evaluated: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::token_blocking_with;
    use minoan_exec::Executor;
    use minoan_kb::{KbBuilder, KbPair};
    use minoan_text::TokenizedPair;

    /// The token blocks `BT` of `pair`.
    fn token_blocks(pair: &KbPair) -> BlockCollection {
        let exec = Executor::sequential();
        let tokens = TokenizedPair::build_with(pair, &Tokenizer::default(), &exec);
        token_blocking_with(&tokens, &exec)
    }

    fn easy_pair() -> (KbPair, GroundTruth) {
        let mut a = KbBuilder::new("E1");
        let mut b = KbBuilder::new("E2");
        let mut truth = Matching::new();
        for i in 0..6 {
            a.add_literal(
                &format!("a:{i}"),
                "name",
                &format!("widget gizmo alpha{i} beta{i}"),
            );
            b.add_literal(
                &format!("b:{i}"),
                "label",
                &format!("widget gizmo alpha{i} beta{i}"),
            );
            truth.insert(EntityId(i), EntityId(i));
        }
        (KbPair::new(a.finish(), b.finish()), truth)
    }

    #[test]
    fn bsl_nails_strongly_similar_data() {
        let (pair, truth) = easy_pair();
        let bt = token_blocks(&pair);
        let r = run_bsl(&pair.first, &pair.second, &[&bt], &truth);
        assert!(
            (r.quality.f1() - 1.0).abs() < 1e-9,
            "F1 was {}",
            r.quality.f1()
        );
        assert_eq!(r.matching.len(), 6);
        assert_eq!(r.configs_evaluated, 480);
        assert!(r.matching.is_partial_matching());
    }

    #[test]
    fn bsl_reports_the_config_it_used() {
        let (pair, truth) = easy_pair();
        let bt = token_blocks(&pair);
        let r = run_bsl(&pair.first, &pair.second, &[&bt], &truth);
        assert!((1..=3).contains(&r.config.ngram));
        let shown = r.config.to_string();
        assert!(shown.contains("gram"));
        // Re-running is deterministic.
        let r2 = run_bsl(&pair.first, &pair.second, &[&bt], &truth);
        assert_eq!(r.config, r2.config);
        assert_eq!(r.quality, r2.quality);
    }

    #[test]
    fn bsl_cannot_match_without_shared_values() {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:0", "name", "totally different");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:0", "label", "nothing alike");
        let pair = KbPair::new(a.finish(), b.finish());
        let truth = Matching::from_pairs([(EntityId(0), EntityId(0))]);
        let bt = token_blocks(&pair);
        let r = run_bsl(&pair.first, &pair.second, &[&bt], &truth);
        assert_eq!(r.quality.recall(), 0.0);
    }

    #[test]
    fn threshold_grid_has_twenty_points() {
        let g = threshold_grid();
        assert_eq!(g.len(), 20);
        assert_eq!(g[0], 0.0);
        assert!((g[19] - 0.95).abs() < 1e-12);
    }
}
