//! The four threshold-free heuristics H1–H4 (paper §III).
//!
//! Each heuristic is a pure function over the blocking/similarity
//! artifacts; the pipeline composes them as
//! `M = (H1 ∨ H2 ∨ H3) ∧ H4`.

use minoan_blocking::{unique_name_pairs, BlockCollection};
use minoan_exec::Executor;
use minoan_kb::{EntityId, FxHashSet, KbSide};

use crate::simindex::SimilarityIndex;

/// Orients an `(entity-of-side, candidate-of-other-side)` pair into the
/// canonical `(first, second)` order.
#[inline]
fn orient(side: KbSide, e: EntityId, other: EntityId) -> (EntityId, EntityId) {
    match side {
        KbSide::First => (e, other),
        KbSide::Second => (other, e),
    }
}

/// **H1 — Name Heuristic.** Two entities match if they, and only they,
/// share the same distinctive name: every name block with exactly one
/// entity per KB yields a match.
pub fn h1_name_matches(bn: &BlockCollection) -> Vec<(EntityId, EntityId)> {
    unique_name_pairs(bn)
}

/// **H2 — Value Heuristic.** For every not-yet-matched entity of the
/// smaller KB, take its best value-similarity candidate `ej` (vmax); if
/// `vmax ≥ 1` the pair is a *strongly similar* match.
///
/// The paper's rationale is that two entities match "if they, **and only
/// they**, share a common token, or share many infrequent tokens": the
/// strong-similarity evidence must be exclusive. H2 therefore abstains
/// when the runner-up candidate is *also* strongly similar (`≥ 1`) —
/// homonym entities with near-identical content are left to H3, whose
/// neighbor evidence can tell them apart.
///
/// Entities already matched by H1 are not examined, neither as probes
/// nor as candidates.
///
/// Fanned out over entity ranges on `exec`. Each entity's decision is
/// independent and partials are concatenated in entity order, so the
/// output is identical for any thread count.
pub fn h2_value_matches_with(
    idx: &SimilarityIndex,
    smaller: KbSide,
    n_smaller: usize,
    matched: [&FxHashSet<EntityId>; 2],
    exec: &Executor,
) -> Vec<(EntityId, EntityId)> {
    let matched_own = matched[smaller.index()];
    let matched_other = matched[smaller.other().index()];
    exec.map_parts(n_smaller, |range| {
        let mut out = Vec::new();
        for e in range.map(|e| EntityId(e as u32)) {
            if matched_own.contains(&e) {
                continue;
            }
            let mut usable = idx
                .value_candidates(smaller, e)
                .filter(|(c, _)| !matched_other.contains(c));
            if let Some((c, vmax)) = usable.next() {
                let runner_up = usable.next().map(|(_, v)| v).unwrap_or(0.0);
                if vmax >= 1.0 && runner_up < 1.0 {
                    out.push(orient(smaller, e, c));
                }
            }
        }
        out
    })
    .concat()
}

/// **H3 — Rank Aggregation Heuristic.** For a not-yet-matched entity,
/// candidates are ranked twice — by value similarity and by non-zero
/// neighbor similarity — and the two rankings are aggregated with
/// normalized rank scores weighted `θ` (values) vs `1-θ` (neighbors).
/// The top-1 aggregate candidate is the match.
///
/// Candidates already matched on the other side are skipped **before**
/// each list is cut to its first `k`, so a probe whose top candidates
/// are taken reads past rank `k` to the next `k` usable ones. This is
/// deliberate: the strict pruned-graph reading (take `k`, then drop the
/// matched) costs BBC 5.4 F1 points at ×1 (82.6 → 77.2; ROADMAP F4).
///
/// Returns `None` when the entity has no usable candidate.
pub fn h3_top_candidate(
    idx: &SimilarityIndex,
    side: KbSide,
    e: EntityId,
    k: usize,
    theta: f64,
    matched_other: &FxHashSet<EntityId>,
) -> Option<(EntityId, f64)> {
    let value_list: Vec<EntityId> = idx
        .value_candidates(side, e)
        .filter(|(c, v)| *v > 0.0 && !matched_other.contains(c))
        .take(k)
        .map(|(c, _)| c)
        .collect();
    let neighbor_list: Vec<EntityId> = idx
        .neighbor_candidates(side, e)
        .filter(|(c, _)| !matched_other.contains(c))
        .take(k)
        .map(|(c, _)| c)
        .collect();
    if value_list.is_empty() && neighbor_list.is_empty() {
        return None;
    }
    // Normalized rank of position p in a list of size L: (L - p) / L.
    let mut scores: Vec<(EntityId, f64)> = Vec::new();
    let bump = |scores: &mut Vec<(EntityId, f64)>, c: EntityId, s: f64| match scores
        .iter_mut()
        .find(|(e, _)| *e == c)
    {
        Some((_, acc)) => *acc += s,
        None => scores.push((c, s)),
    };
    let lv = value_list.len() as f64;
    for (p, &c) in value_list.iter().enumerate() {
        bump(&mut scores, c, theta * (lv - p as f64) / lv);
    }
    let ln = neighbor_list.len() as f64;
    for (p, &c) in neighbor_list.iter().enumerate() {
        bump(&mut scores, c, (1.0 - theta) * (ln - p as f64) / ln);
    }
    scores.into_iter().max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.0.cmp(&a.0))
    })
}

/// Runs H3 over every not-yet-matched entity of the smaller KB, fanned
/// out over entity ranges on `exec`; output identical for any thread
/// count (independent per-entity decisions, partials concatenated in
/// entity order).
pub fn h3_rank_matches_with(
    idx: &SimilarityIndex,
    smaller: KbSide,
    n_smaller: usize,
    k: usize,
    theta: f64,
    matched: [&FxHashSet<EntityId>; 2],
    exec: &Executor,
) -> Vec<(EntityId, EntityId)> {
    let matched_own = matched[smaller.index()];
    let matched_other = matched[smaller.other().index()];
    exec.map_parts(n_smaller, |range| {
        let mut out = Vec::new();
        for e in range.map(|e| EntityId(e as u32)) {
            if matched_own.contains(&e) {
                continue;
            }
            if let Some((c, _)) = h3_top_candidate(idx, smaller, e, k, theta, matched_other) {
                out.push(orient(smaller, e, c));
            }
        }
        out
    })
    .concat()
}

/// **H4 — Reciprocity Heuristic.** A pair `(e1, e2)` survives only if
/// `e2` is among the top-`K` value *or* neighbor candidates of `e1`,
/// **and** vice versa.
pub fn h4_reciprocal(idx: &SimilarityIndex, k: usize, e1: EntityId, e2: EntityId) -> bool {
    in_top_k(idx, KbSide::First, e1, e2, k) && in_top_k(idx, KbSide::Second, e2, e1, k)
}

/// Evaluates H4 for a batch of pairs on `exec`, returning one keep-flag
/// per pair in input order. Pure reads over the index.
pub fn h4_reciprocal_batch(
    idx: &SimilarityIndex,
    k: usize,
    pairs: &[(EntityId, EntityId)],
    exec: &Executor,
) -> Vec<bool> {
    exec.map_range(pairs.len(), |i| {
        let (e1, e2) = pairs[i];
        h4_reciprocal(idx, k, e1, e2)
    })
}

fn in_top_k(idx: &SimilarityIndex, side: KbSide, e: EntityId, other: EntityId, k: usize) -> bool {
    idx.value_candidates(side, e)
        .take(k)
        .any(|(c, _)| c == other)
        || idx
            .neighbor_candidates(side, e)
            .take(k)
            .any(|(c, _)| c == other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::token_blocking_with;
    use minoan_kb::{KbBuilder, KbPair};
    use minoan_text::{TokenizedPair, Tokenizer};

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Builds an index over two KBs given (uri, literal) rows.
    fn index_of(lits1: &[&str], lits2: &[&str]) -> SimilarityIndex {
        let mut a = KbBuilder::new("E1");
        for (i, l) in lits1.iter().enumerate() {
            a.add_literal(&format!("a:{i}"), "v", l);
        }
        let mut b = KbBuilder::new("E2");
        for (i, l) in lits2.iter().enumerate() {
            b.add_literal(&format!("b:{i}"), "v", l);
        }
        let pair = KbPair::new(a.finish(), b.finish());
        let exec = Executor::sequential();
        let tokens = TokenizedPair::build_with(&pair, &Tokenizer::default(), &exec);
        let bt = token_blocking_with(&tokens, &exec);
        let tn1 = vec![Vec::new(); pair.first.entity_count()];
        let tn2 = vec![Vec::new(); pair.second.entity_count()];
        SimilarityIndex::build_with(&bt, &tokens, [&tn1, &tn2], &exec)
    }

    fn h2_value_matches(
        idx: &SimilarityIndex,
        smaller: KbSide,
        n_smaller: usize,
        matched: [&FxHashSet<EntityId>; 2],
    ) -> Vec<(EntityId, EntityId)> {
        h2_value_matches_with(idx, smaller, n_smaller, matched, &Executor::sequential())
    }

    #[test]
    fn h2_matches_strongly_similar_pairs_only() {
        // a:0/b:0 share a mutually-unique token (weight 1 => vmax >= 1).
        // a:1/b:1 share only a token frequent on both sides.
        let idx = index_of(&["unique0 common", "common"], &["unique0 common", "common"]);
        let none = FxHashSet::default();
        let pairs = h2_value_matches(&idx, KbSide::First, 2, [&none, &none]);
        assert_eq!(pairs, vec![(e(0), e(0))]);
    }

    #[test]
    fn h2_skips_matched_entities() {
        let idx = index_of(&["unique0"], &["unique0"]);
        let mut m1 = FxHashSet::default();
        m1.insert(e(0));
        let none = FxHashSet::default();
        assert!(h2_value_matches(&idx, KbSide::First, 1, [&m1, &none]).is_empty());
        // Candidate side matched: the probe finds no usable candidate.
        let mut m2 = FxHashSet::default();
        m2.insert(e(0));
        assert!(h2_value_matches(&idx, KbSide::First, 1, [&none, &m2]).is_empty());
    }

    #[test]
    fn h2_iterates_the_declared_smaller_side() {
        let idx = index_of(&["unique0"], &["unique0", "nothing shared"]);
        let none = FxHashSet::default();
        let pairs = h2_value_matches(&idx, KbSide::First, 1, [&none, &none]);
        assert_eq!(pairs, vec![(e(0), e(0))]);
        // From the second side, pairs stay oriented (first, second).
        let pairs = h2_value_matches(&idx, KbSide::Second, 2, [&none, &none]);
        assert_eq!(pairs, vec![(e(0), e(0))]);
    }

    #[test]
    fn h3_prefers_value_rank_with_high_theta() {
        // a:0 shares more (and rarer) tokens with b:0 than with b:1.
        let idx = index_of(&["x y z"], &["x y z", "x"]);
        let none = FxHashSet::default();
        let (top, score) = h3_top_candidate(&idx, KbSide::First, e(0), 15, 0.6, &none).unwrap();
        assert_eq!(top, e(0));
        assert!(score > 0.0);
    }

    #[test]
    fn h3_returns_none_without_candidates() {
        let idx = index_of(&["alpha"], &["beta"]);
        let none = FxHashSet::default();
        assert!(h3_top_candidate(&idx, KbSide::First, e(0), 15, 0.6, &none).is_none());
    }

    #[test]
    fn h3_excluding_the_winner_promotes_the_runner_up() {
        let idx = index_of(&["x y z"], &["x y z", "x y"]);
        let none = FxHashSet::default();
        let (top, _) = h3_top_candidate(&idx, KbSide::First, e(0), 15, 0.6, &none).unwrap();
        assert_eq!(top, e(0));
        let mut excl = FxHashSet::default();
        excl.insert(e(0));
        let (top, _) = h3_top_candidate(&idx, KbSide::First, e(0), 15, 0.6, &excl).unwrap();
        assert_eq!(top, e(1));
    }

    #[test]
    fn h3_k_truncates_the_lists() {
        // With k=1 only the best value candidate is rankable.
        let idx = index_of(&["x y"], &["x y", "x"]);
        let none = FxHashSet::default();
        let (top, score) = h3_top_candidate(&idx, KbSide::First, e(0), 1, 0.6, &none).unwrap();
        assert_eq!(top, e(0));
        // Full normalized rank on a single-element list: theta * 1.
        assert!((score - 0.6).abs() < 1e-12);
    }

    #[test]
    fn h3_skips_matched_candidates_before_taking_k() {
        // b:0 is a:0's top value candidate but already matched. Taking
        // k = 1 first would leave nothing usable; filtering first lets
        // the runner-up b:1 win on the full value weight.
        let idx = index_of(&["x y z"], &["x y z", "x y"]);
        let mut matched = FxHashSet::default();
        matched.insert(e(0));
        let (top, score) = h3_top_candidate(&idx, KbSide::First, e(0), 1, 0.6, &matched).unwrap();
        assert_eq!(top, e(1));
        assert!((score - 0.6).abs() < 1e-12);
    }

    #[test]
    fn h4_requires_mutual_top_k() {
        let idx = index_of(&["x y z"], &["x y z"]);
        assert!(h4_reciprocal(&idx, 15, e(0), e(0)));
        // A pair that never co-occurs is not reciprocal.
        let idx2 = index_of(&["a"], &["b"]);
        assert!(!h4_reciprocal(&idx2, 15, e(0), e(0)));
    }

    #[test]
    fn h4_k_window_matters() {
        // b-side entity 0 is "popular": many a-side entities rank it top,
        // but from b:0's perspective a:2 (sharing two tokens) outranks the
        // single-token probes. With k=1 only the mutual best survives.
        let idx = index_of(&["x", "x", "x y"], &["x y"]);
        assert!(h4_reciprocal(&idx, 1, e(2), e(0)));
        assert!(!h4_reciprocal(&idx, 1, e(0), e(0)));
        assert!(h4_reciprocal(&idx, 3, e(0), e(0)));
    }

    /// An index where a:0 has 300 value candidates: b:0..=b:130 each
    /// share a token unique to the pair (weight 1) and all 300 share
    /// `x`, so the first 131 score `1 + w(x)` and the rest `w(x) < 1`,
    /// ties by id. a:0 is on the probe side, so its row is stored cut to
    /// its best [`MAX_CANDIDATES`](crate::MAX_CANDIDATES) and reads back
    /// whole through the recompute. Returned with a:0's row as the
    /// reference full sort, looked up pair by pair.
    fn long_row_index() -> (SimilarityIndex, Vec<(EntityId, f64)>) {
        let probe = std::iter::once("x".to_string())
            .chain((0..=130).map(|i| format!("p{i}")))
            .collect::<Vec<_>>()
            .join(" ");
        let seconds: Vec<String> = (0..300)
            .map(|i| {
                if i <= 130 {
                    format!("x p{i}")
                } else {
                    "x".into()
                }
            })
            .collect();
        let seconds: Vec<&str> = seconds.iter().map(String::as_str).collect();
        let idx = index_of(&[&probe], &seconds);
        let mut want: Vec<(EntityId, f64)> = (0..300)
            .map(|i| (e(i), idx.value_sim(e(0), e(i))))
            .filter(|&(_, v)| v > 0.0)
            .collect();
        want.sort_by(crate::simindex::tests::cand_cmp);
        assert_eq!(want.len(), 300);
        assert!(want[130].1 >= 1.0 && want[131].1 < 1.0);
        (idx, want)
    }

    /// b:0..b:129 — the probe's first 130 candidates — already matched.
    fn first_130_matched(want: &[(EntityId, f64)]) -> FxHashSet<EntityId> {
        want[..130].iter().map(|&(c, _)| c).collect()
    }

    #[test]
    fn h2_reads_past_the_ranked_prefix() {
        let (idx, want) = long_row_index();
        let matched = first_130_matched(&want);
        let mut usable = want.iter().filter(|(c, _)| !matched.contains(c));
        let (best, vmax) = *usable.next().unwrap();
        let runner_up = usable.next().unwrap().1;
        assert!(vmax >= 1.0 && runner_up < 1.0);
        let none = FxHashSet::default();
        let pairs = h2_value_matches(&idx, KbSide::First, 1, [&none, &matched]);
        assert_eq!(pairs, vec![(e(0), best)]);
    }

    #[test]
    fn h3_reads_past_the_ranked_prefix_and_counts_it() {
        let (idx, want) = long_row_index();
        let matched = first_130_matched(&want);
        let best = want.iter().find(|(c, _)| !matched.contains(c)).unwrap().0;
        // The reference's lookups past the stored prefix recomputed the
        // row, each counted.
        let before = idx.tail_reads();
        assert_eq!(before, 300 - 128);
        // No neighbor candidates here, so the top value candidate wins
        // on the full value weight θ.
        let (top, score) = h3_top_candidate(&idx, KbSide::First, e(0), 15, 0.6, &matched).unwrap();
        assert_eq!((top, score), (best, 0.6));
        assert_eq!(idx.tail_reads(), before + 1);
    }

    #[test]
    fn h4_finds_a_candidate_ranked_past_the_prefix() {
        let (idx, want) = long_row_index();
        // Rank 150, 1-based; a:0 is b:149's only candidate.
        let c = want[149].0;
        assert!(h4_reciprocal(&idx, 200, e(0), c));
        assert!(h4_reciprocal(&idx, 150, e(0), c));
        assert!(!h4_reciprocal(&idx, 149, e(0), c));
    }

    #[test]
    fn h3_full_pass_orients_pairs() {
        let idx = index_of(&["x q"], &["x q"]);
        let none = FxHashSet::default();
        let pairs = h3_rank_matches_with(
            &idx,
            KbSide::Second,
            1,
            15,
            0.6,
            [&none, &none],
            &Executor::sequential(),
        );
        assert_eq!(pairs, vec![(e(0), e(0))]);
    }
}
