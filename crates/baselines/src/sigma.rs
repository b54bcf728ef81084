//! SiGMa-like baseline: simple greedy matching with iterative neighbor
//! propagation (after Lacoste-Julien et al., KDD 2013).
//!
//! Seeds are exact-name matches. Candidate pairs (token-block
//! co-occurrences) enter a priority queue scored by a weighted
//! combination of value similarity and the fraction of already-matched
//! neighbor pairs. The top pair is accepted when both entities are free
//! and the (lazily re-evaluated) score clears the threshold; each
//! acceptance re-scores the neighborhood — the iterative,
//! seed-propagating behaviour MinoanER explicitly avoids.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use minoan_blocking::BlockCollection;
use minoan_kb::{EntityId, FxHashMap, FxHashSet, KbPair, KbSide, Matching, TokenId};
use minoan_sim::token_weight;
use minoan_text::TokenizedPair;

/// SiGMa-like configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaConfig {
    /// Final-score acceptance threshold.
    pub threshold: f64,
    /// Weight of the neighbor-overlap component (value gets `1 - w`).
    pub neighbor_weight: f64,
}

impl Default for SigmaConfig {
    fn default() -> Self {
        Self {
            threshold: 0.2,
            neighbor_weight: 0.4,
        }
    }
}

#[derive(Debug, PartialEq)]
struct QueueItem {
    score: f64,
    pair: (EntityId, EntityId),
}

impl Eq for QueueItem {}

impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            // Max-heap on score; deterministic tie-break on the pair.
            .then_with(|| other.pair.cmp(&self.pair))
    }
}

impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Normalized weighted Jaccard over token sets, with the same
/// inverse-frequency token weights as `valueSim`. Bounded in `[0, 1]`.
fn weighted_jaccard(tokens: &TokenizedPair, e1: EntityId, e2: EntityId) -> f64 {
    let a = tokens.tokens(KbSide::First, e1);
    let b = tokens.tokens(KbSide::Second, e2);
    let dict = tokens.dict();
    // Clamp EFs to 1: tokens on only one side have EF 0 on the other,
    // which would make the weight infinite (log2(0+1) = 0).
    let w = |t: TokenId| {
        token_weight(
            dict.ef(KbSide::First, t).max(1),
            dict.ef(KbSide::Second, t).max(1),
        )
    };
    let (mut i, mut j) = (0, 0);
    let mut inter = 0.0;
    let mut union = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => {
                union += w(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                union += w(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                let x = w(a[i]);
                inter += x;
                union += x;
                i += 1;
                j += 1;
            }
        }
    }
    union += a[i..].iter().map(|&t| w(t)).sum::<f64>();
    union += b[j..].iter().map(|&t| w(t)).sum::<f64>();
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Runs the SiGMa-like matcher.
///
/// `seeds` are accepted unconditionally first (the paper's "seed matches
/// with identical entity names"); `blocks` provides the candidate space.
pub fn run_sigma(
    pair: &KbPair,
    tokens: &TokenizedPair,
    blocks: &BlockCollection,
    seeds: &[(EntityId, EntityId)],
    config: SigmaConfig,
) -> Matching {
    let neighbors = |side: KbSide, e: EntityId| -> Vec<EntityId> {
        let kb = pair.kb(side);
        let mut v: Vec<EntityId> = kb.edges(e).map(|edge| edge.neighbor).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut matched1: FxHashMap<EntityId, EntityId> = FxHashMap::default();
    let mut matched2: FxHashMap<EntityId, EntityId> = FxHashMap::default();
    let mut matching = Matching::new();
    let accept = |e1: EntityId,
                  e2: EntityId,
                  matching: &mut Matching,
                  m1: &mut FxHashMap<EntityId, EntityId>,
                  m2: &mut FxHashMap<EntityId, EntityId>| {
        if m1.contains_key(&e1) || m2.contains_key(&e2) {
            return false;
        }
        m1.insert(e1, e2);
        m2.insert(e2, e1);
        matching.insert(e1, e2);
        true
    };
    for &(e1, e2) in seeds {
        accept(e1, e2, &mut matching, &mut matched1, &mut matched2);
    }

    let score = |e1: EntityId, e2: EntityId, matched1: &FxHashMap<EntityId, EntityId>| {
        let v = weighted_jaccard(tokens, e1, e2);
        let n1 = neighbors(KbSide::First, e1);
        let n2: FxHashSet<EntityId> = neighbors(KbSide::Second, e2).into_iter().collect();
        let deg = n1.len().max(n2.len());
        let nb = if deg == 0 {
            0.0
        } else {
            let hits = n1
                .iter()
                .filter(|n| matched1.get(n).is_some_and(|m| n2.contains(m)))
                .count();
            hits as f64 / deg as f64
        };
        (1.0 - config.neighbor_weight) * v + config.neighbor_weight * nb
    };

    let mut heap: BinaryHeap<QueueItem> = BinaryHeap::new();
    for (e1, e2) in blocks.distinct_pairs() {
        let s = score(e1, e2, &matched1);
        if s > 0.0 {
            heap.push(QueueItem {
                score: s,
                pair: (e1, e2),
            });
        }
    }
    while let Some(QueueItem {
        score: s,
        pair: (e1, e2),
    }) = heap.pop()
    {
        if s < config.threshold {
            break;
        }
        if matched1.contains_key(&e1) || matched2.contains_key(&e2) {
            continue;
        }
        // Lazy re-evaluation: neighborhoods may have changed since this
        // entry was pushed.
        let fresh = score(e1, e2, &matched1);
        if fresh + 1e-12 < s {
            if fresh > 0.0 {
                heap.push(QueueItem {
                    score: fresh,
                    pair: (e1, e2),
                });
            }
            continue;
        }
        if accept(e1, e2, &mut matching, &mut matched1, &mut matched2) {
            // Re-push co-occurring neighbor pairs: their neighbor overlap
            // may have just improved.
            for n1 in neighbors(KbSide::First, e1) {
                if matched1.contains_key(&n1) {
                    continue;
                }
                for n2 in blocks.co_occurring(KbSide::First, n1) {
                    if matched2.contains_key(&n2) {
                        continue;
                    }
                    let s = score(n1, n2, &matched1);
                    if s >= config.threshold {
                        heap.push(QueueItem {
                            score: s,
                            pair: (n1, n2),
                        });
                    }
                }
            }
        }
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_blocking::token_blocking_with;
    use minoan_exec::Executor;
    use minoan_kb::KbBuilder;
    use minoan_text::Tokenizer;

    fn build(
        pairs1: &[(&str, &str)],
        pairs2: &[(&str, &str)],
    ) -> (KbPair, TokenizedPair, BlockCollection) {
        let mut a = KbBuilder::new("E1");
        for (uri, lit) in pairs1 {
            a.add_literal(uri, "v", lit);
        }
        let mut b = KbBuilder::new("E2");
        for (uri, lit) in pairs2 {
            b.add_literal(uri, "v", lit);
        }
        let pair = KbPair::new(a.finish(), b.finish());
        let exec = Executor::sequential();
        let tokens = TokenizedPair::build_with(&pair, &Tokenizer::default(), &exec);
        let bt = token_blocking_with(&tokens, &exec);
        (pair, tokens, bt)
    }

    #[test]
    fn value_similar_pairs_are_matched() {
        let (pair, tokens, bt) = build(
            &[("a:0", "kri kri taverna"), ("a:1", "labyrinth grill")],
            &[("b:0", "kri kri taverna"), ("b:1", "labyrinth grill house")],
        );
        let m = run_sigma(&pair, &tokens, &bt, &[], SigmaConfig::default());
        assert!(m.contains(EntityId(0), EntityId(0)));
        assert!(m.contains(EntityId(1), EntityId(1)));
        assert!(m.is_partial_matching());
    }

    #[test]
    fn seeds_are_kept_and_not_overridden() {
        let (pair, tokens, bt) = build(&[("a:0", "x y")], &[("b:0", "x y"), ("b:1", "x y")]);
        let m = run_sigma(
            &pair,
            &tokens,
            &bt,
            &[(EntityId(0), EntityId(1))],
            SigmaConfig::default(),
        );
        assert!(m.contains(EntityId(0), EntityId(1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn neighbor_propagation_links_weak_valued_pairs() {
        // Movies share one frequent token; actors are strong matches.
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:m", "t", "film");
        a.add_uri("a:m", "starring", "a:p");
        a.add_literal("a:p", "n", "melina unique mercouri");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:m", "t", "film");
        b.add_uri("b:m", "starring", "b:p");
        b.add_literal("b:p", "n", "melina unique mercouri");
        // Distractor movie with the same weak token but no actor.
        b.add_literal("b:x", "t", "film other things");
        let pair = KbPair::new(a.finish(), b.finish());
        let exec = Executor::sequential();
        let tokens = TokenizedPair::build_with(&pair, &Tokenizer::default(), &exec);
        let bt = token_blocking_with(&tokens, &exec);
        let m = run_sigma(&pair, &tokens, &bt, &[], SigmaConfig::default());
        let am = pair.first.entity_by_uri("a:m").unwrap();
        let bm = pair.second.entity_by_uri("b:m").unwrap();
        assert!(m.contains(am, bm), "got {:?}", m.iter().collect::<Vec<_>>());
    }

    #[test]
    fn high_threshold_rejects_weak_pairs() {
        let (pair, tokens, bt) = build(&[("a:0", "x common")], &[("b:0", "x different")]);
        let m = run_sigma(
            &pair,
            &tokens,
            &bt,
            &[],
            SigmaConfig {
                threshold: 0.9,
                neighbor_weight: 0.4,
            },
        );
        assert!(m.is_empty());
    }

    #[test]
    fn weighted_jaccard_is_bounded() {
        let (_, tokens, _) = build(&[("a:0", "x y z")], &[("b:0", "x y q")]);
        let v = weighted_jaccard(&tokens, EntityId(0), EntityId(0));
        assert!(v > 0.0 && v < 1.0);
        let (_, tokens, _) = build(&[("a:0", "same same")], &[("b:0", "same")]);
        let v = weighted_jaccard(&tokens, EntityId(0), EntityId(0));
        assert!((v - 1.0).abs() < 1e-12);
    }
}
