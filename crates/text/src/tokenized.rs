//! Tokenized view of a KB pair.
//!
//! Every similarity MinoanER computes is a function of token statistics,
//! so the pipeline tokenizes both KBs once up front: a shared
//! [`TokenDictionary`] assigns dense [`TokenId`]s and tracks per-side
//! *Entity Frequency* (`EF_E(t)` = number of entities of KB `E` whose
//! values contain token `t`), and a [`TokenizedPair`] stores each entity's
//! deduplicated, sorted token set.

use minoan_exec::Executor;
use minoan_kb::{EntityId, Interner, KbPair, KbSide, KnowledgeBase, TokenId};

use crate::tokenizer::Tokenizer;

/// Token dictionary shared by the two KBs of a pair, with per-side entity
/// frequencies.
#[derive(Debug, Clone, Default)]
pub struct TokenDictionary {
    interner: Interner,
    ef: [Vec<u32>; 2],
}

impl TokenDictionary {
    /// Resolves a token string to its id.
    pub fn token_id(&self, token: &str) -> Option<TokenId> {
        self.interner.get(token).map(TokenId)
    }

    /// Resolves a token id back to its string.
    pub fn token(&self, id: TokenId) -> &str {
        self.interner.resolve(id.0)
    }

    /// Entity frequency of `t` in the KB on `side`.
    pub fn ef(&self, side: KbSide, t: TokenId) -> u32 {
        self.ef[side.index()][t.index()]
    }

    /// Number of distinct tokens across both KBs.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Iterates all token ids.
    pub fn tokens(&self) -> impl Iterator<Item = TokenId> {
        (0..self.interner.len() as u32).map(TokenId)
    }
}

/// Tokenized entities of one KB side.
#[derive(Debug, Clone, Default)]
struct TokenizedKb {
    /// Sorted, deduplicated token set per entity.
    entity_tokens: Vec<Box<[TokenId]>>,
    /// Total token occurrences (with duplicates), for the "av. tokens"
    /// column of Table I.
    total_occurrences: usize,
}

/// The tokenized view of a KB pair: shared dictionary plus per-entity
/// token sets for both sides.
#[derive(Debug, Clone, Default)]
pub struct TokenizedPair {
    dict: TokenDictionary,
    sides: [TokenizedKb; 2],
}

impl TokenizedPair {
    /// Tokenizes both KBs of `pair` with `tokenizer` on `exec`: each
    /// part tokenizes an entity range against a **part-local** interner,
    /// and the partials are merged in part order by re-interning each
    /// part's dictionary in local-id (= first-seen) order. A token's
    /// global first occurrence lies in the earliest part containing it,
    /// so the merged dictionary assigns exactly the sequential first-seen
    /// ids — the result is bit-identical for any backend and thread
    /// count.
    pub fn build_with(pair: &KbPair, tokenizer: &Tokenizer, exec: &Executor) -> Self {
        let mut dict = TokenDictionary::default();
        let mut sides: [TokenizedKb; 2] = Default::default();
        for side in [KbSide::First, KbSide::Second] {
            let kb = pair.kb(side);
            sides[side.index()] = tokenize_side(kb, side, tokenizer, &mut dict, exec);
        }
        // EF vectors may be shorter than the final dictionary if one side
        // never saw the later tokens; pad to full length.
        for side_ef in &mut dict.ef {
            side_ef.resize(dict.interner.len(), 0);
        }
        Self { dict, sides }
    }

    /// The shared token dictionary.
    pub fn dict(&self) -> &TokenDictionary {
        &self.dict
    }

    /// The sorted, deduplicated token set of an entity.
    pub fn tokens(&self, side: KbSide, e: EntityId) -> &[TokenId] {
        &self.sides[side.index()].entity_tokens[e.index()]
    }

    /// Number of entities tokenized on `side`.
    pub fn entity_count(&self, side: KbSide) -> usize {
        self.sides[side.index()].entity_tokens.len()
    }

    /// Average number of token occurrences per entity (Table I's
    /// "av. tokens").
    pub fn avg_tokens(&self, side: KbSide) -> f64 {
        let s = &self.sides[side.index()];
        if s.entity_tokens.is_empty() {
            return 0.0;
        }
        s.total_occurrences as f64 / s.entity_tokens.len() as f64
    }
}

/// One part's tokenization output: a part-local dictionary plus each
/// entity's token set as local ids (sorted and deduplicated — dedup by
/// local id equals dedup by string, but the *order* is part-local and is
/// re-established after remapping).
struct TokenizedPart {
    local: Interner,
    entity_tokens: Vec<Vec<u32>>,
    occurrences: usize,
}

fn tokenize_side(
    kb: &KnowledgeBase,
    side: KbSide,
    tokenizer: &Tokenizer,
    dict: &mut TokenDictionary,
    exec: &Executor,
) -> TokenizedKb {
    let n = kb.entity_count();
    let parts = exec.map_parts(n, |range| {
        let mut local = Interner::new();
        let mut entity_tokens = Vec::with_capacity(range.len());
        let mut occurrences = 0usize;
        let mut buf: Vec<String> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for e in range {
            buf.clear();
            ids.clear();
            for literal in kb.literals(EntityId(e as u32)) {
                tokenizer.tokenize_into(literal, &mut buf);
            }
            occurrences += buf.len();
            for tok in buf.drain(..) {
                ids.push(local.intern(&tok));
            }
            ids.sort_unstable();
            ids.dedup();
            entity_tokens.push(ids.clone());
        }
        TokenizedPart {
            local,
            entity_tokens,
            occurrences,
        }
    });

    // Ordered merge: re-intern each part's dictionary in local-id order
    // (its first-seen order), remap every entity's token set and re-sort
    // by global id. Entity frequency increments run in entity order,
    // exactly as the sequential pass would.
    let mut entity_tokens: Vec<Box<[TokenId]>> = Vec::with_capacity(n);
    let mut total_occurrences = 0usize;
    for part in parts {
        let remap: Vec<u32> = part
            .local
            .iter()
            .map(|(_, tok)| dict.interner.intern(tok))
            .collect();
        total_occurrences += part.occurrences;
        let ef = &mut dict.ef[side.index()];
        for local_ids in part.entity_tokens {
            let mut ids: Vec<TokenId> = local_ids
                .into_iter()
                .map(|l| TokenId(remap[l as usize]))
                .collect();
            ids.sort_unstable();
            for &t in ids.iter() {
                if ef.len() <= t.index() {
                    ef.resize(t.index() + 1, 0);
                }
                ef[t.index()] += 1;
            }
            entity_tokens.push(ids.into_boxed_slice());
        }
    }
    TokenizedKb {
        entity_tokens,
        total_occurrences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_kb::KbBuilder;

    fn build(p: &KbPair) -> TokenizedPair {
        TokenizedPair::build_with(p, &Tokenizer::default(), &Executor::sequential())
    }

    fn pair() -> KbPair {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:1", "name", "Kri Kri Taverna");
        a.add_literal("a:1", "city", "Heraklion");
        a.add_literal("a:2", "name", "Labyrinth Grill");
        a.add_literal("a:2", "city", "Heraklion");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:1", "title", "taverna KRI kri");
        b.add_literal("b:2", "title", "Palace of Knossos");
        KbPair::new(a.finish(), b.finish())
    }

    #[test]
    fn ef_counts_entities_not_occurrences() {
        let p = pair();
        let t = build(&p);
        let kri = t.dict().token_id("kri").unwrap();
        // "kri" appears twice in a:1 but counts once.
        assert_eq!(t.dict().ef(KbSide::First, kri), 1);
        assert_eq!(t.dict().ef(KbSide::Second, kri), 1);
        let heraklion = t.dict().token_id("heraklion").unwrap();
        assert_eq!(t.dict().ef(KbSide::First, heraklion), 2);
        assert_eq!(t.dict().ef(KbSide::Second, heraklion), 0);
    }

    #[test]
    fn entity_token_sets_are_sorted_and_deduped() {
        let p = pair();
        let t = build(&p);
        let toks = t.tokens(KbSide::First, EntityId(0));
        assert!(toks.windows(2).all(|w| w[0] < w[1]));
        // kri kri taverna heraklion -> 3 distinct
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn avg_tokens_counts_occurrences() {
        let p = pair();
        let t = build(&p);
        // a:1 has 4 occurrences (kri kri taverna heraklion), a:2 has 3.
        assert!((t.avg_tokens(KbSide::First) - 3.5).abs() < 1e-9);
        assert_eq!(t.entity_count(KbSide::First), 2);
        assert_eq!(t.entity_count(KbSide::Second), 2);
    }

    #[test]
    fn empty_pair_is_fine() {
        let p = KbPair::new(KbBuilder::new("x").finish(), KbBuilder::new("y").finish());
        let t = build(&p);
        assert!(t.dict().is_empty());
        assert_eq!(t.avg_tokens(KbSide::First), 0.0);
    }

    #[test]
    fn parallel_tokenization_is_bit_identical_to_sequential() {
        use minoan_exec::ExecutorKind;
        let mut a = KbBuilder::new("E1");
        let mut b = KbBuilder::new("E2");
        for i in 0..50 {
            a.add_literal(
                &format!("a:{i}"),
                "name",
                &format!("shared tok{} word{} extra{}", i % 7, i % 3, i),
            );
            b.add_literal(
                &format!("b:{i}"),
                "label",
                &format!("shared tok{} other{}", i % 7, i % 5),
            );
        }
        let p = KbPair::new(a.finish(), b.finish());
        let seq = build(&p);
        for threads in [2, 3, 7, 16] {
            let exec = Executor::new(ExecutorKind::Pool, threads);
            let par = TokenizedPair::build_with(&p, &Tokenizer::default(), &exec);
            assert_eq!(seq.dict().len(), par.dict().len(), "threads={threads}");
            for t in seq.dict().tokens() {
                assert_eq!(
                    seq.dict().token(t),
                    par.dict().token(t),
                    "threads={threads}"
                );
                for side in [KbSide::First, KbSide::Second] {
                    assert_eq!(seq.dict().ef(side, t), par.dict().ef(side, t));
                }
            }
            for side in [KbSide::First, KbSide::Second] {
                assert_eq!(seq.entity_count(side), par.entity_count(side));
                assert_eq!(seq.avg_tokens(side), par.avg_tokens(side));
                for e in 0..seq.entity_count(side) as u32 {
                    assert_eq!(
                        seq.tokens(side, EntityId(e)),
                        par.tokens(side, EntityId(e)),
                        "threads={threads} side={side:?} e={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn dictionary_is_shared_across_sides() {
        let p = pair();
        let t = build(&p);
        let taverna = t.dict().token_id("taverna").unwrap();
        assert!(t.tokens(KbSide::First, EntityId(0)).contains(&taverna));
        assert!(t.tokens(KbSide::Second, EntityId(0)).contains(&taverna));
    }
}
