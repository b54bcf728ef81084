//! Mutable token-block membership for incremental delta resolution.
//!
//! [`crate::token_blocking()`] builds an immutable [`BlockCollection`]
//! from scratch; a delta session instead keeps the raw `token →
//! entities` membership lists **mutable** so a dirty entity's tokens
//! can be spliced in O(its token count · log block size): remove the
//! entity from the tokens it lost, insert it into the tokens it gained,
//! keep every list sorted by entity id (the order a from-scratch
//! inversion produces). Materializing the purged collection in a given
//! token order then yields exactly what `token_blocking` + purging
//! would build over the mutated corpus.

use minoan_kb::{EntityId, KbSide, TokenId};
use minoan_text::TokenizedPair;

use crate::block::{Block, BlockCollection, BlockKind};

/// Mutable per-token membership lists for both sides of a pair.
#[derive(Debug, Clone, Default)]
pub struct MutableBlocks {
    /// `members[side][token]`, each list sorted ascending by entity id.
    members: [Vec<Vec<EntityId>>; 2],
}

impl MutableBlocks {
    /// Inverts a tokenized pair into mutable membership lists — the
    /// O(corpus) part, paid once when a delta session opens.
    pub fn from_tokenized(tokens: &TokenizedPair) -> Self {
        let n_tokens = tokens.dict().len();
        let mut members: [Vec<Vec<EntityId>>; 2] =
            [vec![Vec::new(); n_tokens], vec![Vec::new(); n_tokens]];
        for side in [KbSide::First, KbSide::Second] {
            let lists = &mut members[side.index()];
            for e in 0..tokens.entity_count(side) as u32 {
                let e = EntityId(e);
                // Entities are visited in ascending id order, so plain
                // appends leave every list sorted.
                for &t in tokens.tokens(side, e) {
                    lists[t.index()].push(e);
                }
            }
        }
        Self { members }
    }

    /// Number of tokens tracked.
    pub fn token_count(&self) -> usize {
        self.members[0].len()
    }

    /// Grows the table to cover token `t` (both sides, empty lists).
    pub fn ensure_token(&mut self, t: TokenId) {
        for side in &mut self.members {
            if side.len() <= t.index() {
                side.resize(t.index() + 1, Vec::new());
            }
        }
    }

    /// Inserts `e` into token `t` on `side`, keeping the list sorted.
    /// Returns `false` if it was already present.
    pub fn insert(&mut self, side: KbSide, t: TokenId, e: EntityId) -> bool {
        let list = &mut self.members[side.index()][t.index()];
        match list.binary_search(&e) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, e);
                true
            }
        }
    }

    /// Removes `e` from token `t` on `side`. Returns `false` if absent.
    pub fn remove(&mut self, side: KbSide, t: TokenId, e: EntityId) -> bool {
        let list = &mut self.members[side.index()][t.index()];
        match list.binary_search(&e) {
            Ok(pos) => {
                list.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The sorted member list of token `t` on `side`.
    pub fn members(&self, side: KbSide, t: TokenId) -> &[EntityId] {
        &self.members[side.index()][t.index()]
    }

    /// Whether token `t` has members on both sides (defines a block).
    pub fn is_both_sided(&self, t: TokenId) -> bool {
        !self.members[0][t.index()].is_empty() && !self.members[1][t.index()].is_empty()
    }

    /// The `(comparisons, assignments)` cardinality of token `t`'s
    /// block, or `None` if the token is not both-sided.
    pub fn card(&self, t: TokenId) -> Option<(u64, u64)> {
        let f = self.members[0][t.index()].len() as u64;
        let s = self.members[1][t.index()].len() as u64;
        (f > 0 && s > 0).then_some((f * s, f + s))
    }

    /// Cardinalities of every both-sided token, in token-id order (the
    /// purging criterion only consumes the multiset).
    pub fn cards(&self) -> Vec<(u64, u64)> {
        (0..self.token_count() as u32)
            .filter_map(|t| self.card(TokenId(t)))
            .collect()
    }

    /// Materializes the block collection: both-sided tokens within the
    /// comparison budget, emitted in the order of `token_order` (the
    /// delta session passes its lexicographically sorted token list,
    /// matching the canonical order of
    /// [`crate::token_blocking_with`]). `token_order` must cover every
    /// tracked token.
    pub fn materialize(
        &self,
        kind: BlockKind,
        token_order: &[TokenId],
        max_comparisons: Option<u64>,
        n_first: usize,
        n_second: usize,
    ) -> BlockCollection {
        debug_assert_eq!(token_order.len(), self.token_count());
        let mut blocks = Vec::new();
        for &t in token_order {
            let Some((comparisons, _)) = self.card(t) else {
                continue;
            };
            if max_comparisons.is_some_and(|max| comparisons > max) {
                continue;
            }
            blocks.push(Block {
                key: t.0,
                firsts: self.members[0][t.index()].clone(),
                seconds: self.members[1][t.index()].clone(),
            });
        }
        BlockCollection::new(kind, blocks, n_first, n_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::purging::{threshold_from_cards, DEFAULT_SMOOTHING};
    use crate::token_blocking::token_blocking;
    use minoan_kb::{KbBuilder, KbPair};
    use minoan_text::Tokenizer;

    fn pair() -> KbPair {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:1", "name", "kri kri taverna");
        a.add_literal("a:2", "name", "labyrinth grill");
        a.add_literal("a:3", "name", "palace");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:1", "title", "taverna kri");
        b.add_literal("b:2", "title", "knossos palace hotel");
        KbPair::new(a.finish(), b.finish())
    }

    fn lex_order(tokens: &TokenizedPair) -> Vec<TokenId> {
        let mut order: Vec<TokenId> = tokens.dict().tokens().collect();
        order.sort_unstable_by(|&a, &b| tokens.dict().token(a).cmp(tokens.dict().token(b)));
        order
    }

    #[test]
    fn materialize_matches_token_blocking() {
        let p = pair();
        let tokens = TokenizedPair::build(&p, &Tokenizer::default());
        let mb = MutableBlocks::from_tokenized(&tokens);
        let got = mb.materialize(
            BlockKind::Token,
            &lex_order(&tokens),
            None,
            tokens.entity_count(KbSide::First),
            tokens.entity_count(KbSide::Second),
        );
        let want = token_blocking(&tokens);
        assert_eq!(got.blocks(), want.blocks());
    }

    #[test]
    fn insert_remove_keeps_lists_sorted() {
        let p = pair();
        let tokens = TokenizedPair::build(&p, &Tokenizer::default());
        let mut mb = MutableBlocks::from_tokenized(&tokens);
        let kri = tokens.dict().token_id("kri").unwrap();
        assert!(mb.insert(KbSide::First, kri, EntityId(2)));
        assert!(!mb.insert(KbSide::First, kri, EntityId(2)));
        assert_eq!(mb.members(KbSide::First, kri), &[EntityId(0), EntityId(2)]);
        assert!(mb.remove(KbSide::First, kri, EntityId(0)));
        assert!(!mb.remove(KbSide::First, kri, EntityId(0)));
        assert_eq!(mb.members(KbSide::First, kri), &[EntityId(2)]);
    }

    #[test]
    fn cards_match_threshold_inputs() {
        let p = pair();
        let tokens = TokenizedPair::build(&p, &Tokenizer::default());
        let mb = MutableBlocks::from_tokenized(&tokens);
        let bt = token_blocking(&tokens);
        let mut from_blocks: Vec<(u64, u64)> = bt
            .blocks()
            .iter()
            .map(|b| (b.comparisons(), b.assignments()))
            .collect();
        let mut from_mb = mb.cards();
        from_blocks.sort_unstable();
        from_mb.sort_unstable();
        assert_eq!(from_mb, from_blocks);
        assert_eq!(
            threshold_from_cards(from_mb, DEFAULT_SMOOTHING),
            crate::purging::purging_threshold(&bt, DEFAULT_SMOOTHING)
        );
    }

    #[test]
    fn single_sided_tokens_produce_no_block() {
        let p = pair();
        let tokens = TokenizedPair::build(&p, &Tokenizer::default());
        let mut mb = MutableBlocks::from_tokenized(&tokens);
        let labyrinth = tokens.dict().token_id("labyrinth").unwrap();
        assert!(!mb.is_both_sided(labyrinth));
        assert_eq!(mb.card(labyrinth), None);
        // Giving it a second-side member creates the block.
        mb.insert(KbSide::Second, labyrinth, EntityId(0));
        assert_eq!(mb.card(labyrinth), Some((1, 2)));
    }

    #[test]
    fn ensure_token_grows_the_table() {
        let mut mb = MutableBlocks::default();
        assert_eq!(mb.token_count(), 0);
        mb.ensure_token(TokenId(3));
        assert_eq!(mb.token_count(), 4);
        mb.insert(KbSide::First, TokenId(3), EntityId(1));
        mb.insert(KbSide::Second, TokenId(3), EntityId(0));
        assert!(mb.is_both_sided(TokenId(3)));
    }

    #[test]
    fn materialize_applies_comparison_budget() {
        let p = pair();
        let tokens = TokenizedPair::build(&p, &Tokenizer::default());
        let mut mb = MutableBlocks::from_tokenized(&tokens);
        let kri = tokens.dict().token_id("kri").unwrap();
        // Inflate kri's block so it exceeds a 2-comparison budget.
        mb.insert(KbSide::First, kri, EntityId(1));
        mb.insert(KbSide::First, kri, EntityId(2));
        let got = mb.materialize(BlockKind::Token, &lex_order(&tokens), Some(2), 3, 2);
        assert!(got.blocks().iter().all(|b| b.key != kri.0));
    }
}
