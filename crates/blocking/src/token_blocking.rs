//! Token Blocking — the schema-agnostic blocking method behind `BT`.
//!
//! Every distinct token appearing in the values of *both* KBs defines one
//! block containing every entity (of either side) whose values contain
//! that token. No schema knowledge is used, which is exactly why the
//! method achieves the >99% recall the paper reports on highly
//! heterogeneous KBs.

use minoan_exec::Executor;
use minoan_kb::{EntityId, KbSide, TokenId};
use minoan_text::TokenizedPair;

use crate::block::{Block, BlockCollection, BlockKind};

/// Builds the token block collection `BT` on `exec`.
///
/// Blocks whose key occurs on only one side are dropped: they can never
/// produce a comparison. Each remaining token's two posting lists are
/// allocated at their exact lengths — the token's entity frequencies,
/// which the dictionary already holds — and filled by one scan of each
/// side's entities in ascending order (one part per side on `exec`),
/// so every block's entity lists are in ascending entity order for any
/// thread count. The lists move into the blocks as they are. The one
/// serial step, choosing the shared tokens and ordering them, is the
/// debug span `token_blocking.merge`.
///
/// Blocks are emitted in **lexicographic token-string order**.
/// Floating-point similarity sums accumulate in block order, so this
/// order is each pair's addition sequence — the one the
/// `GOLDEN_FINGERPRINTS` of `tests/executor_equivalence.rs` pin bit
/// for bit. Emitting blocks in any other order (token id, say) moves
/// low bits of `valueSim` and with them candidate ranks.
pub fn token_blocking_with(tokens: &TokenizedPair, exec: &Executor) -> BlockCollection {
    let dict = tokens.dict();
    let merge = minoan_obs::trace::span(
        minoan_obs::Level::Debug,
        "token_blocking.merge",
        String::new,
    );
    // Keys are distinct, so the order is total.
    let mut keys: Vec<TokenId> = dict
        .tokens()
        .filter(|&t| dict.ef(KbSide::First, t) > 0 && dict.ef(KbSide::Second, t) > 0)
        .collect();
    keys.sort_unstable_by(|&a, &b| dict.token(a).cmp(dict.token(b)));
    let mut block_of = vec![u32::MAX; dict.len()];
    for (i, &t) in keys.iter().enumerate() {
        block_of[t.index()] = i as u32;
    }
    drop(merge);
    let sides = [KbSide::First, KbSide::Second];
    // One part per side: the two scans share nothing.
    let mut postings = exec.map_range(2, |s| {
        let side = sides[s];
        let mut lists: Vec<Vec<EntityId>> = keys
            .iter()
            .map(|&t| Vec::with_capacity(dict.ef(side, t) as usize))
            .collect();
        for e in 0..tokens.entity_count(side) {
            let e = EntityId(e as u32);
            for &t in tokens.tokens(side, e) {
                // A token of one side only maps past the end: no block.
                if let Some(list) = lists.get_mut(block_of[t.index()] as usize) {
                    list.push(e);
                }
            }
        }
        lists
    });
    let seconds = postings.pop().expect("two sides");
    let firsts = postings.pop().expect("two sides");
    let blocks = keys
        .iter()
        .zip(firsts.into_iter().zip(seconds))
        .map(|(&t, (firsts, seconds))| Block {
            key: t.0,
            firsts,
            seconds,
        })
        .collect();
    BlockCollection::new(
        BlockKind::Token,
        blocks,
        tokens.entity_count(KbSide::First),
        tokens.entity_count(KbSide::Second),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_exec::ExecutorKind;
    use minoan_kb::{KbBuilder, KbPair, TokenId};
    use minoan_text::Tokenizer;

    fn build() -> (TokenizedPair, BlockCollection) {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:1", "name", "kri kri taverna");
        a.add_literal("a:2", "name", "labyrinth grill");
        a.add_literal("a:3", "name", "palace");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:1", "title", "taverna kri");
        b.add_literal("b:2", "title", "knossos palace hotel");
        let pair = KbPair::new(a.finish(), b.finish());
        let seq = Executor::sequential();
        let toks = TokenizedPair::build_with(&pair, &Tokenizer::default(), &seq);
        let bt = token_blocking_with(&toks, &seq);
        (toks, bt)
    }

    #[test]
    fn only_shared_tokens_create_blocks() {
        let (toks, bt) = build();
        // Shared tokens: kri, taverna, palace.
        assert_eq!(bt.len(), 3);
        let keys: Vec<&str> = bt
            .blocks()
            .iter()
            .map(|b| toks.dict().token(TokenId(b.key)))
            .collect();
        assert!(keys.contains(&"kri"));
        assert!(keys.contains(&"taverna"));
        assert!(keys.contains(&"palace"));
        assert!(!keys.contains(&"labyrinth"));
    }

    #[test]
    fn block_membership_is_correct() {
        let (toks, bt) = build();
        let kri = toks.dict().token_id("kri").unwrap();
        let block = bt.blocks().iter().find(|b| b.key == kri.0).unwrap();
        assert_eq!(block.firsts, vec![EntityId(0)]);
        assert_eq!(block.seconds, vec![EntityId(0)]);
    }

    #[test]
    fn candidate_sets_follow_blocks() {
        let (_, bt) = build();
        // a:1 shares kri+taverna with b:1 only.
        let cands = bt.co_occurring(KbSide::First, EntityId(0));
        assert_eq!(cands, vec![EntityId(0)]);
        // a:2 shares nothing.
        assert!(bt.co_occurring(KbSide::First, EntityId(1)).is_empty());
        // a:3 shares palace with b:2.
        assert_eq!(
            bt.co_occurring(KbSide::First, EntityId(2)),
            vec![EntityId(1)]
        );
    }

    #[test]
    fn matching_pair_always_shares_a_block_if_it_shares_a_token() {
        let (_, bt) = build();
        assert!(bt.pair_co_occurs(EntityId(0), EntityId(0)));
        assert!(!bt.pair_co_occurs(EntityId(1), EntityId(0)));
    }

    #[test]
    fn parallel_blocking_matches_sequential_exactly() {
        let mut a = KbBuilder::new("E1");
        let mut b = KbBuilder::new("E2");
        for i in 0..40 {
            a.add_literal(
                &format!("a:{i}"),
                "name",
                &format!("shared token{} word{} tail", i % 7, i % 3),
            );
            b.add_literal(
                &format!("b:{i}"),
                "label",
                &format!("shared token{} other{}", i % 7, i % 5),
            );
        }
        let pair = KbPair::new(a.finish(), b.finish());
        let exec = Executor::sequential();
        let toks = TokenizedPair::build_with(&pair, &Tokenizer::default(), &exec);
        let seq = token_blocking_with(&toks, &exec);
        for threads in [2, 3, 8] {
            let par = token_blocking_with(&toks, &Executor::new(ExecutorKind::Pool, threads));
            assert_eq!(seq.blocks(), par.blocks(), "threads={threads}");
        }
    }
}
