//! Token Blocking — the schema-agnostic blocking method behind `BT`.
//!
//! Every distinct token appearing in the values of *both* KBs defines one
//! block containing every entity (of either side) whose values contain
//! that token. No schema knowledge is used, which is exactly why the
//! method achieves the >99% recall the paper reports on highly
//! heterogeneous KBs.

use minoan_exec::Executor;
use minoan_kb::{EntityId, FxHashMap, KbSide, TokenId};
use minoan_text::TokenizedPair;

use crate::block::{Block, BlockCollection, BlockKind};

/// Builds the token block collection `BT` sequentially.
///
/// Blocks whose key occurs on only one side are dropped: they can never
/// produce a comparison.
pub fn token_blocking(tokens: &TokenizedPair) -> BlockCollection {
    token_blocking_with(tokens, &Executor::sequential())
}

/// Builds `BT` on `exec`: each part inverts an entity range into a
/// partial `token -> entities` index; partials are merged in part order,
/// so every block's entity list is in ascending entity order — exactly
/// the sequential result — for any thread count.
///
/// Blocks are emitted in **lexicographic token-string order**.
/// Floating-point similarity sums accumulate in block order, so this
/// order is each pair's addition sequence — the one the
/// `GOLDEN_FINGERPRINTS` of `tests/executor_equivalence.rs` pin bit
/// for bit. Emitting blocks in any other order (token id, say) moves
/// low bits of `valueSim` and with them candidate ranks.
pub fn token_blocking_with(tokens: &TokenizedPair, exec: &Executor) -> BlockCollection {
    let n_tokens = tokens.dict().len();
    let n1 = tokens.entity_count(KbSide::First);
    let n2 = tokens.entity_count(KbSide::Second);
    let firsts = invert_side(tokens, KbSide::First, n_tokens, exec);
    let seconds = invert_side(tokens, KbSide::Second, n_tokens, exec);
    // Assemble blocks in parallel over token ranges; concatenating the
    // parts preserves ascending token order, then one sort establishes
    // the canonical lexicographic order (keys are distinct, so the
    // order is total and thread-count independent).
    let block_parts = exec.map_parts(n_tokens, |range| {
        let mut blocks = Vec::new();
        for t in range {
            let (f, s) = (&firsts[t], &seconds[t]);
            if !f.is_empty() && !s.is_empty() {
                blocks.push(Block {
                    key: t as u32,
                    firsts: f.clone(),
                    seconds: s.clone(),
                });
            }
        }
        blocks
    });
    let mut blocks = block_parts.concat();
    let dict = tokens.dict();
    blocks.sort_unstable_by(|a, b| dict.token(TokenId(a.key)).cmp(dict.token(TokenId(b.key))));
    BlockCollection::new(BlockKind::Token, blocks, n1, n2)
}

/// Inverts one side's `entity -> tokens` lists into `token -> entities`
/// via per-part partial indexes merged in part order.
fn invert_side(
    tokens: &TokenizedPair,
    side: KbSide,
    n_tokens: usize,
    exec: &Executor,
) -> Vec<Vec<EntityId>> {
    let n = tokens.entity_count(side);
    let partials = exec.map_parts(n, |range| {
        let mut partial: FxHashMap<u32, Vec<EntityId>> = FxHashMap::default();
        for e in range {
            let e = EntityId(e as u32);
            for &t in tokens.tokens(side, e) {
                partial.entry(t.0).or_default().push(e);
            }
        }
        partial
    });
    let mut inverted: Vec<Vec<EntityId>> = vec![Vec::new(); n_tokens];
    for partial in partials {
        // Per-part lists are in ascending entity order and parts cover
        // ascending entity ranges, so appending keeps each token's list
        // sorted regardless of the partial map's iteration order.
        for (t, mut list) in partial {
            let slot = &mut inverted[t as usize];
            if slot.is_empty() {
                *slot = list;
            } else {
                slot.append(&mut list);
            }
        }
    }
    inverted
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
        let toks = TokenizedPair::build(&pair, &Tokenizer::default());
        let bt = token_blocking(&toks);
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
        let toks = TokenizedPair::build(&pair, &Tokenizer::default());
        let seq = token_blocking(&toks);
        for threads in [2, 3, 8] {
            let par = token_blocking_with(&toks, &Executor::new(ExecutorKind::Pool, threads));
            assert_eq!(seq.blocks(), par.blocks(), "threads={threads}");
        }
    }
}
