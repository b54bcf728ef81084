//! Block collections.
//!
//! A *block* groups entities that share a blocking key (a token for `BT`,
//! an entire name for `BN`). Only entities inside the same block are ever
//! compared, which is what makes ER sub-quadratic. Blocks here are
//! *bilateral*: they keep the entities of each KB side separate, and a
//! block's comparison cardinality is `|firsts| · |seconds|`.

use minoan_kb::{BlockId, Csr, EntityId, FxHashSet, KbSide};

/// What a block collection was keyed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Token Blocking (`BT`): one block per shared token.
    Token,
    /// Name Blocking (`BN`): one block per distinctive entity name.
    Name,
}

/// One bilateral block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The blocking key id (a `TokenId` value for token blocks, a name
    /// interner id for name blocks).
    pub key: u32,
    /// Entities of the first KB carrying the key.
    pub firsts: Vec<EntityId>,
    /// Entities of the second KB carrying the key.
    pub seconds: Vec<EntityId>,
}

impl Block {
    /// The block's comparison cardinality `|firsts| · |seconds|`.
    pub fn comparisons(&self) -> u64 {
        self.firsts.len() as u64 * self.seconds.len() as u64
    }

    /// Total block assignments (entities placed in this block).
    pub fn assignments(&self) -> u64 {
        (self.firsts.len() + self.seconds.len()) as u64
    }

    /// Entities of the given side.
    pub fn side(&self, side: KbSide) -> &[EntityId] {
        match side {
            KbSide::First => &self.firsts,
            KbSide::Second => &self.seconds,
        }
    }
}

/// An immutable collection of bilateral blocks, with a per-entity index.
#[derive(Debug, Clone)]
pub struct BlockCollection {
    kind: BlockKind,
    blocks: Vec<Block>,
    /// Blocks containing each first-KB entity (CSR: one flat buffer).
    first_index: Csr<BlockId>,
    /// Blocks containing each second-KB entity (CSR: one flat buffer).
    second_index: Csr<BlockId>,
}

/// Inverts `blocks` into a per-entity CSR of containing block ids for
/// one side: counting pass, prefix sum, fill pass. Row contents are in
/// ascending block-id order because blocks are scanned in order.
fn entity_index(blocks: &[Block], side: KbSide, n: usize) -> Csr<BlockId> {
    let mut lens = vec![0usize; n];
    for b in blocks {
        for e in b.side(side) {
            lens[e.index()] += 1;
        }
    }
    let total = lens.iter().sum();
    let mut cursors = minoan_kb::csr::offsets_from_lens(&lens);
    let mut items = vec![BlockId(0); total];
    for (i, b) in blocks.iter().enumerate() {
        let id = BlockId(i as u32);
        for e in b.side(side) {
            items[cursors[e.index()]] = id;
            cursors[e.index()] += 1;
        }
    }
    Csr::from_lens_and_items(&lens, items)
}

impl BlockCollection {
    /// Builds a collection from blocks, indexing entities of KBs with
    /// `n_first`/`n_second` entities. Blocks with an empty side are kept
    /// out of the comparison structure by their zero cardinality but are
    /// normally filtered by the builders before this point.
    pub fn new(kind: BlockKind, blocks: Vec<Block>, n_first: usize, n_second: usize) -> Self {
        let first_index = entity_index(&blocks, KbSide::First, n_first);
        let second_index = entity_index(&blocks, KbSide::Second, n_second);
        Self {
            kind,
            blocks,
            first_index,
            second_index,
        }
    }

    /// The collection kind.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// Number of blocks (the paper's `|B|`).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Total comparison cardinality (the paper's `||B||`).
    pub fn total_comparisons(&self) -> u64 {
        self.blocks.iter().map(Block::comparisons).sum()
    }

    /// The blocks containing entity `e` of `side`.
    pub fn blocks_of(&self, side: KbSide, e: EntityId) -> &[BlockId] {
        match side {
            KbSide::First => self.first_index.row(e.index()),
            KbSide::Second => self.second_index.row(e.index()),
        }
    }

    /// Number of indexed entities on `side`.
    pub fn entity_count(&self, side: KbSide) -> usize {
        match side {
            KbSide::First => self.first_index.rows(),
            KbSide::Second => self.second_index.rows(),
        }
    }

    /// The distinct entities of the *other* side co-occurring with `e` in
    /// at least one block (the candidate set of `e`).
    pub fn co_occurring(&self, side: KbSide, e: EntityId) -> Vec<EntityId> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for &bid in self.blocks_of(side, e) {
            for &other in self.block(bid).side(side.other()) {
                if seen.insert(other) {
                    out.push(other);
                }
            }
        }
        out
    }

    /// Iterates every distinct candidate pair `(e1, e2)` of the
    /// collection exactly once.
    pub fn distinct_pairs(&self) -> Vec<(EntityId, EntityId)> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for b in &self.blocks {
            for &e1 in &b.firsts {
                for &e2 in &b.seconds {
                    if seen.insert((e1, e2)) {
                        out.push((e1, e2));
                    }
                }
            }
        }
        out
    }

    /// Whether a specific pair co-occurs in at least one block.
    pub fn pair_co_occurs(&self, e1: EntityId, e2: EntityId) -> bool {
        let r1 = self.first_index.row(e1.index());
        let r2 = self.second_index.row(e2.index());
        let (short, needle, side) = if r1.len() <= r2.len() {
            (r1, e2, KbSide::Second)
        } else {
            (r2, e1, KbSide::First)
        };
        short
            .iter()
            .any(|&bid| self.block(bid).side(side).contains(&needle))
    }

    /// Removes blocks not satisfying `keep`, rebuilding the index.
    pub fn filter_blocks(&self, mut keep: impl FnMut(&Block) -> bool) -> BlockCollection {
        let blocks: Vec<Block> = self.blocks.iter().filter(|b| keep(b)).cloned().collect();
        BlockCollection::new(
            self.kind,
            blocks,
            self.first_index.rows(),
            self.second_index.rows(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn sample() -> BlockCollection {
        // Block 0: {0,1} x {0}; Block 1: {1} x {0,1}
        let blocks = vec![
            Block {
                key: 0,
                firsts: vec![e(0), e(1)],
                seconds: vec![e(0)],
            },
            Block {
                key: 1,
                firsts: vec![e(1)],
                seconds: vec![e(0), e(1)],
            },
        ];
        BlockCollection::new(BlockKind::Token, blocks, 2, 2)
    }

    #[test]
    fn cardinalities() {
        let c = sample();
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_comparisons(), 2 + 2);
        assert_eq!(c.block(BlockId(0)).comparisons(), 2);
    }

    #[test]
    fn index_is_consistent() {
        let c = sample();
        assert_eq!(c.blocks_of(KbSide::First, e(0)), &[BlockId(0)]);
        assert_eq!(c.blocks_of(KbSide::First, e(1)), &[BlockId(0), BlockId(1)]);
        assert_eq!(c.blocks_of(KbSide::Second, e(0)), &[BlockId(0), BlockId(1)]);
    }

    #[test]
    fn co_occurring_is_deduplicated() {
        let c = sample();
        let cand = c.co_occurring(KbSide::First, e(1));
        assert_eq!(cand.len(), 2);
        assert!(cand.contains(&e(0)) && cand.contains(&e(1)));
        let cand = c.co_occurring(KbSide::Second, e(0));
        assert_eq!(cand.len(), 2);
    }

    #[test]
    fn distinct_pairs_deduplicates_cross_block_repeats() {
        let c = sample();
        let pairs = c.distinct_pairs();
        // (1,0) occurs in both blocks but is listed once.
        assert_eq!(pairs.len(), 3);
        assert_eq!(
            pairs
                .iter()
                .filter(|&&(a, b)| a == e(1) && b == e(0))
                .count(),
            1
        );
    }

    #[test]
    fn pair_co_occurrence_checks() {
        let c = sample();
        assert!(c.pair_co_occurs(e(0), e(0)));
        assert!(c.pair_co_occurs(e(1), e(1)));
        assert!(!c.pair_co_occurs(e(0), e(1)));
    }

    #[test]
    fn filter_blocks_rebuilds_index() {
        let c = sample().filter_blocks(|b| b.key == 1);
        assert_eq!(c.len(), 1);
        assert!(c.blocks_of(KbSide::First, e(0)).is_empty());
        assert_eq!(c.blocks_of(KbSide::First, e(1)), &[BlockId(0)]);
        assert_eq!(c.total_comparisons(), 2);
    }

    #[test]
    fn empty_collection() {
        let c = BlockCollection::new(BlockKind::Name, vec![], 0, 0);
        assert!(c.is_empty());
        assert_eq!(c.total_comparisons(), 0);
        assert!(c.distinct_pairs().is_empty());
    }
}
