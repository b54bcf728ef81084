//! Block Purging.
//!
//! Token Blocking creates a block per token, so highly frequent tokens
//! (stop-words, country names, …) create enormous blocks that contribute
//! a huge number of comparisons and almost no matching evidence. The
//! paper bounds the comparison count by removing such blocks (§III,
//! following the meta-blocking literature, the paper's reference 6).
//!
//! The comparison-based criterion implemented here works on the
//! distribution of block cardinalities: let the distinct per-block
//! comparison counts be `d_1 < d_2 < … < d_m`, and for each level `i`
//! let `CC_i` be the cumulative comparisons and `BC_i` the cumulative
//! block assignments of all blocks with cardinality ≤ `d_i`. Scanning
//! from the largest level down, the purging threshold is the largest
//! `d_i` whose inclusion keeps the growth of comparisons proportionate to
//! the growth of assignments:
//!
//! ```text
//! CC_i · BC_{i-1}  ≤  s · CC_{i-1} · BC_i        (smoothing s = 1.025)
//! ```
//!
//! Oversized blocks fail this test (they add a large `CC` jump with a
//! modest `BC` jump) and everything above the threshold is purged.

use minoan_exec::Executor;

use crate::block::BlockCollection;

/// Default smoothing factor, as used in the meta-blocking line of work.
pub const DEFAULT_SMOOTHING: f64 = 1.025;

/// Outcome of a purging pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PurgeReport {
    /// Maximum comparisons a block may have to survive.
    pub max_comparisons_per_block: u64,
    /// Blocks before purging.
    pub blocks_before: usize,
    /// Blocks after purging.
    pub blocks_after: usize,
    /// Total comparisons before purging.
    pub comparisons_before: u64,
    /// Total comparisons after purging.
    pub comparisons_after: u64,
}

/// Computes the purging threshold for `collection` with smoothing `s`.
///
/// Returns the maximum per-block comparison cardinality that survives.
/// Collections with fewer than two distinct cardinality levels are left
/// intact (their largest cardinality is returned).
pub fn purging_threshold(collection: &BlockCollection, s: f64) -> u64 {
    purging_threshold_with(collection, s, &Executor::sequential())
}

/// [`purging_threshold`] with the per-block cardinality statistics
/// gathered data-parallel over block ranges on `exec`. The statistics
/// are integers, so the threshold is identical for any thread count.
pub fn purging_threshold_with(collection: &BlockCollection, s: f64, exec: &Executor) -> u64 {
    let blocks = collection.blocks();
    let cards: Vec<(u64, u64)> = exec
        .map_parts(blocks.len(), |range| {
            blocks[range]
                .iter()
                .map(|b| (b.comparisons(), b.assignments()))
                .collect::<Vec<_>>()
        })
        .concat();
    threshold_from_cards(cards, s)
}

/// The purging threshold of per-block `(comparisons, assignments)`
/// cardinalities. The criterion only depends on their *multiset* (they
/// are sorted here).
fn threshold_from_cards(mut cards: Vec<(u64, u64)>, s: f64) -> u64 {
    assert!(s >= 1.0, "smoothing factor must be >= 1");
    if cards.is_empty() {
        return 0;
    }
    cards.sort_unstable();
    // Collapse to distinct cardinality levels with cumulative CC and BC.
    let mut levels: Vec<(u64, f64, f64)> = Vec::new(); // (cardinality, CC, BC)
    let mut cc = 0.0;
    let mut bc = 0.0;
    for (comparisons, assignments) in cards {
        cc += comparisons as f64;
        bc += assignments as f64;
        match levels.last_mut() {
            Some((d, lcc, lbc)) if *d == comparisons => {
                *lcc = cc;
                *lbc = bc;
            }
            _ => levels.push((comparisons, cc, bc)),
        }
    }
    if levels.len() < 2 {
        return levels[0].0;
    }
    for i in (1..levels.len()).rev() {
        let (d_i, cc_i, bc_i) = levels[i];
        let (_, cc_prev, bc_prev) = levels[i - 1];
        if cc_i * bc_prev <= s * cc_prev * bc_i {
            return d_i;
        }
    }
    levels[0].0
}

/// Purges `collection` using [`purging_threshold`] with smoothing `s`,
/// returning the surviving collection and a report.
pub fn purge_with(collection: &BlockCollection, s: f64) -> (BlockCollection, PurgeReport) {
    purge_with_exec(collection, s, &Executor::sequential())
}

/// [`purge_with`] running the statistics pass on `exec`.
pub fn purge_with_exec(
    collection: &BlockCollection,
    s: f64,
    exec: &Executor,
) -> (BlockCollection, PurgeReport) {
    let threshold = purging_threshold_with(collection, s, exec);
    let purged = collection.filter_blocks(|b| b.comparisons() <= threshold);
    let report = PurgeReport {
        max_comparisons_per_block: threshold,
        blocks_before: collection.len(),
        blocks_after: purged.len(),
        comparisons_before: collection.total_comparisons(),
        comparisons_after: purged.total_comparisons(),
    };
    (purged, report)
}

/// Purges with the default smoothing factor.
pub fn purge(collection: &BlockCollection) -> (BlockCollection, PurgeReport) {
    purge_with(collection, DEFAULT_SMOOTHING)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockKind};
    use minoan_kb::EntityId;

    fn block(key: u32, n1: usize, n2: usize) -> Block {
        Block {
            key,
            firsts: (0..n1 as u32).map(EntityId).collect(),
            seconds: (0..n2 as u32).map(EntityId).collect(),
        }
    }

    fn collection(blocks: Vec<Block>) -> BlockCollection {
        let n1 = blocks.iter().map(|b| b.firsts.len()).max().unwrap_or(0);
        let n2 = blocks.iter().map(|b| b.seconds.len()).max().unwrap_or(0);
        BlockCollection::new(BlockKind::Token, blocks, n1, n2)
    }

    #[test]
    fn empty_collection_has_zero_threshold() {
        let c = collection(vec![]);
        assert_eq!(purging_threshold(&c, DEFAULT_SMOOTHING), 0);
        let (p, r) = purge(&c);
        assert!(p.is_empty());
        assert_eq!(r.comparisons_after, 0);
    }

    #[test]
    fn uniform_collection_is_untouched() {
        let c = collection((0..10).map(|k| block(k, 2, 2)).collect());
        let (p, r) = purge(&c);
        assert_eq!(p.len(), 10);
        assert_eq!(r.comparisons_after, r.comparisons_before);
    }

    #[test]
    fn stop_word_block_is_purged() {
        // 100 small blocks of 1x1 plus one enormous 80x80 block: the big
        // block contributes 6400 of 6500 comparisons but only a sliver of
        // additional assignments per comparison.
        let mut blocks: Vec<Block> = (0..100).map(|k| block(k, 1, 1)).collect();
        blocks.push(block(100, 80, 80));
        let c = collection(blocks);
        let (p, r) = purge(&c);
        assert_eq!(r.blocks_before, 101);
        assert_eq!(r.blocks_after, 100);
        assert_eq!(r.comparisons_after, 100);
        assert!(p.blocks().iter().all(|b| b.comparisons() == 1));
    }

    #[test]
    fn purging_never_increases_comparisons() {
        let c = collection(
            (1..20)
                .map(|k| block(k, (k % 7 + 1) as usize, (k % 5 + 1) as usize))
                .collect(),
        );
        let (_, r) = purge(&c);
        assert!(r.comparisons_after <= r.comparisons_before);
        assert!(r.blocks_after <= r.blocks_before);
    }

    #[test]
    fn threshold_is_a_surviving_cardinality() {
        let c = collection(vec![block(0, 1, 1), block(1, 2, 2), block(2, 50, 50)]);
        let t = purging_threshold(&c, DEFAULT_SMOOTHING);
        assert!(c.blocks().iter().any(|b| b.comparisons() == t));
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn sub_one_smoothing_panics() {
        let c = collection(vec![block(0, 1, 1)]);
        purging_threshold(&c, 0.5);
    }

    #[test]
    fn higher_smoothing_purges_less() {
        let mut blocks: Vec<Block> = (0..50).map(|k| block(k, 1, 1)).collect();
        blocks.push(block(50, 10, 10));
        blocks.push(block(51, 40, 40));
        let c = collection(blocks);
        let t_tight = purging_threshold(&c, 1.0);
        let t_loose = purging_threshold(&c, 1e6);
        assert!(t_tight <= t_loose);
        assert_eq!(t_loose, 1600, "astronomical smoothing keeps everything");
    }
}
