//! KB pairs and ground truth.
//!
//! MinoanER is clean–clean ER: it links two individually duplicate-free
//! KBs. [`KbPair`] bundles the two sides; [`GroundTruth`] is the set of
//! known matching pairs used for evaluation.

use crate::hash::FxHashSet;
use crate::ids::{EntityId, KbSide};
use crate::model::KnowledgeBase;

/// The two KBs being resolved against each other.
#[derive(Debug, Clone)]
pub struct KbPair {
    /// `E1` in the paper's notation.
    pub first: KnowledgeBase,
    /// `E2` in the paper's notation.
    pub second: KnowledgeBase,
}

impl KbPair {
    /// Bundles two KBs.
    pub fn new(first: KnowledgeBase, second: KnowledgeBase) -> Self {
        Self { first, second }
    }

    /// The KB on `side`.
    pub fn kb(&self, side: KbSide) -> &KnowledgeBase {
        match side {
            KbSide::First => &self.first,
            KbSide::Second => &self.second,
        }
    }

    /// Mutable access to the KB on `side` (the delta layer's entry
    /// point for upserts and deletes).
    pub fn kb_mut(&mut self, side: KbSide) -> &mut KnowledgeBase {
        match side {
            KbSide::First => &mut self.first,
            KbSide::Second => &mut self.second,
        }
    }

    /// The side with fewer entities (H2 iterates the smaller KB).
    pub fn smaller_side(&self) -> KbSide {
        KbSide::smaller([self.first.entity_count(), self.second.entity_count()])
    }

    /// The Cartesian comparison count `|E1| · |E2|` (brute-force baseline
    /// of Table II), saturating at `u128` scale.
    pub fn cartesian_comparisons(&self) -> u128 {
        self.first.entity_count() as u128 * self.second.entity_count() as u128
    }
}

/// A matching between the two sides: a set of `(e1, e2)` pairs.
///
/// Used both for ground truth and for algorithm output. Clean–clean ER
/// output should be a partial matching (each entity in at most one pair);
/// [`Matching::is_partial_matching`] checks that invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matching {
    pairs: Vec<(EntityId, EntityId)>,
    set: FxHashSet<(EntityId, EntityId)>,
}

impl Matching {
    /// Creates an empty matching.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a matching from pairs, dropping exact duplicates.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (EntityId, EntityId)>) -> Self {
        let mut m = Self::new();
        for (a, b) in pairs {
            m.insert(a, b);
        }
        m
    }

    /// Adds a pair; returns `false` if it was already present.
    pub fn insert(&mut self, e1: EntityId, e2: EntityId) -> bool {
        if self.set.insert((e1, e2)) {
            self.pairs.push((e1, e2));
            true
        } else {
            false
        }
    }

    /// Whether the pair is present.
    pub fn contains(&self, e1: EntityId, e2: EntityId) -> bool {
        self.set.contains(&(e1, e2))
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, EntityId)> + '_ {
        self.pairs.iter().copied()
    }

    /// The distinct first-KB entities mentioned.
    pub fn first_entities(&self) -> FxHashSet<EntityId> {
        self.pairs.iter().map(|&(a, _)| a).collect()
    }

    /// The distinct second-KB entities mentioned.
    pub fn second_entities(&self) -> FxHashSet<EntityId> {
        self.pairs.iter().map(|&(_, b)| b).collect()
    }

    /// Whether no entity participates in more than one pair.
    pub fn is_partial_matching(&self) -> bool {
        self.first_entities().len() == self.pairs.len()
            && self.second_entities().len() == self.pairs.len()
    }

    /// Retains only pairs satisfying `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(EntityId, EntityId) -> bool) {
        let set = &mut self.set;
        self.pairs.retain(|&(a, b)| {
            let k = keep(a, b);
            if !k {
                set.remove(&(a, b));
            }
            k
        });
    }
}

/// Ground truth for a KB pair: the known matches, as `(e1, e2)` pairs.
pub type GroundTruth = Matching;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::KbBuilder;

    fn kb(name: &str, n: usize) -> KnowledgeBase {
        let mut b = KbBuilder::new(name);
        for i in 0..n {
            b.add_literal(&format!("{name}:{i}"), "name", &format!("x{i}"));
        }
        b.finish()
    }

    #[test]
    fn smaller_side_prefers_first_on_tie() {
        let p = KbPair::new(kb("a", 3), kb("b", 3));
        assert_eq!(p.smaller_side(), KbSide::First);
        let p = KbPair::new(kb("a", 5), kb("b", 3));
        assert_eq!(p.smaller_side(), KbSide::Second);
        assert_eq!(p.cartesian_comparisons(), 15);
    }

    #[test]
    fn matching_deduplicates() {
        let mut m = Matching::new();
        assert!(m.insert(EntityId(0), EntityId(1)));
        assert!(!m.insert(EntityId(0), EntityId(1)));
        assert_eq!(m.len(), 1);
        assert!(m.contains(EntityId(0), EntityId(1)));
        assert!(!m.contains(EntityId(1), EntityId(0)));
    }

    #[test]
    fn partial_matching_detection() {
        let m = Matching::from_pairs([(EntityId(0), EntityId(1)), (EntityId(1), EntityId(2))]);
        assert!(m.is_partial_matching());
        let m = Matching::from_pairs([(EntityId(0), EntityId(1)), (EntityId(0), EntityId(2))]);
        assert!(!m.is_partial_matching());
    }

    #[test]
    fn retain_removes_from_both_views() {
        let mut m = Matching::from_pairs([(EntityId(0), EntityId(1)), (EntityId(2), EntityId(3))]);
        m.retain(|a, _| a != EntityId(0));
        assert_eq!(m.len(), 1);
        assert!(!m.contains(EntityId(0), EntityId(1)));
        assert!(m.contains(EntityId(2), EntityId(3)));
        // Re-inserting a removed pair must succeed.
        assert!(m.insert(EntityId(0), EntityId(1)));
    }
}
