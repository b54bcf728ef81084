//! Matching-quality metrics.
//!
//! The paper reports precision, recall and F1 **with respect to the
//! descriptions in the first KB appearing in the ground truth** (§IV):
//! predicted pairs whose first-KB entity is outside the ground truth are
//! ignored (the evaluation cannot know whether they are right), a
//! retained pair is correct iff it appears in the ground truth, and
//! recall is denominated by the ground-truth pairs.

use minoan_kb::{GroundTruth, Matching};

/// Precision/recall/F1 of a predicted matching against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchQuality {
    /// Evaluated predicted pairs that appear in the ground truth.
    pub true_positives: usize,
    /// Predicted pairs whose first-KB entity appears in the ground truth.
    pub predicted: usize,
    /// Total ground-truth pairs.
    pub actual: usize,
}

impl MatchQuality {
    /// Evaluates `predicted` against `truth`, restricted to first-KB
    /// entities appearing in the ground truth (the paper's methodology).
    pub fn evaluate(predicted: &Matching, truth: &GroundTruth) -> Self {
        let gt_first = truth.first_entities();
        let mut evaluated = 0usize;
        let mut tp = 0usize;
        for (e1, e2) in predicted.iter() {
            if !gt_first.contains(&e1) {
                continue;
            }
            evaluated += 1;
            if truth.contains(e1, e2) {
                tp += 1;
            }
        }
        Self {
            true_positives: tp,
            predicted: evaluated,
            actual: truth.len(),
        }
    }

    /// `TP / predicted` (1 when nothing was predicted and nothing exists,
    /// 0 when predictions exist but none are right).
    pub fn precision(&self) -> f64 {
        if self.predicted == 0 {
            if self.actual == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.true_positives as f64 / self.predicted as f64
        }
    }

    /// `TP / actual` (1 for empty ground truth).
    pub fn recall(&self) -> f64 {
        if self.actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / self.actual as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_kb::EntityId;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn perfect_prediction() {
        let truth = Matching::from_pairs([(e(0), e(0)), (e(1), e(1))]);
        let q = MatchQuality::evaluate(&truth.clone(), &truth);
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.f1(), 1.0);
    }

    #[test]
    fn partial_prediction() {
        let truth = Matching::from_pairs([(e(0), e(0)), (e(1), e(1)), (e(2), e(2))]);
        let pred = Matching::from_pairs([(e(0), e(0)), (e(1), e(9))]);
        let q = MatchQuality::evaluate(&pred, &truth);
        assert_eq!(q.true_positives, 1);
        assert!((q.precision() - 0.5).abs() < 1e-12);
        assert!((q.recall() - 1.0 / 3.0).abs() < 1e-12);
        let f1 = 2.0 * 0.5 * (1.0 / 3.0) / (0.5 + 1.0 / 3.0);
        assert!((q.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn predictions_outside_the_ground_truth_are_ignored() {
        let truth = Matching::from_pairs([(e(0), e(0))]);
        // e(7) is not a ground-truth first-KB entity: its pair must not
        // count against precision (paper §IV methodology).
        let pred = Matching::from_pairs([(e(0), e(0)), (e(7), e(7))]);
        let q = MatchQuality::evaluate(&pred, &truth);
        assert_eq!(q.predicted, 1);
        assert_eq!(q.true_positives, 1);
        assert_eq!(q.actual, 1);
        assert_eq!(q.precision(), 1.0);
    }

    #[test]
    fn degenerate_cases() {
        let empty = Matching::new();
        let q = MatchQuality::evaluate(&empty, &empty);
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
        let truth = Matching::from_pairs([(e(0), e(0))]);
        let q = MatchQuality::evaluate(&empty, &truth);
        assert_eq!(q.precision(), 0.0);
        assert_eq!(q.recall(), 0.0);
        assert_eq!(q.f1(), 0.0);
        let wrong = Matching::from_pairs([(e(5), e(5))]);
        let q = MatchQuality::evaluate(&wrong, &truth);
        assert_eq!(q.precision(), 0.0);
    }
}
