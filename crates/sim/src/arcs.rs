//! The paper's value similarity (an ARCS variant).
//!
//! ```text
//! valueSim(ei, ej) = Σ_{t ∈ tokens(ei) ∩ tokens(ej)}  1 / log2(EF_E1(t) · EF_E2(t) + 1)
//! ```
//!
//! where `EF_E(t)` is the *entity frequency* of token `t` in KB `E`.
//! Compared to the original ARCS it drops schema information entirely and
//! emphasizes the *number* of common tokens over their frequency: a token
//! unique to one entity on each side (`EF=1` both sides) contributes
//! exactly `1/log2(2) = 1`, so `valueSim ≥ 1` ("strongly similar", the H2
//! trigger) means the pair shares a mutually-unique token or several
//! infrequent ones.

use minoan_kb::{EntityId, KbSide, TokenId};
use minoan_text::TokenizedPair;

/// The weight of a shared token with the given per-side entity frequencies.
#[inline]
pub fn token_weight(ef1: u32, ef2: u32) -> f64 {
    1.0 / (ef1 as f64 * ef2 as f64 + 1.0).log2()
}

/// `valueSim` between `e1 ∈ E1` and `e2 ∈ E2` over the tokenized pair.
///
/// Token sets are sorted, so the intersection is a linear merge.
pub fn value_sim(tokens: &TokenizedPair, e1: EntityId, e2: EntityId) -> f64 {
    value_sim_slices(
        tokens,
        tokens.tokens(KbSide::First, e1),
        tokens.tokens(KbSide::Second, e2),
    )
}

/// `valueSim` over pre-fetched sorted token slices (first-side slice,
/// second-side slice). Exposed for callers that iterate blocks and
/// already hold the slices.
pub fn value_sim_slices(tokens: &TokenizedPair, a: &[TokenId], b: &[TokenId]) -> f64 {
    let dict = tokens.dict();
    let mut i = 0;
    let mut j = 0;
    let mut sum = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let t = a[i];
                sum += token_weight(dict.ef(KbSide::First, t), dict.ef(KbSide::Second, t));
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_kb::{KbBuilder, KbPair};
    use minoan_text::Tokenizer;

    fn pair_of(lits1: &[&str], lits2: &[&str]) -> TokenizedPair {
        let mut a = KbBuilder::new("E1");
        for (i, l) in lits1.iter().enumerate() {
            a.add_literal(&format!("a:{i}"), "v", l);
        }
        let mut b = KbBuilder::new("E2");
        for (i, l) in lits2.iter().enumerate() {
            b.add_literal(&format!("b:{i}"), "v", l);
        }
        TokenizedPair::build_with(
            &KbPair::new(a.finish(), b.finish()),
            &Tokenizer::default(),
            &minoan_exec::Executor::sequential(),
        )
    }

    #[test]
    fn mutually_unique_token_weighs_one() {
        let t = pair_of(&["knossos"], &["knossos"]);
        let v = value_sim(&t, EntityId(0), EntityId(0));
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weight_formula_matches_definition() {
        assert!((token_weight(1, 1) - 1.0).abs() < 1e-12);
        assert!((token_weight(2, 3) - 1.0 / (7.0f64).log2()).abs() < 1e-12);
        assert!(token_weight(1000, 1000) < 0.06);
    }

    #[test]
    fn frequent_tokens_contribute_less() {
        // "heraklion" appears in 3 entities on each side, "kri" in one.
        let t = pair_of(
            &["kri heraklion", "heraklion", "heraklion"],
            &["kri heraklion", "heraklion", "heraklion"],
        );
        let v_rare_plus_freq = value_sim(&t, EntityId(0), EntityId(0));
        let v_freq_only = value_sim(&t, EntityId(1), EntityId(1));
        assert!(v_rare_plus_freq > 1.0);
        assert!(v_freq_only < 0.5);
        let expected_freq = token_weight(3, 3);
        assert!((v_freq_only - expected_freq).abs() < 1e-12);
    }

    #[test]
    fn no_common_tokens_is_zero() {
        let t = pair_of(&["alpha beta"], &["gamma delta"]);
        assert_eq!(value_sim(&t, EntityId(0), EntityId(0)), 0.0);
    }

    #[test]
    fn more_common_tokens_increase_similarity() {
        let t = pair_of(&["a b c", "a"], &["a b c", "a"]);
        let full = value_sim(&t, EntityId(0), EntityId(0));
        let partial = value_sim(&t, EntityId(1), EntityId(0));
        assert!(full > partial);
    }

    #[test]
    fn sim_is_symmetric_in_token_content() {
        // valueSim(e1,e2) uses EF of each side; swapping entities with the
        // same token sets across sides gives the same value.
        let t = pair_of(&["x y z"], &["x y z"]);
        let v = value_sim(&t, EntityId(0), EntityId(0));
        let t2 = pair_of(&["z y x"], &["y z x"]);
        let v2 = value_sim(&t2, EntityId(0), EntityId(0));
        assert!((v - v2).abs() < 1e-12);
    }
}
