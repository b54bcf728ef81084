//! Name Blocking — the collection `BN` behind heuristic H1.
//!
//! Each *entire entity name* (the literal values of the most distinctive
//! attributes, as selected by `minoan-core`) is a blocking key. A name
//! block holding exactly one entity of each KB signals a match under H1:
//! the two entities — and only they — share the same name.
//!
//! This module is policy-free: which strings count as "names" is decided
//! by the caller (the core crate's attribute-importance machinery).

use minoan_exec::Executor;
use minoan_kb::{EntityId, Interner};
use minoan_text::Tokenizer;

use crate::block::{Block, BlockCollection, BlockKind};

/// Builds the name block collection `BN` on `exec`.
///
/// `names_first[e]` / `names_second[e]` hold the name strings of entity
/// `e` on each side. Names are canonicalized (lower-cased, whitespace
/// collapsed) before keying. The returned interner resolves block keys
/// back to canonical names. Blocks populated on only one side are
/// dropped.
///
/// Canonicalization (the string-heavy part) runs data-parallel over
/// entities; interning and block grouping stay sequential, in entity
/// order, so the result is identical for any thread count.
pub fn name_blocking_with(
    names_first: &[Vec<String>],
    names_second: &[Vec<String>],
    exec: &Executor,
) -> (BlockCollection, Interner) {
    let canon = |names: &[Vec<String>]| -> Vec<Vec<String>> {
        exec.map_range(names.len(), |e| {
            names[e].iter().map(|n| canonical_name(n)).collect()
        })
    };
    let canon_first = canon(names_first);
    let canon_second = canon(names_second);
    let mut interner = Interner::new();
    let mut firsts: Vec<Vec<EntityId>> = Vec::new();
    let mut seconds: Vec<Vec<EntityId>> = Vec::new();
    let add = |interner: &mut Interner,
               sides: &mut Vec<Vec<EntityId>>,
               other: &mut Vec<Vec<EntityId>>,
               e: EntityId,
               canon: &str| {
        if canon.is_empty() {
            return;
        }
        let id = interner.intern(canon) as usize;
        if sides.len() <= id {
            sides.resize(id + 1, Vec::new());
            other.resize(id + 1, Vec::new());
        }
        if sides[id].last() != Some(&e) {
            sides[id].push(e);
        }
    };
    for (i, names) in canon_first.iter().enumerate() {
        for name in names {
            add(
                &mut interner,
                &mut firsts,
                &mut seconds,
                EntityId(i as u32),
                name,
            );
        }
    }
    for (i, names) in canon_second.iter().enumerate() {
        for name in names {
            add(
                &mut interner,
                &mut seconds,
                &mut firsts,
                EntityId(i as u32),
                name,
            );
        }
    }
    let blocks = firsts
        .into_iter()
        .zip(seconds)
        .enumerate()
        .filter(|(_, (f, s))| !f.is_empty() && !s.is_empty())
        .map(|(key, (firsts, seconds))| Block {
            key: key as u32,
            firsts,
            seconds,
        })
        .collect();
    let collection = BlockCollection::new(
        BlockKind::Name,
        blocks,
        names_first.len(),
        names_second.len(),
    );
    (collection, interner)
}

/// Canonicalizes a name: lower-case, strip punctuation, collapse runs of
/// non-alphanumeric characters to single spaces — the default
/// [`Tokenizer`]'s tokens, joined by single spaces.
///
/// Keying on the *token sequence* rather than the raw string makes H1
/// robust to formatting differences between KBs ("Dassin, Jules" vs
/// "dassin jules") while still requiring the exact ordered tokens —
/// consistent with the schema-agnostic tokenization used everywhere
/// else.
pub fn canonical_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    Tokenizer::default().for_each_token(name, &mut String::new(), |token| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(token);
    });
    out
}

/// The H1 decision at block level: pairs from name blocks that contain
/// exactly one entity of each side.
pub fn unique_name_pairs(bn: &BlockCollection) -> Vec<(EntityId, EntityId)> {
    bn.blocks()
        .iter()
        .filter(|b| b.firsts.len() == 1 && b.seconds.len() == 1)
        .map(|b| (b.firsts[0], b.seconds[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_blocking(
        names_first: &[Vec<String>],
        names_second: &[Vec<String>],
    ) -> (BlockCollection, Interner) {
        name_blocking_with(names_first, names_second, &Executor::sequential())
    }

    fn names(v: &[&[&str]]) -> Vec<Vec<String>> {
        v.iter()
            .map(|e| e.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn canonicalization() {
        assert_eq!(canonical_name("  Kri   KRI \t Taverna "), "kri kri taverna");
        assert_eq!(canonical_name(""), "");
        assert_eq!(canonical_name("  "), "");
        // Punctuation-robust: formatting differences between KBs do not
        // change the key, token order does.
        assert_eq!(canonical_name("Dassin, Jules"), "dassin jules");
        assert_eq!(canonical_name("dassin  jules"), "dassin jules");
        assert_eq!(
            canonical_name(" Stra\u{df}e, \u{130}stanbul \u{2014} CAF\u{c9}\u{a0}\u{663}! "),
            "stra\u{df}e i\u{307}stanbul caf\u{e9} \u{663}"
        );
        assert_ne!(
            canonical_name("Jules Dassin"),
            canonical_name("Dassin, Jules")
        );
    }

    #[test]
    fn blocks_require_both_sides() {
        let (bn, _) = name_blocking(
            &names(&[&["Alpha"], &["Beta"]]),
            &names(&[&["alpha"], &["Gamma"]]),
        );
        assert_eq!(bn.len(), 1);
        assert_eq!(bn.blocks()[0].firsts, vec![EntityId(0)]);
        assert_eq!(bn.blocks()[0].seconds, vec![EntityId(0)]);
    }

    #[test]
    fn unique_name_pairs_exclude_ambiguous_blocks() {
        let (bn, _) = name_blocking(
            &names(&[&["Alpha"], &["Alpha"], &["Beta"]]),
            &names(&[&["alpha"], &["beta"]]),
        );
        // "alpha" block has two first-side entities -> not unique.
        let pairs = unique_name_pairs(&bn);
        assert_eq!(pairs, vec![(EntityId(2), EntityId(1))]);
    }

    #[test]
    fn multiple_names_per_entity() {
        let (bn, interner) = name_blocking(
            &names(&[&["Alpha", "The Alpha Place"]]),
            &names(&[&["the  alpha   place"]]),
        );
        assert_eq!(bn.len(), 1);
        assert_eq!(interner.resolve(bn.blocks()[0].key), "the alpha place");
        assert_eq!(unique_name_pairs(&bn), vec![(EntityId(0), EntityId(0))]);
    }

    #[test]
    fn empty_names_are_ignored() {
        let (bn, _) = name_blocking(&names(&[&["", "   "]]), &names(&[&["x"]]));
        assert!(bn.is_empty());
        assert!(unique_name_pairs(&bn).is_empty());
    }

    #[test]
    fn duplicate_name_on_same_entity_counts_once() {
        let (bn, _) = name_blocking(&names(&[&["A", "a"]]), &names(&[&["a"]]));
        assert_eq!(bn.len(), 1);
        assert_eq!(bn.blocks()[0].firsts.len(), 1);
        assert_eq!(unique_name_pairs(&bn).len(), 1);
    }
}
