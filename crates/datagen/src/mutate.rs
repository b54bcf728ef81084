//! Deterministic delta streams drawn from a rendered profile.
//!
//! The delta-equivalence tests and the patch benchmark both need the
//! same thing: a reproducible sequence of entity upserts and deletes
//! that exercises an *existing* dataset — renames of live entities,
//! brand-new descriptions, and tombstones — without hand-writing
//! fixtures per profile. [`mutate_stream`] derives that sequence from
//! `(kind, seed, scale, mutate_seed)` alone, so a test and a bench
//! that pass the same four numbers replay byte-identical streams.
//!
//! The generator never inspects pipeline output; it only reads the
//! rendered [`minoan_kb::KbPair`]. That keeps the stream a pure function of the
//! dataset, independent of matcher configuration.

use minoan_kb::delta::DeltaOp;
use minoan_kb::{KbSide, KnowledgeBase, Object, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datasets::DatasetKind;
use crate::words::synth_word;

/// Upsert share of the stream, in percent; the rest splits between
/// fresh inserts and deletes (see `mutate_stream`).
const RENAME_PCT: u32 = 55;
const INSERT_PCT: u32 = 25;

/// Generates `n_ops` deterministic delta ops against the dataset that
/// `kind.generate_scaled(seed, scale)` renders.
///
/// The mix is roughly 55% rewrites of live entities (one literal
/// perturbed), 25% fresh descriptions cloned from a live donor, and
/// 20% tombstones. `mutate_seed` varies the stream without touching
/// the base dataset, so one rendered pair can serve many streams.
pub fn mutate_stream(
    kind: DatasetKind,
    seed: u64,
    scale: f64,
    mutate_seed: u64,
    n_ops: usize,
) -> Vec<DeltaOp> {
    let pair = kind.generate_scaled(seed, scale).pair;
    let mut rng = StdRng::seed_from_u64(mutate_seed ^ (kind as u64).rotate_left(17) ^ 0x6d69_6e6f);
    let mut ops = Vec::with_capacity(n_ops);
    let mut fresh = 0usize;
    for _ in 0..n_ops {
        let side = if rng.gen_bool(0.5) {
            KbSide::First
        } else {
            KbSide::Second
        };
        let kb = pair.kb(side);
        let roll = rng.gen_range(0..100u32);
        let op = if roll < RENAME_PCT {
            rename_op(kb, side, &mut rng)
        } else if roll < RENAME_PCT + INSERT_PCT {
            fresh += 1;
            insert_op(kb, side, fresh, &mut rng)
        } else {
            delete_op(kb, side, &mut rng)
        };
        ops.push(op);
    }
    ops
}

/// Picks an entity uniformly; generation only, so a tombstoned or
/// previously-deleted URI reappearing in the stream is fine — the
/// apply semantics make those well-defined.
fn pick_entity(kb: &KnowledgeBase, rng: &mut StdRng) -> minoan_kb::EntityId {
    let n = kb.entity_count();
    kb.entities()
        .nth(rng.gen_range(0..n))
        .expect("non-empty KB")
}

/// Reads an entity's description back out as raw wire statements.
fn raw_statements(kb: &KnowledgeBase, e: minoan_kb::EntityId) -> Vec<(String, Object)> {
    kb.statements(e)
        .iter()
        .map(|s| {
            let attr = kb.attr_name(s.attr).to_string();
            let obj = match &s.value {
                Value::Literal(l) => Object::Literal(l.to_string()),
                Value::Entity(t) => Object::Uri(kb.entity_uri(*t).to_string()),
            };
            (attr, obj)
        })
        .collect()
}

/// Upsert that keeps the URI but perturbs one literal — the "a source
/// record was corrected" case that moves tokens without moving edges.
fn rename_op(kb: &KnowledgeBase, side: KbSide, rng: &mut StdRng) -> DeltaOp {
    let e = pick_entity(kb, rng);
    let mut statements = raw_statements(kb, e);
    let literal_slots: Vec<usize> = statements
        .iter()
        .enumerate()
        .filter(|(_, (_, obj))| matches!(obj, Object::Literal(_)))
        .map(|(i, _)| i)
        .collect();
    let syllables = 1 + rng.gen_range(0..2usize);
    let extra = synth_word(rng, syllables);
    match literal_slots.as_slice() {
        [] => statements.push(("note".to_string(), Object::Literal(extra))),
        slots => {
            let slot = slots[rng.gen_range(0..slots.len())];
            if let (_, Object::Literal(l)) = &mut statements[slot] {
                l.push(' ');
                l.push_str(&extra);
            }
        }
    }
    DeltaOp::Upsert {
        side,
        uri: kb.entity_uri(e).to_string(),
        statements,
    }
}

/// Upsert of a brand-new URI whose description is cloned from a live
/// donor and then perturbed — new records that should block near (and
/// sometimes match) existing ones.
fn insert_op(kb: &KnowledgeBase, side: KbSide, serial: usize, rng: &mut StdRng) -> DeltaOp {
    let donor = pick_entity(kb, rng);
    let mut statements = raw_statements(kb, donor);
    let tag = synth_word(rng, 2);
    for (_, obj) in statements.iter_mut() {
        if let Object::Literal(l) = obj {
            if rng.gen_bool(0.5) {
                l.push(' ');
                l.push_str(&tag);
            }
        }
    }
    DeltaOp::Upsert {
        side,
        uri: format!("http://delta.minoan/{}/{serial}-{tag}", kb.name()),
        statements,
    }
}

fn delete_op(kb: &KnowledgeBase, side: KbSide, rng: &mut StdRng) -> DeltaOp {
    let e = pick_entity(kb, rng);
    DeltaOp::Delete {
        side,
        uri: kb.entity_uri(e).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a = mutate_stream(DatasetKind::Restaurant, 7, 0.2, 42, 60);
        let b = mutate_stream(DatasetKind::Restaurant, 7, 0.2, 42, 60);
        assert_eq!(a, b);
        assert_eq!(a.len(), 60);
    }

    #[test]
    fn mutate_seed_varies_the_stream_without_touching_the_base() {
        let a = mutate_stream(DatasetKind::Restaurant, 7, 0.2, 1, 40);
        let b = mutate_stream(DatasetKind::Restaurant, 7, 0.2, 2, 40);
        assert_ne!(a, b);
    }

    #[test]
    fn every_profile_yields_a_mixed_stream() {
        for kind in DatasetKind::ALL {
            let ops = mutate_stream(kind, 20180416, 0.15, 9, 80);
            assert_eq!(ops.len(), 80);
            let upserts = ops
                .iter()
                .filter(|op| matches!(op, DeltaOp::Upsert { .. }))
                .count();
            let deletes = ops.len() - upserts;
            assert!(upserts > 0 && deletes > 0, "{kind:?} stream is one-sided");
            // Ops must target entities of the pair (or fresh URIs), on
            // both sides, so downstream re-resolution has real work.
            assert!(ops.iter().any(|op| op.side() == KbSide::First));
            assert!(ops.iter().any(|op| op.side() == KbSide::Second));
        }
    }
}
