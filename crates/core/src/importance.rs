//! Attribute and relation importance from data statistics.
//!
//! MinoanER never asks a domain expert which attribute is the "name" or
//! which relation matters. Instead, the *importance* of a predicate `p`
//! in KB `E` is the harmonic mean of
//!
//! - **support**: the portion of entities of `E` that contain `p`, and
//! - **discriminability**: the ratio of distinct objects of `p` to the
//!   entities containing `p`.
//!
//! The `k` most important literal attributes provide entity *names*
//! (H1); the `N` most important relations define `topNneighbors` (H3).

use minoan_exec::Executor;
use minoan_kb::{AttrId, EntityId, FxHashMap, FxHashSet, KnowledgeBase, Value};

/// Importance of one predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Importance {
    /// The predicate.
    pub attr: AttrId,
    /// Portion of entities containing the predicate.
    pub support: f64,
    /// Distinct objects per containing entity.
    pub discriminability: f64,
}

impl Importance {
    /// Harmonic mean of support and discriminability.
    pub fn score(&self) -> f64 {
        let (s, d) = (self.support, self.discriminability);
        if s + d == 0.0 {
            0.0
        } else {
            2.0 * s * d / (s + d)
        }
    }
}

fn harmonic_rank(mut items: Vec<Importance>) -> Vec<Importance> {
    // Deterministic order: score descending, attribute id ascending.
    items.sort_by(|a, b| {
        b.score()
            .partial_cmp(&a.score())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.attr.cmp(&b.attr))
    });
    items
}

/// Per-part accumulator of one importance pass: attribute containment
/// counts plus distinct-value sets. Counts and set unions are
/// order-independent, so merging per-part accumulators yields exactly
/// the sequential aggregates (and therefore bit-identical scores).
struct ImportancePart<V> {
    containing: Vec<usize>,
    distinct: Vec<FxHashSet<V>>,
}

/// One data-parallel pass over an entity range: `value_of` projects each
/// statement onto the value kind being ranked (literal text or linked
/// entity), or `None` to skip it.
fn importance_pass<V, F>(kb: &KnowledgeBase, exec: &Executor, value_of: F) -> ImportancePart<V>
where
    V: std::hash::Hash + Eq + Send,
    F: Fn(&Value) -> Option<V> + Sync,
{
    let n_attrs = kb.attr_count();
    let parts = exec.map_parts(kb.entity_count(), |range| {
        let mut containing = vec![0usize; n_attrs];
        let mut distinct: Vec<FxHashSet<V>> = (0..n_attrs).map(|_| FxHashSet::default()).collect();
        let mut seen: FxHashSet<AttrId> = FxHashSet::default();
        for e in range {
            seen.clear();
            for s in kb.statements(EntityId(e as u32)) {
                if let Some(v) = value_of(&s.value) {
                    if seen.insert(s.attr) {
                        containing[s.attr.index()] += 1;
                    }
                    distinct[s.attr.index()].insert(v);
                }
            }
        }
        ImportancePart {
            containing,
            distinct,
        }
    });
    let mut merged = ImportancePart {
        containing: vec![0usize; n_attrs],
        distinct: (0..n_attrs).map(|_| FxHashSet::default()).collect(),
    };
    for part in parts {
        for (total, c) in merged.containing.iter_mut().zip(part.containing) {
            *total += c;
        }
        for (set, partial) in merged.distinct.iter_mut().zip(part.distinct) {
            if set.is_empty() {
                *set = partial;
            } else {
                set.extend(partial);
            }
        }
    }
    merged
}

fn rank_pass<V>(kb: &KnowledgeBase, pass: ImportancePart<V>) -> Vec<Importance> {
    let n = kb.entity_count();
    let items = (0..kb.attr_count())
        .filter(|&i| pass.containing[i] > 0)
        .map(|i| Importance {
            attr: AttrId(i as u32),
            support: pass.containing[i] as f64 / n as f64,
            discriminability: pass.distinct[i].len() as f64 / pass.containing[i] as f64,
        })
        .collect();
    harmonic_rank(items)
}

/// Ranks the *literal-valued* attributes of `kb` by importance,
/// descending, on `exec`. Attributes with no literal values (pure
/// relations) are excluded: names are literal strings. Bit-identical for
/// any thread count (all aggregates are integers, merged
/// order-independently).
pub fn attribute_importance_with(kb: &KnowledgeBase, exec: &Executor) -> Vec<Importance> {
    if kb.entity_count() == 0 {
        return Vec::new();
    }
    let pass = importance_pass(kb, exec, |v| match v {
        Value::Literal(l) => Some(l.clone()),
        Value::Entity(_) => None,
    });
    rank_pass(kb, pass)
}

/// Ranks the *relations* (entity-valued attributes) of `kb` by
/// importance, descending, on `exec`; bit-identical for any thread count.
pub fn relation_importance_with(kb: &KnowledgeBase, exec: &Executor) -> Vec<Importance> {
    if kb.entity_count() == 0 {
        return Vec::new();
    }
    let pass = importance_pass(kb, exec, |v| match v {
        Value::Literal(_) => None,
        Value::Entity(o) => Some(*o),
    });
    rank_pass(kb, pass)
}

/// Extracts the name strings of every entity on `exec`: the literal
/// values of the `k` most important attributes. The importance ranking
/// and the per-entity extraction both fan out; partials merge in entity
/// order.
pub fn entity_names_with(kb: &KnowledgeBase, k: usize, exec: &Executor) -> Vec<Vec<String>> {
    let ranked = attribute_importance_with(kb, exec);
    let name_attrs: FxHashSet<AttrId> = ranked.iter().take(k).map(|i| i.attr).collect();
    exec.map_range(kb.entity_count(), |e| {
        let mut names = Vec::new();
        for s in kb.statements(EntityId(e as u32)) {
            if name_attrs.contains(&s.attr) {
                if let Value::Literal(l) = &s.value {
                    names.push(l.to_string());
                }
            }
        }
        names
    })
}

/// Computes `topNneighbors(e)` for every entity: the neighbors (both
/// directions, as the paper's datasets use in- and out-neighbors)
/// connected through one of the `n` most important relations, capped at
/// `cap` neighbors per entity for robustness against hubs. A pure
/// per-entity map on `exec`, fanned out in entity order, with one
/// reused buffer per part and no hashing.
pub fn top_neighbors_with(
    kb: &KnowledgeBase,
    n: usize,
    cap: usize,
    exec: &Executor,
) -> Vec<Vec<EntityId>> {
    let ranked = relation_importance_with(kb, exec);
    let top_rel: FxHashMap<AttrId, usize> = ranked
        .iter()
        .take(n)
        .enumerate()
        .map(|(rank, i)| (i.attr, rank))
        .collect();
    let parts =
        exec.map_parts(kb.entity_count(), |range| {
            let mut nb: Vec<(usize, EntityId)> = Vec::new();
            range
                .map(|e| {
                    // (relation rank, neighbor) via top relations, both
                    // directions; ordered by relation rank then id for
                    // determinism.
                    nb.clear();
                    nb.extend(kb.edges(EntityId(e as u32)).filter_map(|edge| {
                        top_rel.get(&edge.relation).map(|&r| (r, edge.neighbor))
                    }));
                    nb.sort_unstable();
                    // The first `cap` distinct neighbors in that order. A
                    // neighbor reachable via several relations, or twice via
                    // one, is kept at its first entry: `nb[..i]` is sorted, so
                    // one binary search per rank up to its own finds any
                    // earlier one.
                    let mut out = Vec::new();
                    for (i, &(r, neighbor)) in nb.iter().enumerate() {
                        if out.len() == cap {
                            break;
                        }
                        if !(0..=r).any(|r| nb[..i].binary_search(&(r, neighbor)).is_ok()) {
                            out.push(neighbor);
                        }
                    }
                    out
                })
                .collect::<Vec<_>>()
        });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_kb::KbBuilder;

    fn attribute_importance(kb: &KnowledgeBase) -> Vec<Importance> {
        attribute_importance_with(kb, &Executor::sequential())
    }

    fn relation_importance(kb: &KnowledgeBase) -> Vec<Importance> {
        relation_importance_with(kb, &Executor::sequential())
    }

    fn entity_names(kb: &KnowledgeBase, k: usize) -> Vec<Vec<String>> {
        entity_names_with(kb, k, &Executor::sequential())
    }

    fn top_neighbors(kb: &KnowledgeBase, n: usize, cap: usize) -> Vec<Vec<EntityId>> {
        top_neighbors_with(kb, n, cap, &Executor::sequential())
    }

    /// A KB where `name` is clearly the most distinctive attribute:
    /// full support, all-distinct values; `type` has full support but one
    /// value; `phone` has half support, distinct values.
    fn kb() -> KnowledgeBase {
        let mut b = KbBuilder::new("t");
        for i in 0..4 {
            let s = format!("e:{i}");
            b.add_literal(&s, "name", &format!("entity number {i}"));
            b.add_literal(&s, "type", "Restaurant");
            if i % 2 == 0 {
                b.add_literal(&s, "phone", &format!("555-000{i}"));
            }
        }
        b.finish()
    }

    #[test]
    fn importance_prefers_distinctive_high_support_attributes() {
        let ranked = attribute_importance(&kb());
        let kb = kb();
        let names: Vec<&str> = ranked.iter().map(|i| kb.attr_name(i.attr)).collect();
        assert_eq!(names[0], "name");
        // name: support 1, discriminability 1 -> score 1.
        assert!((ranked[0].score() - 1.0).abs() < 1e-12);
        // type: support 1, discriminability 1/4 -> harmonic mean 0.4.
        let type_imp = ranked
            .iter()
            .find(|i| kb.attr_name(i.attr) == "type")
            .unwrap();
        assert!((type_imp.score() - 0.4).abs() < 1e-12);
        // phone: support 0.5, discriminability 1 -> 2/3.
        let phone = ranked
            .iter()
            .find(|i| kb.attr_name(i.attr) == "phone")
            .unwrap();
        assert!((phone.score() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(names[1], "phone");
    }

    #[test]
    fn entity_names_take_top_k_attribute_values() {
        let names = entity_names(&kb(), 1);
        assert_eq!(names[0], vec!["entity number 0"]);
        let names2 = entity_names(&kb(), 2);
        assert_eq!(names2[0], vec!["entity number 0", "555-0000"]);
        assert_eq!(names2[1], vec!["entity number 1"]);
    }

    #[test]
    fn relations_are_ranked_separately_from_attributes() {
        let mut b = KbBuilder::new("t");
        for i in 0..4 {
            let s = format!("m:{i}");
            b.add_literal(&s, "title", &format!("movie {i}"));
            // directedBy: all movies point at the same director.
            b.add_uri(&s, "directedBy", "p:0");
            // starring: each movie has a distinct lead.
            b.add_uri(&s, "starring", &format!("p:{}", i + 1));
        }
        for i in 0..6 {
            b.add_literal(&format!("p:{i}"), "title", &format!("person {i}"));
        }
        let kb = b.finish();
        let rels = relation_importance(&kb);
        assert_eq!(rels.len(), 2);
        assert_eq!(kb.attr_name(rels[0].attr), "starring");
        assert!(rels[0].score() > rels[1].score());
        // Attribute importance must not contain relations.
        let attrs = attribute_importance(&kb);
        assert!(attrs.iter().all(|i| kb.attr_name(i.attr) == "title"));
    }

    #[test]
    fn top_neighbors_follow_important_relations_both_directions() {
        let mut b = KbBuilder::new("t");
        b.add_literal("m:0", "title", "movie");
        b.add_uri("m:0", "starring", "p:1");
        b.add_uri("m:0", "starring", "p:2");
        b.add_literal("p:1", "name", "actor one");
        b.add_literal("p:2", "name", "actor two");
        let kb = b.finish();
        let tn = top_neighbors(&kb, 1, 32);
        let m0 = kb.entity_by_uri("m:0").unwrap();
        let p1 = kb.entity_by_uri("p:1").unwrap();
        assert_eq!(tn[m0.index()].len(), 2);
        // p:1 sees m:0 through the incoming edge.
        assert_eq!(tn[p1.index()], vec![m0]);
    }

    #[test]
    fn top_neighbors_respects_n_and_cap() {
        let mut b = KbBuilder::new("t");
        // rel_a is more important (distinct objects); rel_b all same target.
        for i in 0..3 {
            let s = format!("e:{i}");
            b.add_uri(&s, "rel_a", &format!("x:{i}"));
            b.add_uri(&s, "rel_b", "y:0");
        }
        for i in 0..3 {
            b.declare_entity(&format!("x:{i}"));
        }
        b.declare_entity("y:0");
        let kb = b.finish();
        let tn = top_neighbors(&kb, 1, 32);
        let e0 = kb.entity_by_uri("e:0").unwrap();
        let x0 = kb.entity_by_uri("x:0").unwrap();
        assert_eq!(tn[e0.index()], vec![x0], "only rel_a counts with N=1");
        let tn2 = top_neighbors(&kb, 2, 32);
        assert_eq!(tn2[e0.index()].len(), 2, "N=2 adds rel_b's neighbor");
        let capped = top_neighbors(&kb, 2, 1);
        assert_eq!(capped[e0.index()].len(), 1);
    }

    /// A neighbor reachable via two top relations, or twice via one, is
    /// kept once, at its first entry in (relation rank, id) order, as a
    /// set-based reference keeps it, at every cap.
    #[test]
    fn top_neighbors_keep_each_neighbor_once_at_its_first_entry() {
        let mut b = KbBuilder::new("t");
        for i in 0..6 {
            let s = format!("e:{i}");
            b.add_uri(&s, "rel_a", &format!("e:{}", (i + 1) % 6));
            b.add_uri(&s, "rel_a", &format!("e:{}", (i + 2) % 6));
            b.add_uri(&s, "rel_b", &format!("e:{}", (i + 1) % 6));
            b.add_uri(&s, "rel_b", &format!("e:{}", (i + 3) % 6));
            b.add_uri(&s, "rel_c", &format!("e:{}", (i + 2) % 6));
        }
        let kb = b.finish();
        let reference = |n: usize, cap: usize| -> Vec<Vec<EntityId>> {
            let ranks: Vec<AttrId> = relation_importance(&kb)
                .iter()
                .take(n)
                .map(|i| i.attr)
                .collect();
            kb.entities()
                .map(|e| {
                    let mut nb: Vec<(usize, EntityId)> = kb
                        .edges(e)
                        .filter_map(|edge| {
                            let r = ranks.iter().position(|&a| a == edge.relation)?;
                            Some((r, edge.neighbor))
                        })
                        .collect();
                    nb.sort_unstable();
                    let mut seen = std::collections::BTreeSet::new();
                    let mut out: Vec<EntityId> = nb.into_iter().map(|(_, e)| e).collect();
                    out.retain(|e| seen.insert(*e));
                    out.truncate(cap);
                    out
                })
                .collect()
        };
        let e0 = kb.entity_by_uri("e:0").unwrap();
        assert!(top_neighbors(&kb, 3, 32)[e0.index()].len() < kb.edges(e0).count());
        for n in 1..=3 {
            for cap in [0, 1, 2, 3, 32] {
                assert_eq!(
                    top_neighbors(&kb, n, cap),
                    reference(n, cap),
                    "n={n} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn parallel_importance_is_bit_identical_to_sequential() {
        use minoan_exec::ExecutorKind;
        let mut b = KbBuilder::new("t");
        for i in 0..60 {
            let s = format!("e:{i}");
            b.add_literal(&s, "name", &format!("entity {}", i % 13));
            b.add_literal(&s, "type", "Thing");
            if i % 2 == 0 {
                b.add_uri(&s, "rel_a", &format!("e:{}", (i + 1) % 60));
            }
            if i % 3 == 0 {
                b.add_uri(&s, "rel_b", "e:0");
            }
        }
        let kb = b.finish();
        let seq_attr = attribute_importance(&kb);
        let seq_rel = relation_importance(&kb);
        let seq_names = entity_names(&kb, 2);
        let seq_tn = top_neighbors(&kb, 2, 8);
        for threads in [2, 3, 7] {
            let exec = Executor::new(ExecutorKind::Pool, threads);
            assert_eq!(seq_attr, attribute_importance_with(&kb, &exec));
            assert_eq!(seq_rel, relation_importance_with(&kb, &exec));
            assert_eq!(seq_names, entity_names_with(&kb, 2, &exec));
            assert_eq!(seq_tn, top_neighbors_with(&kb, 2, 8, &exec));
        }
    }

    #[test]
    fn empty_kb_yields_empty_rankings() {
        let kb = KbBuilder::new("e").finish();
        assert!(attribute_importance(&kb).is_empty());
        assert!(relation_importance(&kb).is_empty());
        assert!(entity_names(&kb, 2).is_empty());
        assert!(top_neighbors(&kb, 3, 32).is_empty());
    }

    #[test]
    fn importance_tie_breaks_by_attr_id() {
        let mut b = KbBuilder::new("t");
        b.add_literal("e:0", "a1", "x");
        b.add_literal("e:0", "a2", "y");
        let kb = b.finish();
        let ranked = attribute_importance(&kb);
        assert_eq!(ranked[0].attr, AttrId(0));
        assert_eq!(ranked[1].attr, AttrId(1));
    }
}
