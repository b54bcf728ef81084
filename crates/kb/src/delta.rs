//! Entity-level deltas against a KB pair.
//!
//! A production KB is never static. This module defines the *mutation
//! vocabulary* shared by every layer that touches updates: the delta
//! generator in `datagen`, the patch path in `minoan-core` (which
//! applies the ops to an index's embedded pair and re-runs the
//! pipeline over it), the `PATCH /v1/indexes/{id}` wire format in
//! `minoan-serve`, and the reference the equivalence tests compare
//! against (the same ops applied to the original pair, resolved from
//! scratch). Keeping [`apply_op`] here — and having both the patch path
//! and the tests' reference call it — means "patched index ≡ rebuilt
//! index" can only fail in what persists and reloads the pair, never in
//! two divergent mutation implementations.
//!
//! # Semantics
//!
//! - **Upsert** replaces the whole description of a URI (creating the
//!   entity if new). Object URIs are resolved against the entities
//!   described *at apply time*: a reference to a URI that only appears
//!   later in the stream stays a literal, exactly as a re-parse of the
//!   mutated corpus at that moment would leave it.
//! - **Delete** tombstones a description: its statements are cleared
//!   (removing its outgoing edges and their reverse entries), but the
//!   id and URI survive so entity ids stay dense and stable and edges
//!   *into* the tombstone remain valid. Deleting an unknown URI is a
//!   no-op.

use crate::ids::{EntityId, KbSide};
use crate::json::Json;
use crate::model::{Object, Statement, Value};
use crate::pair::KbPair;

/// One mutation against a KB pair.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Replace (or create) the full description of `uri` on `side`.
    Upsert {
        /// Which KB the description lives in.
        side: KbSide,
        /// Subject URI of the description.
        uri: String,
        /// The complete new statement list, as raw attribute/object
        /// pairs (resolved against described entities at apply time).
        statements: Vec<(String, Object)>,
    },
    /// Tombstone the description of `uri` on `side`.
    Delete {
        /// Which KB the description lives in.
        side: KbSide,
        /// Subject URI of the description.
        uri: String,
    },
}

impl DeltaOp {
    /// The side the op targets.
    pub fn side(&self) -> KbSide {
        match self {
            DeltaOp::Upsert { side, .. } | DeltaOp::Delete { side, .. } => *side,
        }
    }

    /// The subject URI the op targets.
    pub fn uri(&self) -> &str {
        match self {
            DeltaOp::Upsert { uri, .. } | DeltaOp::Delete { uri, .. } => uri,
        }
    }
}

/// Applies one op to the pair. Returns the touched entity and whether
/// it was newly created, or `None` for a delete of an unknown URI
/// (a documented no-op).
pub fn apply_op(pair: &mut KbPair, op: &DeltaOp) -> Option<(KbSide, EntityId, bool)> {
    match op {
        DeltaOp::Upsert {
            side,
            uri,
            statements,
        } => {
            let kb = pair.kb_mut(*side);
            let before = kb.entity_count();
            let e = kb.ensure_entity(uri);
            let created = kb.entity_count() > before;
            let mut stmts = Vec::with_capacity(statements.len());
            for (attr, obj) in statements {
                let attr = kb.ensure_attr(attr);
                let value = match obj {
                    Object::Literal(l) => Value::Literal(l.as_str().into()),
                    Object::Uri(u) => match kb.entity_by_uri(u) {
                        Some(t) => Value::Entity(t),
                        None => Value::Literal(u.as_str().into()),
                    },
                };
                stmts.push(Statement { attr, value });
            }
            kb.replace_statements(e, stmts);
            Some((*side, e, created))
        }
        DeltaOp::Delete { side, uri } => {
            let kb = pair.kb_mut(*side);
            let e = kb.entity_by_uri(uri)?;
            kb.replace_statements(e, Vec::new());
            Some((*side, e, false))
        }
    }
}

/// Applies a stream of ops in order and returns how many mutated the
/// pair and how many were no-ops, as `(applied, noop)`.
pub fn apply_to_pair(pair: &mut KbPair, ops: &[DeltaOp]) -> (usize, usize) {
    let mut applied = 0;
    for op in ops {
        if apply_op(pair, op).is_some() {
            applied += 1;
        }
    }
    (applied, ops.len() - applied)
}

fn side_str(side: KbSide) -> &'static str {
    match side {
        KbSide::First => "first",
        KbSide::Second => "second",
    }
}

/// Serializes one op as its wire JSON object.
pub fn op_to_json(op: &DeltaOp) -> Json {
    match op {
        DeltaOp::Upsert {
            side,
            uri,
            statements,
        } => Json::obj([
            ("op", Json::str("upsert")),
            ("side", Json::str(side_str(*side))),
            ("uri", Json::str(uri.clone())),
            (
                "statements",
                Json::arr(statements.iter().map(|(attr, obj)| match obj {
                    Object::Literal(l) => Json::obj([
                        ("attr", Json::str(attr.clone())),
                        ("value", Json::str(l.clone())),
                    ]),
                    Object::Uri(u) => Json::obj([
                        ("attr", Json::str(attr.clone())),
                        ("uri", Json::str(u.clone())),
                    ]),
                })),
            ),
        ]),
        DeltaOp::Delete { side, uri } => Json::obj([
            ("op", Json::str("delete")),
            ("side", Json::str(side_str(*side))),
            ("uri", Json::str(uri.clone())),
        ]),
    }
}

/// Serializes a stream of ops as the wire body `{"deltas":[…]}`.
pub fn ops_to_json(ops: &[DeltaOp]) -> Json {
    Json::obj([("deltas", Json::arr(ops.iter().map(op_to_json)))])
}

/// Parses one wire JSON object into an op.
pub fn op_from_json(v: &Json) -> Result<DeltaOp, String> {
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("delta op missing string field 'op'")?;
    let side = match v.get("side").and_then(Json::as_str) {
        Some("first") => KbSide::First,
        Some("second") => KbSide::Second,
        Some(other) => return Err(format!("delta op side must be first|second, got {other:?}")),
        None => return Err("delta op missing string field 'side'".into()),
    };
    let uri = v
        .get("uri")
        .and_then(Json::as_str)
        .ok_or("delta op missing string field 'uri'")?
        .to_string();
    if uri.is_empty() {
        return Err("delta op uri must be non-empty".into());
    }
    match op {
        "delete" => Ok(DeltaOp::Delete { side, uri }),
        "upsert" => {
            let stmts = match v.get("statements") {
                Some(Json::Arr(items)) => items,
                Some(_) => return Err("upsert 'statements' must be an array".into()),
                None => return Err("upsert missing array field 'statements'".into()),
            };
            let mut statements = Vec::with_capacity(stmts.len());
            for s in stmts {
                let attr = s
                    .get("attr")
                    .and_then(Json::as_str)
                    .ok_or("statement missing string field 'attr'")?
                    .to_string();
                let obj = match (s.get("value"), s.get("uri")) {
                    (Some(Json::Str(l)), None) => Object::Literal(l.clone()),
                    (None, Some(Json::Str(u))) => Object::Uri(u.clone()),
                    _ => {
                        return Err("statement needs exactly one of string 'value' or 'uri'".into())
                    }
                };
                statements.push((attr, obj));
            }
            Ok(DeltaOp::Upsert {
                side,
                uri,
                statements,
            })
        }
        other => Err(format!("delta op must be upsert|delete, got {other:?}")),
    }
}

/// Parses the wire body `{"deltas":[…]}` into an op stream. Rejects
/// empty streams — a patch with nothing in it is a caller bug, not a
/// cheap no-op worth a job slot.
pub fn ops_from_json(v: &Json) -> Result<Vec<DeltaOp>, String> {
    let items = match v.get("deltas") {
        Some(Json::Arr(items)) => items,
        Some(_) => return Err("'deltas' must be an array".into()),
        None => return Err("body missing array field 'deltas'".into()),
    };
    if items.is_empty() {
        return Err("'deltas' must contain at least one op".into());
    }
    items.iter().map(op_from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::KbBuilder;

    fn pair() -> KbPair {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:r1", "name", "Kri Kri");
        a.add_uri("a:r1", "address", "a:a1");
        a.add_literal("a:a1", "street", "12 Minos Ave");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:r1", "label", "Kri-Kri Taverna");
        KbPair::new(a.finish(), b.finish())
    }

    #[test]
    fn upsert_replaces_and_creates() {
        let mut p = pair();
        let op = DeltaOp::Upsert {
            side: KbSide::First,
            uri: "a:r1".into(),
            statements: vec![("name".into(), Object::Literal("Renamed".into()))],
        };
        let (side, e, created) = apply_op(&mut p, &op).unwrap();
        assert_eq!((side, created), (KbSide::First, false));
        assert_eq!(p.first.literals(e).collect::<Vec<_>>(), vec!["Renamed"]);
        // The old address edge is gone.
        let a1 = p.first.entity_by_uri("a:a1").unwrap();
        assert!(p.first.in_edges(a1).is_empty());

        let op = DeltaOp::Upsert {
            side: KbSide::Second,
            uri: "b:new".into(),
            statements: vec![("ref".into(), Object::Uri("b:r1".into()))],
        };
        let (_, e, created) = apply_op(&mut p, &op).unwrap();
        assert!(created);
        assert_eq!(p.second.out_edges(e).count(), 1);
    }

    #[test]
    fn upsert_resolves_uris_at_apply_time() {
        let mut p = pair();
        // "a:later" is not described yet: the reference stays a literal.
        apply_op(
            &mut p,
            &DeltaOp::Upsert {
                side: KbSide::First,
                uri: "a:r1".into(),
                statements: vec![("see".into(), Object::Uri("a:later".into()))],
            },
        );
        let r1 = p.first.entity_by_uri("a:r1").unwrap();
        assert_eq!(p.first.out_edges(r1).count(), 0);
        assert!(p.first.literals(r1).any(|l| l == "a:later"));
    }

    #[test]
    fn delete_tombstones_and_unknown_delete_is_noop() {
        let mut p = pair();
        let n = p.first.entity_count();
        let op = DeltaOp::Delete {
            side: KbSide::First,
            uri: "a:r1".into(),
        };
        let (_, e, _) = apply_op(&mut p, &op).unwrap();
        assert!(p.first.statements(e).is_empty());
        assert_eq!(p.first.entity_count(), n, "tombstone keeps the id slot");
        assert!(apply_op(
            &mut p,
            &DeltaOp::Delete {
                side: KbSide::Second,
                uri: "b:missing".into(),
            }
        )
        .is_none());
    }

    #[test]
    fn apply_to_pair_counts_applied_and_noop_ops() {
        let mut p = pair();
        let ops = vec![
            DeltaOp::Upsert {
                side: KbSide::First,
                uri: "a:r1".into(),
                statements: vec![("name".into(), Object::Literal("x".into()))],
            },
            DeltaOp::Delete {
                side: KbSide::Second,
                uri: "b:r1".into(),
            },
            DeltaOp::Delete {
                side: KbSide::Second,
                uri: "b:missing".into(),
            },
        ];
        assert_eq!(apply_to_pair(&mut p, &ops), (2, 1));
        let r1 = p.first.entity_by_uri("a:r1").unwrap();
        assert_eq!(p.first.literals(r1).collect::<Vec<_>>(), vec!["x"]);
        let b1 = p.second.entity_by_uri("b:r1").unwrap();
        assert!(p.second.statements(b1).is_empty());
    }

    #[test]
    fn wire_json_round_trips() {
        let ops = vec![
            DeltaOp::Upsert {
                side: KbSide::First,
                uri: "a:r1".into(),
                statements: vec![
                    ("name".into(), Object::Literal("lit \"q\"".into())),
                    ("address".into(), Object::Uri("a:a1".into())),
                ],
            },
            DeltaOp::Delete {
                side: KbSide::Second,
                uri: "b:r9".into(),
            },
        ];
        let wire = ops_to_json(&ops).compact();
        let back = ops_from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn wire_json_rejects_malformed_bodies() {
        for bad in [
            r#"{}"#,
            r#"{"deltas":[]}"#,
            r#"{"deltas":[{"op":"upsert","side":"first","uri":"a"}]}"#,
            r#"{"deltas":[{"op":"upsert","side":"third","uri":"a","statements":[]}]}"#,
            r#"{"deltas":[{"op":"merge","side":"first","uri":"a"}]}"#,
            r#"{"deltas":[{"op":"delete","side":"first","uri":""}]}"#,
            r#"{"deltas":[{"op":"upsert","side":"first","uri":"a","statements":[{"attr":"p","value":"v","uri":"u"}]}]}"#,
        ] {
            assert!(
                ops_from_json(&Json::parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }
}
