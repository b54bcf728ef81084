//! The entity-description data model.
//!
//! Following the paper, an *entity description* is a URI-identifiable set
//! of attribute–value pairs, where each value is either a literal or the
//! URI of another description. Descriptions of one KB therefore form an
//! *entity graph* whose edges are the object-valued statements.

use crate::hash::FxHashMap;
use crate::ids::{AttrId, EntityId};
use crate::interner::Interner;

/// A statement value: a literal string or a reference to another entity
/// of the same KB.
///
/// Object URIs that do not identify a described entity are kept as
/// literals (their string content still contributes matching evidence,
/// exactly as in the schema-agnostic "bag of strings" view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A literal value (or an unresolvable URI, kept as its string form).
    Literal(Box<str>),
    /// A reference to another entity described in the same KB.
    Entity(EntityId),
}

impl Value {
    /// Returns the literal string, if this is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Value::Literal(s) => Some(s),
            Value::Entity(_) => None,
        }
    }

    /// Returns the referenced entity, if this is an entity reference.
    pub fn as_entity(&self) -> Option<EntityId> {
        match self {
            Value::Literal(_) => None,
            Value::Entity(e) => Some(*e),
        }
    }
}

/// One attribute–value pair of an entity description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// The attribute (predicate).
    pub attr: AttrId,
    /// The value (literal or entity reference).
    pub value: Value,
}

/// An incoming or outgoing edge of the entity graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The relation along which the neighbor is reached.
    pub relation: AttrId,
    /// The neighboring entity.
    pub neighbor: EntityId,
}

/// A single, immutable knowledge base: a set of entity descriptions plus
/// the interners that give entities and attributes their dense ids.
///
/// Build one with [`KbBuilder`]; entity ids are assigned in subject
/// first-seen order and are dense `0..entity_count()`.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    name: String,
    entity_uris: Interner,
    attrs: Interner,
    /// Statements per entity, indexed by `EntityId`.
    statements: Vec<Vec<Statement>>,
    /// Reverse edges per entity (who points at me, and via what).
    in_edges: Vec<Vec<Edge>>,
    triple_count: usize,
}

impl KnowledgeBase {
    /// Human-readable KB name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entity descriptions.
    pub fn entity_count(&self) -> usize {
        self.statements.len()
    }

    /// Number of statements (triples) across all descriptions.
    pub fn triple_count(&self) -> usize {
        self.triple_count
    }

    /// Number of distinct attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Iterates all entity ids.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> {
        (0..self.statements.len() as u32).map(EntityId)
    }

    /// The URI of an entity.
    pub fn entity_uri(&self, e: EntityId) -> &str {
        self.entity_uris.resolve(e.0)
    }

    /// Looks up an entity by URI.
    pub fn entity_by_uri(&self, uri: &str) -> Option<EntityId> {
        self.entity_uris.get(uri).map(EntityId)
    }

    /// The entity-URI interner (URIs in id order). Exposed so the
    /// artifact layer can persist the URI dictionary and answer
    /// URI-keyed queries against a loaded index without the full model.
    pub fn entity_uris(&self) -> &Interner {
        &self.entity_uris
    }

    /// The attribute-name interner (names in id order). Exposed so the
    /// artifact layer can persist whole KBs.
    pub fn attr_interner(&self) -> &Interner {
        &self.attrs
    }

    /// The name of an attribute.
    pub fn attr_name(&self, a: AttrId) -> &str {
        self.attrs.resolve(a.0)
    }

    /// Looks up an attribute by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attrs.get(name).map(AttrId)
    }

    /// Iterates all attribute ids.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> {
        (0..self.attrs.len() as u32).map(AttrId)
    }

    /// The statements of an entity description.
    pub fn statements(&self, e: EntityId) -> &[Statement] {
        &self.statements[e.index()]
    }

    /// Iterates the literal values of an entity (the schema-agnostic
    /// "bag of strings" the paper matches on).
    pub fn literals(&self, e: EntityId) -> impl Iterator<Item = &str> {
        self.statements[e.index()]
            .iter()
            .filter_map(|s| s.value.as_literal())
    }

    /// Outgoing edges of the entity graph (object-valued statements).
    pub fn out_edges(&self, e: EntityId) -> impl Iterator<Item = Edge> + '_ {
        self.statements[e.index()].iter().filter_map(|s| {
            s.value.as_entity().map(|n| Edge {
                relation: s.attr,
                neighbor: n,
            })
        })
    }

    /// Incoming edges of the entity graph.
    pub fn in_edges(&self, e: EntityId) -> &[Edge] {
        &self.in_edges[e.index()]
    }

    /// Outgoing then incoming edges: the full neighborhood the paper uses
    /// ("immediate in- and out-neighbors").
    pub fn edges(&self, e: EntityId) -> impl Iterator<Item = Edge> + '_ {
        self.out_edges(e).chain(self.in_edges(e).iter().copied())
    }

    /// Attributes that act as *relations*, i.e. have at least one
    /// entity-valued statement, with their edge counts.
    pub fn relation_edge_counts(&self) -> FxHashMap<AttrId, usize> {
        let mut counts = FxHashMap::default();
        for stmts in &self.statements {
            for s in stmts {
                if s.value.as_entity().is_some() {
                    *counts.entry(s.attr).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// Number of distinct relation attributes.
    pub fn relation_count(&self) -> usize {
        self.relation_edge_counts().len()
    }

    /// Ensures `uri` names a described entity, appending an empty
    /// description if it is new, and returns its id. Appended entities
    /// extend the dense id space without disturbing existing ids —
    /// the append semantics the delta layer relies on.
    pub fn ensure_entity(&mut self, uri: &str) -> EntityId {
        let id = self.entity_uris.intern(uri);
        if id as usize == self.statements.len() {
            self.statements.push(Vec::new());
            self.in_edges.push(Vec::new());
        }
        EntityId(id)
    }

    /// Interns an attribute name, appending it if new.
    pub fn ensure_attr(&mut self, name: &str) -> AttrId {
        AttrId(self.attrs.intern(name))
    }

    /// Replaces the whole description of `e`, maintaining reverse edges
    /// and the triple count. An upsert replaces the description; a
    /// delete passes an empty vector (a *tombstone*: the id and URI
    /// survive so entity ids stay dense and stable, and edges pointing
    /// *at* the tombstone remain valid).
    ///
    /// Reverse-edge lists stay in subject order, the order
    /// [`KnowledgeBase::from_parts`] rebuilds them in, so a mutated KB
    /// still equals its own persisted-and-reloaded copy.
    ///
    /// Entity references in `stmts` must be in range (panics otherwise —
    /// the delta layer resolves URIs before calling this).
    pub fn replace_statements(&mut self, e: EntityId, stmts: Vec<Statement>) {
        let old = std::mem::take(&mut self.statements[e.index()]);
        self.triple_count -= old.len();
        for s in &old {
            if let Some(t) = s.value.as_entity() {
                let edges = &mut self.in_edges[t.index()];
                if let Some(pos) = edges
                    .iter()
                    .position(|d| d.relation == s.attr && d.neighbor == e)
                {
                    edges.remove(pos);
                }
            }
        }
        for s in &stmts {
            if let Some(t) = s.value.as_entity() {
                assert!(
                    t.index() < self.statements.len(),
                    "statement references entity {t} beyond {}",
                    self.statements.len()
                );
                let edges = &mut self.in_edges[t.index()];
                let at = edges.partition_point(|d| d.neighbor <= e);
                edges.insert(
                    at,
                    Edge {
                        relation: s.attr,
                        neighbor: e,
                    },
                );
            }
        }
        self.triple_count += stmts.len();
        self.statements[e.index()] = stmts;
    }

    /// Reassembles a KB from its persisted parts. Reverse edges are
    /// rebuilt by a subject-order scan (the same order [`KbBuilder`]
    /// produces) and the triple count is recomputed. Rejects structural
    /// mismatches instead of panicking — this is the artifact decode
    /// path, which must survive corrupt inputs.
    pub fn from_parts(
        name: String,
        entity_uris: Interner,
        attrs: Interner,
        statements: Vec<Vec<Statement>>,
    ) -> Result<Self, String> {
        if entity_uris.len() != statements.len() {
            return Err(format!(
                "{} entity URIs but {} statement lists",
                entity_uris.len(),
                statements.len()
            ));
        }
        let n = statements.len();
        let mut in_edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut triple_count = 0usize;
        for (subj, stmts) in statements.iter().enumerate() {
            triple_count += stmts.len();
            for s in stmts {
                if s.attr.index() >= attrs.len() {
                    return Err(format!("statement attr {} out of range", s.attr));
                }
                if let Some(t) = s.value.as_entity() {
                    if t.index() >= n {
                        return Err(format!("statement references entity {t} beyond {n}"));
                    }
                    in_edges[t.index()].push(Edge {
                        relation: s.attr,
                        neighbor: EntityId(subj as u32),
                    });
                }
            }
        }
        Ok(Self {
            name,
            entity_uris,
            attrs,
            statements,
            in_edges,
            triple_count,
        })
    }
}

/// Structural equality: same name, same entities/attributes in the same
/// id order, same statements and reverse edges. Two KBs built from the
/// same triples in the same order — whether through the whole-string or
/// the chunked streaming parser — compare equal.
impl PartialEq for KnowledgeBase {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.entity_uris == other.entity_uris
            && self.attrs == other.attrs
            && self.statements == other.statements
            && self.in_edges == other.in_edges
            && self.triple_count == other.triple_count
    }
}

impl Eq for KnowledgeBase {}

/// Object of a raw triple fed to [`KbBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Object {
    /// An object URI; resolved to an entity reference if the URI is a
    /// described subject, otherwise downgraded to a literal.
    Uri(String),
    /// A literal object.
    Literal(String),
}

/// Incrementally builds a [`KnowledgeBase`] from raw triples.
///
/// Object URIs may reference subjects that are only described later; the
/// resolution happens in [`KbBuilder::finish`]. Until then a triple is
/// four numbers: its subject and attribute ids, and the span of its
/// object's text in one arena that every object is appended to.
///
/// For parallel ingest, each worker fills a builder of its own over a
/// chunk of the input, and the chunks are merged in input order via
/// [`KbBuilder::absorb`]; the merged builder state is identical to one
/// fed the same triples sequentially.
#[derive(Debug, Default)]
pub struct KbBuilder {
    name: String,
    entity_uris: Interner,
    attrs: Interner,
    /// The text of every triple's object, concatenated in triple order.
    objects: String,
    /// Triples in input order.
    triples: Vec<RawTriple>,
    /// The subject of the last triple: consecutive triples about one
    /// subject, the common case, skip its lookup.
    last_subject: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct RawTriple {
    subject: u32,
    attr: u32,
    /// Byte span of the object's text in [`KbBuilder::objects`].
    start: u32,
    end: u32,
    literal: bool,
}

impl KbBuilder {
    /// Creates an empty builder for a KB named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Ensures `uri` is a described entity (even if it never gets a
    /// statement) and returns its id.
    pub fn declare_entity(&mut self, uri: &str) -> EntityId {
        EntityId(self.entity_uris.intern(uri))
    }

    /// Adds one triple. The subject becomes a described entity.
    pub fn add(&mut self, subject: &str, predicate: &str, object: Object) {
        match object {
            Object::Literal(l) => self.add_literal(subject, predicate, &l),
            Object::Uri(u) => self.add_uri(subject, predicate, &u),
        }
    }

    /// Adds a literal-valued triple without allocating an [`Object`].
    pub fn add_literal(&mut self, subject: &str, predicate: &str, literal: &str) {
        self.push(subject, predicate, literal, true);
    }

    /// Adds a URI-valued triple without allocating an [`Object`].
    pub fn add_uri(&mut self, subject: &str, predicate: &str, object_uri: &str) {
        self.push(subject, predicate, object_uri, false);
    }

    fn push(&mut self, subject: &str, predicate: &str, object: &str, literal: bool) {
        let subject = match self.last_subject {
            Some(last) if self.entity_uris.resolve(last) == subject => last,
            _ => self.entity_uris.intern(subject),
        };
        self.last_subject = Some(subject);
        let attr = self.attrs.intern(predicate);
        let start = arena_offset(self.objects.len());
        self.objects.push_str(object);
        self.triples.push(RawTriple {
            subject,
            attr,
            start,
            end: arena_offset(self.objects.len()),
            literal,
        });
    }

    /// Merges `chunk`, a builder fed the triples that follow this one's
    /// in the input, remapping its subject and attribute ids to this
    /// builder's and appending its objects.
    ///
    /// Absorbing the chunks of a split input **in input order** leaves the
    /// builder in exactly the state sequential [`KbBuilder::add`] calls
    /// over the unsplit input would: a string's global first occurrence
    /// lies in the earliest chunk containing it, and a chunk assigns its
    /// ids in first-seen order, so re-interning each chunk's subjects and
    /// attributes in id order reproduces the global first-seen order —
    /// and appending the chunk's triples reproduces every entity's
    /// statement order. A builder that is still empty therefore adopts
    /// its first chunk as it is: the chunk's ids already are the global
    /// ones. The name stays this builder's.
    pub fn absorb(&mut self, chunk: KbBuilder) {
        if self.entity_uris.is_empty() && self.attrs.is_empty() {
            self.entity_uris = chunk.entity_uris;
            self.attrs = chunk.attrs;
            self.objects = chunk.objects;
            self.triples = chunk.triples;
            self.last_subject = None;
            return;
        }
        let subj_map = self.entity_uris.intern_all(&chunk.entity_uris);
        let attr_map = self.attrs.intern_all(&chunk.attrs);
        let shift = arena_offset(self.objects.len());
        self.objects.push_str(&chunk.objects);
        // The shifted spans must fit as well.
        arena_offset(self.objects.len());
        self.triples.extend(chunk.triples.iter().map(|t| RawTriple {
            subject: subj_map[t.subject as usize],
            attr: attr_map[t.attr as usize],
            start: t.start + shift,
            end: t.end + shift,
            literal: t.literal,
        }));
        self.last_subject = None;
    }

    /// Resolves object URIs against the described subjects and freezes
    /// the KB: each subject's statements in input order, an object URI
    /// that names a described subject as an edge to it, any other as a
    /// literal.
    pub fn finish(self) -> KnowledgeBase {
        let n = self.entity_uris.len();
        let mut lens = vec![0usize; n];
        for t in &self.triples {
            lens[t.subject as usize] += 1;
        }
        let mut statements: Vec<Vec<Statement>> =
            lens.into_iter().map(Vec::with_capacity).collect();
        for t in &self.triples {
            let text = &self.objects[t.start as usize..t.end as usize];
            let entity = if t.literal {
                None
            } else {
                self.entity_uris.get(text)
            };
            let value = match entity {
                Some(e) => Value::Entity(EntityId(e)),
                None => Value::Literal(text.into()),
            };
            statements[t.subject as usize].push(Statement {
                attr: AttrId(t.attr),
                value,
            });
        }
        KnowledgeBase::from_parts(self.name, self.entity_uris, self.attrs, statements)
            .expect("a builder's triples reference its own subjects and attributes")
    }
}

/// `len` as an offset into a builder's object arena.
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("object arena overflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KnowledgeBase {
        let mut b = KbBuilder::new("test");
        b.add_literal("e:r1", "name", "Taverna Kri Kri");
        b.add_literal("e:r1", "phone", "555-0199");
        b.add_uri("e:r1", "address", "e:a1");
        b.add_literal("e:a1", "street", "12 Minos Ave");
        b.add_uri("e:r2", "address", "e:a1");
        b.add_literal("e:r2", "name", "Labyrinth Grill");
        b.add_uri("e:r2", "sameCity", "e:unknown-uri");
        b.finish()
    }

    #[test]
    fn builder_assigns_dense_entity_ids_in_subject_order() {
        let kb = sample();
        assert_eq!(kb.entity_count(), 3);
        assert_eq!(kb.entity_uri(EntityId(0)), "e:r1");
        assert_eq!(kb.entity_uri(EntityId(1)), "e:a1");
        assert_eq!(kb.entity_uri(EntityId(2)), "e:r2");
        assert_eq!(kb.triple_count(), 7);
    }

    #[test]
    fn object_uri_resolution() {
        let kb = sample();
        let r1 = kb.entity_by_uri("e:r1").unwrap();
        let a1 = kb.entity_by_uri("e:a1").unwrap();
        let out: Vec<_> = kb.out_edges(r1).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].neighbor, a1);
        // Unresolvable URI stays a literal.
        let r2 = kb.entity_by_uri("e:r2").unwrap();
        assert!(kb.literals(r2).any(|l| l == "e:unknown-uri"));
    }

    #[test]
    fn in_edges_are_reverse_of_out_edges() {
        let kb = sample();
        let a1 = kb.entity_by_uri("e:a1").unwrap();
        let incoming: Vec<_> = kb.in_edges(a1).iter().map(|e| e.neighbor).collect();
        assert_eq!(incoming.len(), 2);
        assert!(incoming.contains(&kb.entity_by_uri("e:r1").unwrap()));
        assert!(incoming.contains(&kb.entity_by_uri("e:r2").unwrap()));
    }

    #[test]
    fn edges_chains_out_then_in() {
        let kb = sample();
        let a1 = kb.entity_by_uri("e:a1").unwrap();
        assert_eq!(kb.edges(a1).count(), 2);
        let r1 = kb.entity_by_uri("e:r1").unwrap();
        assert_eq!(kb.edges(r1).count(), 1);
    }

    #[test]
    fn relation_counts_only_entity_valued_attrs() {
        let kb = sample();
        let rels = kb.relation_edge_counts();
        assert_eq!(rels.len(), 1);
        let addr = kb.attr_by_name("address").unwrap();
        assert_eq!(rels[&addr], 2);
        assert_eq!(kb.relation_count(), 1);
    }

    #[test]
    fn literal_marker_does_not_leak() {
        let mut b = KbBuilder::new("m");
        b.add_literal("s", "p", "plain");
        let kb = b.finish();
        let e = kb.entity_by_uri("s").unwrap();
        assert_eq!(kb.literals(e).collect::<Vec<_>>(), vec!["plain"]);
    }

    #[test]
    fn literal_and_uri_with_same_text_do_not_collide() {
        let mut b = KbBuilder::new("m");
        b.add_literal("s", "p", "e:target");
        b.add_uri("s", "q", "e:target");
        b.add_literal("e:target", "name", "t");
        let kb = b.finish();
        let s = kb.entity_by_uri("s").unwrap();
        let lits: Vec<_> = kb.literals(s).collect();
        assert_eq!(lits, vec!["e:target"]);
        assert_eq!(kb.out_edges(s).count(), 1);
    }

    #[test]
    fn absorbing_chunks_in_order_matches_sequential_adds() {
        // One triple stream, split into chunks at arbitrary points;
        // repeated subjects/attrs/objects straddle the cuts.
        let triples: Vec<(&str, &str, Object)> = vec![
            ("e:a", "name", Object::Literal("alpha".into())),
            ("e:b", "name", Object::Literal("beta".into())),
            ("e:a", "knows", Object::Uri("e:b".into())),
            ("e:c", "name", Object::Literal("alpha".into())),
            ("e:b", "knows", Object::Uri("e:c".into())),
            ("e:a", "tag", Object::Literal("e:b".into())),
            ("e:d", "knows", Object::Uri("e:missing".into())),
        ];
        let mut sequential = KbBuilder::new("t");
        for (s, p, o) in &triples {
            sequential.add(s, p, o.clone());
        }
        let expected = sequential.finish();
        // The first chunk into an empty builder is adopted, later ones
        // are remapped; `added` triples go in before any chunk, so the
        // first chunk is remapped too. The rest is cut at `cuts`.
        let cases: [(usize, &[usize]); 5] =
            [(0, &[]), (0, &[1]), (0, &[3, 5]), (2, &[]), (2, &[4])];
        for (added, cuts) in cases {
            let mut merged = KbBuilder::new("t");
            for (s, p, o) in &triples[..added] {
                merged.add(s, p, o.clone());
            }
            let bounds: Vec<usize> = [added]
                .into_iter()
                .chain(cuts.iter().copied())
                .chain([triples.len()])
                .collect();
            for range in bounds.windows(2) {
                let mut chunk = KbBuilder::default();
                for (s, p, o) in &triples[range[0]..range[1]] {
                    chunk.add(s, p, o.clone());
                }
                merged.absorb(chunk);
            }
            assert_eq!(merged.finish(), expected, "added {added}, cuts {cuts:?}");
        }
    }

    #[test]
    fn replace_statements_maintains_edges_and_counts() {
        let mut kb = sample();
        let r1 = kb.entity_by_uri("e:r1").unwrap();
        let a1 = kb.entity_by_uri("e:a1").unwrap();
        let name = kb.ensure_attr("name");
        // Tombstone r1: its address edge into a1 must disappear.
        kb.replace_statements(r1, Vec::new());
        assert_eq!(kb.triple_count(), 4);
        assert!(kb.statements(r1).is_empty());
        assert_eq!(kb.in_edges(a1).len(), 1);
        // Re-describe r1 with a fresh literal and a fresh edge.
        let addr = kb.ensure_attr("address");
        kb.replace_statements(
            r1,
            vec![
                Statement {
                    attr: name,
                    value: Value::Literal("Renamed".into()),
                },
                Statement {
                    attr: addr,
                    value: Value::Entity(a1),
                },
            ],
        );
        assert_eq!(kb.triple_count(), 6);
        assert_eq!(kb.in_edges(a1).len(), 2);
        assert!(kb.literals(r1).any(|l| l == "Renamed"));
        // r1 precedes r2, so its re-added edge goes back in front of
        // r2's — where a reload of the persisted KB will put it.
        let r2 = kb.entity_by_uri("e:r2").unwrap();
        let sources: Vec<EntityId> = kb.in_edges(a1).iter().map(|d| d.neighbor).collect();
        assert_eq!(sources, vec![r1, r2]);
        assert_eq!(reassembled(&kb), kb);
    }

    /// `kb` as the artifact layer persists and reloads it.
    fn reassembled(kb: &KnowledgeBase) -> KnowledgeBase {
        KnowledgeBase::from_parts(
            kb.name().to_string(),
            kb.entity_uris().clone(),
            kb.attr_interner().clone(),
            kb.entities().map(|e| kb.statements(e).to_vec()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn ensure_entity_appends_dense_ids() {
        let mut kb = sample();
        let before = kb.entity_count();
        let e = kb.ensure_entity("e:new");
        assert_eq!(e.index(), before);
        assert_eq!(kb.entity_count(), before + 1);
        assert!(kb.statements(e).is_empty());
        // Existing URIs keep their ids.
        assert_eq!(kb.ensure_entity("e:r1"), EntityId(0));
        assert_eq!(kb.entity_count(), before + 1);
    }

    #[test]
    fn from_parts_round_trips_builder_output() {
        let kb = sample();
        assert_eq!(reassembled(&kb), kb);
    }

    #[test]
    fn from_parts_rejects_structural_mismatches() {
        let kb = sample();
        let statements: Vec<Vec<Statement>> =
            kb.entities().map(|e| kb.statements(e).to_vec()).collect();
        // Too few statement lists for the URI dictionary.
        assert!(KnowledgeBase::from_parts(
            "x".into(),
            kb.entity_uris().clone(),
            kb.attr_interner().clone(),
            statements[..2].to_vec(),
        )
        .is_err());
        // Out-of-range entity reference.
        let mut bad = statements.clone();
        bad[0].push(Statement {
            attr: AttrId(0),
            value: Value::Entity(EntityId(99)),
        });
        assert!(KnowledgeBase::from_parts(
            "x".into(),
            kb.entity_uris().clone(),
            kb.attr_interner().clone(),
            bad,
        )
        .is_err());
    }

    #[test]
    fn declare_entity_without_statements() {
        let mut b = KbBuilder::new("m");
        b.declare_entity("lonely");
        let kb = b.finish();
        assert_eq!(kb.entity_count(), 1);
        assert!(kb.statements(EntityId(0)).is_empty());
    }
}
