//! Persistent index artifacts: build once, query many times.
//!
//! MinoanER is non-iterative: once `(H1 ∨ H2 ∨ H3) ∧ H4` has run, the
//! token sets, the blocks and the `neighborNSim` lists are spent. A
//! loaded index has two readers, and [`IndexArtifact`] — freshly built
//! or loaded — holds what they read and nothing else:
//!
//! - [`IndexArtifact::match_query`] reads the URI dictionaries of the
//!   embedded pair, the matching and the top `k ≤` [`MAX_CANDIDATES`]
//!   of one **value**-candidate row;
//! - [`IndexArtifact::patched`] (a patch is a rebuild, see
//!   [`crate::delta`]) reads the persisted configuration and the pair,
//!   and replaces the rest with a fresh run's.
//!
//! Those parts are persisted as the five sections of one checksummed
//! [`minoan_kb::artifact`] container; of everything else the metadata
//! keeps the run's *counts* (tokens, blocks, neighbor pairs). A value
//! row is kept only to its best [`MAX_CANDIDATES`] entries: the run
//! scores every co-occurring pair, and the pipeline decides on full
//! rows, but no query can read past entry [`MAX_CANDIDATES`]. The two
//! capped directions are not transposes of each other — a pair can sit
//! in the top of one entity's row and below the cap in the other's.
//!
//! The matching stored in the artifact is byte-for-byte the matching the
//! in-memory run produced — persistence happens *after* the pipeline, on
//! the same output object — and each kept row is a bit-identical prefix
//! of the run's full row, so answers served from a loaded artifact are
//! fingerprint-identical to a fresh run by construction. The robustness
//! guarantees (truncation, bad magic, wrong version, flipped bits all
//! rejected with structured [`ArtifactError`]s) come from the container
//! layer; this module adds structural validation on top: every decoded
//! entity id is bounds-checked, the candidate rows must cover exactly
//! the entities of the embedded KBs, and no row may be longer than
//! [`MAX_CANDIDATES`], before any query runs.

use std::io;
use std::path::Path;
use std::time::{Duration, SystemTime};

use minoan_kb::artifact::{
    put_f64, put_str, put_u32, put_u64, ArtifactError, ArtifactFile, ArtifactWriter, Cursor,
};
use minoan_kb::{
    AttrId, EntityId, Interner, Json, KbPair, KbSide, KnowledgeBase, Matching, Statement, Value,
};

use crate::candidates::CandidateCsr;
use crate::config::MinoanConfig;
use crate::pipeline::{IndexedOutput, Timings};

/// The longest value-candidate row an index persists, and the largest
/// `k` a match query accepts on every front end (HTTP, line-JSON,
/// `minoaner index query`): one bound, so a query can never ask past
/// what the file holds. The decoder rejects a longer row, so a hostile
/// file cannot make one row allocate without bound.
///
/// It also bounds the matching's `K`
/// ([`MinoanConfig::candidates_k`](crate::MinoanConfig::candidates_k)),
/// and with it what a run holds in memory. Every candidate row of a
/// [`SimilarityIndex`](crate::SimilarityIndex) is ranked to this length:
/// the best 128 entries in candidate order, and cut to them once no
/// pass of the build reads the row whole. A row of the side H2 and H3
/// probe still reads whole — a reader that runs off the prefix
/// recomputes the row — while H4 reads a row of the other side only to
/// `K`, so its reader ends at the cut (see [`crate::simindex`]).
/// Measured on all four benchmark profiles at ×1 and ×2, no decision of
/// H1–H4 reads past entry 128.
pub const MAX_CANDIDATES: usize = 128;

/// Section tag: artifact metadata (name, counts, timings, config).
pub const TAG_META: u32 = 0x01;
/// Section tag: the two value-candidate CSRs, first side then second —
/// the ranked `valueSim` lists [`IndexArtifact::match_query`] answers
/// from. The tag is older than format version 3: until then the
/// section also carried the two `neighborNSim` CSRs.
pub const TAG_CANDIDATES: u32 = 0x07;
/// Section tag: the final matching, as entity-id pairs.
pub const TAG_MATCHING: u32 = 0x08;
/// Section tag: the first knowledge base, embedded whole (name, URI and
/// attribute interners, per-entity statements) — a patch's input: it
/// re-runs the pipeline over the mutated pair, so it needs the
/// statements, not just the URIs.
pub const TAG_KB_FIRST: u32 = 0x09;
/// Section tag: the second knowledge base, embedded whole.
pub const TAG_KB_SECOND: u32 = 0x0A;
// Tags `0x02`–`0x06` are retired and never reused: the bare URI
// interners of format version 1, and the token sets and name / token
// blocks that left with version 3.

/// The name [`ArtifactMeta::section_bytes`] reports a section under.
fn section_name(tag: u32) -> Option<&'static str> {
    match tag {
        TAG_META => Some("meta"),
        TAG_KB_FIRST => Some("kb_first"),
        TAG_KB_SECOND => Some("kb_second"),
        TAG_CANDIDATES => Some("candidates"),
        TAG_MATCHING => Some("matching"),
        _ => None,
    }
}

/// Cheap-to-read metadata about a persisted index.
#[derive(Debug, Clone)]
pub struct ArtifactMeta {
    /// Index name (the build job's manifest key).
    pub name: String,
    /// Format version of the file this meta was read from (the current
    /// [`minoan_kb::artifact::FORMAT_VERSION`] for freshly built ones).
    pub format_version: u32,
    /// Logical content version: 1 for a fresh build, bumped by one on
    /// every delta patch. Readers use it to tell "same file" from "same
    /// index name, newer contents".
    pub content_version: u64,
    /// Total artifact file size in bytes (0 until read from a file or
    /// persisted as a patch).
    pub file_bytes: u64,
    /// Payload bytes per section, by name (`meta`, `kb_first`,
    /// `kb_second`, `candidates`, `matching`) in file order: where the
    /// file's bytes are. Empty until read from a file or persisted as a
    /// patch.
    pub section_bytes: Vec<(&'static str, u64)>,
    /// Human-readable KB names, first and second side.
    pub kb_names: [String; 2],
    /// Entity counts per side.
    pub entity_counts: [u64; 2],
    /// Distinct tokens in the shared dictionary.
    pub token_count: u64,
    /// Name blocks (`|BN|`).
    pub name_block_count: u64,
    /// Token blocks after purging (`|BT|`).
    pub token_block_count: u64,
    /// Pairs with recorded value similarity: every pair the run scored,
    /// in one direction. That is more than the file holds — each
    /// persisted row keeps only its best [`MAX_CANDIDATES`] — so this
    /// describes the run, not the `candidates` section.
    pub value_pair_count: u64,
    /// Pairs with non-zero neighbor similarity.
    pub neighbor_pair_count: u64,
    /// Pairs in the final matching.
    pub matched_pairs: u64,
    /// Stage timings of the run that produced the current content: the
    /// build, or the latest patch's re-run.
    pub build_timings: Timings,
    /// Wall-clock completion time of that run, milliseconds since the
    /// epoch.
    pub built_unix_ms: u64,
    /// The build configuration, as compact JSON.
    pub config_json: String,
}

impl ArtifactMeta {
    /// Describes an artifact about to hold `indexed`, a finished run
    /// over `pair`. The one place the run-derived fields (counts,
    /// timings, completion time) are computed — for a fresh build
    /// ([`IndexArtifact::from_run`], content version 1) and for a patch
    /// ([`IndexArtifact::patched`], the previous version + 1) alike,
    /// so they always describe the content they sit beside.
    pub(crate) fn of_run(
        name: String,
        content_version: u64,
        config_json: String,
        pair: &KbPair,
        indexed: &IndexedOutput,
    ) -> Self {
        let built_unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self {
            name,
            format_version: minoan_kb::artifact::FORMAT_VERSION,
            content_version,
            file_bytes: 0,
            section_bytes: Vec::new(),
            kb_names: [
                pair.first.name().to_string(),
                pair.second.name().to_string(),
            ],
            entity_counts: [
                pair.first.entity_count() as u64,
                pair.second.entity_count() as u64,
            ],
            token_count: indexed.artifacts.tokens.dict().len() as u64,
            name_block_count: indexed.artifacts.name_blocks.len() as u64,
            token_block_count: indexed.artifacts.token_blocks.len() as u64,
            value_pair_count: indexed.index.pair_count() as u64,
            neighbor_pair_count: indexed.index.neighbor_pair_count() as u64,
            matched_pairs: indexed.output.matching.len() as u64,
            build_timings: indexed.output.report.timings.clone(),
            built_unix_ms,
            config_json,
        }
    }

    /// The metadata as a JSON object (the `GET /v1/indexes/{id}` body).
    pub fn to_json(&self) -> Json {
        let config = Json::parse(&self.config_json).unwrap_or(Json::Null);
        Json::obj([
            ("name", Json::str(&self.name)),
            ("format_version", Json::num(self.format_version as f64)),
            ("content_version", Json::num(self.content_version as f64)),
            ("file_bytes", Json::num(self.file_bytes as f64)),
            (
                "section_bytes",
                Json::obj(
                    self.section_bytes
                        .iter()
                        .map(|&(name, bytes)| (name, Json::num(bytes as f64))),
                ),
            ),
            ("kb_names", Json::arr(self.kb_names.iter().map(Json::str))),
            (
                "entities",
                Json::arr(self.entity_counts.iter().map(|&n| Json::num(n as f64))),
            ),
            ("tokens", Json::num(self.token_count as f64)),
            ("name_blocks", Json::num(self.name_block_count as f64)),
            ("token_blocks", Json::num(self.token_block_count as f64)),
            ("value_pairs", Json::num(self.value_pair_count as f64)),
            ("neighbor_pairs", Json::num(self.neighbor_pair_count as f64)),
            ("matches", Json::num(self.matched_pairs as f64)),
            ("built_unix_ms", Json::num(self.built_unix_ms as f64)),
            ("build_timings_ms", self.build_timings.to_json_ms()),
            ("config", config),
        ])
    }
}

/// One answer of the online match-query path.
#[derive(Debug, Clone)]
pub struct MatchAnswer {
    /// Which side the queried entity belongs to.
    pub side: KbSide,
    /// The queried entity's URI (as stored).
    pub entity: String,
    /// URIs of the matched counterparts from the final matching
    /// (at most one for a clean partial matching).
    pub matches: Vec<String>,
    /// Top-k value-similarity candidates from the other side, with
    /// scores, best first: a prefix of the persisted row, so at most
    /// [`MAX_CANDIDATES`] long, and entry for entry the run's own top k.
    pub candidates: Vec<(String, f64)>,
}

impl MatchAnswer {
    /// The answer as the body every front end returns for a match
    /// query against `index`: `load_ms` is the time it took to get the
    /// index in hand, `query_ms` the time this answer took.
    pub fn to_json(&self, index: &str, load_ms: f64, query_ms: f64) -> Json {
        let candidates = self
            .candidates
            .iter()
            .map(|(uri, score)| Json::obj([("uri", Json::str(uri)), ("score", Json::Num(*score))]));
        Json::obj([
            ("index", Json::str(index)),
            ("entity", Json::str(&self.entity)),
            (
                "side",
                Json::str(match self.side {
                    KbSide::First => "first",
                    KbSide::Second => "second",
                }),
            ),
            ("matches", Json::arr(self.matches.iter().map(Json::str))),
            ("candidates", Json::arr(candidates)),
            (
                // The zero-ingest guarantee, observable per answer: the
                // build-once stages cost nothing on this path.
                "stage_timings_ms",
                Json::obj([
                    ("ingest", Json::Num(0.0)),
                    ("blocking", Json::Num(0.0)),
                    ("similarities", Json::Num(0.0)),
                    ("load", Json::Num(load_ms)),
                    ("query", Json::Num(query_ms)),
                ]),
            ),
        ])
    }
}

/// A persistent index, freshly built or loaded — the same five parts
/// either way: what [`IndexArtifact::match_query`] and
/// [`IndexArtifact::patched`] read (see the module docs).
///
/// The artifact embeds both knowledge bases whole, which is what makes
/// it *patchable*: [`crate::delta`] applies the ops to the pair and
/// re-runs the pipeline over it.
#[derive(Debug)]
pub struct IndexArtifact {
    pub(crate) meta: ArtifactMeta,
    /// `meta.config_json`, parsed and validated: the parameters a patch
    /// re-resolves with.
    pub(crate) config: MinoanConfig,
    pub(crate) pair: KbPair,
    /// Per side: every entity's best [`MAX_CANDIDATES`] `valueSim`
    /// candidates from the other side, best first.
    pub(crate) candidates: [CandidateCsr; 2],
    pub(crate) matching: Matching,
}

impl IndexArtifact {
    /// Captures an index from a finished pipeline run: the matching and
    /// the value candidates — each row cut to its best
    /// [`MAX_CANDIDATES`] — are taken out of `indexed`, and the rest of
    /// the run — token sets, blocks, neighbor lists — is dropped here,
    /// before anything is encoded. `pair` must be the pair `indexed` was
    /// produced from; the artifact keeps its own copy so patches can
    /// mutate it.
    pub fn from_run(
        name: &str,
        pair: &KbPair,
        indexed: IndexedOutput,
        config: &MinoanConfig,
    ) -> Self {
        let config_json = config.to_json().compact();
        let meta = ArtifactMeta::of_run(name.to_string(), 1, config_json, pair, &indexed);
        Self {
            meta,
            config: config.clone(),
            pair: pair.clone(),
            candidates: indexed.index.into_value_candidates(),
            matching: indexed.output.matching,
        }
    }

    /// The artifact's metadata.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The persisted final matching.
    pub fn matching(&self) -> &Matching {
        &self.matching
    }

    /// The persisted value-candidate CSR of one side: row `e` ranks the
    /// other side's entities by `valueSim` with `e` — the first
    /// `min(len, MAX_CANDIDATES)` entries of the run's full row, bit for
    /// bit (see [`MAX_CANDIDATES`]). The two sides are not transposes of
    /// each other.
    pub fn candidates(&self, side: KbSide) -> &CandidateCsr {
        &self.candidates[side.index()]
    }

    /// The embedded knowledge-base pair.
    pub fn pair(&self) -> &KbPair {
        &self.pair
    }

    /// The matching as URI pairs, in pipeline insertion order — the
    /// deterministic result the bit-identity gate compares against a
    /// fresh run's `matches`.
    pub fn matched_uri_pairs(&self) -> Vec<(String, String)> {
        self.matching
            .iter()
            .map(|(a, b)| {
                (
                    self.pair.first.entity_uri(a).to_string(),
                    self.pair.second.entity_uri(b).to_string(),
                )
            })
            .collect()
    }

    /// Answers "who matches this entity?" from the loaded structures —
    /// no ingest, no blocking, no pipeline. Returns `None` when the IRI
    /// is on neither side.
    pub fn match_query(&self, iri: &str, k: usize) -> Option<MatchAnswer> {
        let (side, id) = if let Some(id) = self.pair.first.entity_by_uri(iri) {
            (KbSide::First, id)
        } else if let Some(id) = self.pair.second.entity_by_uri(iri) {
            (KbSide::Second, id)
        } else {
            return None;
        };
        let other = side.other();
        let matches: Vec<String> = self
            .matching
            .iter()
            .filter_map(|(a, b)| match side {
                KbSide::First => (a == id).then(|| self.pair.second.entity_uri(b).to_string()),
                KbSide::Second => (b == id).then(|| self.pair.first.entity_uri(a).to_string()),
            })
            .collect();
        let candidates: Vec<(String, f64)> = self.candidates[side.index()]
            .row(id.index())
            .iter()
            .take(k)
            .map(|(e, v)| (self.pair.kb(other).entity_uri(e).to_string(), v))
            .collect();
        Some(MatchAnswer {
            side,
            entity: iri.to_string(),
            matches,
            candidates,
        })
    }

    /// Serializes the artifact to `path`, returning the file size.
    pub fn write_to(&self, path: &Path) -> io::Result<u64> {
        self.write_sections(path).map(|(bytes, _)| bytes)
    }

    /// Writes the five sections to `path`; returns the file size and
    /// each section's payload bytes, in file order.
    pub(crate) fn write_sections(
        &self,
        path: &Path,
    ) -> io::Result<(u64, Vec<(&'static str, u64)>)> {
        let mut w = ArtifactWriter::new();
        let mut section_bytes = Vec::new();
        {
            let _span =
                minoan_obs::trace::span(minoan_obs::Level::Debug, "artifact.encode", || {
                    path.display().to_string()
                });
            for (tag, payload) in [
                (TAG_META, self.encode_meta()),
                (TAG_KB_FIRST, encode_kb(&self.pair.first)),
                (TAG_KB_SECOND, encode_kb(&self.pair.second)),
                (TAG_CANDIDATES, encode_candidates(&self.candidates)),
                (TAG_MATCHING, encode_matching(&self.matching)),
            ] {
                let name = section_name(tag).expect("every written section is named");
                section_bytes.push((name, payload.len() as u64));
                w.push_section(tag, payload);
            }
        }
        Ok((w.write_to(path)?, section_bytes))
    }

    /// Loads and fully validates the artifact at `path`.
    pub fn read_from(path: &Path) -> Result<Self, ArtifactError> {
        let file = ArtifactFile::open(path)?;
        let _span = minoan_obs::trace::span(minoan_obs::Level::Debug, "artifact.decode", || {
            path.display().to_string()
        });
        let meta = decode_meta(&file)?;
        // A patch re-resolves with the persisted parameters, so a config
        // this build cannot read (version skew, an unknown field) or
        // would refuse to run (a parameter out of range) fails the open;
        // running the patch on defaults would quietly stop it being
        // bit-identical to a rebuild.
        let config = Json::parse(&meta.config_json)
            .and_then(|j| MinoanConfig::from_json(&j))
            .and_then(|c| c.validate().map(|()| c))
            .map_err(|e| ArtifactError::Corrupt(format!("meta config: {e}")))?;
        let pair = KbPair::new(
            decode_kb(file.section(TAG_KB_FIRST)?)?,
            decode_kb(file.section(TAG_KB_SECOND)?)?,
        );
        let counts = [pair.first.entity_count(), pair.second.entity_count()];
        let candidates = decode_candidates(file.section(TAG_CANDIDATES)?, counts)?;
        let matching = decode_matching(file.section(TAG_MATCHING)?, counts)?;
        Ok(Self {
            meta,
            config,
            pair,
            candidates,
            matching,
        })
    }

    /// Reads only the metadata of the artifact at `path` (the file is
    /// still checksum-validated in full, but no structures are rebuilt).
    pub fn read_meta(path: &Path) -> Result<ArtifactMeta, ArtifactError> {
        decode_meta(&ArtifactFile::open(path)?)
    }

    fn encode_meta(&self) -> Vec<u8> {
        let m = &self.meta;
        let mut out = Vec::new();
        put_str(&mut out, &m.name);
        put_str(&mut out, &m.kb_names[0]);
        put_str(&mut out, &m.kb_names[1]);
        put_u64(&mut out, m.entity_counts[0]);
        put_u64(&mut out, m.entity_counts[1]);
        put_u64(&mut out, m.token_count);
        put_u64(&mut out, m.name_block_count);
        put_u64(&mut out, m.token_block_count);
        put_u64(&mut out, m.value_pair_count);
        put_u64(&mut out, m.neighbor_pair_count);
        put_u64(&mut out, m.matched_pairs);
        for d in m.build_timings.durations() {
            put_u64(&mut out, d.as_nanos() as u64);
        }
        put_u64(&mut out, m.built_unix_ms);
        put_str(&mut out, &m.config_json);
        put_u64(&mut out, m.content_version);
        out
    }
}

/// The meta section of an opened file, plus what only the container
/// knows: format version, file size and where the bytes are.
fn decode_meta(file: &ArtifactFile) -> Result<ArtifactMeta, ArtifactError> {
    let mut c = Cursor::new(file.section(TAG_META)?);
    let name = c.get_str()?;
    let kb_names = [c.get_str()?, c.get_str()?];
    let entity_counts = [c.get_u64()?, c.get_u64()?];
    let token_count = c.get_u64()?;
    let name_block_count = c.get_u64()?;
    let token_block_count = c.get_u64()?;
    let value_pair_count = c.get_u64()?;
    let neighbor_pair_count = c.get_u64()?;
    let matched_pairs = c.get_u64()?;
    let mut durations = [Duration::ZERO; 5];
    for d in &mut durations {
        *d = Duration::from_nanos(c.get_u64()?);
    }
    let built_unix_ms = c.get_u64()?;
    let config_json = c.get_str()?;
    let content_version = c.get_u64()?;
    Ok(ArtifactMeta {
        name,
        format_version: file.version(),
        content_version,
        file_bytes: file.file_bytes(),
        section_bytes: file
            .tags()
            .filter_map(|tag| Some((section_name(tag)?, file.section_len(tag)?)))
            .collect(),
        kb_names,
        entity_counts,
        token_count,
        name_block_count,
        token_block_count,
        value_pair_count,
        neighbor_pair_count,
        matched_pairs,
        build_timings: Timings::from_durations(durations),
        built_unix_ms,
        config_json,
    })
}

/// Statement-value tag byte: a literal string follows.
const VALUE_LITERAL: u8 = 0;
/// Statement-value tag byte: an entity id follows.
const VALUE_ENTITY: u8 = 1;

fn encode_kb(kb: &KnowledgeBase) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, kb.name());
    let uris = encode_interner(kb.entity_uris());
    put_u64(&mut out, uris.len() as u64);
    out.extend_from_slice(&uris);
    let attrs = encode_interner(kb.attr_interner());
    put_u64(&mut out, attrs.len() as u64);
    out.extend_from_slice(&attrs);
    put_u64(&mut out, kb.entity_count() as u64);
    for e in kb.entities() {
        let stmts = kb.statements(e);
        put_u64(&mut out, stmts.len() as u64);
        for s in stmts {
            put_u32(&mut out, s.attr.0);
            match &s.value {
                Value::Literal(lit) => {
                    out.push(VALUE_LITERAL);
                    put_str(&mut out, lit);
                }
                Value::Entity(e) => {
                    out.push(VALUE_ENTITY);
                    put_u32(&mut out, e.0);
                }
            }
        }
    }
    out
}

fn decode_kb(bytes: &[u8]) -> Result<KnowledgeBase, ArtifactError> {
    let mut c = Cursor::new(bytes);
    let name = c.get_str()?;
    let sub_interner = |c: &mut Cursor<'_>| -> Result<Interner, ArtifactError> {
        let len = c.get_len()?;
        let sub = c.get_bytes(len)?;
        decode_interner(sub)
    };
    let uris = sub_interner(&mut c)?;
    let attrs = sub_interner(&mut c)?;
    let n = c.get_len()?;
    if n != uris.len() {
        return Err(ArtifactError::Corrupt(format!(
            "KB section covers {n} entities, URI interner has {}",
            uris.len()
        )));
    }
    let mut statements = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.get_len()?;
        let mut stmts = Vec::with_capacity(len.min(bytes.len() / 5));
        for _ in 0..len {
            let attr = AttrId(c.get_u32()?);
            let value = match c.get_u8()? {
                VALUE_LITERAL => Value::Literal(c.get_str()?.into_boxed_str()),
                VALUE_ENTITY => Value::Entity(EntityId(c.get_u32()?)),
                tag => {
                    return Err(ArtifactError::Corrupt(format!(
                        "unknown statement value tag {tag}"
                    )))
                }
            };
            stmts.push(Statement { attr, value });
        }
        statements.push(stmts);
    }
    KnowledgeBase::from_parts(name, uris, attrs, statements).map_err(ArtifactError::Corrupt)
}

fn encode_interner(interner: &Interner) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, interner.arena());
    put_u64(&mut out, interner.spans().len() as u64);
    for &(start, end) in interner.spans() {
        put_u32(&mut out, start);
        put_u32(&mut out, end);
    }
    out
}

fn decode_interner(bytes: &[u8]) -> Result<Interner, ArtifactError> {
    let mut c = Cursor::new(bytes);
    let arena = c.get_str()?;
    let n = c.get_len()?;
    if c.remaining() < n.saturating_mul(8) {
        return Err(ArtifactError::Corrupt(format!(
            "interner claims {n} spans but only {} bytes remain",
            c.remaining()
        )));
    }
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        spans.push((c.get_u32()?, c.get_u32()?));
    }
    Interner::from_parts(arena, spans).map_err(ArtifactError::Corrupt)
}

fn encode_csr(out: &mut Vec<u8>, csr: &CandidateCsr) {
    put_u64(out, csr.rows() as u64);
    put_u64(out, csr.item_count() as u64);
    for &off in csr.offsets() {
        put_u64(out, off as u64);
    }
    for i in 0..csr.rows() {
        for (e, v) in csr.row(i).iter() {
            put_u32(out, e.0);
            put_f64(out, v);
        }
    }
}

/// Decodes one candidate CSR that must hold exactly `n_rows` rows —
/// [`IndexArtifact::match_query`] indexes it by entity id — each of at
/// most [`MAX_CANDIDATES`] candidates in `0..n_cols`.
fn decode_csr(
    c: &mut Cursor<'_>,
    n_rows: usize,
    n_cols: usize,
) -> Result<CandidateCsr, ArtifactError> {
    let rows = c.get_len()?;
    if rows != n_rows {
        return Err(ArtifactError::Corrupt(format!(
            "candidate CSR has {rows} rows, its KB has {n_rows} entities"
        )));
    }
    let item_count = c.get_len()?;
    if c.remaining() < rows.saturating_add(1).saturating_mul(8) {
        return Err(ArtifactError::Corrupt(
            "CSR offsets extend past section".into(),
        ));
    }
    let mut lens = Vec::with_capacity(rows);
    let mut prev = c.get_len()?;
    if prev != 0 {
        return Err(ArtifactError::Corrupt("CSR offsets must start at 0".into()));
    }
    for _ in 0..rows {
        let off = c.get_len()?;
        if off < prev {
            return Err(ArtifactError::Corrupt("CSR offsets not monotone".into()));
        }
        let len = off - prev;
        if len > MAX_CANDIDATES {
            return Err(ArtifactError::Corrupt(format!(
                "candidate row {} holds {len} entries, at most {MAX_CANDIDATES} are persisted",
                lens.len()
            )));
        }
        lens.push(len);
        prev = off;
    }
    if prev != item_count {
        return Err(ArtifactError::Corrupt(format!(
            "CSR offsets end at {prev}, item count is {item_count}"
        )));
    }
    if c.remaining() < item_count.saturating_mul(12) {
        return Err(ArtifactError::Corrupt(
            "CSR items extend past section".into(),
        ));
    }
    let mut ids = Vec::with_capacity(item_count);
    let mut sims = Vec::with_capacity(item_count);
    for _ in 0..item_count {
        let e = c.get_u32()?;
        if e as usize >= n_cols {
            return Err(ArtifactError::Corrupt(format!(
                "CSR candidate id {e} out of range {n_cols}"
            )));
        }
        ids.push(EntityId(e));
        sims.push(c.get_f64()?);
    }
    Ok(CandidateCsr::from_lens(&lens, ids, sims))
}

fn encode_candidates(candidates: &[CandidateCsr; 2]) -> Vec<u8> {
    let mut out = Vec::new();
    for csr in candidates {
        encode_csr(&mut out, csr);
    }
    out
}

fn decode_candidates(bytes: &[u8], counts: [usize; 2]) -> Result<[CandidateCsr; 2], ArtifactError> {
    let mut c = Cursor::new(bytes);
    let first = decode_csr(&mut c, counts[0], counts[1])?;
    let second = decode_csr(&mut c, counts[1], counts[0])?;
    Ok([first, second])
}

fn encode_matching(matching: &Matching) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, matching.len() as u64);
    for (a, b) in matching.iter() {
        put_u32(&mut out, a.0);
        put_u32(&mut out, b.0);
    }
    out
}

fn decode_matching(bytes: &[u8], counts: [usize; 2]) -> Result<Matching, ArtifactError> {
    let mut c = Cursor::new(bytes);
    let n = c.get_len()?;
    if c.remaining() < n.saturating_mul(8) {
        return Err(ArtifactError::Corrupt(
            "matching extends past section".into(),
        ));
    }
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let a = c.get_u32()?;
        let b = c.get_u32()?;
        if a as usize >= counts[0] || b as usize >= counts[1] {
            return Err(ArtifactError::Corrupt(format!(
                "matched pair ({a},{b}) out of range {}x{}",
                counts[0], counts[1]
            )));
        }
        pairs.push((EntityId(a), EntityId(b)));
    }
    Ok(Matching::from_pairs(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_exec::{CancelToken, Executor};
    use minoan_kb::artifact::{HEADER_BYTES, SECTION_ENTRY_BYTES};
    use minoan_kb::KbBuilder;

    fn sample_pair() -> KbPair {
        let mut a = KbBuilder::new("E1");
        let mut b = KbBuilder::new("E2");
        for (i, name) in ["Kri Kri Taverna", "Labyrinth Grill", "Phaistos Cafe"]
            .iter()
            .enumerate()
        {
            a.add_literal(&format!("a:r{i}"), "name", name);
            a.add_uri(&format!("a:r{i}"), "address", &format!("a:addr{i}"));
            a.add_literal(&format!("a:addr{i}"), "street", &format!("{i} Minos Ave"));
            b.add_literal(&format!("b:r{i}"), "title", name);
            b.add_uri(&format!("b:r{i}"), "location", &format!("b:addr{i}"));
            b.add_literal(
                &format!("b:addr{i}"),
                "street",
                &format!("{i} Minos Avenue"),
            );
        }
        KbPair::new(a.finish(), b.finish())
    }

    fn build_artifact(pair: &KbPair) -> (IndexArtifact, crate::pipeline::MatchOutput) {
        let matcher = crate::MinoanEr::with_defaults();
        let indexed = matcher
            .run_cancellable_indexed(pair, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        let output = indexed.output.clone();
        (
            IndexArtifact::from_run("sample", pair, indexed, matcher.config()),
            output,
        )
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("minoan-core-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.idx", std::process::id()))
    }

    #[test]
    fn indexed_run_matches_plain_run() {
        let pair = sample_pair();
        let (artifact, output) = build_artifact(&pair);
        let plain = crate::MinoanEr::with_defaults().run_with(&pair, &Executor::sequential());
        assert_eq!(
            plain.matching.iter().collect::<Vec<_>>(),
            output.matching.iter().collect::<Vec<_>>()
        );
        assert_eq!(artifact.matching().len(), plain.matching.len());
    }

    #[test]
    fn artifact_round_trips_through_disk() {
        let pair = sample_pair();
        let (artifact, _) = build_artifact(&pair);
        let path = temp_path("roundtrip");
        let bytes = artifact.write_to(&path).unwrap();
        let loaded = IndexArtifact::read_from(&path).unwrap();
        assert_eq!(loaded.meta().file_bytes, bytes);
        assert_eq!(loaded.meta().name, "sample");
        assert_eq!(loaded.matched_uri_pairs(), artifact.matched_uri_pairs());
        assert_eq!(loaded.meta().entity_counts, artifact.meta().entity_counts);
        // The candidates survive bit for bit.
        for side in [KbSide::First, KbSide::Second] {
            assert_eq!(loaded.candidates(side), artifact.candidates(side));
        }
        // Five sections, nothing else: meta, the two KBs, candidates,
        // matching — by value, so a renumbered tag fails here too.
        let file = ArtifactFile::open(&path).unwrap();
        assert_eq!(
            file.tags().collect::<Vec<_>>(),
            [0x01, 0x09, 0x0A, 0x07, 0x08]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn match_query_answers_from_the_loaded_index() {
        let pair = sample_pair();
        let (artifact, _) = build_artifact(&pair);
        let path = temp_path("query");
        artifact.write_to(&path).unwrap();
        let loaded = IndexArtifact::read_from(&path).unwrap();
        let answer = loaded.match_query("a:r0", 5).unwrap();
        assert_eq!(answer.side, KbSide::First);
        assert_eq!(answer.matches, vec!["b:r0".to_string()]);
        assert!(!answer.candidates.is_empty());
        assert!(answer.candidates[0].1 > 0.0);
        // Reverse direction resolves too.
        let back = loaded.match_query("b:r1", 3).unwrap();
        assert_eq!(back.side, KbSide::Second);
        assert_eq!(back.matches, vec!["a:r1".to_string()]);
        // Unknown IRIs are a clean miss.
        assert!(loaded.match_query("nope:0", 3).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn meta_reads_without_rebuilding_structures() {
        let pair = sample_pair();
        let (artifact, _) = build_artifact(&pair);
        let path = temp_path("meta");
        artifact.write_to(&path).unwrap();
        let meta = IndexArtifact::read_meta(&path).unwrap();
        assert_eq!(meta.name, "sample");
        assert_eq!(meta.matched_pairs, artifact.meta().matched_pairs);
        // An unwritten artifact cannot say where its bytes are; a read
        // one accounts for every byte of the file.
        assert!(artifact.meta().section_bytes.is_empty());
        let names: Vec<&str> = meta.section_bytes.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names,
            ["meta", "kb_first", "kb_second", "candidates", "matching"]
        );
        let payload: u64 = meta.section_bytes.iter().map(|&(_, bytes)| bytes).sum();
        let framing = (HEADER_BYTES + names.len() * SECTION_ENTRY_BYTES) as u64;
        assert_eq!(payload + framing, meta.file_bytes);
        let json = meta.to_json();
        assert_eq!(json.get("name").unwrap().as_str(), Some("sample"));
        assert!(json.get("build_timings_ms").is_some());
        assert_eq!(
            json.get("section_bytes").unwrap().get("candidates"),
            Some(&Json::num(meta.section_bytes[3].1 as f64))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_sections_are_structural_errors_not_panics() {
        let pair = sample_pair();
        let (artifact, _) = build_artifact(&pair);
        let path = temp_path("corrupt");
        artifact.write_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip one byte at a time across a sample of offsets; every
        // mutation must yield Err, never a panic.
        for at in (0..good.len()).step_by(97) {
            let mut bad = good.clone();
            bad[at] ^= 0xff;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                IndexArtifact::read_from(&path).is_err(),
                "flipping byte {at} went undetected"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Every checksum is valid here — the files go through the real
    /// writer — so only the decoder stands between a short candidate
    /// CSR and an out-of-range row read in `match_query`, or between an
    /// overlong row and an allocation the file alone sizes.
    #[test]
    fn candidate_rows_must_cover_the_embedded_kbs() {
        let pair = sample_pair();
        let n = [pair.first.entity_count(), pair.second.entity_count()];
        let (mut artifact, _) = build_artifact(&pair);
        let path = temp_path("shortcsr");
        let [first, second] = artifact.candidates.clone();
        // Row 1 one entry over the cap, every id in range.
        let mut overlong = CandidateCsr::default();
        for i in 0..n[0] {
            let len = if i == 1 { MAX_CANDIDATES + 1 } else { 0 };
            overlong.push_row(&vec![(EntityId(0), 1.0); len]);
        }
        for (candidates, needle) in [
            // No rows at all on either side.
            (
                <[CandidateCsr; 2]>::default(),
                format!("0 rows, its KB has {} entities", n[0]),
            ),
            // One direction short by a row.
            (
                [first, CandidateCsr::empty(n[1] - 1)],
                format!("{} rows, its KB has {} entities", n[1] - 1, n[1]),
            ),
            // A row longer than any the writer persists.
            (
                [overlong, second],
                format!("candidate row 1 holds {} entries", MAX_CANDIDATES + 1),
            ),
        ] {
            artifact.candidates = candidates;
            artifact.write_to(&path).unwrap();
            match IndexArtifact::read_from(&path) {
                Err(ArtifactError::Corrupt(msg)) => assert!(msg.contains(&needle), "{msg}"),
                other => panic!("expected Corrupt({needle}), got {:?}", other.map(|_| ())),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unreadable_persisted_config_fails_the_open() {
        let pair = sample_pair();
        let (mut artifact, _) = build_artifact(&pair);
        for (config_json, needle) in [
            (r#"{"theta":0.3,"no_such_knob":1}"#, "no_such_knob"),
            (r#"{"theta":"#, "meta config: "),
            (r#"{"theta":7}"#, "theta must be in (0,1)"),
            (
                r#"{"candidates_k":129}"#,
                "candidates_k must be in 1..=128, got 129",
            ),
        ] {
            artifact.meta.config_json = config_json.to_string();
            let path = temp_path("badconfig");
            artifact.write_to(&path).unwrap();
            match IndexArtifact::read_from(&path) {
                Err(ArtifactError::Corrupt(msg)) => {
                    assert!(msg.starts_with("meta config: "), "{msg}");
                    assert!(msg.contains(needle), "{msg}");
                }
                other => panic!(
                    "expected a corrupt-config error, got {:?}",
                    other.map(|_| ())
                ),
            }
            // The cheap metadata read still works, so an operator can
            // see what the file says.
            assert_eq!(
                IndexArtifact::read_meta(&path).unwrap().config_json,
                config_json
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A file written while the config still carried three execution
    /// settings (here the default of that time, byte for byte) opens to
    /// the same parameters and answers every query as a file written
    /// today; those settings never decided a result.
    #[test]
    fn artifacts_persisted_with_execution_settings_still_open() {
        const OLD_DEFAULT: &str = r#"{"name_attrs_k":2,"candidates_k":15,"top_relations_n":3,"theta":0.6,"purge_blocks":true,"purge_smoothing":1.025,"max_top_neighbors":32,"executor":"pool","threads":0,"ingest_chunk_kib":1024}"#;
        let pair = sample_pair();
        let (mut artifact, _) = build_artifact(&pair);
        let path = temp_path("oldconfig");
        artifact.write_to(&path).unwrap();
        let current = IndexArtifact::read_from(&path).unwrap();
        artifact.meta.config_json = OLD_DEFAULT.to_string();
        artifact.write_to(&path).unwrap();
        let old = IndexArtifact::read_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(old.config, current.config);
        assert_eq!(old.config, MinoanConfig::default());
        let answer = |a: &IndexArtifact, uri: &str| {
            a.match_query(uri, MAX_CANDIDATES)
                .map(|m| m.to_json("sample", 0.0, 0.0).compact())
        };
        for kb in [&pair.first, &pair.second] {
            for e in 0..kb.entity_count() as u32 {
                let uri = kb.entity_uri(EntityId(e));
                assert_eq!(answer(&old, uri), answer(&current, uri), "{uri}");
            }
        }
        // A patch persists the config as a build does today.
        let mut old = old;
        old.apply_delta(&[], &Executor::sequential(), &CancelToken::new())
            .unwrap();
        assert_eq!(old.meta.config_json, current.meta.config_json);
    }
}
