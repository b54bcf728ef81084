//! The adaptor: every call the harness makes into the program's crates
//! goes through this module, so the Rust names the benchmark pins are
//! the `use` lines below and nothing else. A change that renames or
//! merges one of them edits this file only (README.md lists them under
//! "measured surface").
//!
//! Three groups: workload inputs (`minoan_datagen` and the N-Triples
//! writer), the reference run the correctness checks compare against,
//! and one timed wrapper per layer boundary for the traced run. The
//! timed wrappers record a span named after the metric they feed.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use minoan_blocking::{name_blocking_with, purge_with_exec, token_blocking_with, BlockCollection};
use minoan_core::{
    entity_names_with, h1_name_matches, h2_value_matches_with, h3_rank_matches_with,
    h4_reciprocal_batch, top_neighbors_with, IndexArtifact, IndexedOutput, MinoanConfig, MinoanEr,
    SimilarityIndex,
};
use minoan_datagen::mutate_stream;
use minoan_exec::{CancelToken, ExecutorKind};
use minoan_kb::parse::{parse_ntriples_reader, to_ntriples};
use minoan_kb::{ArtifactFile, EntityId, FxHashSet, KbPair, Matching};
use minoan_serve::{load_kb_file, run_batch, IndexRegistry, Manifest, ServeOptions};
use minoan_text::{TokenizedPair, Tokenizer};

pub use minoan_datagen::DatasetKind;
pub use minoan_exec::Executor;
pub use minoan_kb::{DeltaOp, Json};

use crate::trace::Tracer;

pub type UriPairs = Vec<(String, String)>;

// ---------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------

/// One generated KB pair, rendered the way the program will read it.
pub struct Generated {
    pub first_nt: String,
    pub second_nt: String,
    pub truth: UriPairs,
}

pub fn generate(kind: DatasetKind, seed: u64, scale: f64) -> Generated {
    let d = kind.generate_scaled(seed, scale);
    let truth = d
        .truth
        .iter()
        .map(|(a, b)| {
            (
                d.pair.first.entity_uri(a).to_string(),
                d.pair.second.entity_uri(b).to_string(),
            )
        })
        .collect();
    Generated {
        first_nt: to_ntriples(&d.pair.first),
        second_nt: to_ntriples(&d.pair.second),
        truth,
    }
}

/// `batches` successive delta streams of `ops_per_batch` ops against
/// the pair `generate(kind, seed, scale)` renders.
pub fn delta_batches(
    kind: DatasetKind,
    seed: u64,
    scale: f64,
    mutate_seed: u64,
    batches: usize,
    ops_per_batch: usize,
) -> Vec<Vec<DeltaOp>> {
    mutate_stream(kind, seed, scale, mutate_seed, batches * ops_per_batch)
        .chunks(ops_per_batch)
        .map(<[DeltaOp]>::to_vec)
        .collect()
}

/// The `{"deltas":[…]}` wire body of one stream.
pub fn delta_body(ops: &[DeltaOp]) -> String {
    minoan_kb::delta::ops_to_json(ops).compact()
}

/// The URI a delete op tombstones, with whether it is on the first side.
pub fn deleted_uri(op: &DeltaOp) -> Option<(bool, &str)> {
    match op {
        DeltaOp::Delete { side, uri } => Some((*side == minoan_kb::KbSide::First, uri)),
        DeltaOp::Upsert { .. } => None,
    }
}

// ---------------------------------------------------------------------
// Reference run
// ---------------------------------------------------------------------

/// The configuration and executor the CLI runs with when given no flags.
fn defaults() -> (MinoanEr, Executor) {
    let matcher = MinoanEr::with_defaults();
    let exec = matcher.config().executor();
    (matcher, exec)
}

/// Loads a pair exactly as `minoaner match` / `index build` do.
pub fn load_pair(first: &Path, second: &Path) -> Result<KbPair, String> {
    let (matcher, exec) = defaults();
    Ok(KbPair::new(
        load_kb_file(first, "E1", matcher.config(), &exec)?,
        load_kb_file(second, "E2", matcher.config(), &exec)?,
    ))
}

fn uri_pairs(pair: &KbPair, matching: &Matching) -> UriPairs {
    matching
        .iter()
        .map(|(a, b)| {
            (
                pair.first.entity_uri(a).to_string(),
                pair.second.entity_uri(b).to_string(),
            )
        })
        .collect()
}

/// What the program must emit for `pair`: a from-scratch default run.
pub fn reference_pairs(pair: &KbPair) -> UriPairs {
    let (matcher, exec) = defaults();
    uri_pairs(pair, &matcher.run_with(pair, &exec).matching)
}

/// Replays a delta stream on the pair, as a rebuild would see it.
pub fn apply_deltas(pair: &mut KbPair, ops: &[DeltaOp]) {
    minoan_kb::delta::apply_to_pair(pair, ops);
}

/// Matched URI pairs, content version and file size of a persisted index.
pub fn artifact_summary(path: &Path) -> Result<(UriPairs, u64, u64), String> {
    let artifact = IndexArtifact::read_from(path)
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    let meta = artifact.meta();
    Ok((
        artifact.matched_uri_pairs(),
        meta.content_version,
        meta.file_bytes,
    ))
}

// ---------------------------------------------------------------------
// Timed layer boundaries (traced run)
// ---------------------------------------------------------------------

pub fn default_executor() -> Executor {
    defaults().1
}

pub fn sequential_executor() -> Executor {
    Executor::sequential()
}

pub fn pool1_executor() -> Executor {
    Executor::new(ExecutorKind::Pool, 1)
}

pub fn config() -> MinoanConfig {
    MinoanConfig::default()
}

/// `kb`: streaming parse of both files.
pub fn parse(
    t: &Tracer,
    first: &Path,
    second: &Path,
    exec: &Executor,
) -> Result<(KbPair, f64), String> {
    let opts = config().stream_options();
    let open = |p: &Path| File::open(p).map_err(|e| format!("cannot open {}: {e}", p.display()));
    let (a, b) = (open(first)?, open(second)?);
    let (pair, ms) = t.span("kb.parse_ms", "kb", || {
        let first = parse_ntriples_reader("E1", a, exec, opts)?;
        let second = parse_ntriples_reader("E2", b, exec, opts)?;
        Ok::<_, minoan_kb::parse::ParseError>(KbPair::new(first, second))
    });
    Ok((pair.map_err(|e| e.to_string())?, ms))
}

/// `text`: tokenization of both KBs.
pub fn tokenize(t: &Tracer, pair: &KbPair, exec: &Executor) -> (TokenizedPair, f64) {
    t.span("text.tokenize_ms", "text", || {
        TokenizedPair::build_with(pair, &Tokenizer::default(), exec)
    })
}

/// `core`: name extraction on both sides.
pub fn names(t: &Tracer, pair: &KbPair, exec: &Executor) -> ([Vec<Vec<String>>; 2], f64) {
    let k = config().name_attrs_k;
    t.span("core.names_ms", "core", || {
        [
            entity_names_with(&pair.first, k, exec),
            entity_names_with(&pair.second, k, exec),
        ]
    })
}

/// `blocking`: name blocks.
pub fn name_blocks(
    t: &Tracer,
    names: &[Vec<Vec<String>>; 2],
    exec: &Executor,
) -> (BlockCollection, f64) {
    t.span("blocking.name_ms", "blocking", || {
        name_blocking_with(&names[0], &names[1], exec).0
    })
}

/// `blocking`: raw token blocks.
pub fn token_blocks(t: &Tracer, tokens: &TokenizedPair, exec: &Executor) -> (BlockCollection, f64) {
    t.span("blocking.token_ms", "blocking", || {
        token_blocking_with(tokens, exec)
    })
}

/// What Block Purging kept.
pub struct Purged {
    pub blocks: BlockCollection,
    pub token_blocks: usize,
    pub comparisons_before: u64,
    pub comparisons_after: u64,
}

/// `blocking`: Block Purging.
pub fn purge(t: &Tracer, raw: &BlockCollection, exec: &Executor) -> (Purged, f64) {
    let s = config().purge_smoothing;
    t.span("blocking.purge_ms", "blocking", || {
        let (blocks, report) = purge_with_exec(raw, s, exec);
        Purged {
            token_blocks: blocks.len(),
            blocks,
            comparisons_before: report.comparisons_before,
            comparisons_after: report.comparisons_after,
        }
    })
}

/// `core`: top-neighbor lists of both sides.
pub fn top_neighbors(t: &Tracer, pair: &KbPair, exec: &Executor) -> ([Vec<Vec<EntityId>>; 2], f64) {
    let c = config();
    t.span("core.top_neighbors_ms", "core", || {
        [&pair.first, &pair.second]
            .map(|kb| top_neighbors_with(kb, c.top_relations_n, c.max_top_neighbors, exec))
    })
}

/// `core` (and `sim` beneath it): the similarity index.
pub fn simindex(
    t: &Tracer,
    blocks: &BlockCollection,
    tokens: &TokenizedPair,
    neighbors: &[Vec<Vec<EntityId>>; 2],
    exec: &Executor,
) -> (SimilarityIndex, f64) {
    t.span("core.simindex_ms", "core", || {
        SimilarityIndex::build_with(blocks, tokens, [&neighbors[0], &neighbors[1]], exec)
    })
}

/// `core`: `(H1 ∨ H2 ∨ H3) ∧ H4` composed from the public heuristics,
/// in the order the pipeline applies them. The traced run checks the
/// result against [`pipeline`]'s pair for pair, which is the guard
/// against this composition drifting from the program's.
pub fn heuristics(
    t: &Tracer,
    names: &BlockCollection,
    idx: &SimilarityIndex,
    pair: &KbPair,
    exec: &Executor,
) -> (UriPairs, f64) {
    let c = config();
    let (matching, ms) = t.span("core.heuristics_ms", "core", || {
        let smaller = pair.smaller_side();
        let n_smaller = pair.kb(smaller).entity_count();
        let mut matched: [FxHashSet<EntityId>; 2] = Default::default();
        let mut matching = Matching::new();
        let accept = |found: Vec<(EntityId, EntityId)>,
                      matching: &mut Matching,
                      matched: &mut [FxHashSet<EntityId>; 2]| {
            for (e1, e2) in found {
                matching.insert(e1, e2);
                matched[0].insert(e1);
                matched[1].insert(e2);
            }
        };
        accept(h1_name_matches(names), &mut matching, &mut matched);
        let h2 = h2_value_matches_with(idx, smaller, n_smaller, [&matched[0], &matched[1]], exec);
        accept(h2, &mut matching, &mut matched);
        let h3 = h3_rank_matches_with(
            idx,
            smaller,
            n_smaller,
            c.candidates_k,
            c.theta,
            [&matched[0], &matched[1]],
            exec,
        );
        accept(h3, &mut matching, &mut matched);
        let all: Vec<(EntityId, EntityId)> = matching.iter().collect();
        let keep = h4_reciprocal_batch(idx, c.candidates_k, &all, exec);
        let mut flags = keep.iter();
        matching.retain(|_, _| *flags.next().expect("one flag per pair"));
        matching
    });
    (uri_pairs(pair, &matching), ms)
}

/// `core`: the whole pipeline, as `index build` runs it.
pub fn pipeline(t: &Tracer, pair: &KbPair, exec: &Executor) -> (IndexedOutput, UriPairs, f64) {
    let (matcher, _) = defaults();
    let (indexed, ms) = t.span("core.pipeline_ms", "core", || {
        matcher
            .run_cancellable_indexed(pair, exec, &CancelToken::new())
            .expect("a fresh token is never cancelled")
    });
    let pairs = uri_pairs(pair, &indexed.output.matching);
    (indexed, pairs, ms)
}

/// Size counters of a built similarity index.
pub fn simindex_pairs(idx: &SimilarityIndex) -> (usize, usize) {
    (idx.pair_count(), idx.neighbor_pair_count())
}

/// `core`: pack a finished run into an artifact.
pub fn artifact_pack(
    t: &Tracer,
    name: &str,
    pair: &KbPair,
    indexed: IndexedOutput,
) -> (IndexArtifact, f64) {
    let c = config();
    t.span("core.artifact_pack_ms", "core", || {
        IndexArtifact::from_run(name, pair, indexed, &c)
    })
}

/// `core`: encode and write (temp file + rename, as the program does).
pub fn artifact_write(
    t: &Tracer,
    artifact: &IndexArtifact,
    path: &Path,
) -> Result<(u64, f64), String> {
    let (bytes, ms) = t.span("core.artifact_write_ms", "core", || artifact.write_to(path));
    Ok((
        bytes.map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        ms,
    ))
}

/// `core`: read, verify and decode.
pub fn artifact_read(t: &Tracer, path: &Path) -> Result<(IndexArtifact, f64), String> {
    let (artifact, ms) = t.span("core.artifact_read_ms", "core", || {
        IndexArtifact::read_from(path)
    });
    Ok((
        artifact.map_err(|e| format!("cannot load {}: {e}", path.display()))?,
        ms,
    ))
}

/// `kb`: read plus per-section checksums only (read − open = decode).
pub fn artifact_open(t: &Tracer, path: &Path) -> Result<f64, String> {
    let (file, ms) = t.span("kb.artifact_open_ms", "kb", || ArtifactFile::open(path));
    file.map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    Ok(ms)
}

/// `core`: one in-process match query; `Some(matches)` for a known entity.
pub fn match_query(artifact: &IndexArtifact, entity: &str, k: usize) -> Option<Vec<String>> {
    artifact.match_query(entity, k).map(|a| a.matches)
}

/// `core`: apply one delta stream to a loaded artifact; returns the
/// affected-row count.
pub fn delta_apply(
    t: &Tracer,
    artifact: &mut IndexArtifact,
    ops: &[DeltaOp],
    exec: &Executor,
) -> (usize, f64) {
    t.span("core.delta_apply_ms", "core", || {
        artifact
            .apply_delta(ops, exec, &CancelToken::new())
            .expect("a fresh token is never cancelled")
            .affected_rows
    })
}

/// `core`: persist a patched artifact.
pub fn delta_persist(t: &Tracer, artifact: &mut IndexArtifact, path: &Path) -> Result<f64, String> {
    let (bytes, ms) = t.span("core.delta_persist_ms", "core", || {
        artifact.persist_patch(path)
    });
    bytes.map_err(|e| format!("cannot persist {}: {e}", path.display()))?;
    Ok(ms)
}

/// `serve`: the loaded-index registry over a directory of artifacts.
pub struct Registry(IndexRegistry);

impl Registry {
    pub fn open(dir: &Path) -> Result<Self, String> {
        IndexRegistry::open(dir, None)
            .map(Registry)
            .map_err(|e| format!("cannot open registry {}: {e}", dir.display()))
    }

    pub fn load(&self, id: &str) -> Result<Arc<IndexArtifact>, String> {
        self.0
            .load(id)
            .map_err(|e| format!("registry load of {id:?} failed: {e}"))
    }

    pub fn invalidate(&self, id: &str) {
        self.0.invalidate(id);
    }
}

/// `serve`: a whole manifest through the in-process batch front-end;
/// returns how many jobs ended `ok`.
pub fn batch(t: &Tracer, manifest: &Path) -> Result<(usize, f64), String> {
    let manifest = Manifest::load(manifest)?;
    let (report, ms) = t.span("serve.run_batch", "serve", || {
        run_batch(&manifest, &ServeOptions::default())
    });
    Ok((report.ok_count(), ms))
}

/// `exec`: cumulative (steals, injected) of the process-wide pool.
pub fn pool_counters() -> (u64, u64) {
    let stats = minoan_exec::pool::global().stats();
    (stats.steals, stats.injected)
}

/// `obs`: keep the in-process replay's job narration off stderr, as
/// `--log-level error` does for the child processes.
pub fn quiet_program_logs() {
    minoan_obs::set_console_level(minoan_obs::Level::Error);
}

/// `obs`: switch the program's trace collector on or off.
pub fn obs_set_enabled(on: bool) {
    minoan_obs::trace::set_enabled(on);
}

/// `serve` + `core`: one job the way a solo caller would run it —
/// load both files, resolve — on one thread.
pub fn solo(t: &Tracer, first: &Path, second: &Path) -> Result<f64, String> {
    let exec = Executor::sequential();
    let (matcher, _) = defaults();
    let (result, ms) = t.span("serve.solo_job", "serve", || {
        let pair = KbPair::new(
            load_kb_file(first, "E1", matcher.config(), &exec)?,
            load_kb_file(second, "E2", matcher.config(), &exec)?,
        );
        Ok::<_, String>(matcher.run_with(&pair, &exec).matching.len())
    });
    result.map(|_| ms)
}
