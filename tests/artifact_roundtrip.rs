//! Persistent index artifacts: a persisted-then-loaded index must be
//! **bit-identical** to the fresh in-memory run that produced it (all
//! four benchmark profiles), each persisted candidate row must be the
//! bit-identical top of the run's full row, match queries served over
//! HTTP must report literally zero ingest work and accept exactly the
//! `k` an index can answer, and corrupt artifacts — truncated, bad
//! magic, wrong format version, flipped checksum, injected read faults —
//! must be rejected with structured errors, never a panic.

use minoaner::core::{Candidate, IndexArtifact, MinoanEr, MAX_CANDIDATES};
use minoaner::datagen::{mutate_stream, DatasetKind};
use minoaner::exec::{faults, Executor};
use minoaner::kb::{ArtifactError, EntityId, Json, KbPair, KbSide};
use minoaner::serve::{fnv1a, CancelToken, ServeOptions};

mod common;
use common::{with_server, Raw, ScratchDir};

/// Builds the index artifact for one synthetic profile through the
/// pipeline's indexed run — the same code path the serving layer uses.
fn build_artifact(kind: DatasetKind, scale: f64) -> IndexArtifact {
    let d = kind.generate_scaled(20180416, scale);
    let matcher = MinoanEr::with_defaults();
    let indexed = matcher
        .run_cancellable_indexed(&d.pair, &Executor::pool(), &CancelToken::new())
        .expect("nothing cancels this run");
    IndexArtifact::from_run(kind.name(), &d.pair, indexed, matcher.config())
}

/// Canonical fingerprint of a match result set: FNV-1a over the
/// newline-joined URI pairs, the same scheme job reports use.
fn pairs_fingerprint(pairs: &[(String, String)]) -> u64 {
    let mut canon = String::new();
    for (a, b) in pairs {
        canon.push_str(a);
        canon.push('\t');
        canon.push_str(b);
        canon.push('\n');
    }
    fnv1a(canon.as_bytes())
}

#[test]
fn persisted_artifacts_are_bit_identical_to_fresh_runs_on_all_profiles() {
    let scratch = ScratchDir::new("roundtrip");
    for kind in DatasetKind::ALL {
        let fresh = build_artifact(kind, 0.08);
        let fresh_pairs = fresh.matched_uri_pairs();
        assert!(!fresh_pairs.is_empty(), "{kind:?} resolved zero matches");

        let path = scratch.path(&format!("{}.idx", kind.name()));
        fresh.write_to(&path).expect("persist artifact");
        let loaded = IndexArtifact::read_from(&path).expect("load artifact");

        // The match set is fingerprint-identical after the disk trip.
        let loaded_pairs = loaded.matched_uri_pairs();
        assert_eq!(
            pairs_fingerprint(&fresh_pairs),
            pairs_fingerprint(&loaded_pairs),
            "{kind:?}: persisted-then-loaded matches diverge from the fresh run"
        );

        // So is every per-entity query answer, matches and ranked
        // candidates alike, on both sides of the pair.
        for (first, second) in fresh_pairs.iter().take(16) {
            for uri in [first, second] {
                let a = fresh.match_query(uri, 8).expect("fresh answer");
                let b = loaded.match_query(uri, 8).expect("loaded answer");
                assert_eq!(a.side, b.side, "{kind:?}/{uri}");
                assert_eq!(a.matches, b.matches, "{kind:?}/{uri}");
                assert_eq!(a.candidates, b.candidates, "{kind:?}/{uri}");
            }
        }

        // Metadata survives, and reading it alone agrees with the
        // loaded artifact.
        let meta = IndexArtifact::read_meta(&path).expect("read meta");
        assert_eq!(meta.matched_pairs as usize, loaded_pairs.len());
        assert_eq!(meta.entity_counts, loaded.meta().entity_counts);
        assert_eq!(meta.file_bytes, std::fs::metadata(&path).unwrap().len());
    }
}

/// One side's value rows, as a run's readers yield them: whole on the
/// side H2 and H3 probe (recomputed past the stored best
/// [`MAX_CANDIDATES`]), that best [`MAX_CANDIDATES`] of each row on the
/// other.
type Rows = Vec<Vec<Candidate>>;

/// Runs the pipeline over `pair` and returns the run's value rows of
/// both sides — read through the run's index, before
/// [`IndexArtifact::from_run`] packs it — and
/// how many rows per side are longer than [`MAX_CANDIDATES`] at the
/// run, together with the artifact packed from that same run.
fn full_rows_and_artifact(pair: &KbPair) -> ([Rows; 2], [usize; 2], IndexArtifact) {
    let matcher = MinoanEr::with_defaults();
    let indexed = matcher
        .run_cancellable_indexed(pair, &Executor::sequential(), &CancelToken::new())
        .expect("nothing cancels this run");
    let mut long = [0; 2];
    let full = [KbSide::First, KbSide::Second].map(|side| {
        pair.kb(side)
            .entities()
            .map(|e| {
                let row = indexed.index.value_candidates(side, e);
                let len = row.len();
                long[side.index()] += usize::from(len > MAX_CANDIDATES || row.is_cut());
                row.take(len).collect()
            })
            .collect()
    });
    let artifact = IndexArtifact::from_run("capped", pair, indexed, matcher.config());
    (full, long, artifact)
}

/// A row as comparable bits: `(id, similarity bit pattern)`.
fn row_bits(row: impl IntoIterator<Item = Candidate>) -> Vec<(u32, u64)> {
    row.into_iter().map(|(e, v)| (e.0, v.to_bits())).collect()
}

/// Every persisted row of `artifact` is the first
/// `min(len, MAX_CANDIDATES)` entries of the run's row, bit for bit;
/// `match_query(…, MAX_CANDIDATES)` answers exactly the run's top
/// `MAX_CANDIDATES`; and on each side some row of the run was longer
/// than that (`long`), so the check cannot pass vacuously.
fn assert_top_of_full_rows(
    artifact: &IndexArtifact,
    full: &[Rows; 2],
    long: [usize; 2],
    label: &str,
) {
    let pair = artifact.pair();
    for side in [KbSide::First, KbSide::Second] {
        let persisted = artifact.candidates(side);
        let rows = &full[side.index()];
        assert_eq!(persisted.rows(), rows.len(), "{label}/{side:?}: row count");
        for (e, row) in rows.iter().enumerate() {
            let top = &row[..row.len().min(MAX_CANDIDATES)];
            assert_eq!(
                row_bits(persisted.row(e).iter()),
                row_bits(top.iter().copied()),
                "{label}/{side:?}: row {e} is not the top of the full row"
            );
            let uri = pair.kb(side).entity_uri(EntityId(e as u32));
            let answer = artifact
                .match_query(uri, MAX_CANDIDATES)
                .expect("every embedded entity answers");
            let expected: Vec<(&str, u64)> = top
                .iter()
                .map(|&(c, v)| (pair.kb(side.other()).entity_uri(c), v.to_bits()))
                .collect();
            let got: Vec<(&str, u64)> = answer
                .candidates
                .iter()
                .map(|(c, v)| (c.as_str(), v.to_bits()))
                .collect();
            assert_eq!(got, expected, "{label}/{side:?}: query answer for {uri}");
        }
        assert!(
            long[side.index()] > 0,
            "{label}/{side:?}: no row is longer than {MAX_CANDIDATES}, so nothing was capped"
        );
    }
}

#[test]
fn persisted_rows_are_the_top_of_the_full_rows() {
    // Dense enough that rows on both sides run past the cap.
    let (kind, seed, scale) = (DatasetKind::BbcDbpedia, 20180416, 0.1);
    let pair = kind.generate_scaled(seed, scale).pair;
    let scratch = ScratchDir::new("capped");
    let path = scratch.path("capped.idx");

    // Packed from a run, before any disk trip.
    let (full, long, mut artifact) = full_rows_and_artifact(&pair);
    assert_top_of_full_rows(&artifact, &full, long, "from_run");

    // Written and read back.
    artifact.write_to(&path).expect("persist artifact");
    let loaded = IndexArtifact::read_from(&path).expect("load artifact");
    assert_top_of_full_rows(&loaded, &full, long, "read_from");

    // Patched, persisted and read back, against a fresh run over the
    // mutated pair.
    let ops = mutate_stream(kind, seed, scale, 7, 16);
    artifact
        .apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
        .expect("nothing cancels this patch");
    artifact.persist_patch(&path).expect("persist patch");
    let patched = IndexArtifact::read_from(&path).expect("load patched artifact");
    let mut mutated = pair.clone();
    minoaner::kb::delta::apply_to_pair(&mut mutated, &ops);
    let (full_mutated, long_mutated, _) = full_rows_and_artifact(&mutated);
    assert_top_of_full_rows(&patched, &full_mutated, long_mutated, "patch");
}

#[test]
fn corrupted_artifacts_are_rejected_with_structured_errors_not_panics() {
    let scratch = ScratchDir::new("corrupt");
    let path = scratch.path("victim.idx");
    build_artifact(DatasetKind::Restaurant, 0.05)
        .write_to(&path)
        .expect("persist artifact");
    let pristine = std::fs::read(&path).expect("read back");

    let reload = |bytes: &[u8]| {
        let mangled = scratch.path("mangled.idx");
        std::fs::write(&mangled, bytes).expect("write mangled copy");
        IndexArtifact::read_from(&mangled)
    };

    // Truncated: the section table survives but a payload is cut off.
    let err = reload(&pristine[..pristine.len() / 2]).unwrap_err();
    assert!(
        matches!(err, ArtifactError::Truncated { .. }),
        "truncation reported as {err:?}"
    );

    // Bad magic: the first byte is not ours.
    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xFF;
    let err = reload(&bad_magic).unwrap_err();
    assert!(
        matches!(err, ArtifactError::BadMagic),
        "bad magic reported as {err:?}"
    );

    // Wrong format version: a future writer's file.
    let mut future = pristine.clone();
    future[8] = 0xFE;
    let err = reload(&future).unwrap_err();
    assert!(
        matches!(err, ArtifactError::UnsupportedVersion { found } if found != 1),
        "version mismatch reported as {err:?}"
    );

    // And the previous writer's: there is one format and one reader, so
    // a version-3 file — uncapped rows, same encoding — is refused by
    // the same check, and the message tells the operator what to do.
    let mut previous = pristine.clone();
    previous[8..12].copy_from_slice(&3u32.to_le_bytes());
    let err = reload(&previous).unwrap_err();
    assert!(
        matches!(err, ArtifactError::UnsupportedVersion { found: 3 }),
        "version 3 reported as {err:?}"
    );
    let message = err.to_string();
    assert!(
        message.contains("version 3")
            && message.contains("supports 4")
            && message.ends_with("rebuild the index"),
        "{message}"
    );

    // Flipped payload byte: the owning section's checksum must catch it.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let err = reload(&flipped).unwrap_err();
    assert!(
        matches!(err, ArtifactError::ChecksumMismatch { .. }),
        "checksum flip reported as {err:?}"
    );

    // Every error Displays without panicking, and the pristine file
    // still loads after all that.
    assert!(!err.to_string().is_empty());
    IndexArtifact::read_from(&path).expect("pristine artifact still loads");
}

#[test]
fn injected_read_faults_surface_as_clean_io_errors() {
    /// Disarms the process-global fault plan even if the test panics.
    struct DisarmGuard;
    impl Drop for DisarmGuard {
        fn drop(&mut self) {
            faults::disarm();
        }
    }
    let _disarm = DisarmGuard;

    let scratch = ScratchDir::new("faults");
    let path = scratch.path("faulted.idx");
    build_artifact(DatasetKind::Restaurant, 0.05)
        .write_to(&path)
        .expect("persist artifact");

    // Arm the artifact-read fault site: first hit fails, then clean.
    faults::arm(&format!(
        "seed:42,{}:1:io:1",
        minoaner::kb::artifact::READ_FAULT_SITE
    ))
    .expect("valid fault plan");
    let err = IndexArtifact::read_from(&path).unwrap_err();
    assert!(
        matches!(err, ArtifactError::Io(_)),
        "injected fault reported as {err:?}"
    );
    assert!(err.to_string().contains("injected fault"), "{err}");

    // The fault budget is spent; the same path now loads fine.
    IndexArtifact::read_from(&path).expect("post-fault read recovers");
}

// ---------------------------------------------------------------------
// HTTP serving: zero-ingest telemetry through /v1/indexes
// ---------------------------------------------------------------------

#[test]
fn http_match_queries_answer_with_zero_ingest_telemetry() {
    let scratch = ScratchDir::new("http");
    let opts = ServeOptions {
        slots: 2,
        index_dir: Some(scratch.path("indexes")),
        ..ServeOptions::default()
    };
    with_server(opts, |http| {
        // Build-and-persist through the job queue; ?wait=true holds the
        // 201 until the artifact is on disk.
        let job = Json::obj([
            ("name", Json::str("rt")),
            ("dataset", Json::str("restaurant")),
            ("seed", Json::num(20180416.0)),
            ("scale", Json::Num(0.1)),
        ]);
        let built = http.json("POST", "/v1/indexes?wait=true", Some(&job), 201);
        assert_eq!(built.get("index").and_then(Json::as_str), Some("rt"));

        // The listing sees the artifact on disk.
        let listing = http.json("GET", "/v1/indexes", None, 200);
        let Some(Json::Arr(indexes)) = listing.get("indexes") else {
            panic!("no indexes array in {}", listing.compact());
        };
        assert!(indexes
            .iter()
            .any(|e| e.get("id").and_then(Json::as_str) == Some("rt")));

        // The hot path: a match query with a percent-encoded IRI. The
        // stage-timing telemetry must show literally zero ingest,
        // blocking and similarity work — the artifact answers alone.
        let answer = http.json("GET", "/v1/indexes/rt/match?entity=r1%3Ae0&k=5", None, 200);
        assert_eq!(answer.get("entity").and_then(Json::as_str), Some("r1:e0"));
        assert_eq!(answer.get("side").and_then(Json::as_str), Some("first"));
        let timings = answer.get("stage_timings_ms").expect("stage timings");
        for stage in ["ingest", "blocking", "similarities"] {
            assert_eq!(
                timings.get(stage).and_then(Json::as_f64),
                Some(0.0),
                "{stage} must be zero in {}",
                answer.compact()
            );
        }
        assert!(timings.get("query").and_then(Json::as_f64).is_some());
        let Some(Json::Arr(matches)) = answer.get("matches") else {
            panic!("no matches array in {}", answer.compact());
        };
        assert!(!matches.is_empty(), "r1:e0 must have a match at scale 0.1");

        // `k` runs from 1 to the longest row an index persists; outside
        // that range is a unified 400 that names the bound.
        let query = |k: usize| {
            http.request(
                "GET",
                &format!("/v1/indexes/rt/match?entity=r1%3Ae0&k={k}"),
                None,
            )
        };
        let Raw { status, body, .. } = query(MAX_CANDIDATES);
        assert_eq!(status, 200, "{body}");
        for (k, needle) in [
            (0, "at least 1".to_string()),
            (
                MAX_CANDIDATES + 1,
                format!("at most {MAX_CANDIDATES}, got {}", MAX_CANDIDATES + 1),
            ),
        ] {
            let Raw { status, body, .. } = query(k);
            assert_eq!(status, 400, "k={k}: {body}");
            let err = Json::parse(&body).unwrap();
            let err = err.get("error").expect("unified error body");
            assert_eq!(
                err.get("code").and_then(Json::as_str),
                Some("bad_request"),
                "{body}"
            );
            let message = err.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(&needle), "k={k}: {message}");
        }

        // Unknown entities and unknown indexes map to structured 404s.
        let Raw { status, body, .. } =
            http.request("GET", "/v1/indexes/rt/match?entity=nope%3A0", None);
        assert_eq!(status, 404, "{body}");
        let err = Json::parse(&body).unwrap();
        assert_eq!(
            err.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("not_found"),
            "{body}"
        );

        // DELETE removes the artifact and the loaded copy.
        http.json("DELETE", "/v1/indexes/rt", None, 200);
        let Raw { status, .. } = http.request("GET", "/v1/indexes/rt", None);
        assert_eq!(status, 404);

        http.json("POST", "/v1/shutdown", None, 200);
    });
}
