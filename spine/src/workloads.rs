//! The five workloads, end to end: every number here is taken from the
//! shipped `minoaner` binary, black-box — cold child processes and a
//! daemon driven over loopback HTTP. All load is closed-loop, because
//! the callers modelled (a pipeline step, a service waiting for its
//! answer) each wait for the reply before sending the next request.
//!
//! Each workload runs set-up (timed, repeated, median reported), then
//! the measured window, then an untimed verification against the
//! harness's own in-process reference run of the same inputs.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::httpc::{percent_encode, Client};
use crate::inputs::{self, Fleet, PairInput, Query, Sizing};
use crate::layers::{self, DeltaOp, Json, UriPairs};
use crate::proc::{run_cold, Daemon, Scratch};
use crate::stats::{median, quality, tail_percentile};

/// Longest a single HTTP exchange may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Candidates asked for per match query.
const MATCH_K: usize = 10;
/// Untimed requests each connection sends before the window opens.
const WARMUP_REQUESTS: usize = 200;
/// Untimed patch cycles before the churn window opens.
const WARMUP_PATCHES: usize = 2;

/// Everything a workload needs from the command line.
pub struct Ctx<'a> {
    pub exe: &'a Path,
    pub scratch: &'a Scratch,
    pub seed: u64,
    pub seconds: f64,
    pub sizing: Sizing,
    /// Hard stop for the whole workload: operations still outstanding
    /// then are reported as failed instead of hanging the run.
    pub deadline: Instant,
}

/// A secondary figure: printed and saved, never gated.
pub struct Note {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn note(name: impl Into<String>, value: f64, unit: &'static str) -> Note {
    Note {
        name: name.into(),
        value,
        unit,
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check held (and nothing failed).
    pub correct: bool,
    /// `(metric, value, samples behind it)`.
    pub metrics: Vec<(&'static str, f64, usize)>,
    pub notes: Vec<Note>,
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "resolve_rexa" => resolve_rexa(ctx),
        "index_rexa" => index_rexa(ctx),
        "fleet_small" => fleet_small(ctx),
        "serve_match" => serve_match(ctx),
        "serve_churn" => serve_churn(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Repeats set-up, keeping the last product. The previous product is
/// dropped first (stopping its daemon, if any) and the working
/// directory emptied, so every repetition starts from nothing.
fn median_setup<T>(
    ctx: &Ctx,
    mut build: impl FnMut(&Path) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..ctx.sizing.setup_reps {
        drop(last.take());
        let dir = ctx.scratch.fresh_dir("work")?;
        let start = Instant::now();
        last = Some(build(&dir)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one set-up repetition"),
        median(&times),
    ))
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Two-column TSV as `minoaner match` prints it.
fn parse_tsv_pairs(text: &str) -> UriPairs {
    text.lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

fn sorted(mut pairs: UriPairs) -> UriPairs {
    pairs.sort();
    pairs
}

// ---------------------------------------------------------------------
// Cold-process workloads
// ---------------------------------------------------------------------

struct ColdSamples {
    walls_ms: Vec<f64>,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
}

/// One discarded run, then timed cold runs of `exe args…` until
/// `--seconds` have passed and at least `min_reps` were timed.
/// `check` inspects each run's output (untimed) and returns how many of
/// its `ops_per_run` operations failed.
fn measure_cold(
    ctx: &Ctx,
    args: &[&str],
    stdout: &Path,
    ops_per_run: u64,
    mut check: impl FnMut() -> Result<u64, String>,
) -> Result<ColdSamples, String> {
    let mut s = ColdSamples {
        walls_ms: Vec::new(),
        peak_rss_mb: 0.0,
        attempted: 0,
        failed: 0,
    };
    let window = Instant::now();
    // Runs made, the discarded first one included; a failed run still
    // counts, so a program that always fails ends the loop too.
    let mut runs = 0u64;
    while runs <= ctx.sizing.min_reps as u64 || window.elapsed().as_secs_f64() < ctx.seconds {
        if Instant::now() >= ctx.deadline {
            let missing = (ctx.sizing.min_reps as u64 + 1).saturating_sub(runs);
            s.attempted += missing * ops_per_run;
            s.failed += missing * ops_per_run;
            break;
        }
        let run = run_cold(ctx.exe, args, stdout, ctx.deadline)?;
        runs += 1;
        s.attempted += ops_per_run;
        s.peak_rss_mb = s.peak_rss_mb.max(run.peak_rss_mb);
        if !run.ok {
            s.failed += ops_per_run;
            continue;
        }
        s.failed += check()?;
        if runs > 1 {
            s.walls_ms.push(run.wall_ms);
        }
    }
    Ok(s)
}

fn cold_metrics(
    setup_s: f64,
    s: &ColdSamples,
    ops_per_run: u64,
    f1: f64,
) -> Vec<(&'static str, f64, usize)> {
    let n = s.walls_ms.len();
    let wall_ms = median(&s.walls_ms);
    // Throughput from the median run, not from the summed walls: one
    // run stalled by the host's disk would otherwise move it by itself.
    vec![
        ("setup_s", setup_s, 0),
        ("latency_p50_ms", wall_ms, n),
        ("throughput_per_s", ops_per_run as f64 / (wall_ms / 1e3), n),
        ("peak_rss_mb", s.peak_rss_mb, n),
        ("f1", f1, 1),
    ]
}

/// Cold `minoaner match a.nt b.nt`: files in, matched pairs on stdout.
/// One operation = one process.
fn resolve_rexa(ctx: &Ctx) -> Result<Outcome, String> {
    let (pair, setup_s) = median_setup(ctx, |dir| inputs::rexa(dir, ctx.seed, ctx.sizing))?;
    let out = pair.first.with_file_name("match.out");
    let args = [
        "match",
        path_str(&pair.first),
        path_str(&pair.second),
        "--log-level",
        "error",
    ];
    // Every run must print the same pairs; the first is then checked
    // against the reference.
    let mut first_output: Option<String> = None;
    let samples = measure_cold(ctx, &args, &out, 1, || {
        let text = read_text(&out)?;
        let same = first_output.get_or_insert_with(|| text.clone()) == &text;
        Ok(u64::from(!same))
    })?;
    let emitted = parse_tsv_pairs(first_output.as_deref().unwrap_or_default());
    let reference = layers::reference_pairs(&layers::load_pair(&pair.first, &pair.second)?);
    let agrees = emitted == reference;
    if !agrees {
        eprintln!("resolve_rexa: emitted pairs differ from the in-process reference run");
    }
    let q = quality(&emitted, &pair.truth);
    Ok(Outcome {
        attempted: samples.attempted,
        failed: samples.failed,
        correct: agrees && samples.failed == 0,
        metrics: cold_metrics(setup_s, &samples, 1, q.f1),
        notes: vec![
            note("precision", q.precision, "ratio"),
            note("recall", q.recall, "ratio"),
            note("matched_pairs", emitted.len() as f64, "count"),
            note("input_mb", pair.input_bytes as f64 / 1e6, "MB"),
        ],
    })
}

/// Cold `minoaner index build`: files in, persisted artifact out. One
/// operation = one process. Every run after the discarded first
/// replaces the previous artifact in place (the program writes a temp
/// file and renames it), which on this filesystem is markedly steadier
/// than creating the 158 MB file afresh each time.
fn index_rexa(ctx: &Ctx) -> Result<Outcome, String> {
    let (pair, setup_s) = median_setup(ctx, |dir| inputs::rexa(dir, ctx.seed, ctx.sizing))?;
    let dir = pair
        .first
        .parent()
        .expect("files live in a directory")
        .join("idx");
    let artifact = dir.join("rexa.idx");
    let out = dir.with_file_name("build.out");
    let args = [
        "index",
        "build",
        "rexa",
        "--dir",
        path_str(&dir),
        path_str(&pair.first),
        path_str(&pair.second),
        "--log-level",
        "error",
    ];
    let samples = measure_cold(ctx, &args, &out, 1, || Ok(u64::from(!artifact.exists())))?;
    let (emitted, version, bytes) = layers::artifact_summary(&artifact)?;
    let reference = layers::reference_pairs(&layers::load_pair(&pair.first, &pair.second)?);
    let agrees = emitted == reference && version == 1;
    if !agrees {
        eprintln!("index_rexa: the artifact's matching differs from the in-process reference run");
    }
    let q = quality(&emitted, &pair.truth);
    Ok(Outcome {
        attempted: samples.attempted,
        failed: samples.failed,
        correct: agrees && samples.failed == 0,
        metrics: cold_metrics(setup_s, &samples, 1, q.f1),
        notes: vec![
            note("artifact_mb", bytes as f64 / 1e6, "MB"),
            note(
                "artifact_bytes_per_input_byte",
                bytes as f64 / pair.input_bytes as f64,
                "ratio",
            ),
            note("input_mb", pair.input_bytes as f64 / 1e6, "MB"),
        ],
    })
}

/// `job<TAB>first<TAB>second` lines, as `minoaner batch --pairs`
/// prints them, grouped by job. (The `--json` report is not used: the
/// program's own JSON reader, the only one at hand, takes time
/// quadratic in the document and the fleet's report is megabytes.)
fn parse_batch_pairs(text: &str) -> HashMap<&str, UriPairs> {
    let mut by_job: HashMap<&str, UriPairs> = HashMap::new();
    for line in text.lines() {
        let mut cols = line.splitn(3, '\t');
        if let (Some(job), Some(a), Some(b)) = (cols.next(), cols.next(), cols.next()) {
            by_job
                .entry(job)
                .or_default()
                .push((a.to_string(), b.to_string()));
        }
    }
    by_job
}

/// One `minoaner batch --pairs` process over the whole fleet manifest.
/// Latency is the wall of that process; throughput counts its jobs. The
/// process exits 0 only when every job ended `ok`, so a failed run
/// counts all of its jobs as failed.
fn fleet_small(ctx: &Ctx) -> Result<Outcome, String> {
    let (fleet, setup_s) = median_setup(ctx, |dir| inputs::fleet(dir, ctx.seed, ctx.sizing))?;
    let Fleet {
        pairs,
        manifest,
        job_names,
        job_pair,
    } = &fleet;
    let jobs = job_pair.len() as u64;
    let out = manifest.with_file_name("batch.out");
    let args = [
        "batch",
        "--manifest",
        path_str(manifest),
        "--pairs",
        "--log-level",
        "error",
    ];
    // Every job must emit what a solo default run of its pair emits.
    let references: Vec<UriPairs> = pairs
        .iter()
        .map(|p| layers::load_pair(&p.first, &p.second).map(|pair| layers::reference_pairs(&pair)))
        .collect::<Result<_, _>>()?;
    let mut f1_by_job = Vec::new();
    let samples = measure_cold(ctx, &args, &out, jobs, || {
        let text = read_text(&out)?;
        let emitted = parse_batch_pairs(&text);
        let mut wrong = 0;
        f1_by_job.clear();
        for (name, &p) in job_names.iter().zip(job_pair) {
            let got = emitted.get(name.as_str()).map_or(&[][..], Vec::as_slice);
            wrong += u64::from(got != references[p]);
            f1_by_job.push(quality(got, &pairs[p].truth).f1);
        }
        Ok(wrong)
    })?;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut notes = vec![
        note("jobs", jobs as f64, "count"),
        note("distinct_pairs", pairs.len() as f64, "count"),
        note(
            "input_mb",
            pairs.iter().map(|p| p.input_bytes).sum::<u64>() as f64 / 1e6,
            "MB",
        ),
    ];
    for (kind, label, _) in inputs::FLEET_PROFILES {
        let of_profile: Vec<f64> = f1_by_job
            .iter()
            .zip(job_pair)
            .filter(|(_, &p)| pairs[p].kind == kind)
            .map(|(f1, _)| *f1)
            .collect();
        notes.push(note(format!("f1.{label}"), mean(&of_profile), "ratio"));
    }
    Ok(Outcome {
        attempted: samples.attempted,
        failed: samples.failed,
        correct: samples.failed == 0,
        metrics: cold_metrics(setup_s, &samples, jobs, mean(&f1_by_job)),
        notes,
    })
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

/// A daemon serving one persisted index, with the inputs it was built from.
pub struct Served {
    pub daemon: Daemon,
    pub pair: PairInput,
    pub index_dir: PathBuf,
}

pub fn match_target(index: &str, entity: &str) -> String {
    format!(
        "/v1/indexes/{index}/match?entity={}&k={MATCH_K}",
        percent_encode(entity)
    )
}

/// Set-up shared by the serve workloads: inputs, the prerequisite cold
/// `index build`, daemon start, and one query that loads the artifact.
pub fn start_served(
    ctx: &Ctx,
    dir: &Path,
    pair: PairInput,
    with_line: bool,
) -> Result<Served, String> {
    let index_dir = dir.join("idx");
    let build = run_cold(
        ctx.exe,
        &[
            "index",
            "build",
            &pair.name,
            "--dir",
            path_str(&index_dir),
            path_str(&pair.first),
            path_str(&pair.second),
            "--log-level",
            "error",
        ],
        &dir.join("build.out"),
        ctx.deadline,
    )?;
    if !build.ok {
        return Err(format!("prerequisite index build of {} failed", pair.name));
    }
    let daemon = Daemon::start(ctx.exe, &index_dir, with_line, ctx.deadline)?;
    let mut client = Client::new(daemon.http, REQUEST_TIMEOUT);
    let (first, _) = pair
        .truth
        .first()
        .ok_or("the generated pair has no ground truth")?;
    let preload = client
        .get(&match_target(&pair.name, first))
        .map_err(|e| format!("preload query failed: {e}"))?;
    if preload.status != 200 {
        return Err(format!("preload query answered {}", preload.status));
    }
    Ok(Served {
        daemon,
        pair,
        index_dir,
    })
}

/// For every entity of either side, the partners the reference matching
/// gives it (sorted).
pub fn expected_matches(reference: &UriPairs) -> HashMap<&str, Vec<&str>> {
    let mut map: HashMap<&str, Vec<&str>> = HashMap::new();
    for (a, b) in reference {
        map.entry(a).or_default().push(b);
        map.entry(b).or_default().push(a);
    }
    map.values_mut().for_each(|v| v.sort_unstable());
    map
}

/// The `matches` array of a 200 match response, sorted.
fn served_matches(body: &[u8]) -> Option<Vec<String>> {
    let doc = Json::parse_bytes(body).ok()?;
    let Json::Arr(items) = doc.get("matches")? else {
        return None;
    };
    let mut matches: Vec<String> = items
        .iter()
        .filter_map(|m| m.as_str().map(str::to_string))
        .collect();
    matches.sort_unstable();
    Some(matches)
}

/// One match request, checked: 200 with the expected partners for a
/// known entity, 404 for an unknown one. Returns the latency and
/// whether the check held; I/O errors and timeouts fail it.
pub fn checked_query(
    client: &mut Client,
    index: &str,
    query: &Query,
    expected: Option<&HashMap<&str, Vec<&str>>>,
) -> (f64, bool) {
    let target = match_target(index, &query.entity);
    let start = Instant::now();
    let response = client.get(&target);
    let us = start.elapsed().as_secs_f64() * 1e6;
    let ok = match response {
        Ok(r) if query.known && r.status == 200 => expected.is_none_or(|expected| {
            let want = expected
                .get(query.entity.as_str())
                .map_or(&[][..], Vec::as_slice);
            served_matches(&r.body).is_some_and(|got| got == want)
        }),
        Ok(r) => !query.known && r.status == 404,
        Err(_) => false,
    };
    (us, ok)
}

#[derive(Default)]
pub struct ConnStats {
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds between the first and the last timed request.
    pub window_s: f64,
}

/// One connection's closed loop over `mix`, starting at `offset`:
/// untimed warm-up requests, then timed ones until `stop` (given the
/// time since the first timed request) says so.
pub fn drive_queries(
    addr: SocketAddr,
    index: &str,
    mix: &[Query],
    offset: usize,
    expected: Option<&HashMap<&str, Vec<&str>>>,
    stop: impl Fn(Duration) -> bool,
) -> ConnStats {
    let mut client = Client::new(addr, REQUEST_TIMEOUT);
    let mut stats = ConnStats::default();
    let mut queries = mix.iter().cycle().skip(offset % mix.len());
    for query in queries.by_ref().take(WARMUP_REQUESTS) {
        checked_query(&mut client, index, query, expected);
    }
    let opened = Instant::now();
    for query in queries {
        if stop(opened.elapsed()) {
            break;
        }
        let (us, ok) = checked_query(&mut client, index, query, expected);
        stats.latencies_us.push(us);
        stats.attempted += 1;
        stats.failed += u64::from(!ok);
    }
    stats.window_s = opened.elapsed().as_secs_f64();
    stats
}

/// F1 of the answers the daemon serves for every ground-truth entity,
/// asked once each over HTTP (untimed).
fn served_quality(addr: SocketAddr, pair: &PairInput) -> (crate::stats::Quality, u64) {
    let mut client = Client::new(addr, REQUEST_TIMEOUT);
    let mut served: HashSet<(String, String)> = HashSet::new();
    let mut failed = 0u64;
    for (a, b) in &pair.truth {
        for (entity, first_side) in [(a, true), (b, false)] {
            match client.get(&match_target(&pair.name, entity)) {
                Ok(r) if r.status == 200 => {
                    for m in served_matches(&r.body).unwrap_or_default() {
                        served.insert(if first_side {
                            (entity.clone(), m)
                        } else {
                            (m, entity.clone())
                        });
                    }
                }
                _ => failed += 1,
            }
        }
    }
    let served: UriPairs = served.into_iter().collect();
    (quality(&served, &pair.truth), failed)
}

/// Keep-alive loopback-HTTP match queries against a preloaded index.
/// One operation = one `GET /v1/indexes/{id}/match` request.
fn serve_match(ctx: &Ctx) -> Result<Outcome, String> {
    let (served, setup_s) = median_setup(ctx, |dir| {
        let pair = inputs::rexa(dir, ctx.seed, ctx.sizing)?;
        start_served(ctx, dir, pair, false)
    })?;
    let pair = &served.pair;
    let reference = layers::reference_pairs(&layers::load_pair(&pair.first, &pair.second)?);
    let expected = expected_matches(&reference);
    // Connection 0 asks for known entities only and so stays busy: its
    // latency is the hit path under continuous load. Connection 1 mixes
    // in unknown entities; every 404 closes it and the reconnect waits
    // out the accept loop's poll, so its throughput is the miss path.
    let mixes = [
        inputs::query_mix(&pair.truth, ctx.seed, 0.0),
        inputs::query_mix(&pair.truth, ctx.seed, inputs::MISS_SHARE),
    ];

    let addr = served.daemon.http;
    let window = Duration::from_secs_f64(ctx.seconds);
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter()
            .map(|mix| {
                let (expected, name) = (&expected, pair.name.as_str());
                scope.spawn(move || {
                    drive_queries(addr, name, mix, 0, Some(expected), |open| {
                        open >= window || Instant::now() >= ctx.deadline
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut latencies = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let qps: Vec<f64> = per_conn
        .iter()
        .map(|stats| (stats.attempted - stats.failed) as f64 / stats.window_s)
        .collect();
    for stats in &per_conn {
        latencies.extend_from_slice(&stats.latencies_us);
        attempted += stats.attempted;
        failed += stats.failed;
    }
    let (q, quality_failed) = served_quality(addr, pair);
    attempted += 2 * pair.truth.len() as u64;
    failed += quality_failed;
    let peak_rss_mb = served
        .daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    let clean_exit = served.daemon.shutdown(ctx.deadline);
    if !clean_exit {
        eprintln!("serve_match: the daemon did not shut down cleanly");
    }

    let n = latencies.len();
    let mut notes = vec![
        note("hit_conn_qps", qps[0], "1/s"),
        note("mixed_conn_qps", qps[1], "1/s"),
        note("mixed_conn_miss_share", inputs::MISS_SHARE, "ratio"),
        note("mixed_conn_p50_us", median(&per_conn[1].latencies_us), "us"),
        note("precision", q.precision, "ratio"),
        note("recall", q.recall, "ratio"),
    ];
    if let Some(p99) = tail_percentile(&latencies, 99.0) {
        notes.push(note("match_p99_us", p99, "us"));
    }
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && clean_exit,
        metrics: vec![
            ("setup_s", setup_s, 0),
            ("latency_p50_ms", median(&latencies) / 1e3, n),
            ("throughput_per_s", qps.iter().sum(), n),
            ("peak_rss_mb", peak_rss_mb, 1),
            ("f1", q.f1, 1),
        ],
        notes,
    })
}

/// The `minoan_index_cache_{hits,misses,invalidations}_total` counters
/// from `GET /v1/metrics`.
pub fn registry_counters(client: &mut Client) -> Result<[f64; 3], String> {
    let response = client
        .get("/v1/metrics")
        .map_err(|e| format!("GET /v1/metrics failed: {e}"))?;
    let text = String::from_utf8_lossy(&response.body);
    let read = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("/v1/metrics has no {name}"))
    };
    Ok([
        read("minoan_index_cache_hits_total ")?,
        read("minoan_index_cache_misses_total ")?,
        read("minoan_index_cache_invalidations_total ")?,
    ])
}

/// What the patching connection measured.
#[derive(Default)]
struct ChurnStats {
    patch_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Streams the daemon accepted, warm-up included.
    applied: usize,
    window_s: f64,
}

/// Connection A of `serve_churn`: `PATCH …?wait=true` with the next
/// delta stream (the timed operation), then one match read, which pays
/// the artifact reload unless connection B's read got there first.
fn drive_patches(
    ctx: &Ctx,
    addr: SocketAddr,
    index: &str,
    bodies: &[String],
    probe: &Query,
) -> ChurnStats {
    let mut client = Client::new(addr, REQUEST_TIMEOUT);
    let target = format!("/v1/indexes/{index}?wait=true");
    let mut stats = ChurnStats::default();
    let mut window: Option<Instant> = None;
    for (i, body) in bodies.iter().enumerate() {
        let timed = i >= WARMUP_PATCHES;
        if timed {
            let opened = *window.get_or_insert_with(Instant::now);
            if opened.elapsed().as_secs_f64() >= ctx.seconds || Instant::now() >= ctx.deadline {
                break;
            }
        }
        let start = Instant::now();
        let patched = client
            .request("PATCH", &target, Some(body.as_bytes()))
            .is_ok_and(|r| r.status == 202);
        let patch_ms = start.elapsed().as_secs_f64() * 1e3;
        let (reload_us, read_ok) = checked_query(&mut client, index, probe, None);
        stats.applied += usize::from(patched);
        if timed {
            stats.attempted += 2;
            stats.failed += u64::from(!patched) + u64::from(!read_ok);
            stats.patch_ms.push(patch_ms);
            stats.reload_ms.push(reload_us / 1e3);
        }
    }
    stats.window_s = window.map_or(0.0, |w| w.elapsed().as_secs_f64());
    stats
}

/// Ground truth with the pairs whose endpoint a delete op tombstoned
/// taken out: what a perfect matcher could still find after the churn.
fn surviving_truth(truth: &UriPairs, applied: &[DeltaOp]) -> UriPairs {
    let deleted: HashSet<(bool, &str)> = applied.iter().filter_map(layers::deleted_uri).collect();
    truth
        .iter()
        .filter(|(a, b)| {
            !deleted.contains(&(true, a.as_str())) && !deleted.contains(&(false, b.as_str()))
        })
        .cloned()
        .collect()
}

/// Writes beside reads. One operation = one `PATCH …?wait=true` of a
/// 16-op stream on connection A, which then reads once through the
/// reload; connection B keeps the read path busy with 100%-hit queries.
/// The read after the patch is reported but not gated: the daemon wakes
/// a `?wait=true` caller before it drops the cached copy, so that read
/// sometimes still hits the old index (`registry_invalidations` below
/// the patch count shows it), and a fix for that must not read as a
/// regression here.
fn serve_churn(ctx: &Ctx) -> Result<Outcome, String> {
    // More streams than the slowest plausible window can use up.
    let streams = WARMUP_PATCHES + (ctx.seconds * 60.0).ceil() as usize;
    let (built, setup_s) = median_setup(ctx, |dir| {
        let pair = inputs::yago(dir, ctx.seed, ctx.sizing)?;
        let batches = layers::delta_batches(
            pair.kind,
            pair.gen_seed,
            pair.scale,
            inputs::mutate_seed(ctx.seed),
            streams,
            inputs::OPS_PER_PATCH,
        );
        Ok((start_served(ctx, dir, pair, false)?, batches))
    })?;
    let (served, batches) = built;
    let pair = &served.pair;
    let bodies: Vec<String> = batches.iter().map(|ops| layers::delta_body(ops)).collect();
    let readers_mix = inputs::query_mix(&pair.truth, ctx.seed, 0.0);
    let probe = &readers_mix[0];

    let addr = served.daemon.http;
    let done = std::sync::atomic::AtomicBool::new(false);
    let (churn, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            drive_queries(addr, &pair.name, &readers_mix, 1, None, |_| {
                done.load(std::sync::atomic::Ordering::Relaxed)
            })
        });
        let churn = drive_patches(ctx, addr, &pair.name, &bodies, probe);
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        (churn, reader.join().expect("reader thread panicked"))
    });

    let peak_rss_mb = served
        .daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    let [_, _, invalidations] = registry_counters(&mut Client::new(addr, REQUEST_TIMEOUT))?;
    let clean_exit = served.daemon.shutdown(ctx.deadline);

    // patch ≡ rebuild: the final artifact must hold exactly the matching
    // of a from-scratch run over the pair with every delta replayed.
    let applied: Vec<DeltaOp> = batches[..churn.applied].concat();
    let (emitted, version, _) =
        layers::artifact_summary(&served.index_dir.join(format!("{}.idx", pair.name)))?;
    let mut mutated = layers::load_pair(&pair.first, &pair.second)?;
    layers::apply_deltas(&mut mutated, &applied);
    let reference = layers::reference_pairs(&mutated);
    let agrees =
        sorted(emitted.clone()) == sorted(reference) && version == 1 + churn.applied as u64;
    if !agrees {
        eprintln!("serve_churn: the patched artifact differs from a rebuild of the mutated pair");
    }
    let q = quality(&emitted, &surviving_truth(&pair.truth, &applied));

    let attempted = churn.attempted + reader.attempted;
    let failed = churn.failed + reader.failed;
    let patches = churn.patch_ms.len();
    Ok(Outcome {
        attempted,
        failed,
        correct: agrees && failed == 0 && clean_exit,
        metrics: vec![
            ("setup_s", setup_s, 0),
            ("latency_p50_ms", median(&churn.patch_ms), patches),
            ("throughput_per_s", patches as f64 / churn.window_s, patches),
            ("peak_rss_mb", peak_rss_mb, 1),
            ("f1", q.f1, 1),
        ],
        notes: vec![
            note("reload_p50_ms", median(&churn.reload_ms), "ms"),
            note("registry_invalidations", invalidations, "count"),
            note(
                "reader_qps",
                reader.attempted as f64 / reader.window_s,
                "1/s",
            ),
            note("reader_p50_us", median(&reader.latencies_us), "us"),
            note("ops_per_patch", inputs::OPS_PER_PATCH as f64, "count"),
            note("patches_applied", churn.applied as f64, "count"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: &str, b: &str) -> (String, String) {
        (a.to_string(), b.to_string())
    }

    #[test]
    fn match_output_and_batch_report_parse_into_uri_pairs() {
        assert_eq!(
            parse_tsv_pairs("a:1\tb:1\na:2\tb:2\n\nnoise\n"),
            vec![p("a:1", "b:1"), p("a:2", "b:2")]
        );
        let jobs = parse_batch_pairs("j0\ta:1\tb:1\nj1\ta:5\tb:5\nj0\ta:2\tb:9\nnoise\n");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs["j0"], vec![p("a:1", "b:1"), p("a:2", "b:9")]);
        assert_eq!(jobs["j1"], vec![p("a:5", "b:5")]);
    }

    #[test]
    fn expected_matches_cover_both_sides() {
        let reference = vec![p("a:1", "b:1"), p("a:2", "b:2")];
        let expected = expected_matches(&reference);
        assert_eq!(expected["a:1"], ["b:1"]);
        assert_eq!(expected["b:2"], ["a:2"]);
        assert!(!expected.contains_key("a:3"));
        let body = br#"{"index":"x","entity":"a:1","matches":["b:1"],"candidates":[]}"#;
        assert_eq!(served_matches(body), Some(vec!["b:1".to_string()]));
        assert_eq!(served_matches(b"{}"), None);
    }
}
