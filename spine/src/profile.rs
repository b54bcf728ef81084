//! The traced run: per-layer attribution for one workload.
//!
//! The workload's generated inputs are replayed in-process, timing each
//! call into a layer's public function from the outside (through
//! [`crate::layers`]), and a daemon over the same inputs is probed on a
//! single connection. Every repetition and request is one root span;
//! each layer call inside it a child span. End-to-end metrics are never
//! taken from this run.
//!
//! Pipeline-stage metrics sum over every distinct pair of the
//! workload's corpus (one pair, or the fleet's 64). Artifact, query,
//! delta and daemon metrics use the corpus's *probe pair* — its largest
//! input — because they describe one index.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::httpc::Client;
use crate::inputs::{self, PairInput, Query};
use crate::layers::{self, DeltaOp, Json, UriPairs};
use crate::proc::Daemon;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{checked_query, note, registry_counters, Ctx, Outcome, REQUEST_TIMEOUT};

/// Requests behind each daemon-probe percentile.
const PROBE_REQUESTS: usize = 1000;
/// Fresh connections behind `serve.reconnect_ms`.
const RECONNECTS: usize = 40;
/// Requests in the traced match window: known entities only, back to
/// back, so the daemon stays busy and the percentiles are the hit path
/// (the miss path is `serve.reconnect_ms`). About a second of traffic.
const MATCH_REQUESTS: usize = 20_000;
/// How long a patch's registry invalidation may lag its `202`.
const INVALIDATION_WAIT: Duration = Duration::from_secs(2);

/// Named sample sets; a metric is the median of its set.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, values)| values.iter().sum())
    }

    fn median(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, values)| median(values))
    }
}

/// What the traced run replays for a workload.
struct Corpus {
    pairs: Vec<PairInput>,
    manifest: PathBuf,
    jobs_per_pair: usize,
}

fn corpus(name: &str, ctx: &Ctx, dir: &Path) -> Result<Corpus, String> {
    let single = |pair: PairInput| {
        Ok(Corpus {
            manifest: inputs::solo_manifest(dir, &pair)?,
            pairs: vec![pair],
            jobs_per_pair: 1,
        })
    };
    match name {
        "resolve_rexa" | "index_rexa" | "serve_match" => {
            single(inputs::rexa(dir, ctx.seed, ctx.sizing)?)
        }
        "serve_churn" => single(inputs::yago(dir, ctx.seed, ctx.sizing)?),
        "fleet_small" => {
            let fleet = inputs::fleet(dir, ctx.seed, ctx.sizing)?;
            Ok(Corpus {
                pairs: fleet.pairs,
                manifest: fleet.manifest,
                jobs_per_pair: ctx.sizing.fleet_refs_per_pair,
            })
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The stage metrics, in pipeline order; their sum is `core.stage_sum_ms`.
const STAGES: [&str; 8] = [
    "text.tokenize_ms",
    "core.names_ms",
    "blocking.name_ms",
    "blocking.token_ms",
    "blocking.purge_ms",
    "core.top_neighbors_ms",
    "core.simindex_ms",
    "core.heuristics_ms",
];

/// Exact counts of one pair's staged replay.
#[derive(Default)]
struct StageCounts {
    token_blocks: usize,
    comparisons_before: u64,
    comparisons_kept: u64,
    value_pairs: usize,
    neighbor_pairs: usize,
}

/// Parse → tokenize → names → block → purge → neighbors → simindex →
/// H1–H4, each call timed from outside; one root span per repetition.
/// Returns the composed matching and the counts of the last repetition.
fn replay_stages(
    t: &Tracer,
    pair: &PairInput,
    reps: usize,
    s: &mut Samples,
) -> Result<(UriPairs, StageCounts), String> {
    let exec = layers::default_executor();
    let mut last = None;
    for _ in 0..reps {
        let (result, _) = t.span("rep.stages", "spine", || {
            let (kb, ms) = layers::parse(t, &pair.first, &pair.second, &exec)?;
            s.push("kb.parse_ms", ms);
            let (tokens, ms) = layers::tokenize(t, &kb, &exec);
            s.push("text.tokenize_ms", ms);
            let (names, ms) = layers::names(t, &kb, &exec);
            s.push("core.names_ms", ms);
            let (name_blocks, ms) = layers::name_blocks(t, &names, &exec);
            s.push("blocking.name_ms", ms);
            let (raw, ms) = layers::token_blocks(t, &tokens, &exec);
            s.push("blocking.token_ms", ms);
            let (purged, ms) = layers::purge(t, &raw, &exec);
            s.push("blocking.purge_ms", ms);
            let (neighbors, ms) = layers::top_neighbors(t, &kb, &exec);
            s.push("core.top_neighbors_ms", ms);
            let (idx, ms) = layers::simindex(t, &purged.blocks, &tokens, &neighbors, &exec);
            s.push("core.simindex_ms", ms);
            let (composed, ms) = layers::heuristics(t, &name_blocks, &idx, &kb, &exec);
            s.push("core.heuristics_ms", ms);
            let (value_pairs, neighbor_pairs) = layers::simindex_pairs(&idx);
            Ok::<_, String>((
                composed,
                StageCounts {
                    token_blocks: purged.token_blocks,
                    comparisons_before: purged.comparisons_before,
                    comparisons_kept: purged.comparisons_after,
                    value_pairs,
                    neighbor_pairs,
                },
            ))
        });
        last = Some(result?);
    }
    last.ok_or_else(|| "no stage repetition ran".to_string())
}

/// Parse + tokenize + blocking of one pair on `exec`, in milliseconds.
fn ingest_ms(t: &Tracer, pair: &PairInput, exec: &layers::Executor) -> Result<f64, String> {
    let (kb, parse) = layers::parse(t, &pair.first, &pair.second, exec)?;
    let (tokens, tokenize) = layers::tokenize(t, &kb, exec);
    let (names, names_ms) = layers::names(t, &kb, exec);
    let (_, name) = layers::name_blocks(t, &names, exec);
    let (raw, token) = layers::token_blocks(t, &tokens, exec);
    let (_, purge) = layers::purge(t, &raw, exec);
    Ok(parse + tokenize + names_ms + name + token + purge)
}

/// What the build → persist → load → patch loop learned about the
/// probe pair's index.
struct IndexFacts {
    artifact_bytes: u64,
    affected_rows: usize,
    index_dir: PathBuf,
}

/// Whole-pipeline repetitions of one pair, with the program's trace
/// collector on and off in turn. For the probe pair each repetition
/// continues through pack → write → read → open → apply one delta
/// stream → persist, so no layer needs a load of its own.
#[allow(clippy::too_many_arguments)]
fn replay_pipeline(
    t: &Tracer,
    dir: &Path,
    pair: &PairInput,
    composed: &UriPairs,
    deltas: Option<&[Vec<DeltaOp>]>,
    reps: usize,
    s: &mut Samples,
    failed: &mut u64,
) -> Result<Option<IndexFacts>, String> {
    let exec = layers::default_executor();
    let (kb, _) = layers::parse(&Tracer::muted(), &pair.first, &pair.second, &exec)?;
    let index_dir = dir.join("probe-idx");
    let patched_dir = dir.join("probe-patched");
    let mut facts = None;
    if deltas.is_some() {
        for d in [&index_dir, &patched_dir] {
            std::fs::create_dir_all(d)
                .map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        }
    }
    for rep in 0..reps {
        layers::obs_set_enabled(false);
        let (_, _, ms) = layers::pipeline(&Tracer::muted(), &kb, &exec);
        s.push("pipeline_obs_off_ms", ms);
        layers::obs_set_enabled(true);

        let (result, _) = t.span("rep.build", "spine", || {
            let (indexed, pairs, ms) = layers::pipeline(t, &kb, &exec);
            s.push("core.pipeline_ms", ms);
            // The guard against the staged replay drifting from the
            // program's own composition.
            if rep == 0 && &pairs != composed {
                eprintln!("{}: composed stages and the pipeline disagree", pair.name);
                *failed += 1;
            }
            let Some(deltas) = deltas else {
                return Ok(None);
            };
            let (artifact, ms) = layers::artifact_pack(t, &pair.name, &kb, indexed);
            s.push("core.artifact_pack_ms", ms);
            let path = index_dir.join(format!("{}.idx", pair.name));
            let (artifact_bytes, ms) = layers::artifact_write(t, &artifact, &path)?;
            s.push("core.artifact_write_ms", ms);
            drop(artifact);
            let (mut loaded, ms) = layers::artifact_read(t, &path)?;
            s.push("core.artifact_read_ms", ms);
            s.push("kb.artifact_open_ms", layers::artifact_open(t, &path)?);
            let (affected_rows, ms) =
                layers::delta_apply(t, &mut loaded, &deltas[rep % deltas.len()], &exec);
            s.push("core.delta_apply_ms", ms);
            let patched = patched_dir.join(format!("{}.idx", pair.name));
            s.push(
                "core.delta_persist_ms",
                layers::delta_persist(t, &mut loaded, &patched)?,
            );
            Ok::<_, String>(Some(IndexFacts {
                artifact_bytes,
                affected_rows,
                index_dir: index_dir.clone(),
            }))
        });
        facts = result?;
    }
    Ok(facts)
}

/// In-process query path on the probe index: cold registry loads, then
/// sweeps of the request mix through `match_query` alone and through
/// registry-hit + `match_query`, with the program's collector and the
/// harness's own spans switched on and off.
fn replay_queries(
    t: &Tracer,
    index_dir: &Path,
    id: &str,
    mix: &[Query],
    reps: usize,
    s: &mut Samples,
) -> Result<(), String> {
    let registry = layers::Registry::open(index_dir)?;
    for _ in 0..reps {
        registry.invalidate(id);
        let (loaded, ms) = t.span("serve.registry_load_ms", "serve", || registry.load(id));
        loaded?;
        s.push("serve.registry_load_ms", ms);
    }
    let artifact = registry.load(id)?;
    let k = 10;
    // One timed pass per call; returns the pass's wall in milliseconds.
    let sweep = |t: &Tracer,
                 through_registry: bool,
                 keep: Option<(&mut Samples, &'static str)>|
     -> Result<f64, String> {
        let mut per_query = Vec::with_capacity(mix.len());
        let start = Instant::now();
        for q in mix {
            let (found, ms) = if through_registry {
                t.span("serve.registry_hit_us", "serve", || {
                    registry
                        .load(id)
                        .map(|a| layers::match_query(&a, &q.entity, k).is_some())
                })
            } else {
                t.span("core.match_query_us", "core", || {
                    Ok(layers::match_query(&artifact, &q.entity, k).is_some())
                })
            };
            if found? != q.known {
                return Err(format!(
                    "in-process match_query({:?}) disagrees with the mix",
                    q.entity
                ));
            }
            per_query.push(ms * 1e3);
        }
        let wall = start.elapsed().as_secs_f64() * 1e3;
        if let Some((s, name)) = keep {
            s.push(name, median(&per_query));
        }
        Ok(wall)
    };
    let muted = Tracer::muted();
    for _ in 0..reps {
        let wall = sweep(t, false, Some((s, "core.match_query_us")))?;
        s.push("sweep_spans_on_ms", wall);
        sweep(t, true, Some((s, "serve.registry_hit_us")))?;
        let wall = sweep(&muted, false, None)?;
        s.push("sweep_spans_off_ms", wall);
        s.push("sweep_obs_on_ms", wall);
        layers::obs_set_enabled(false);
        let wall = sweep(&muted, false, None);
        layers::obs_set_enabled(true);
        s.push("sweep_obs_off_ms", wall?);
    }
    Ok(())
}

/// `index-match` round trips on the line-JSON front-end, in µs.
fn linejson_latencies(
    addr: SocketAddr,
    index: &str,
    entities: &[&str],
    failed: &mut u64,
) -> Result<Vec<f64>, String> {
    let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)
        .map_err(|e| format!("line-JSON connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut out = Vec::with_capacity(entities.len());
    for entity in entities {
        let request = Json::obj([
            ("op", Json::str("index-match")),
            ("index", Json::str(index)),
            ("entity", Json::str(*entity)),
            ("k", Json::num(10.0)),
        ])
        .compact()
            + "\n";
        let start = Instant::now();
        writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("line-JSON write: {e}"))?;
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("line-JSON read: {e}"))?;
        out.push(start.elapsed().as_secs_f64() * 1e6);
        let ok = Json::parse(line.trim()).is_ok_and(|r| r.get("ok") == Some(&Json::Bool(true)));
        *failed += u64::from(!ok);
    }
    Ok(out)
}

/// Numbers only a running daemon can give.
struct DaemonFacts {
    match_qps: f64,
    server_cpu_s: f64,
    completed: usize,
    counters: [f64; 3],
}

/// Probes a daemon serving the probe index on one connection: the match
/// window, the HTTP floor, reconnects, the line-JSON verb, and
/// patch-then-read cycles.
#[allow(clippy::too_many_arguments)]
fn probe_daemon(
    t: &Tracer,
    ctx: &Ctx,
    index_dir: &Path,
    pair: &PairInput,
    mix: &[Query],
    deltas: &[Vec<DeltaOp>],
    s: &mut Samples,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<DaemonFacts, String> {
    let daemon = Daemon::start(ctx.exe, index_dir, true, ctx.deadline)?;
    let mut client = Client::new(daemon.http, REQUEST_TIMEOUT);
    let known: Vec<&Query> = mix.iter().filter(|q| q.known).collect();
    let preload = checked_query(&mut client, &pair.name, known[0], None);
    if !preload.1 {
        return Err("the daemon's preload query failed".into());
    }
    let before = registry_counters(&mut client)?;
    let cpu_before = daemon.cpu_s().ok_or("cannot read the daemon's CPU time")?;

    let mut latencies = Vec::with_capacity(MATCH_REQUESTS);
    let opened = Instant::now();
    for q in known.iter().cycle().take(MATCH_REQUESTS) {
        if Instant::now() >= ctx.deadline {
            break;
        }
        let ((us, ok), _) = t.span("serve.match_request", "serve", || {
            checked_query(&mut client, &pair.name, q, None)
        });
        latencies.push(us);
        *attempted += 1;
        *failed += u64::from(!ok);
    }
    let window_s = opened.elapsed().as_secs_f64();
    let server_cpu_s = daemon.cpu_s().ok_or("cannot read the daemon's CPU time")? - cpu_before;
    s.push("serve.match_p50_us", median(&latencies));
    s.push(
        "serve.match_p99_us",
        tail_percentile(&latencies, 99.0).ok_or("too few match requests for a p99")?,
    );

    let floor = "/v1/jobs?limit=0";
    for _ in 0..PROBE_REQUESTS {
        let (status, ms) = t.span("serve.http_floor_us", "serve", || {
            client.get(floor).map(|r| r.status)
        });
        s.push("serve.http_floor_us", ms * 1e3);
        *attempted += 1;
        *failed += u64::from(!matches!(status, Ok(200)));
    }
    for _ in 0..RECONNECTS {
        let (status, ms) = t.span("serve.reconnect_ms", "serve", || {
            Client::new(daemon.http, REQUEST_TIMEOUT)
                .get(floor)
                .map(|r| r.status)
        });
        s.push("serve.reconnect_ms", ms);
        *attempted += 1;
        *failed += u64::from(!matches!(status, Ok(200)));
    }
    let entities: Vec<&str> = known
        .iter()
        .cycle()
        .take(PROBE_REQUESTS)
        .map(|q| q.entity.as_str())
        .collect();
    let line = daemon
        .line
        .ok_or("the daemon was started without --listen")?;
    *attempted += entities.len() as u64;
    let (line_us, _) = t.span("serve.linejson_probe", "serve", || {
        linejson_latencies(line, &pair.name, &entities, failed)
    });
    s.push("serve.linejson_match_us", median(&line_us?));

    let target = format!("/v1/indexes/{}?wait=true", pair.name);
    let mut invalidated = before[2];
    for ops in deltas {
        let body = layers::delta_body(ops);
        let (patched, ms) = t.span("serve.patch_ms", "serve", || {
            client
                .request("PATCH", &target, Some(body.as_bytes()))
                .map(|r| r.status)
        });
        s.push("serve.patch_ms", ms);
        // The daemon answers a waiting patch before it drops the cached
        // copy; wait for the drop, so the read below is a reload and
        // not, now and then, a hit on the stale index.
        invalidated += 1.0;
        let lagging = Instant::now();
        while registry_counters(&mut client)?[2] < invalidated
            && lagging.elapsed() < INVALIDATION_WAIT
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let ((us, read_ok), _) = t.span("serve.reload_ms", "serve", || {
            checked_query(&mut client, &pair.name, known[0], None)
        });
        s.push("serve.reload_ms", us / 1e3);
        *attempted += 2;
        *failed += u64::from(!matches!(patched, Ok(202))) + u64::from(!read_ok);
    }
    let after = registry_counters(&mut client)?;
    if !daemon.shutdown(ctx.deadline) {
        eprintln!("the traced daemon did not shut down cleanly");
        *failed += 1;
    }
    let completed = latencies.len();
    Ok(DaemonFacts {
        match_qps: completed as f64 / window_s,
        server_cpu_s,
        completed,
        counters: [0, 1, 2].map(|i| after[i] - before[i]),
    })
}

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    layers::quiet_program_logs();
    let t = Tracer::new();
    let dir = ctx.scratch.fresh_dir("work")?;
    let reps = ctx.sizing.layer_reps;
    // The whole-job replays and the daemon's patch cycles take seconds
    // each on the large pairs; three of them keep the traced run well
    // inside the per-run limit.
    let heavy_reps = reps.min(3);
    let setup = Instant::now();
    let corpus = corpus(name, ctx, &dir)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let probe = corpus
        .pairs
        .iter()
        .max_by_key(|p| p.input_bytes)
        .ok_or("the corpus has no pairs")?;
    let mix = inputs::query_mix(&probe.truth, ctx.seed, inputs::MISS_SHARE);
    // One delta stream per build repetition, then one per daemon cycle.
    let deltas = layers::delta_batches(
        probe.kind,
        probe.gen_seed,
        probe.scale,
        inputs::mutate_seed(ctx.seed),
        reps + heavy_reps,
        inputs::OPS_PER_PATCH,
    );
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Per-pair medians, summed over the corpus; the probe's own are kept.
    let mut totals = Samples::default();
    let mut counts = StageCounts::default();
    let mut probe_samples = Samples::default();
    let mut index = None;
    let (mut pool_ms, mut seq_ms, mut solo_ms) = (0.0, 0.0, 0.0);
    for pair in &corpus.pairs {
        let mut s = Samples::default();
        let (composed, c) = replay_stages(&t, pair, reps, &mut s)?;
        counts.token_blocks += c.token_blocks;
        counts.comparisons_before += c.comparisons_before;
        counts.comparisons_kept += c.comparisons_kept;
        counts.value_pairs += c.value_pairs;
        counts.neighbor_pairs += c.neighbor_pairs;
        let is_probe = std::ptr::eq(pair, probe);
        let facts = replay_pipeline(
            &t,
            &dir,
            pair,
            &composed,
            is_probe.then_some(&deltas[..reps]),
            reps,
            &mut s,
            &mut failed,
        )?;
        attempted += 1;
        let mut pool_runs = Vec::new();
        let mut seq_runs = Vec::new();
        let mut solo_runs = Vec::new();
        for _ in 0..heavy_reps {
            pool_runs.push(ingest_ms(&t, pair, &layers::pool1_executor())?);
            seq_runs.push(ingest_ms(&t, pair, &layers::sequential_executor())?);
            solo_runs.push(layers::solo(&t, &pair.first, &pair.second)?);
        }
        pool_ms += median(&pool_runs);
        seq_ms += median(&seq_runs);
        solo_ms += median(&solo_runs) * corpus.jobs_per_pair as f64;
        for name in
            STAGES
                .into_iter()
                .chain(["kb.parse_ms", "core.pipeline_ms", "pipeline_obs_off_ms"])
        {
            totals.push(name, s.median(name));
        }
        if is_probe {
            index = facts;
            probe_samples = s;
        }
    }
    let index = index.ok_or("the probe pair was never indexed")?;
    let s = &mut probe_samples;
    replay_queries(&t, &index.index_dir, &probe.name, &mix, reps, s)?;

    let jobs = corpus.pairs.len() * corpus.jobs_per_pair;
    let mut pool_delta = (0, 0);
    for _ in 0..heavy_reps {
        let before = layers::pool_counters();
        let (ok, ms) = layers::batch(&t, &corpus.manifest)?;
        let after = layers::pool_counters();
        pool_delta = (after.0 - before.0, after.1 - before.1);
        s.push("batch_ms", ms);
        attempted += jobs as u64;
        failed += (jobs - ok) as u64;
    }
    let daemon = probe_daemon(
        &t,
        ctx,
        &index.index_dir,
        probe,
        &mix,
        &deltas[reps..],
        s,
        &mut attempted,
        &mut failed,
    )?;

    let out = crate::proc::target_dir().join("spine-out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let trace_path = out.join(format!("spine-trace-{name}.json"));
    t.write(&trace_path, name)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    eprintln!(
        "{name}: {} spans written to {}",
        t.span_count(),
        trace_path.display()
    );

    let sum = |name: &str| totals.sum(name);
    let input_mb = corpus.pairs.iter().map(|p| p.input_bytes).sum::<u64>() as f64 / 1e6;
    let stage_sum: f64 = STAGES.iter().map(|n| sum(n)).sum();
    let rebuild_ms = s.median("core.pipeline_ms")
        + s.median("core.artifact_pack_ms")
        + s.median("core.artifact_write_ms");
    let patch_ms = s.median("serve.registry_load_ms")
        + s.median("core.delta_apply_ms")
        + s.median("core.delta_persist_ms");
    let m = |name: &'static str, value: f64| (name, value, reps);
    let heavy = |name: &'static str, value: f64| (name, value, heavy_reps);
    let mut metrics = vec![
        m("kb.parse_ms", sum("kb.parse_ms")),
        m("kb.parse_mb_per_s", input_mb / (sum("kb.parse_ms") / 1e3)),
    ];
    metrics.extend(STAGES[..5].iter().map(|n| m(n, sum(n))));
    metrics.extend([
        m("blocking.token_blocks", counts.token_blocks as f64),
        m("blocking.comparisons_kept", counts.comparisons_kept as f64),
        m(
            "blocking.purge_kept_ratio",
            counts.comparisons_kept as f64 / counts.comparisons_before as f64,
        ),
        m("core.top_neighbors_ms", sum("core.top_neighbors_ms")),
        m("core.simindex_ms", sum("core.simindex_ms")),
        m("core.value_pairs", counts.value_pairs as f64),
        m("core.neighbor_pairs", counts.neighbor_pairs as f64),
        m(
            "core.simindex_pairs_per_s",
            counts.value_pairs as f64 / (sum("core.simindex_ms") / 1e3),
        ),
        m("core.heuristics_ms", sum("core.heuristics_ms")),
        m("core.pipeline_ms", sum("core.pipeline_ms")),
        m("core.stage_sum_ms", stage_sum),
        m("core.artifact_pack_ms", s.median("core.artifact_pack_ms")),
        m("core.artifact_write_ms", s.median("core.artifact_write_ms")),
        m("core.artifact_read_ms", s.median("core.artifact_read_ms")),
        m("kb.artifact_open_ms", s.median("kb.artifact_open_ms")),
        m("core.artifact_mb", index.artifact_bytes as f64 / 1e6),
        m(
            "core.artifact_bytes_per_input_byte",
            index.artifact_bytes as f64 / probe.input_bytes as f64,
        ),
        m("core.match_query_us", s.median("core.match_query_us")),
        m("core.delta_apply_ms", s.median("core.delta_apply_ms")),
        m("core.delta_persist_ms", s.median("core.delta_persist_ms")),
        m("core.delta_affected_rows", index.affected_rows as f64),
        m("core.patch_over_rebuild", patch_ms / rebuild_ms),
        m("serve.registry_hit_us", s.median("serve.registry_hit_us")),
        m("serve.registry_load_ms", s.median("serve.registry_load_ms")),
        m("serve.http_floor_us", s.median("serve.http_floor_us")),
        m("serve.match_p50_us", s.median("serve.match_p50_us")),
        m("serve.match_p99_us", s.median("serve.match_p99_us")),
        m(
            "serve.http_tax_us",
            s.median("serve.match_p50_us") - s.median("serve.registry_hit_us"),
        ),
        m(
            "serve.match_over_floor_us",
            s.median("serve.match_p50_us") - s.median("serve.http_floor_us"),
        ),
        m("serve.reconnect_ms", s.median("serve.reconnect_ms")),
        m(
            "serve.linejson_match_us",
            s.median("serve.linejson_match_us"),
        ),
        m("serve.match_qps", daemon.match_qps),
        m("serve.server_cpu_s", daemon.server_cpu_s),
        m(
            "serve.qps_per_cpu_s",
            daemon.completed as f64 / daemon.server_cpu_s,
        ),
        m("serve.registry_hits", daemon.counters[0]),
        m("serve.registry_misses", daemon.counters[1]),
        m("serve.registry_invalidations", daemon.counters[2]),
        heavy("serve.patch_ms", s.median("serve.patch_ms")),
        heavy("serve.reload_ms", s.median("serve.reload_ms")),
        heavy("serve.batch_over_solo", s.median("batch_ms") / solo_ms),
        heavy("exec.pool1_over_seq", pool_ms / seq_ms),
        m("exec.pool_steals", pool_delta.0 as f64),
        m("exec.pool_injected", pool_delta.1 as f64),
        m(
            "obs.pipeline_overhead_ratio",
            sum("core.pipeline_ms") / sum("pipeline_obs_off_ms"),
        ),
        m(
            "obs.query_overhead_ratio",
            s.median("sweep_obs_on_ms") / s.median("sweep_obs_off_ms"),
        ),
        m(
            "spine.trace_overhead_ratio",
            s.median("sweep_spans_on_ms") / s.median("sweep_spans_off_ms"),
        ),
    ]);

    let mut notes = vec![
        note("setup_s", setup_s, "s"),
        note("input_mb", input_mb, "MB"),
        note("probe_input_mb", probe.input_bytes as f64 / 1e6, "MB"),
        note(
            "simindex_share_of_stages",
            sum("core.simindex_ms") / stage_sum,
            "ratio",
        ),
        note("spans", t.span_count() as f64, "count"),
    ];
    notes.extend(
        t.self_ms_by_layer()
            .into_iter()
            .map(|(layer, ms)| note(format!("self_ms.{layer}"), ms, "ms")),
    );
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        notes,
    })
}
