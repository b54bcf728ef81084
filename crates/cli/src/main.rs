//! `minoaner` — command-line entity resolution.
//!
//! ```text
//! minoaner match  <first.(tsv|nt)> <second.(tsv|nt)> [--method minoaner|bsl|sigma|paris]
//!                 [--truth <pairs.tsv>] [--json] [--theta F] [--k N] [--no-purge]
//!                 [--executor sequential|pool]
//! minoaner batch  --manifest <fleet.json> [--slots N]
//!                 [--memory-mib N] [--timeout-ms N] [--max-retries N]
//!                 [--rss-kill-factor F] [--executor sequential|pool] [--json] [--pairs]
//! minoaner serve  [--listen <addr>] [--listen-http <addr>] [--auth-token T]
//!                 [--index-dir <dir>] [--index-cache-mib N]
//!                 [--slots N] [--memory-mib N]
//!                 [--timeout-ms N] [--max-retries N] [--rss-kill-factor F]
//!                 [--shed-depth N] [--max-connections N]
//!                 [--executor sequential|pool] [--json] [--pairs]
//! minoaner index build <name> --dir <dir>
//!                 (--dataset restaurant|rexa|bbc|yago [--scale F] [--seed N]
//!                  | <first.(tsv|nt)> <second.(tsv|nt)>)
//!                 [--theta F] [--k N] [--no-purge]
//!                 [--executor sequential|pool]
//! minoaner index inspect <artifact.idx>
//! minoaner index query <artifact.idx> (--entity <iri> | --sample) [--k N]
//! minoaner index patch <artifact.idx> --deltas <file.json|->
//!                 [--executor sequential|pool]
//! minoaner datagen <restaurant|rexa|bbc|yago> --mutate [--scale F] [--seed N]
//!                 [--mutate-seed N] [--ops N]
//! minoaner demo   [restaurant|rexa|bbc|yago] [--scale F] [--seed N]
//!                 [--executor sequential|pool]
//! minoaner trace  <job-id> --connect <http-addr>
//! minoaner stats  <kb.(tsv|nt)>
//! ```
//!
//! Every subcommand also accepts the global `--log-level
//! error|warn|info|debug` flag, which sets the console threshold of the
//! structured logging layer (`minoan_obs`; the `MINOAN_LOG` environment
//! variable is the same knob, the flag wins). `trace` asks a running
//! daemon (`--connect` its `--listen-http` address) for a job's span
//! trees — one per attempt — with `GET /v1/jobs/{id}/trace`, and exits
//! 1 on any status but `200`. It sends no token, so it reads a daemon
//! started without `--auth-token`.
//!
//! `--truth` is a 2-column TSV of matching URIs (first-KB URI, second-KB
//! URI); with it the tool reports precision/recall/F1. `--executor`
//! selects the backend the hot pipeline stages run on (results are
//! bit-identical across backends). No verb takes a thread count: the
//! pool runs `available_parallelism()` workers, so to run on fewer
//! cores, limit the process's CPU affinity (`taskset`).
//!
//! Everything a verb prints goes to stdout through one writer
//! ([`outln!`]): a reader that stops early (`minoaner … | head`) ends
//! the verb quietly with status 0.
//!
//! `match` and `index build` check their matching parameters before
//! reading any input: `--k` outside `1..=128`
//! (`minoan_core::MAX_CANDIDATES`) or `--theta` outside `(0,1)` is a
//! usage error (exit 2).
//!
//! `batch` resolves a whole fleet of KB pairs described by a manifest
//! (see `minoan_serve::manifest`; `examples/fleet.json` is a ready-made
//! one): jobs are scheduled pairs-first across `--slots` fleet slots
//! (never more than the cores or the jobs) under bounded-memory
//! admission, per-job completions stream to stderr,
//! and the final report goes to stdout (`--json` for the machine
//! spelling, `--pairs` to list every matched URI pair). A failed job
//! does not stop the fleet, but the exit code is 1 when any job failed.
//!
//! `serve` runs the same fleet scheduler as a **long-running daemon**:
//! jobs arrive over HTTP (`--listen-http`, below) or line-delimited
//! JSON (`--listen`; each op — submit / status / cancel / wait /
//! shutdown, … — is a framing over one HTTP endpoint, see
//! `minoan_serve::daemon`; `examples/daemon_client.rs` is a ready-made
//! client), feed the same bounded-memory admission queue, and can be
//! cancelled **mid-run** through the job's executor. On
//! `shutdown` the daemon drains and prints the fleet report in
//! submission order, exactly like `batch`; the exit code is 0 on a
//! clean shutdown (per-job failures were already reported to clients).
//!
//! ## Serving over HTTP
//!
//! `serve --listen-http <addr>` additionally (or instead) exposes the
//! queue over a dependency-free HTTP/1.1 front-end — both listeners
//! feed the **same** queue and the same router, so line-JSON and HTTP
//! clients see the same jobs and either can shut the daemon down. Endpoints (see
//! `minoan_serve::http` for limits and error codes): `POST /v1/jobs`
//! submits a manifest job object, `GET /v1/jobs` lists jobs with live
//! queue telemetry, `GET /v1/jobs/{id}` (`?wait=true` blocks) returns
//! status plus the full report once terminal, `DELETE /v1/jobs/{id}`
//! cancels (including mid-run), `GET /v1/metrics` serves
//! Prometheus-format telemetry, and `POST /v1/shutdown` stops the
//! daemon (`{"mode":"drain"|"cancel"}`). With `--auth-token <secret>`
//! every HTTP request must carry `Authorization: Bearer <secret>`
//! (compared in constant time); line-JSON frames cannot carry a token,
//! so `--auth-token` with `--listen` is a usage error (exit 2).
//! `examples/http_client.rs` is a
//! ready-made client. Results are bit-identical to `batch` and solo
//! runs no matter which protocol submitted the job.
//!
//! ## Supervised lifecycle knobs
//!
//! `--timeout-ms N` sets a per-job deadline observed at every wave of
//! the job's executor (`0` = none; overrides the manifest),
//! `--max-retries N` gives transiently-failing jobs (I/O errors,
//! timeouts) that many re-runs with exponential backoff and
//! deterministic jitter, and `--rss-kill-factor F` arms a watchdog
//! killing jobs that grow past `F ×` their admission estimate. `serve`
//! additionally takes `--shed-depth N` — reject submissions once `N`
//! jobs are queued (HTTP `429` + `Retry-After`, line-JSON
//! `"retryable":true`) — and `--max-connections N`, capping concurrent
//! HTTP handler threads (excess connections get an immediate `503`).
//!
//! ## Persistent indexes
//!
//! `index build` runs the full MinoanER pipeline once and persists
//! what queries and patches read afterwards — both KBs, the ranked
//! value candidates and the final matching — as one versioned,
//! checksummed artifact (`<dir>/<name>.idx`, see
//! `minoan_core::artifact` for the wire format). `index inspect` reads
//! only the metadata section; `index query` loads the artifact and
//! answers match queries with **zero ingest work** (`--sample` queries
//! the first matched entity, handy for smoke tests). Its `--k` (default
//! 10) is how many ranked candidates to print; an index persists only
//! the best 128 of each row (`minoan_core::MAX_CANDIDATES`), so a
//! `--k` outside `1..=128` is a usage error (exit 2), as it is a `400`
//! online. The same artifacts serve online when the daemon runs with
//! `--index-dir`: `POST /v1/indexes` builds through the job queue, and
//! `GET /v1/indexes/{id}/match?entity=<iri>` answers from the loaded
//! artifact (an LRU cache capped at `--index-cache-mib`). Loaded-
//! then-queried results are bit-identical to a fresh in-memory run.
//!
//! `index patch` applies an entity delta stream (upserts/deletes, see
//! `minoan_kb::delta` for the wire JSON) to the KB pair embedded in a
//! persisted artifact and re-runs the pipeline over the result with
//! the parameters the index was built with; the artifact is rewritten
//! atomically with a bumped content version.
//! `datagen --mutate` emits deterministic seeded delta streams drawn
//! from a profile — pipe it straight into `index patch --deltas -`.

#![warn(clippy::print_stdout)]

use std::process::exit;

use minoan_baselines::{run_bsl, run_paris, run_sigma, ParisConfig, SigmaConfig};
use minoan_blocking::unique_name_pairs;
use minoan_core::{
    build_blocks, ArtifactMeta, IndexArtifact, MinoanConfig, MinoanEr, MAX_CANDIDATES,
};
use minoan_datagen::DatasetKind;
use minoan_eval::MatchQuality;
use minoan_exec::Executor;
use minoan_kb::{GroundTruth, Json, KbPair, KnowledgeBase, Matching};
use minoan_serve::{
    run_batch_streaming, run_server, CancelToken, Frontends, HttpOptions, JobReport, Manifest,
    ServeOptions,
};

/// Prints one line to stdout: the CLI's one writer (see [`write_line`]).
macro_rules! outln {
    ($($arg:tt)*) => {
        write_line(format_args!($($arg)*))
    };
}

/// Writes `line` and a newline to stdout. A reader that closes early
/// (`minoaner … | head`) is no error: the verb ends there, quietly,
/// with status 0. Any other write error exits 1.
fn write_line(line: std::fmt::Arguments) {
    use std::io::Write as _;
    let written = writeln!(std::io::stdout().lock(), "{line}");
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => exit(0),
        Err(e) => {
            minoan_obs::error!("cli", "cannot write to stdout: {e}");
            exit(1);
        }
    }
}

fn usage() -> ! {
    minoan_obs::error!(
        "cli",
        "usage:\n  minoaner match <first> <second> [--method minoaner|bsl|sigma|paris] \
         [--truth pairs.tsv] [--json] [--theta F] [--k N] [--no-purge] \
         [--executor sequential|pool]\n  \
         minoaner batch --manifest fleet.json [--slots N] \
         [--memory-mib N] [--timeout-ms N] [--max-retries N] [--rss-kill-factor F] \
         [--executor sequential|pool] [--json] [--pairs]\n  \
         minoaner serve [--listen addr:port] [--listen-http addr:port] \
         [--auth-token T (HTTP only: not with --listen)] \
         [--index-dir dir] [--index-cache-mib N] \
         [--slots N] [--memory-mib N] \
         [--timeout-ms N] [--max-retries N] [--rss-kill-factor F] \
         [--shed-depth N] [--max-connections N] \
         [--executor sequential|pool] [--json] [--pairs]\n  \
         minoaner index build <name> --dir <dir> (--dataset restaurant|rexa|bbc|yago \
         [--scale F] [--seed N] | <first> <second>) [--theta F] [--k N] [--no-purge] \
         [--executor sequential|pool]\n  \
         minoaner index inspect <artifact.idx>\n  \
         minoaner index query <artifact.idx> (--entity iri | --sample) [--k N]\n  \
         minoaner index patch <artifact.idx> --deltas <file.json|-> \
         [--executor sequential|pool]\n  \
         minoaner datagen <restaurant|rexa|bbc|yago> --mutate [--scale F] [--seed N] \
         [--mutate-seed N] [--ops N]\n  \
         minoaner demo [restaurant|rexa|bbc|yago] [--scale F] [--seed N] \
         [--executor sequential|pool]\n  \
         minoaner trace <job-id> --connect http-addr:port\n  \
         minoaner stats <kb>\n\
         global: [--log-level error|warn|info|debug]"
    );
    exit(2);
}

/// The command line left to read.
type Args<'a> = std::slice::Iter<'a, String>;

/// Why a flag's value could not be read. Either way the CLI prints the
/// usage text and exits 2 (see [`or_usage`]); the readers return it so
/// they can be tested without the process exiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagError {
    /// The command line ended where the flag's value should be.
    MissingValue,
    /// The value does not parse as the flag's type.
    BadValue,
}

/// The one typed flag reader: takes the next argument as the value of
/// the flag just matched.
fn value<T: std::str::FromStr>(it: &mut Args) -> Result<T, FlagError> {
    it.next()
        .ok_or(FlagError::MissingValue)?
        .parse()
        .map_err(|_| FlagError::BadValue)
}

fn or_usage<T>(read: Result<T, FlagError>) -> T {
    read.unwrap_or_else(|_| usage())
}

/// `--executor` of the single-pair verbs: the one executor the verb
/// runs every stage on. Like every flag group, returns whether `flag`
/// was one of its own (and is now read).
fn executor_flag(exec: &mut Executor, flag: &str, it: &mut Args) -> Result<bool, FlagError> {
    match flag {
        "--executor" => *exec = Executor::new(value(it)?, 0),
        _ => return Ok(false),
    }
    Ok(true)
}

/// The matching flags `match` and `index build` share: `--theta`, `--k`
/// and `--no-purge`.
fn matching_flag(config: &mut MinoanConfig, flag: &str, it: &mut Args) -> Result<bool, FlagError> {
    match flag {
        "--theta" => config.theta = value(it)?,
        "--k" => config.candidates_k = value(it)?,
        "--no-purge" => config.purge_blocks = false,
        _ => return Ok(false),
    }
    Ok(true)
}

/// What `batch` and `serve` share: the fleet scheduler's options and the
/// two switches of the final report.
#[derive(Default)]
struct FleetArgs {
    opts: ServeOptions,
    json: bool,
    pairs: bool,
}

/// The fleet flags. Explicit flags override the manifest — including
/// explicit zeros (`--slots 0` = all cores, `--memory-mib 0` =
/// unlimited), so a manifest limit can always be lifted from the
/// command line.
fn fleet_flag(fleet: &mut FleetArgs, flag: &str, it: &mut Args) -> Result<bool, FlagError> {
    let opts = &mut fleet.opts;
    match flag {
        "--slots" => opts.slots = Some(value(it)?),
        "--memory-mib" => opts.memory_budget_mib = Some(value(it)?),
        "--timeout-ms" => opts.timeout_ms = Some(value(it)?),
        "--max-retries" => opts.max_retries = Some(value(it)?),
        "--rss-kill-factor" => opts.rss_kill_factor = Some(value(it)?),
        "--executor" => opts.executor = value(it)?,
        "--json" => fleet.json = true,
        "--pairs" => fleet.pairs = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Loads a KB by **streaming** the file through the chunked parallel
/// parser — the shared serving-layer loader
/// ([`minoan_serve::load_kb_file`], which ignores its config),
/// exit-on-error for the CLI.
fn load_kb(path: &str, name: &str, exec: &Executor) -> KnowledgeBase {
    let file = std::path::Path::new(path);
    minoan_serve::load_kb_file(file, name, &MinoanConfig::default(), exec).unwrap_or_else(|e| {
        minoan_obs::error!("cli", "cannot load {path}: {e}");
        exit(1);
    })
}

/// Loads a ground-truth TSV via the shared serving-layer loader (lines
/// naming URIs absent from the pair are skipped).
fn load_truth(path: &str, pair: &KbPair) -> GroundTruth {
    minoan_serve::load_truth_file(std::path::Path::new(path), pair).unwrap_or_else(|e| {
        minoan_obs::error!("cli", "{e}");
        exit(1);
    })
}

fn report(matching: &Matching, pair: &KbPair, truth: Option<&GroundTruth>, json: bool) {
    if json {
        let pairs: Vec<[String; 2]> = matching
            .iter()
            .map(|(a, b)| {
                [
                    pair.first.entity_uri(a).to_string(),
                    pair.second.entity_uri(b).to_string(),
                ]
            })
            .collect();
        let quality = truth.map(|t| MatchQuality::evaluate(matching, t));
        let out = Json::obj([
            (
                "matches",
                Json::arr(
                    pairs
                        .iter()
                        .map(|[a, b]| Json::arr([Json::str(a), Json::str(b)])),
                ),
            ),
            (
                "quality",
                match quality {
                    Some(q) => Json::obj([
                        ("precision", Json::Num(q.precision())),
                        ("recall", Json::Num(q.recall())),
                        ("f1", Json::Num(q.f1())),
                    ]),
                    None => Json::Null,
                },
            ),
        ]);
        outln!("{}", out.pretty());
    } else {
        for (a, b) in matching.iter() {
            outln!(
                "{}\t{}",
                pair.first.entity_uri(a),
                pair.second.entity_uri(b)
            );
        }
        if let Some(t) = truth {
            let q = MatchQuality::evaluate(matching, t);
            minoan_obs::info!(
                "cli.match",
                "precision {:.2}%  recall {:.2}%  F1 {:.2}%  ({} matches)",
                q.precision() * 100.0,
                q.recall() * 100.0,
                q.f1() * 100.0,
                matching.len()
            );
        } else {
            minoan_obs::info!("cli.match", "{} matches", matching.len());
        }
    }
}

/// The matcher `match` and `index build` run, checked before any file
/// is read: a parameter out of range — `--k` past [`MAX_CANDIDATES`],
/// `--theta` outside `(0,1)` — is a usage error (exit 2).
fn matcher_or_usage(config: MinoanConfig) -> MinoanEr {
    MinoanEr::new(config).unwrap_or_else(|e| {
        minoan_obs::error!("cli", "bad config: {e}");
        usage()
    })
}

fn run_method(
    method: &str,
    pair: &KbPair,
    matcher: &MinoanEr,
    exec: &Executor,
    truth: Option<&GroundTruth>,
) -> Matching {
    let config = matcher.config();
    match method {
        "minoaner" => matcher.run_with(pair, exec).matching,
        "bsl" => {
            let Some(t) = truth else {
                minoan_obs::error!(
                    "cli",
                    "--method bsl needs --truth (BSL is oracle-tuned by definition)"
                );
                exit(1);
            };
            let art = build_blocks(pair, config, exec);
            run_bsl(
                &pair.first,
                &pair.second,
                &[&art.name_blocks, &art.token_blocks],
                t,
            )
            .matching
        }
        "sigma" => {
            let art = build_blocks(pair, config, exec);
            let seeds = unique_name_pairs(&art.name_blocks);
            run_sigma(
                pair,
                &art.tokens,
                &art.token_blocks,
                &seeds,
                SigmaConfig::default(),
            )
        }
        "paris" => run_paris(pair, ParisConfig::default()),
        other => {
            minoan_obs::error!("cli", "unknown method {other:?}");
            exit(2);
        }
    }
}

/// One stderr line per job as it completes — shared by `batch` and
/// `serve` so both front-ends narrate the fleet identically.
fn print_job_completion(job: &JobReport) {
    match (&job.status.is_ok(), &job.quality) {
        (true, Some(q)) => minoan_obs::info!(
            "serve.job",
            "{}: ok, {} matches, F1 {:.2}%, {:.0} ms on {} threads",
            job.name,
            job.matches.len(),
            q.f1() * 100.0,
            job.wall.as_secs_f64() * 1e3,
            job.threads
        ),
        (true, None) => minoan_obs::info!(
            "serve.job",
            "{}: ok, {} matches, {:.0} ms on {} threads",
            job.name,
            job.matches.len(),
            job.wall.as_secs_f64() * 1e3,
            job.threads
        ),
        _ => minoan_obs::info!("serve.job", "{}: {}", job.name, job.status.label()),
    }
    // The admission feedback signal: how far the static footprint
    // estimate was from the measured RSS growth (only meaningful when
    // this job actually raised the process high-water mark).
    if let (Some(ratio), Some(delta)) = (job.rss_estimate_ratio(), job.peak_rss_delta_bytes) {
        minoan_obs::info!(
            "serve.job",
            "{}: admission estimate {:.1} MiB vs measured RSS delta {:.1} MiB (x{ratio:.2})",
            job.name,
            job.estimated_bytes as f64 / (1 << 20) as f64,
            delta as f64 / (1 << 20) as f64,
        );
    }
}

/// Prints the final fleet report (stdout) and summary (stderr) —
/// shared by `batch` and `serve`.
fn print_fleet_report(report: &minoan_serve::ServeReport, json: bool, pairs: bool) {
    if json {
        outln!("{}", report.to_json(pairs).pretty());
    } else {
        for job in &report.jobs {
            if pairs {
                for (a, b) in &job.matches {
                    outln!("{}\t{a}\t{b}", job.name);
                }
            } else {
                outln!(
                    "{}\t{}\t{} matches",
                    job.name,
                    job.status.label(),
                    job.matches.len()
                );
            }
        }
        minoan_obs::info!(
            "serve.fleet",
            "fleet done: {}/{} ok, peak {} concurrent, {:.0} ms",
            report.ok_count(),
            report.jobs.len(),
            report.peak_concurrent_jobs,
            report.wall.as_secs_f64() * 1e3
        );
    }
}

/// `minoaner index build`: run the pipeline once, persist the artifact.
fn index_build(args: &[String]) {
    let mut name: Option<&str> = None;
    let mut dir: Option<String> = None;
    let mut dataset: Option<DatasetKind> = None;
    let mut scale = 0.3f64;
    let mut seed = 20180416u64;
    let mut files: Vec<&str> = Vec::new();
    let mut config = MinoanConfig::default();
    let mut exec = Executor::pool();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = Some(or_usage(value(&mut it))),
            "--dataset" => {
                let kind: String = or_usage(value(&mut it));
                dataset = Some(DatasetKind::parse(&kind).unwrap_or_else(|| usage()))
            }
            "--scale" => scale = or_usage(value(&mut it)),
            "--seed" => seed = or_usage(value(&mut it)),
            flag if or_usage(matching_flag(&mut config, flag, &mut it)) => {}
            flag if or_usage(executor_flag(&mut exec, flag, &mut it)) => {}
            other if !other.starts_with('-') && name.is_none() => name = Some(other),
            other if !other.starts_with('-') => files.push(other),
            _ => usage(),
        }
    }
    let (Some(name), Some(dir)) = (name, dir) else {
        usage()
    };
    if !minoan_serve::registry::valid_id(name) {
        minoan_obs::error!(
            "cli.index",
            "invalid index name {name:?} (letters, digits, `.`/`_`/`-` only)"
        );
        exit(2);
    }
    let matcher = matcher_or_usage(config);
    let pair = match (dataset, files.as_slice()) {
        (Some(kind), []) => kind.generate_scaled(seed, scale).pair,
        (None, [first, second]) => {
            KbPair::new(load_kb(first, "E1", &exec), load_kb(second, "E2", &exec))
        }
        _ => usage(),
    };
    let indexed = matcher
        .run_cancellable_indexed(&pair, &exec, &CancelToken::new())
        .expect("no cancellation source in the CLI");
    let artifact = IndexArtifact::from_run(name, &pair, indexed, matcher.config());
    let dir = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        minoan_obs::error!("cli.index", "cannot create {}: {e}", dir.display());
        exit(1);
    }
    let path = dir.join(format!("{name}.{}", minoan_serve::registry::ARTIFACT_EXT));
    let file_bytes = artifact.write_to(&path).unwrap_or_else(|e| {
        minoan_obs::error!("cli.index", "cannot write {}: {e}", path.display());
        exit(1);
    });
    minoan_obs::info!("cli.index", "wrote {} ({file_bytes} bytes)", path.display());
    // `write_to(&self)` cannot record the size it wrote; the report can.
    let meta = ArtifactMeta {
        file_bytes,
        ..artifact.meta().clone()
    };
    outln!("{}", meta.to_json().pretty());
}

/// `minoaner index inspect`: print the metadata section without
/// rebuilding any in-memory structure.
fn index_inspect(args: &[String]) {
    let [path] = args else { usage() };
    let meta = IndexArtifact::read_meta(std::path::Path::new(path)).unwrap_or_else(|e| {
        minoan_obs::error!("cli.index", "cannot read {path}: {e}");
        exit(1);
    });
    outln!("{}", meta.to_json().pretty());
}

/// `minoaner index query`: load a persisted artifact and answer one
/// match query from it — no ingest, no pipeline re-run.
fn index_query(args: &[String]) {
    let mut path: Option<&str> = None;
    let mut entity: Option<String> = None;
    let mut sample = false;
    let mut k = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entity" => entity = Some(or_usage(value(&mut it))),
            "--sample" => sample = true,
            "--k" => k = or_usage(value(&mut it)),
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    if !(1..=MAX_CANDIDATES).contains(&k) {
        minoan_obs::error!(
            "cli.index",
            "--k must be in 1..={MAX_CANDIDATES} (the longest row an index persists), got {k}"
        );
        usage();
    }
    let t0 = std::time::Instant::now();
    let artifact = IndexArtifact::read_from(std::path::Path::new(path)).unwrap_or_else(|e| {
        minoan_obs::error!("cli.index", "cannot load {path}: {e}");
        exit(1);
    });
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let entity = match entity {
        Some(entity) => entity,
        None if sample => match artifact.matched_uri_pairs().into_iter().next() {
            Some((first, _)) => first,
            None => {
                minoan_obs::error!("cli.index", "index has no matched pairs to sample");
                exit(1);
            }
        },
        None => usage(),
    };
    let t1 = std::time::Instant::now();
    let Some(answer) = artifact.match_query(&entity, k) else {
        minoan_obs::error!(
            "cli.index",
            "entity {entity:?} is in neither KB of this index"
        );
        exit(1);
    };
    let query_ms = t1.elapsed().as_secs_f64() * 1e3;
    let body = answer.to_json(&artifact.meta().name, load_ms, query_ms);
    outln!("{}", body.pretty());
}

/// `minoaner index patch`: apply a delta stream to a persisted
/// artifact's embedded pair, re-run the pipeline over it, then rewrite
/// the artifact atomically with a bumped content version.
fn index_patch(args: &[String]) {
    let mut path: Option<&str> = None;
    let mut deltas: Option<String> = None;
    let mut exec = Executor::pool();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deltas" => deltas = Some(or_usage(value(&mut it))),
            flag if or_usage(executor_flag(&mut exec, flag, &mut it)) => {}
            other if !other.starts_with('-') && path.is_none() => path = Some(other),
            _ => usage(),
        }
    }
    let (Some(path), Some(deltas)) = (path, deltas) else {
        usage()
    };
    let raw = if deltas == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| {
                minoan_obs::error!("cli.index", "cannot read deltas from stdin: {e}");
                exit(1);
            });
        buf
    } else {
        std::fs::read_to_string(&deltas).unwrap_or_else(|e| {
            minoan_obs::error!("cli.index", "cannot read {deltas}: {e}");
            exit(1);
        })
    };
    let body = Json::parse(&raw).unwrap_or_else(|e| {
        minoan_obs::error!("cli.index", "bad delta stream: {e}");
        exit(1);
    });
    let ops = minoan_kb::delta::ops_from_json(&body).unwrap_or_else(|e| {
        minoan_obs::error!("cli.index", "bad delta stream: {e}");
        exit(1);
    });
    let path = std::path::Path::new(path);
    let t0 = std::time::Instant::now();
    let mut artifact = IndexArtifact::read_from(path).unwrap_or_else(|e| {
        minoan_obs::error!("cli.index", "cannot load {}: {e}", path.display());
        exit(1);
    });
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let delta = artifact
        .apply_delta(&ops, &exec, &CancelToken::new())
        .expect("no cancellation source in the CLI");
    let apply_ms = t1.elapsed().as_secs_f64() * 1e3;
    match artifact.persist_patch(path) {
        Ok(bytes) => minoan_obs::info!("cli.index", "patched {} ({bytes} bytes)", path.display()),
        Err(e) => {
            minoan_obs::error!("cli.index", "cannot persist {}: {e}", path.display());
            exit(1);
        }
    }
    let body = Json::obj([
        ("index", Json::str(&artifact.meta().name)),
        ("content_version", Json::num(delta.content_version as f64)),
        ("ops_applied", Json::num(delta.ops_applied as f64)),
        ("ops_noop", Json::num(delta.ops_noop as f64)),
        ("affected_rows", Json::num(delta.affected_rows as f64)),
        ("h1_matches", Json::num(delta.pipeline.h1_matches as f64)),
        ("h2_matches", Json::num(delta.pipeline.h2_matches as f64)),
        ("h3_matches", Json::num(delta.pipeline.h3_matches as f64)),
        ("h4_removed", Json::num(delta.pipeline.h4_removed as f64)),
        ("matched_pairs", Json::num(delta.matched_pairs as f64)),
        (
            "stage_timings_ms",
            Json::obj([("load", Json::num(load_ms)), ("apply", Json::num(apply_ms))]),
        ),
    ]);
    outln!("{}", body.pretty());
}

/// `minoaner datagen --mutate`: emit a deterministic seeded delta
/// stream drawn from a profile, as the wire JSON `index patch` and
/// `PATCH /v1/indexes/{id}` accept.
fn datagen_cmd(args: &[String]) {
    let mut kind: Option<DatasetKind> = None;
    let mut mutate = false;
    let mut scale = 0.3;
    let mut seed = 20180416u64;
    let mut mutate_seed = 1u64;
    let mut n_ops = 50usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mutate" => mutate = true,
            "--scale" => scale = or_usage(value(&mut it)),
            "--seed" => seed = or_usage(value(&mut it)),
            "--mutate-seed" => mutate_seed = or_usage(value(&mut it)),
            "--ops" => n_ops = or_usage(value(&mut it)),
            name => kind = Some(DatasetKind::parse(name).unwrap_or_else(|| usage())),
        }
    }
    let Some(kind) = kind else { usage() };
    if !mutate {
        minoan_obs::error!(
            "cli",
            "datagen currently only supports --mutate (delta stream generation)"
        );
        exit(2);
    }
    let ops = minoan_datagen::mutate_stream(kind, seed, scale, mutate_seed, n_ops);
    outln!("{}", minoan_kb::delta::ops_to_json(&ops).compact());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--log-level` is global: strip it wherever it appears so every
    // subcommand accepts it uniformly. The flag wins over `MINOAN_LOG`.
    while let Some(i) = args.iter().position(|a| a == "--log-level") {
        let Some(raw) = args.get(i + 1) else { usage() };
        match raw.parse::<minoan_obs::Level>() {
            Ok(level) => minoan_obs::set_console_level(level),
            Err(e) => {
                minoan_obs::error!("cli", "{e}");
                exit(2);
            }
        }
        args.drain(i..i + 2);
    }
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("match") => {
            let mut positional: Vec<&str> = Vec::new();
            let mut method = "minoaner".to_string();
            let mut truth_path: Option<String> = None;
            let mut json = false;
            let mut config = MinoanConfig::default();
            let mut exec = Executor::pool();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--method" => method = or_usage(value(&mut it)),
                    "--truth" => truth_path = Some(or_usage(value(&mut it))),
                    "--json" => json = true,
                    flag if or_usage(matching_flag(&mut config, flag, &mut it)) => {}
                    flag if or_usage(executor_flag(&mut exec, flag, &mut it)) => {}
                    other if !other.starts_with('-') => positional.push(other),
                    _ => usage(),
                }
            }
            if positional.len() != 2 {
                usage();
            }
            let matcher = matcher_or_usage(config);
            let pair = KbPair::new(
                load_kb(positional[0], "E1", &exec),
                load_kb(positional[1], "E2", &exec),
            );
            let truth = truth_path.map(|p| load_truth(&p, &pair));
            let matching = run_method(&method, &pair, &matcher, &exec, truth.as_ref());
            report(&matching, &pair, truth.as_ref(), json);
        }
        Some("batch") => {
            let mut manifest_path: Option<String> = None;
            let mut fleet = FleetArgs::default();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--manifest" => manifest_path = Some(or_usage(value(&mut it))),
                    flag if or_usage(fleet_flag(&mut fleet, flag, &mut it)) => {}
                    _ => usage(),
                }
            }
            let Some(manifest_path) = manifest_path else {
                usage()
            };
            let manifest =
                Manifest::load(std::path::Path::new(&manifest_path)).unwrap_or_else(|e| {
                    minoan_obs::error!("cli", "{e}");
                    exit(1);
                });
            minoan_obs::info!(
                "serve.fleet",
                "fleet: {} jobs, manifest {manifest_path}",
                manifest.jobs.len()
            );
            // Stream one line per job as it completes; the final report
            // stays in manifest order.
            let report =
                run_batch_streaming(&manifest, &fleet.opts, |_, job| print_job_completion(job));
            print_fleet_report(&report, fleet.json, fleet.pairs);
            if report.ok_count() < report.jobs.len() {
                exit(1);
            }
        }
        Some("serve") => {
            let mut listen: Option<String> = None;
            let mut listen_http: Option<String> = None;
            let mut auth_token: Option<String> = None;
            let mut max_connections: Option<usize> = None;
            let mut fleet = FleetArgs::default();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--listen" => listen = Some(or_usage(value(&mut it))),
                    "--listen-http" => listen_http = Some(or_usage(value(&mut it))),
                    "--auth-token" => auth_token = Some(or_usage(value(&mut it))),
                    "--index-dir" => {
                        fleet.opts.index_dir = Some(or_usage(value::<String>(&mut it)).into())
                    }
                    "--index-cache-mib" => {
                        let mib: u64 = or_usage(value(&mut it));
                        fleet.opts.index_cache_bytes = Some(mib << 20);
                    }
                    "--shed-depth" => fleet.opts.shed_queue_depth = Some(or_usage(value(&mut it))),
                    "--max-connections" => max_connections = Some(or_usage(value(&mut it))),
                    flag if or_usage(fleet_flag(&mut fleet, flag, &mut it)) => {}
                    _ => usage(),
                }
            }
            if listen.is_none() && listen_http.is_none() {
                minoan_obs::error!("cli", "serve needs --listen and/or --listen-http");
                usage();
            }
            if listen.is_some() && auth_token.is_some() {
                minoan_obs::error!(
                    "cli",
                    "--auth-token needs HTTP only: line-JSON (--listen) cannot carry it"
                );
                usage();
            }
            let bind = |addr: &str| {
                std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                    minoan_obs::error!("cli", "cannot listen on {addr}: {e}");
                    exit(1);
                })
            };
            let frontends = Frontends {
                line: listen.as_deref().map(bind),
                http: listen_http.as_deref().map(bind),
                http_options: HttpOptions {
                    auth_token,
                    max_connections,
                },
            };
            if let Some(listener) = &frontends.line {
                let addr = listener
                    .local_addr()
                    .expect("bound listener has an address");
                minoan_obs::info!(
                    "serve",
                    "daemon listening on {addr} (send {{\"op\":\"shutdown\"}} to stop)"
                );
            }
            if let Some(listener) = &frontends.http {
                let addr = listener
                    .local_addr()
                    .expect("bound listener has an address");
                minoan_obs::info!(
                    "serve",
                    "HTTP listening on http://{addr}/v1/jobs ({}; POST /v1/shutdown to stop)",
                    if frontends.http_options.auth_token.is_some() {
                        "bearer auth required"
                    } else {
                        "no auth"
                    }
                );
            }
            // Per-job completions stream to stderr as they happen; the
            // final report (submission order, exactly like a batch run)
            // prints after a clean shutdown.
            let report =
                run_server(frontends, &fleet.opts, print_job_completion).unwrap_or_else(|e| {
                    minoan_obs::error!("serve", "daemon error: {e}");
                    exit(1);
                });
            print_fleet_report(&report, fleet.json, fleet.pairs);
        }
        Some("index") => match it.next().map(String::as_str) {
            Some("build") => index_build(&args[2..]),
            Some("inspect") => index_inspect(&args[2..]),
            Some("query") => index_query(&args[2..]),
            Some("patch") => index_patch(&args[2..]),
            _ => usage(),
        },
        Some("datagen") => datagen_cmd(&args[1..]),
        Some("demo") => {
            let mut kind = DatasetKind::Restaurant;
            let mut scale = 0.3;
            let mut seed = 20180416u64;
            let mut exec = Executor::pool();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scale" => scale = or_usage(value(&mut it)),
                    "--seed" => seed = or_usage(value(&mut it)),
                    flag if or_usage(executor_flag(&mut exec, flag, &mut it)) => {}
                    name => kind = DatasetKind::parse(name).unwrap_or_else(|| usage()),
                }
            }
            let d = kind.generate_scaled(seed, scale);
            minoan_obs::info!(
                "cli.demo",
                "{}: |E1|={} |E2|={} ground truth {}  (executor {}, {} threads)",
                d.name,
                d.pair.first.entity_count(),
                d.pair.second.entity_count(),
                d.truth.len(),
                exec.kind(),
                exec.threads(),
            );
            let out = MinoanEr::with_defaults().run_with(&d.pair, &exec);
            let q = MatchQuality::evaluate(&out.matching, &d.truth);
            minoan_obs::info!(
                "cli.demo",
                "MinoanER: H1={} H2={} H3={} H4-removed={}",
                out.report.h1_matches,
                out.report.h2_matches,
                out.report.h3_matches,
                out.report.h4_removed
            );
            minoan_obs::info!(
                "cli.demo",
                "precision {:.2}%  recall {:.2}%  F1 {:.2}%",
                q.precision() * 100.0,
                q.recall() * 100.0,
                q.f1() * 100.0
            );
        }
        Some("trace") => trace_cmd(&args[1..]),
        Some("stats") => {
            let Some(path) = it.next() else { usage() };
            let kb = load_kb(path, "KB", &Executor::pool());
            let stats = minoan_kb::KbStats::compute(&kb);
            outln!("{}", stats.to_json().pretty());
        }
        _ => usage(),
    }
}

/// `minoaner trace <job-id> --connect <http-addr>`: ask a running
/// daemon for one job's span trees (one per attempt) with
/// `GET /v1/jobs/{id}/trace` and pretty-print the `200` body; any other
/// status prints the error body and exits 1.
fn trace_cmd(args: &[String]) {
    use std::io::{Read as _, Write as _};
    let mut id: Option<usize> = None;
    let mut connect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(or_usage(value(&mut it))),
            other if !other.starts_with('-') && id.is_none() => {
                id = other.parse().ok().or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let (Some(id), Some(addr)) = (id, connect) else {
        usage()
    };
    let fail = |what: &str, e: std::io::Error| -> ! {
        minoan_obs::error!("cli.trace", "{what} {addr}: {e}");
        exit(1);
    };
    let mut stream =
        std::net::TcpStream::connect(&addr).unwrap_or_else(|e| fail("cannot connect to", e));
    let request =
        format!("GET /v1/jobs/{id}/trace HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    if let Err(e) = stream.write_all(request.as_bytes()) {
        fail("cannot send to", e);
    }
    let mut response = String::new();
    if let Err(e) = stream.read_to_string(&mut response) {
        fail("no response from", e);
    }
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok());
    let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    if status != Some(200) {
        minoan_obs::error!("cli.trace", "trace failed: {}", body.trim());
        exit(1);
    }
    match Json::parse(body) {
        Ok(json) => outln!("{}", json.pretty()),
        Err(_) => outln!("{body}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_exec::ExecutorKind;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// Feeds `words[0]` as the flag and the rest as what follows it.
    fn read<G>(
        group: fn(&mut G, &str, &mut Args) -> Result<bool, FlagError>,
        target: &mut G,
        words: &[&str],
    ) -> (Result<bool, FlagError>, usize) {
        let rest = args(&words[1..]);
        let mut it = rest.iter();
        let outcome = group(target, words[0], &mut it);
        (outcome, it.len())
    }

    #[test]
    fn value_reads_one_typed_argument() {
        let line = args(&["7", "0.5", "x", "pool"]);
        let mut it = line.iter();
        assert_eq!(value::<usize>(&mut it), Ok(7));
        assert_eq!(value::<f64>(&mut it), Ok(0.5));
        assert_eq!(value::<u64>(&mut it), Err(FlagError::BadValue));
        assert_eq!(value::<ExecutorKind>(&mut it), Ok(ExecutorKind::Pool));
        assert_eq!(value::<String>(&mut it), Err(FlagError::MissingValue));
    }

    #[test]
    fn matching_flags_table() {
        use FlagError::{BadValue, MissingValue};
        // (words, outcome, arguments left unread)
        let table: &[(&[&str], Result<bool, FlagError>, usize)] = &[
            (&["--theta", "0.25", "next"], Ok(true), 1),
            (&["--k", "3"], Ok(true), 0),
            (&["--no-purge", "next"], Ok(true), 1),
            (&["--theta"], Err(MissingValue), 0),
            (&["--k", "many"], Err(BadValue), 0),
            // Not this group's: left for the verb to judge, nothing read.
            (&["--executor", "sequential"], Ok(false), 1),
            (&["--slots", "2"], Ok(false), 1),
            (&["first.nt", "second.nt"], Ok(false), 1),
        ];
        for (words, outcome, left) in table {
            let mut config = MinoanConfig::default();
            assert_eq!(
                read(matching_flag, &mut config, words),
                (*outcome, *left),
                "{words:?}"
            );
        }
        let mut config = MinoanConfig::default();
        for words in [&["--theta", "0.25"][..], &["--k", "3"], &["--no-purge"]] {
            read(matching_flag, &mut config, words).0.unwrap();
        }
        let want = MinoanConfig {
            theta: 0.25,
            candidates_k: 3,
            purge_blocks: false,
            ..MinoanConfig::default()
        };
        assert_eq!(config, want);
    }

    /// `--executor` is the executor group's only flag: a matching
    /// parameter stays an unknown flag there, and so does `--threads`,
    /// which no verb takes (usage, exit 2).
    #[test]
    fn executor_flags_table() {
        use FlagError::{BadValue, MissingValue};
        let table: &[(&[&str], Result<bool, FlagError>, usize)] = &[
            (&["--executor", "sequential", "next"], Ok(true), 1),
            (&["--executor", "pool"], Ok(true), 0),
            (&["--executor"], Err(MissingValue), 0),
            (&["--executor", "gpu"], Err(BadValue), 0),
            (&["--executor", "rayon"], Err(BadValue), 0),
            (&["--theta", "0.25"], Ok(false), 1),
            (&["--k", "3"], Ok(false), 1),
            (&["--no-purge"], Ok(false), 0),
            (&["--threads", "4"], Ok(false), 1),
        ];
        for (words, outcome, left) in table {
            let mut exec = Executor::pool();
            assert_eq!(
                read(executor_flag, &mut exec, words),
                (*outcome, *left),
                "{words:?}"
            );
        }
        let mut exec = Executor::pool();
        read(executor_flag, &mut exec, &["--executor", "seq"])
            .0
            .unwrap();
        assert_eq!(exec.kind(), ExecutorKind::Sequential);
        read(executor_flag, &mut exec, &["--executor", "pool"])
            .0
            .unwrap();
        assert_eq!(exec.kind(), ExecutorKind::Pool);
        assert_eq!(exec.threads(), Executor::pool().threads());
    }

    #[test]
    fn fleet_flags_table() {
        use FlagError::{BadValue, MissingValue};
        let table: &[(&[&str], Result<bool, FlagError>, usize)] = &[
            (&["--slots", "2", "next"], Ok(true), 1),
            (&["--memory-mib", "0"], Ok(true), 0),
            (&["--timeout-ms", "1500"], Ok(true), 0),
            (&["--max-retries", "2"], Ok(true), 0),
            (&["--rss-kill-factor", "1.5"], Ok(true), 0),
            (&["--executor", "pool"], Ok(true), 0),
            (&["--json", "next"], Ok(true), 1),
            (&["--pairs"], Ok(true), 0),
            (&["--slots"], Err(MissingValue), 0),
            (&["--rss-kill-factor"], Err(MissingValue), 0),
            (&["--timeout-ms", "soon"], Err(BadValue), 0),
            (&["--max-retries", "-1"], Err(BadValue), 0),
            (&["--executor", "rayon2"], Err(BadValue), 0),
            (&["--theta", "0.5"], Ok(false), 1),
            (&["--manifest", "fleet.json"], Ok(false), 1),
            // The pool's workers are the fleet's budget: `batch` and
            // `serve` take no `--threads`, so it falls to usage (exit 2).
            (&["--threads", "2"], Ok(false), 1),
        ];
        for (words, outcome, left) in table {
            let mut fleet = FleetArgs::default();
            assert_eq!(
                read(fleet_flag, &mut fleet, words),
                (*outcome, *left),
                "{words:?}"
            );
        }
        let mut fleet = FleetArgs::default();
        for words in [
            &["--slots", "2"][..],
            &["--memory-mib", "0"],
            &["--timeout-ms", "1500"],
            &["--max-retries", "2"],
            &["--rss-kill-factor", "1.5"],
            &["--executor", "sequential"],
            &["--json"],
            &["--pairs"],
        ] {
            read(fleet_flag, &mut fleet, words).0.unwrap();
        }
        // Explicit zeros are values, not "unset".
        assert_eq!(fleet.opts.slots, Some(2));
        assert_eq!(fleet.opts.memory_budget_mib, Some(0));
        assert_eq!(fleet.opts.timeout_ms, Some(1500));
        assert_eq!(fleet.opts.max_retries, Some(2));
        assert_eq!(fleet.opts.rss_kill_factor, Some(1.5));
        assert_eq!(fleet.opts.executor, ExecutorKind::Sequential);
        assert!(fleet.json && fleet.pairs);
    }

    #[test]
    fn dataset_names() {
        // The command line takes what a manifest's `dataset` takes.
        for (name, kind) in [
            ("rexa", DatasetKind::RexaDblp),
            ("yago", DatasetKind::YagoImdb),
            ("REXA", DatasetKind::RexaDblp),
            ("rexa-dblp", DatasetKind::RexaDblp),
            ("BBCmusic-DBpedia", DatasetKind::BbcDbpedia),
            ("yago-imdb", DatasetKind::YagoImdb),
        ] {
            assert_eq!(DatasetKind::parse(name), Some(kind), "{name}");
        }
        assert_eq!(DatasetKind::parse("--scale"), None);
    }
}
