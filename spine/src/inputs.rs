//! Workload inputs, all derived from `--seed`: generated KB pairs
//! rendered to N-Triples files, the fleet manifest, the match-query mix
//! and the delta streams. The program only ever sees these files and
//! requests.

use std::path::{Path, PathBuf};

use crate::layers::{self, DatasetKind, Json, UriPairs};
use crate::stats::SplitMix;

/// How large a run is. `FULL` is what `BENCHMARK.json` measures;
/// `SMOKE` walks the same code paths at about a tenth of the size.
#[derive(Clone, Copy)]
pub struct Sizing {
    /// Multiplier on the single-pair workloads' dataset scale.
    pub scale_mul: f64,
    pub fleet_pairs_per_profile: usize,
    pub fleet_refs_per_pair: usize,
    /// Timed repetitions a cold-process workload makes at least, however
    /// short `--seconds` is.
    pub min_reps: usize,
    /// Times set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// In-process repetitions behind each per-layer median.
    pub layer_reps: usize,
}

pub const FULL: Sizing = Sizing {
    scale_mul: 1.0,
    fleet_pairs_per_profile: 16,
    fleet_refs_per_pair: 12,
    min_reps: 5,
    setup_reps: 3,
    layer_reps: 5,
};

pub const SMOKE: Sizing = Sizing {
    scale_mul: 0.1,
    fleet_pairs_per_profile: 4,
    fleet_refs_per_pair: 3,
    min_reps: 2,
    setup_reps: 1,
    layer_reps: 2,
};

/// Scale of the large single-pair inputs (Rexa-DBLP, YAGO-IMDb).
pub const BIG_SCALE: f64 = 2.0;
/// Ops per delta stream, the size of one `PATCH` body.
pub const OPS_PER_PATCH: usize = 16;
/// Share of match queries that name an entity in neither KB.
pub const MISS_SHARE: f64 = 0.10;

/// Base scale of each profile in the small-pair fleet.
pub const FLEET_PROFILES: [(DatasetKind, &str, f64); 4] = [
    (DatasetKind::Restaurant, "restaurant", 0.25),
    (DatasetKind::RexaDblp, "rexa", 0.08),
    (DatasetKind::BbcDbpedia, "bbc", 0.05),
    (DatasetKind::YagoImdb, "yago", 0.12),
];

/// One KB pair on disk, plus what the harness knows about it.
pub struct PairInput {
    pub name: String,
    pub kind: DatasetKind,
    pub gen_seed: u64,
    pub scale: f64,
    pub first: PathBuf,
    pub second: PathBuf,
    pub truth_path: PathBuf,
    /// Bytes of N-Triples in the two KB files.
    pub input_bytes: u64,
    pub truth: UriPairs,
}

fn path_json(path: &Path) -> Json {
    Json::str(path.to_string_lossy())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Generates one pair and renders it as `<name>.a.nt`, `<name>.b.nt`
/// and `<name>.truth.tsv` in `dir`.
pub fn render_pair(
    dir: &Path,
    name: &str,
    kind: DatasetKind,
    gen_seed: u64,
    scale: f64,
) -> Result<PairInput, String> {
    let g = layers::generate(kind, gen_seed, scale);
    let first = dir.join(format!("{name}.a.nt"));
    let second = dir.join(format!("{name}.b.nt"));
    let truth_path = dir.join(format!("{name}.truth.tsv"));
    write(&first, &g.first_nt)?;
    write(&second, &g.second_nt)?;
    let truth_tsv: String = g.truth.iter().map(|(a, b)| format!("{a}\t{b}\n")).collect();
    write(&truth_path, &truth_tsv)?;
    Ok(PairInput {
        name: name.to_string(),
        kind,
        gen_seed,
        scale,
        first,
        second,
        truth_path,
        input_bytes: (g.first_nt.len() + g.second_nt.len()) as u64,
        truth: g.truth,
    })
}

/// The one large Rexa-DBLP pair of `resolve_rexa`, `index_rexa` and
/// `serve_match`.
pub fn rexa(dir: &Path, seed: u64, sizing: Sizing) -> Result<PairInput, String> {
    render_pair(
        dir,
        "rexa",
        DatasetKind::RexaDblp,
        seed,
        BIG_SCALE * sizing.scale_mul,
    )
}

/// The relation-heavy YAGO-IMDb pair of `serve_churn`.
pub fn yago(dir: &Path, seed: u64, sizing: Sizing) -> Result<PairInput, String> {
    render_pair(
        dir,
        "yago",
        DatasetKind::YagoImdb,
        seed,
        BIG_SCALE * sizing.scale_mul,
    )
}

/// The small-pair fleet: per profile, `fleet_pairs_per_profile` pairs
/// with their own generation seed and a ±20% scale jitter, every pair
/// referenced `fleet_refs_per_pair` times under unique job names.
pub struct Fleet {
    pub pairs: Vec<PairInput>,
    pub manifest: PathBuf,
    /// Job names, in manifest order.
    pub job_names: Vec<String>,
    /// Index into `pairs` of each job, in manifest order.
    pub job_pair: Vec<usize>,
}

pub fn fleet(dir: &Path, seed: u64, sizing: Sizing) -> Result<Fleet, String> {
    let mut rng = SplitMix(seed ^ 0x0066_6c65_6574);
    let mut specs = Vec::new();
    for (kind, label, base) in FLEET_PROFILES {
        for i in 0..sizing.fleet_pairs_per_profile {
            let gen_seed = rng.next() >> 1;
            let scale = base * (0.8 + 0.4 * rng.unit());
            specs.push((format!("{label}-{i:02}"), kind, gen_seed, scale));
        }
    }
    // Generation is the harness's own work: spread it over the cores.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rendered: Vec<Result<PairInput, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let specs = &specs;
                scope.spawn(move || {
                    specs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % workers == w)
                        .map(|(i, (name, kind, gen_seed, scale))| {
                            (i, render_pair(dir, name, *kind, *gen_seed, *scale))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, Result<PairInput, String>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, pair)| pair).collect()
    });
    let pairs = rendered.into_iter().collect::<Result<Vec<_>, _>>()?;
    // Round-robin over the pairs, so neighbouring jobs differ in
    // profile and size the way a mixed tenant queue would.
    let mut jobs = Vec::new();
    let mut job_names = Vec::new();
    let mut job_pair = Vec::new();
    for r in 0..sizing.fleet_refs_per_pair {
        for (p, pair) in pairs.iter().enumerate() {
            let name = format!("{}-r{r:02}", pair.name);
            jobs.push(Json::obj([
                ("name", Json::str(&name)),
                ("first", path_json(&pair.first)),
                ("second", path_json(&pair.second)),
                ("truth", path_json(&pair.truth_path)),
            ]));
            job_names.push(name);
            job_pair.push(p);
        }
    }
    let manifest = dir.join("fleet.json");
    write(&manifest, &Json::obj([("jobs", Json::Arr(jobs))]).pretty())?;
    Ok(Fleet {
        pairs,
        manifest,
        job_names,
        job_pair,
    })
}

/// A one-job manifest over a single pair, for the in-process batch
/// replay of the single-pair workloads.
pub fn solo_manifest(dir: &Path, pair: &PairInput) -> Result<PathBuf, String> {
    let job = Json::obj([
        ("name", Json::str(&pair.name)),
        ("first", path_json(&pair.first)),
        ("second", path_json(&pair.second)),
    ]);
    let manifest = dir.join(format!("{}.solo.json", pair.name));
    write(&manifest, &Json::obj([("jobs", Json::arr([job]))]).pretty())?;
    Ok(manifest)
}

/// One match query: the entity to ask for and whether the daemon knows it.
pub struct Query {
    pub entity: String,
    pub known: bool,
}

/// The closed-loop query order of one connection: every ground-truth
/// entity of both KB sides, seed-shuffled, with unknown entities mixed
/// in at `miss_share`. Clients cycle through it.
pub fn query_mix(truth: &UriPairs, seed: u64, miss_share: f64) -> Vec<Query> {
    let mut rng = SplitMix(seed ^ 0x0071_7565_7279);
    let mut mix: Vec<Query> = truth
        .iter()
        .flat_map(|(a, b)| [a, b])
        .map(|uri| Query {
            entity: uri.clone(),
            known: true,
        })
        .collect();
    let misses = (mix.len() as f64 * miss_share / (1.0 - miss_share)).round() as usize;
    mix.extend((0..misses).map(|i| Query {
        entity: format!("urn:spine:absent:{i}"),
        known: false,
    }));
    rng.shuffle(&mut mix);
    mix
}

/// Seed of the delta streams, derived from `--seed`.
pub fn mutate_seed(seed: u64) -> u64 {
    SplitMix(seed ^ 0x6d75_7461_7465).next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mix_has_the_asked_miss_share_and_repeats_for_a_seed() {
        let truth: UriPairs = (0..450)
            .map(|i| (format!("a:{i}"), format!("b:{i}")))
            .collect();
        let mix = query_mix(&truth, 7, 0.10);
        let misses = mix.iter().filter(|q| !q.known).count();
        assert_eq!(mix.len(), 1000);
        assert_eq!(misses, 100);
        let order = |seed| -> Vec<String> {
            query_mix(&truth, seed, 0.10)
                .into_iter()
                .map(|q| q.entity)
                .collect()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        assert!(query_mix(&truth, 7, 0.0).iter().all(|q| q.known));
    }
}
