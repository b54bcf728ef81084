//! Parameter ablations for the paper's robustness claim (§IV): the
//! configuration `K=15, N=3, k=2, θ=0.6` "yields robust performance
//! across all datasets".
//!
//! Usage: `ablation_params [scale] [seed] [dataset]` — sweeps each
//! parameter around its default and prints MinoanER's F1, plus a
//! purging on/off ablation.

use minoan_core::{MinoanConfig, MinoanEr};
use minoan_datagen::{Dataset, DatasetKind};
use minoan_eval::{MatchQuality, Table};

fn f1(d: &Dataset, config: MinoanConfig) -> f64 {
    let exec = config.executor();
    let out = MinoanEr::new(config)
        .expect("valid config")
        .run_with(&d.pair, &exec);
    MatchQuality::evaluate(&out.matching, &d.truth).f1()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.3);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(minoan_bench::DEFAULT_SEED);
    let kinds: Vec<DatasetKind> = match args.next().as_deref() {
        Some("restaurant") => vec![DatasetKind::Restaurant],
        Some("rexa") => vec![DatasetKind::RexaDblp],
        Some("bbc") => vec![DatasetKind::BbcDbpedia],
        Some("yago") => vec![DatasetKind::YagoImdb],
        _ => DatasetKind::ALL.to_vec(),
    };
    println!("Parameter ablations (seed {seed}, scale {scale})\n");
    let datasets: Vec<Dataset> = kinds
        .iter()
        .map(|k| k.generate_scaled(seed, scale))
        .collect();
    let headers: Vec<&str> = std::iter::once("configuration")
        .chain(datasets.iter().map(|d| d.name.as_str()))
        .collect();
    let mut table = Table::new(&headers);
    let row = |label: String, make: &dyn Fn() -> MinoanConfig, t: &mut Table, ds: &[Dataset]| {
        let mut cells = vec![label];
        for d in ds {
            cells.push(format!("{:.1}", f1(d, make()) * 100.0));
        }
        t.row(&cells);
    };

    row(
        "default (K=15,N=3,k=2,th=0.6)".into(),
        &MinoanConfig::default,
        &mut table,
        &datasets,
    );
    table.separator();
    for theta in [0.2, 0.4, 0.6, 0.8] {
        row(
            format!("theta={theta}"),
            &move || MinoanConfig {
                theta,
                ..Default::default()
            },
            &mut table,
            &datasets,
        );
    }
    table.separator();
    for k in [1, 5, 15, 30] {
        row(
            format!("K={k}"),
            &move || MinoanConfig {
                candidates_k: k,
                ..Default::default()
            },
            &mut table,
            &datasets,
        );
    }
    table.separator();
    for n in [1, 3, 5] {
        row(
            format!("N={n}"),
            &move || MinoanConfig {
                top_relations_n: n,
                ..Default::default()
            },
            &mut table,
            &datasets,
        );
    }
    table.separator();
    for name_k in [1, 2, 4] {
        row(
            format!("k={name_k}"),
            &move || MinoanConfig {
                name_attrs_k: name_k,
                ..Default::default()
            },
            &mut table,
            &datasets,
        );
    }
    table.separator();
    row(
        "purging off".into(),
        &|| MinoanConfig {
            purge_blocks: false,
            ..Default::default()
        },
        &mut table,
        &datasets,
    );
    println!("{}", table.render());
}
