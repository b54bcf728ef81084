//! Regenerates the paper's Table I: dataset statistics.
//!
//! Usage: `repro_table1 [scale] [seed]`. The `paper` values quote the
//! real KB pairs; the `ours` values describe the synthetic analogues,
//! whose *relative* signature (size skew, schema scatter, token
//! verbosity) is the reproduced quantity — absolute counts are scaled
//! down by design (DESIGN.md §3).

use minoan_bench::{DEFAULT_SEED, PAPER_TABLE1};
use minoan_core::MinoanConfig;
use minoan_datagen::DatasetKind;
use minoan_eval::{scientific, Table};
use minoan_kb::{KbSide, KbStats};
use minoan_text::{TokenizedPair, Tokenizer};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(1.0);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(DEFAULT_SEED);
    println!("Table I — dataset statistics (seed {seed}, scale {scale})\n");

    let mut table = Table::new(&[
        "statistic",
        "Restaurant",
        "Rexa-DBLP",
        "BBCmusic-DBpedia",
        "YAGO-IMDb",
    ]);
    let mut rows: Vec<(String, Vec<String>)> = vec![
        ("E1 entities".into(), vec![]),
        ("E2 entities".into(), vec![]),
        ("E1 triples".into(), vec![]),
        ("E2 triples".into(), vec![]),
        ("E1 av. tokens".into(), vec![]),
        ("E2 av. tokens".into(), vec![]),
        ("E1/E2 attributes".into(), vec![]),
        ("E1/E2 relations".into(), vec![]),
        ("E1/E2 types".into(), vec![]),
        ("E1/E2 vocab.".into(), vec![]),
        ("Matches".into(), vec![]),
    ];
    let exec = MinoanConfig::default().executor();
    let datasets: Vec<_> = DatasetKind::ALL
        .iter()
        .map(|&k| k.generate_scaled(seed, scale))
        .collect();
    for (i, d) in datasets.iter().enumerate() {
        let s1 = KbStats::compute(&d.pair.first);
        let s2 = KbStats::compute(&d.pair.second);
        let tokens = TokenizedPair::build_with(&d.pair, &Tokenizer::default(), &exec);
        let p = &PAPER_TABLE1[i];
        let fmt2 = |ours: String, paper: String| format!("{ours} (paper {paper})");
        rows[0].1.push(fmt2(
            s1.entities.to_string(),
            scientific(p.entities.0 as u128),
        ));
        rows[1].1.push(fmt2(
            s2.entities.to_string(),
            scientific(p.entities.1 as u128),
        ));
        rows[2].1.push(fmt2(
            s1.triples.to_string(),
            scientific(p.triples.0 as u128),
        ));
        rows[3].1.push(fmt2(
            s2.triples.to_string(),
            scientific(p.triples.1 as u128),
        ));
        rows[4].1.push(fmt2(
            format!("{:.1}", tokens.avg_tokens(KbSide::First)),
            format!("{:.1}", p.avg_tokens.0),
        ));
        rows[5].1.push(fmt2(
            format!("{:.1}", tokens.avg_tokens(KbSide::Second)),
            format!("{:.1}", p.avg_tokens.1),
        ));
        rows[6].1.push(fmt2(
            format!("{}/{}", s1.attributes, s2.attributes),
            format!("{}/{}", p.attributes.0, p.attributes.1),
        ));
        rows[7].1.push(fmt2(
            format!("{}/{}", s1.relations, s2.relations),
            format!("{}/{}", p.relations.0, p.relations.1),
        ));
        rows[8].1.push(fmt2(
            format!("{}/{}", s1.types, s2.types),
            format!("{}/{}", p.types.0, p.types.1),
        ));
        rows[9].1.push(fmt2(
            format!("{}/{}", s1.vocabularies, s2.vocabularies),
            format!("{}/{}", p.vocabularies.0, p.vocabularies.1),
        ));
        rows[10].1.push(fmt2(
            d.truth.len().to_string(),
            scientific(p.matches as u128),
        ));
    }
    for (label, cells) in rows {
        let mut row = vec![label];
        row.extend(cells);
        table.row(&row);
    }
    println!("{}", table.render());

    // Signature checks: the relative shapes Table I is quoted for.
    let mut ok = true;
    let mut check = |name: &str, pass: bool| {
        println!("  [{}] {name}", if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    };
    check(
        "Restaurant & Rexa-DBLP: E2 much larger than E1",
        datasets[0].pair.second.entity_count() > 3 * datasets[0].pair.first.entity_count()
            && datasets[1].pair.second.entity_count() > 3 * datasets[1].pair.first.entity_count(),
    );
    check(
        "BBCmusic-DBpedia: DBpedia side has a far larger schema",
        datasets[2].pair.second.attr_count() > 10 * datasets[2].pair.first.attr_count(),
    );
    let t2 = TokenizedPair::build_with(&datasets[2].pair, &Tokenizer::default(), &exec);
    check(
        "BBCmusic-DBpedia: DBpedia descriptions are far more verbose",
        t2.avg_tokens(KbSide::Second) > 2.0 * t2.avg_tokens(KbSide::First),
    );
    let t3 = TokenizedPair::build_with(&datasets[3].pair, &Tokenizer::default(), &exec);
    check(
        "YAGO-IMDb: terse descriptions on both sides",
        t3.avg_tokens(KbSide::First) < 25.0 && t3.avg_tokens(KbSide::Second) < 25.0,
    );
    std::process::exit(if ok { 0 } else { 1 });
}
