//! Regenerates the paper's Table II: block statistics.
//!
//! Usage: `repro_table2 [scale] [seed]`. Reports `|BN|`, `|BT|`,
//! `||BN||`, `||BT||`, the Cartesian comparison count and the block-level
//! precision/recall/F1 for every dataset, plus the §III complexity
//! claims: blocking undercuts brute force while keeping recall above
//! 99%, and purging only ever removes comparisons. (The paper's "2
//! orders of magnitude" margin is a full-scale property: real vocabulary
//! grows with corpus size, while the synthetic profiles use fixed pools,
//! so the margin shrinks at reduced scale — see EXPERIMENTS.md.)

use minoan_bench::{DEFAULT_SEED, PAPER_TABLE2};
use minoan_blocking::block_metrics;
use minoan_core::{build_blocks, MinoanConfig};
use minoan_datagen::DatasetKind;
use minoan_eval::{scientific, Table};

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
    println!("Table II — block statistics (seed {seed}, scale {scale})\n");

    let config = MinoanConfig::default();
    let mut table = Table::new(&[
        "statistic",
        "Restaurant",
        "Rexa-DBLP",
        "BBCmusic-DBpedia",
        "YAGO-IMDb",
    ]);
    let mut rows: Vec<(&str, Vec<String>)> = vec![
        ("|BN|", vec![]),
        ("|BT|", vec![]),
        ("||BN||", vec![]),
        ("||BT||", vec![]),
        ("|E1|*|E2|", vec![]),
        ("Precision %", vec![]),
        ("Recall %", vec![]),
        ("F1 %", vec![]),
    ];
    let mut ok = true;
    let mut claims: Vec<(String, bool)> = Vec::new();
    for (i, kind) in DatasetKind::ALL.into_iter().enumerate() {
        let d = kind.generate_scaled(seed, scale);
        let art = build_blocks(&d.pair, &config, &config.executor());
        let bn = &art.name_blocks;
        let bt = &art.token_blocks;
        let m = block_metrics(&[bn, bt], &d.truth);
        let p = &PAPER_TABLE2[i];
        let fmt2 = |ours: String, paper: String| format!("{ours} (paper {paper})");
        rows[0]
            .1
            .push(fmt2(bn.len().to_string(), scientific(p.bn_blocks as u128)));
        rows[1]
            .1
            .push(fmt2(bt.len().to_string(), scientific(p.bt_blocks as u128)));
        rows[2].1.push(fmt2(
            scientific(bn.total_comparisons() as u128),
            scientific(p.bn_comparisons as u128),
        ));
        rows[3].1.push(fmt2(
            scientific(bt.total_comparisons() as u128),
            scientific(p.bt_comparisons as u128),
        ));
        rows[4].1.push(fmt2(
            scientific(d.pair.cartesian_comparisons()),
            scientific(p.cartesian as u128),
        ));
        rows[5].1.push(fmt2(
            format!("{:.2}", m.precision() * 100.0),
            format!("{:.2}", p.precision),
        ));
        rows[6].1.push(fmt2(
            format!("{:.2}", m.recall() * 100.0),
            format!("{:.2}", p.recall),
        ));
        rows[7].1.push(fmt2(
            format!("{:.2}", m.f1() * 100.0),
            format!("{:.2}", p.f1),
        ));
        // §III complexity claims, per dataset.
        let total = bn.total_comparisons() + bt.total_comparisons();
        let factor = d.pair.cartesian_comparisons() as f64 / total.max(1) as f64;
        claims.push((
            format!(
                "{}: blocking undercuts brute force ({} vs {}, factor {:.1}x)",
                kind.name(),
                scientific(total as u128),
                scientific(d.pair.cartesian_comparisons()),
                factor,
            ),
            factor > 1.0,
        ));
        claims.push((
            format!("{}: block recall > 99%", kind.name()),
            m.recall() > 0.99,
        ));
        if let Some(purge) = &art.purge {
            claims.push((
                format!(
                    "{}: purging never increases comparisons ({} -> {})",
                    kind.name(),
                    scientific(purge.comparisons_before as u128),
                    scientific(purge.comparisons_after as u128),
                ),
                purge.comparisons_after <= purge.comparisons_before,
            ));
        }
    }
    for (label, cells) in rows {
        let mut row = vec![label.to_string()];
        row.extend(cells);
        table.row(&row);
    }
    println!("{}", table.render());
    println!("Complexity claims (paper §III):");
    for (name, pass) in &claims {
        println!("  [{}] {name}", if *pass { "PASS" } else { "FAIL" });
        ok &= *pass;
    }
    std::process::exit(if ok { 0 } else { 1 });
}
