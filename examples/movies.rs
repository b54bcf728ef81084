//! Movie deduplication across catalogs — the YAGO–IMDb scenario: near-
//! zero value overlap, distinctive names, strong relational structure
//! (casts and directors).
//!
//! Shows the per-heuristic anatomy of the matching process and the
//! effect of the reciprocity filter H4.
//!
//! Run with `cargo run --release --example movies`.

use minoaner::core::{MinoanConfig, MinoanEr};
use minoaner::datagen::DatasetKind;
use minoaner::eval::MatchQuality;
use minoaner::exec::Executor;

fn main() {
    let d = DatasetKind::YagoImdb.generate_scaled(42, 0.2);
    println!(
        "{}: |E1|={} |E2|={} ground truth {}",
        d.name,
        d.pair.first.entity_count(),
        d.pair.second.entity_count(),
        d.truth.len()
    );

    // Default configuration (K=15, N=3, k=2, theta=0.6).
    let exec = Executor::default();
    let out = MinoanEr::with_defaults().run_with(&d.pair, &exec);
    let q = MatchQuality::evaluate(&out.matching, &d.truth);
    println!(
        "MinoanER defaults:     P {:5.1}%  R {:5.1}%  F1 {:5.1}%",
        q.precision() * 100.0,
        q.recall() * 100.0,
        q.f1() * 100.0
    );
    println!(
        "  heuristics: H1(names)={} H2(values)={} H3(rank aggregation)={} H4 removed {}",
        out.report.h1_matches, out.report.h2_matches, out.report.h3_matches, out.report.h4_removed
    );
    println!(
        "  blocks: |BN|={} (||BN||={}), |BT|={} (||BT||={})",
        out.report.name_blocks,
        out.report.name_comparisons,
        out.report.token_blocks,
        out.report.token_comparisons
    );

    // Value evidence alone (theta ~ 1) collapses on this dataset: the
    // matches share almost no tokens. Neighbor evidence is what works.
    let value_heavy = MinoanEr::new(MinoanConfig {
        theta: 0.99,
        ..Default::default()
    })
    .expect("valid config")
    .run_with(&d.pair, &exec);
    let qv = MatchQuality::evaluate(&value_heavy.matching, &d.truth);
    let neighbor_heavy = MinoanEr::new(MinoanConfig {
        theta: 0.01,
        ..Default::default()
    })
    .expect("valid config")
    .run_with(&d.pair, &exec);
    let qn = MatchQuality::evaluate(&neighbor_heavy.matching, &d.truth);
    println!("theta=0.99 (values):   F1 {:5.1}%", qv.f1() * 100.0);
    println!("theta=0.01 (neighbors): F1 {:5.1}%", qn.f1() * 100.0);
}
