//! Resolving highly heterogeneous Web KBs — the scenario the paper's
//! introduction motivates.
//!
//! Generates the BBCmusic–DBpedia analogue (extreme schema heterogeneity:
//! one side scatters its attributes over dozens of predicate names and
//! buries values in verbose abstracts), runs MinoanER and the value-only
//! BSL baseline, and shows why names + neighbors beat values alone.
//!
//! Run with `cargo run --release --example web_kbs`.

use minoaner::baselines::run_bsl;
use minoaner::core::{build_blocks, MinoanConfig, MinoanEr};
use minoaner::datagen::DatasetKind;
use minoaner::eval::MatchQuality;
use minoaner::exec::Executor;

fn main() {
    let d = DatasetKind::BbcDbpedia.generate_scaled(42, 0.2);
    println!(
        "{}: |E1|={} ({} attrs), |E2|={} ({} attrs), {} ground-truth matches",
        d.name,
        d.pair.first.entity_count(),
        d.pair.first.attr_count(),
        d.pair.second.entity_count(),
        d.pair.second.attr_count(),
        d.truth.len()
    );

    let exec = Executor::default();
    let out = MinoanEr::with_defaults().run_with(&d.pair, &exec);
    let q = MatchQuality::evaluate(&out.matching, &d.truth);
    println!(
        "MinoanER   P {:5.1}%  R {:5.1}%  F1 {:5.1}%   (H1 {} / H2 {} / H3 {} / H4 -{})",
        q.precision() * 100.0,
        q.recall() * 100.0,
        q.f1() * 100.0,
        out.report.h1_matches,
        out.report.h2_matches,
        out.report.h3_matches,
        out.report.h4_removed
    );

    // BSL gets the same blocks but only value similarity — and an oracle
    // picking its best of 480 configurations.
    let art = build_blocks(&d.pair, &MinoanConfig::default(), &exec);
    let bsl = run_bsl(
        &d.pair.first,
        &d.pair.second,
        &[&art.name_blocks, &art.token_blocks],
        &d.truth,
    );
    println!(
        "BSL        P {:5.1}%  R {:5.1}%  F1 {:5.1}%   (best of {} configs: {})",
        bsl.quality.precision() * 100.0,
        bsl.quality.recall() * 100.0,
        bsl.quality.f1() * 100.0,
        bsl.configs_evaluated,
        bsl.config
    );
    println!("\nEven oracle-tuned value similarity cannot resolve homonym artists;");
    println!("MinoanER's neighbor evidence (birthplaces, collaborations) can.");
}
