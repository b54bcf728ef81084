//! Cross-crate integration tests: the full pipeline over generated
//! datasets, the paper's qualitative claims at test scale, and the
//! interplay of blocking, similarity and matching.

use minoaner::baselines::{run_paris, run_sigma, ParisConfig, SigmaConfig};
use minoaner::blocking::{block_metrics, unique_name_pairs};
use minoaner::core::{build_blocks, MinoanConfig, MinoanEr};
use minoaner::datagen::DatasetKind;
use minoaner::eval::MatchQuality;
use minoaner::exec::Executor;
use minoaner::kb::KbStats;
use minoaner::text::{TokenizedPair, Tokenizer};

const SEED: u64 = 20180416;
const SCALE: f64 = 0.15;

#[test]
fn minoaner_resolves_every_benchmark_profile_decently() {
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, SCALE);
        let out = MinoanEr::with_defaults().run_with(&d.pair, &Executor::default());
        let q = MatchQuality::evaluate(&out.matching, &d.truth);
        assert!(
            q.f1() > 0.6,
            "{}: F1 {:.3} too low (P {:.3} R {:.3})",
            d.name,
            q.f1(),
            q.precision(),
            q.recall()
        );
    }
}

#[test]
fn restaurant_is_solved_perfectly() {
    let d = DatasetKind::Restaurant.generate_scaled(SEED, 0.5);
    let out = MinoanEr::with_defaults().run_with(&d.pair, &Executor::default());
    let q = MatchQuality::evaluate(&out.matching, &d.truth);
    assert!(q.f1() > 0.99, "F1 {:.3}", q.f1());
}

#[test]
fn blocking_recall_is_high_and_comparisons_are_bounded() {
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, SCALE);
        let art = build_blocks(&d.pair, &MinoanConfig::default(), &Executor::default());
        let m = block_metrics(&[&art.name_blocks, &art.token_blocks], &d.truth);
        assert!(
            m.recall() > 0.97,
            "{}: block recall {:.3}",
            d.name,
            m.recall()
        );
        let total = art.name_blocks.total_comparisons() + art.token_blocks.total_comparisons();
        assert!(
            (total as f64) < d.pair.cartesian_comparisons() as f64,
            "{}: blocking must beat brute force",
            d.name
        );
    }
}

#[test]
fn purging_preserves_almost_all_block_recall() {
    let d = DatasetKind::RexaDblp.generate_scaled(SEED, SCALE);
    let unpurged = build_blocks(
        &d.pair,
        &MinoanConfig {
            purge_blocks: false,
            ..Default::default()
        },
        &Executor::default(),
    );
    let purged = build_blocks(&d.pair, &MinoanConfig::default(), &Executor::default());
    let r_un = block_metrics(&[&unpurged.token_blocks], &d.truth).recall();
    let r_pu = block_metrics(&[&purged.token_blocks], &d.truth).recall();
    assert!(
        r_un - r_pu < 0.02,
        "purging lost too much recall: {r_un:.3} -> {r_pu:.3}"
    );
    assert!(purged.token_blocks.total_comparisons() <= unpurged.token_blocks.total_comparisons());
}

#[test]
fn heuristics_decompose_additively() {
    let d = DatasetKind::BbcDbpedia.generate_scaled(SEED, SCALE);
    let out = MinoanEr::with_defaults().run_with(&d.pair, &Executor::default());
    let r = &out.report;
    assert_eq!(
        out.matching.len() + r.h4_removed,
        r.h1_matches + r.h2_matches + r.h3_matches,
        "H1+H2+H3 minus H4 removals must equal the final matching"
    );
}

#[test]
fn name_matches_survive_formatting_differences() {
    // H1 keys on the token sequence, so punctuation-decorated labels
    // (DBpedia style) still match.
    let d = DatasetKind::BbcDbpedia.generate_scaled(SEED, SCALE);
    let art = build_blocks(&d.pair, &MinoanConfig::default(), &Executor::default());
    let h1 = unique_name_pairs(&art.name_blocks);
    let correct = h1.iter().filter(|&&(a, b)| d.truth.contains(a, b)).count();
    assert!(
        correct * 10 >= h1.len() * 7,
        "H1 precision collapsed: {correct}/{}",
        h1.len()
    );
    assert!(correct > 0, "H1 found nothing despite exact names");
}

#[test]
fn sigma_and_paris_run_end_to_end() {
    let d = DatasetKind::Restaurant.generate_scaled(SEED, 0.3);
    let art = build_blocks(&d.pair, &MinoanConfig::default(), &Executor::default());
    let seeds = unique_name_pairs(&art.name_blocks);
    let sigma = run_sigma(
        &d.pair,
        &art.tokens,
        &art.token_blocks,
        &seeds,
        SigmaConfig::default(),
    );
    assert!(MatchQuality::evaluate(&sigma, &d.truth).f1() > 0.9);
    let paris = run_paris(&d.pair, ParisConfig::default());
    assert!(MatchQuality::evaluate(&paris, &d.truth).f1() > 0.9);
    assert!(sigma.is_partial_matching());
    assert!(paris.is_partial_matching());
}

#[test]
fn dataset_statistics_have_the_papers_signature() {
    let bbc = DatasetKind::BbcDbpedia.generate_scaled(SEED, SCALE);
    let s1 = KbStats::compute(&bbc.pair.first);
    let s2 = KbStats::compute(&bbc.pair.second);
    assert!(
        s2.attributes > 5 * s1.attributes,
        "DBpedia schema must be scattered"
    );
    let tokens = TokenizedPair::build_with(&bbc.pair, &Tokenizer::default(), &Executor::default());
    assert!(
        tokens.avg_tokens(minoaner::kb::KbSide::Second)
            > 1.5 * tokens.avg_tokens(minoaner::kb::KbSide::First)
    );
}

#[test]
fn matching_is_deterministic_across_runs() {
    let d = DatasetKind::YagoImdb.generate_scaled(SEED, SCALE);
    let a = MinoanEr::with_defaults().run_with(&d.pair, &Executor::default());
    let b = MinoanEr::with_defaults().run_with(&d.pair, &Executor::default());
    let pa: Vec<_> = a.matching.iter().collect();
    let pb: Vec<_> = b.matching.iter().collect();
    assert_eq!(pa, pb);
}

#[test]
fn theta_extremes_are_worse_than_default_on_relational_data() {
    let d = DatasetKind::YagoImdb.generate_scaled(SEED, SCALE);
    let default = MinoanEr::with_defaults().run_with(&d.pair, &Executor::default());
    let f_default = MatchQuality::evaluate(&default.matching, &d.truth).f1();
    let values_only = MinoanEr::new(MinoanConfig {
        theta: 0.99,
        ..Default::default()
    })
    .unwrap()
    .run_with(&d.pair, &Executor::default());
    let f_values = MatchQuality::evaluate(&values_only.matching, &d.truth).f1();
    assert!(
        f_default >= f_values,
        "neighbor evidence must help on YAGO-IMDb: {f_default:.3} vs values-only {f_values:.3}"
    );
}
