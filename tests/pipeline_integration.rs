//! Cross-crate integration tests: the full pipeline over generated
//! datasets, the paper's qualitative claims, and the interplay of
//! blocking, similarity and matching.
//!
//! This file is the one place the paper's evidence is asserted: the
//! dataset signatures of Table I, the block statistics of Table II, the
//! paper-method F1 and H1–H4 counts of MinoanER, and the shape of
//! Table III against SiGMa, PARIS and BSL, all on seed [`SEED`] at ×1,
//! the scale the claims are made at. Each table test prints its table,
//! the paper's numbers beside ours, under `--nocapture`:
//!
//! ```text
//! cargo test --release --test pipeline_integration -- --nocapture
//! ```
//!
//! The Table III baselines on Rexa-DBLP, BBCmusic-DBpedia and YAGO-IMDb
//! take about a minute of optimised CPU, so that test runs in release
//! builds only; every other ×1 check runs in debug too.

use std::sync::OnceLock;

use minoaner::baselines::{run_bsl, run_paris, run_sigma, ParisConfig, SigmaConfig};
use minoaner::blocking::{block_metrics, unique_name_pairs};
use minoaner::core::{build_blocks, BlockingArtifacts, MinoanConfig, MinoanEr};
use minoaner::datagen::{Dataset, DatasetKind};
use minoaner::eval::paper::{PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3};
use minoaner::eval::{scientific, MatchQuality, Table};
use minoaner::exec::Executor;
use minoaner::kb::{KbSide, KbStats, Matching};
use minoaner::text::{TokenizedPair, Tokenizer};

/// ICDE 2018 started April 16.
const SEED: u64 = 20180416;
/// The scale of the tests that check mechanics rather than the paper.
const SCALE: f64 = 0.15;

/// The profile at ×1, generated once for every test that reads it.
fn paper_scale(kind: DatasetKind) -> &'static Dataset {
    static SETS: [OnceLock<Dataset>; 4] = [const { OnceLock::new() }; 4];
    let i = DatasetKind::ALL.iter().position(|&k| k == kind).unwrap();
    SETS[i].get_or_init(|| kind.generate_scaled(SEED, 1.0))
}

/// `BN` and `BT` of a pair, built on one thread.
fn blocks(d: &Dataset) -> BlockingArtifacts {
    build_blocks(&d.pair, &MinoanConfig::default(), &Executor::sequential())
}

/// The matching one re-run Table III method finds on `d`.
fn matching(method: &str, d: &Dataset) -> Matching {
    match method {
        "MinoanER" => {
            MinoanEr::with_defaults()
                .run_with(&d.pair, &Executor::sequential())
                .matching
        }
        "SiGMa" => {
            let art = blocks(d);
            let seeds = unique_name_pairs(&art.name_blocks);
            let config = SigmaConfig::default();
            run_sigma(&d.pair, &art.tokens, &art.token_blocks, &seeds, config)
        }
        "PARIS" => run_paris(&d.pair, ParisConfig::default()),
        // Oracle-tuned over the same BN ∪ BT input as MinoanER.
        "BSL" => {
            let art = blocks(d);
            let input = [&art.name_blocks, &art.token_blocks];
            run_bsl(&d.pair.first, &d.pair.second, &input, &d.truth).matching
        }
        other => panic!("{other} is not re-run here"),
    }
}

/// The paper-method (§IV) quality of one re-run Table III method on `d`.
fn quality(method: &str, d: &Dataset) -> MatchQuality {
    MatchQuality::evaluate(&matching(method, d), &d.truth)
}

/// Prints `table` and every claim as PASS/FAIL, then fails the test
/// naming the claims that did not hold.
fn assert_claims(title: &str, table: &Table, claims: &[(String, bool)]) {
    println!("{title}\n\n{}", table.render());
    for (claim, pass) in claims {
        println!("  [{}] {claim}", if *pass { "PASS" } else { "FAIL" });
    }
    let failed: Vec<_> = claims.iter().filter(|(_, pass)| !pass).collect();
    assert!(failed.is_empty(), "{title}: failed {failed:?}");
}

/// `ours (paper theirs)`, one cell of a paper-beside-ours table.
fn cell(ours: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{ours} (paper {paper})")
}

/// A table whose columns are the four profiles after a `first` column.
fn profile_table(first: &[&str]) -> Table {
    Table::new(&[first, &DatasetKind::ALL.map(DatasetKind::name)].concat())
}

/// A statistic-per-row table, `columns[p][i]` being profile `p`'s cell
/// in the row labelled `labels[i]`.
fn statistics_table(labels: &[&str], columns: &[Vec<String>]) -> Table {
    let mut table = profile_table(&["statistic"]);
    for (i, label) in labels.iter().enumerate() {
        let mut row = vec![label.to_string()];
        row.extend(columns.iter().map(|column| column[i].clone()));
        table.row(&row);
    }
    table
}

/// `a/b`, a per-side pair of Table I.
fn slash(a: impl std::fmt::Display, b: impl std::fmt::Display) -> String {
    format!("{a}/{b}")
}

#[test]
fn dataset_statistics_have_the_papers_signature() {
    let sets = DatasetKind::ALL.map(paper_scale);
    let mut columns = Vec::new();
    let mut avg_tokens = Vec::new();
    for (d, p) in sets.iter().zip(&PAPER_TABLE1) {
        let s1 = KbStats::compute(&d.pair.first);
        let s2 = KbStats::compute(&d.pair.second);
        let t = TokenizedPair::build_with(&d.pair, &Tokenizer::default(), &Executor::sequential());
        let tok = (t.avg_tokens(KbSide::First), t.avg_tokens(KbSide::Second));
        let sci = |v: u64| scientific(v.into());
        columns.push(vec![
            cell(s1.entities, sci(p.entities.0)),
            cell(s2.entities, sci(p.entities.1)),
            cell(s1.triples, sci(p.triples.0)),
            cell(s2.triples, sci(p.triples.1)),
            cell(format!("{:.1}", tok.0), format!("{:.1}", p.avg_tokens.0)),
            cell(format!("{:.1}", tok.1), format!("{:.1}", p.avg_tokens.1)),
            cell(
                slash(s1.attributes, s2.attributes),
                slash(p.attributes.0, p.attributes.1),
            ),
            cell(
                slash(s1.relations, s2.relations),
                slash(p.relations.0, p.relations.1),
            ),
            cell(slash(s1.types, s2.types), slash(p.types.0, p.types.1)),
            cell(
                slash(s1.vocabularies, s2.vocabularies),
                slash(p.vocabularies.0, p.vocabularies.1),
            ),
            cell(d.truth.len(), sci(p.matches)),
        ]);
        avg_tokens.push(tok);
    }
    let table = statistics_table(
        &[
            "E1 entities",
            "E2 entities",
            "E1 triples",
            "E2 triples",
            "E1 av. tokens",
            "E2 av. tokens",
            "E1/E2 attributes",
            "E1/E2 relations",
            "E1/E2 types",
            "E1/E2 vocab.",
            "Matches",
        ],
        &columns,
    );

    let entities = |d: &Dataset| (d.pair.first.entity_count(), d.pair.second.entity_count());
    let skewed = |d: &Dataset| entities(d).1 > 3 * entities(d).0;
    let [restaurant, rexa, bbc, _] = sets;
    let (bbc_tok, yago_tok) = (avg_tokens[2], avg_tokens[3]);
    assert_claims(
        &format!("Table I — dataset statistics (seed {SEED}, scale 1)"),
        &table,
        &[
            (
                "Restaurant & Rexa-DBLP: E2 much larger than E1".into(),
                skewed(restaurant) && skewed(rexa),
            ),
            (
                "BBCmusic-DBpedia: DBpedia side has a far larger schema".into(),
                bbc.pair.second.attr_count() > 10 * bbc.pair.first.attr_count(),
            ),
            (
                "BBCmusic-DBpedia: DBpedia descriptions are far more verbose".into(),
                bbc_tok.1 > 2.0 * bbc_tok.0,
            ),
            (
                "YAGO-IMDb: terse descriptions on both sides".into(),
                yago_tok.0 < 25.0 && yago_tok.1 < 25.0,
            ),
        ],
    );
}

#[test]
fn blocking_recall_is_high_and_comparisons_are_bounded() {
    let mut columns = Vec::new();
    let mut claims = Vec::new();
    for (kind, p) in DatasetKind::ALL.into_iter().zip(&PAPER_TABLE2) {
        let d = paper_scale(kind);
        let art = blocks(d);
        let (bn, bt) = (&art.name_blocks, &art.token_blocks);
        let m = block_metrics(&[bn, bt], &d.truth);
        let sci = |v: f64| scientific(v as u128);
        let pct = |v: f64| format!("{v:.2}");
        columns.push(vec![
            cell(bn.len(), sci(p.bn_blocks)),
            cell(bt.len(), sci(p.bt_blocks)),
            cell(
                scientific(bn.total_comparisons().into()),
                sci(p.bn_comparisons),
            ),
            cell(
                scientific(bt.total_comparisons().into()),
                sci(p.bt_comparisons),
            ),
            cell(scientific(d.pair.cartesian_comparisons()), sci(p.cartesian)),
            cell(pct(m.precision() * 100.0), pct(p.precision)),
            cell(pct(m.recall() * 100.0), pct(p.recall)),
            cell(pct(m.f1() * 100.0), pct(p.f1)),
        ]);

        // §III complexity claims, per profile.
        let total = bn.total_comparisons() + bt.total_comparisons();
        let cartesian = d.pair.cartesian_comparisons();
        claims.push((
            format!(
                "{}: blocking undercuts brute force ({} vs {}, factor {:.1}x)",
                kind.name(),
                scientific(total.into()),
                scientific(cartesian),
                cartesian as f64 / total.max(1) as f64,
            ),
            u128::from(total) < cartesian,
        ));
        claims.push((
            format!("{}: block recall > 99%", kind.name()),
            m.recall() > 0.99,
        ));
        let purge = art.purge.as_ref().expect("the default config purges");
        claims.push((
            format!(
                "{}: purging never increases comparisons ({} -> {})",
                kind.name(),
                scientific(purge.comparisons_before.into()),
                scientific(purge.comparisons_after.into()),
            ),
            purge.comparisons_after <= purge.comparisons_before,
        ));
    }
    let table = statistics_table(
        &[
            "|BN|",
            "|BT|",
            "||BN||",
            "||BT||",
            "|E1|*|E2|",
            "Precision %",
            "Recall %",
            "F1 %",
        ],
        &columns,
    );
    assert_claims(
        &format!("Table II — block statistics (seed {SEED}, scale 1)"),
        &table,
        &claims,
    );
}

#[test]
fn minoaner_resolves_every_benchmark_profile_decently() {
    // Paper-method F1 floors just under the measured ×1 values (paper:
    // 100 / 96.04 / 89.97 / 90.79), and the exact H1, H2, H3 and
    // H4-removed counts. At ×1 every profile has candidate rows longer
    // than MAX_CANDIDATES (128), so the counts pin the matching where
    // rows are stored ranked, not sorted; the golden inputs of
    // executor_equivalence (×0.1) have none on Restaurant or YAGO-IMDb.
    let expected = [
        (DatasetKind::Restaurant, 1.000, [87, 107, 36, 0]),
        (DatasetKind::RexaDblp, 0.928, [414, 99, 417, 1]),
        (DatasetKind::BbcDbpedia, 0.826, [339, 690, 831, 34]),
        (DatasetKind::YagoImdb, 0.934, [175, 42, 1703, 7]),
    ];
    let mut table = Table::new(&[
        "profile",
        "P %",
        "R %",
        "F1 %",
        "floor %",
        "H1/H2/H3/H4-removed",
    ]);
    let mut claims = Vec::new();
    for (kind, floor, counts) in expected {
        let d = paper_scale(kind);
        let out = MinoanEr::with_defaults().run_with(&d.pair, &Executor::sequential());
        let q = MatchQuality::evaluate(&out.matching, &d.truth);
        let r = &out.report;
        let got = [r.h1_matches, r.h2_matches, r.h3_matches, r.h4_removed];
        let pct = |v: f64| format!("{:.2}", v * 100.0);
        table.row(&[
            d.name.clone(),
            pct(q.precision()),
            pct(q.recall()),
            pct(q.f1()),
            pct(floor),
            got.map(|c| c.to_string()).join("/"),
        ]);
        claims.push((
            format!("{}: F1 {:.6} >= {floor}", d.name, q.f1()),
            q.f1() >= floor,
        ));
        claims.push((
            format!("{}: H1-H4 counts {got:?} == {counts:?}", d.name),
            got == counts,
        ));
    }
    assert_claims(
        &format!("MinoanER (seed {SEED}, scale 1, sequential)"),
        &table,
        &claims,
    );
}

#[test]
fn restaurant_is_solved_perfectly() {
    let d = paper_scale(DatasetKind::Restaurant);
    for method in ["MinoanER", "BSL"] {
        let f1 = quality(method, d).f1();
        assert!(f1 > 0.99, "Restaurant: {method} F1 {f1:.3}, paper 1.0");
    }
}

#[test]
fn sigma_and_paris_run_end_to_end() {
    let d = paper_scale(DatasetKind::Restaurant);
    for method in ["SiGMa", "PARIS"] {
        let found = matching(method, d);
        assert!(found.is_partial_matching(), "{method}: not 1-1");
        let f1 = MatchQuality::evaluate(&found, &d.truth).f1();
        assert!(
            f1 > 0.99,
            "Restaurant: {method} F1 {f1:.3}, paper 0.97/0.91"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the baselines at scale 1 take minutes unoptimised; run with --release"
)]
fn minoaner_beats_the_baselines_where_the_paper_says() {
    let sets = DatasetKind::ALL.map(paper_scale);
    let methods = ["SiGMa", "PARIS", "BSL", "MinoanER"];
    // qualities[method][profile], in `methods` × `DatasetKind::ALL` order.
    let qualities = methods.map(|m| sets.map(|d| quality(m, d)));
    let f1 = |method: &str, profile: usize| {
        let m = methods.iter().position(|&x| x == method).unwrap();
        qualities[m][profile].f1()
    };

    let mut table = profile_table(&["method", "metric"]);
    let metrics = ["Prec.", "Recall", "F1"];
    for paper_row in &PAPER_TABLE3 {
        for (mi, metric) in metrics.iter().enumerate() {
            let mut row = vec![format!("{} (paper)", paper_row.method), metric.to_string()];
            row.extend(paper_row.cells.iter().map(|c| match c {
                Some(t) => format!("{:.2}", [t.0, t.1, t.2][mi]),
                None => "-".to_string(),
            }));
            table.row(&row);
        }
        if let Some(m) = methods.iter().position(|&x| x == paper_row.method) {
            for (mi, metric) in metrics.iter().enumerate() {
                let mut row = vec![format!("{} (ours)", paper_row.method), metric.to_string()];
                row.extend(qualities[m].iter().map(|q| {
                    let v = [q.precision(), q.recall(), q.f1()][mi];
                    format!("{:.2}", v * 100.0)
                }));
                table.row(&row);
            }
        }
        table.separator();
    }

    // Restaurant's two checks are `restaurant_is_solved_perfectly`.
    let (rexa, bbc, yago) = (1, 2, 3);
    assert_claims(
        &format!("Table III — MinoanER against the baselines (seed {SEED}, scale 1)"),
        &table,
        &[
            (
                "Rexa-DBLP: MinoanER beats BSL".into(),
                f1("MinoanER", rexa) > f1("BSL", rexa),
            ),
            (
                "BBCmusic-DBpedia: MinoanER clearly above BSL".into(),
                f1("MinoanER", bbc) > f1("BSL", bbc) + 0.05,
            ),
            (
                "BBCmusic-DBpedia: PARIS collapses below both".into(),
                f1("PARIS", bbc) < f1("MinoanER", bbc) && f1("PARIS", bbc) < f1("BSL", bbc),
            ),
            (
                "YAGO-IMDb: BSL collapses (value-only evidence)".into(),
                f1("BSL", yago) < 0.55,
            ),
            (
                "YAGO-IMDb: MinoanER close to SiGMa/PARIS, far above BSL".into(),
                f1("MinoanER", yago) > 0.8 && f1("MinoanER", yago) > f1("BSL", yago) + 0.25,
            ),
        ],
    );
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
