//! Dataset/method execution shared by the repro binaries and benches.

use minoan_baselines::{run_bsl, run_paris, run_sigma, ParisConfig, SigmaConfig};
use minoan_blocking::unique_name_pairs;
use minoan_core::{build_blocks, MinoanConfig, MinoanEr, PipelineReport};
use minoan_datagen::{Dataset, DatasetKind};
use minoan_eval::MatchQuality;

/// Seed used by all repro binaries so every table is generated from the
/// same KBs.
pub const DEFAULT_SEED: u64 = 20180416; // ICDE 2018 started April 16.

/// Default generation scale per dataset: tuned so the full Table III
/// regeneration (including BSL's 480-configuration sweep) finishes in
/// minutes on a laptop.
pub fn default_scale(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Restaurant => 1.0,
        DatasetKind::RexaDblp => 1.0,
        DatasetKind::BbcDbpedia => 1.0,
        DatasetKind::YagoImdb => 1.0,
    }
}

/// One method's measured quality.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name (matching the paper's Table III rows).
    pub method: &'static str,
    /// Measured quality.
    pub quality: MatchQuality,
    /// Extra information (winning BSL config, pipeline counters…).
    pub detail: String,
}

/// The outcome of running every re-implemented method on one dataset.
pub struct DatasetRun {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Per-method results, in Table III row order.
    pub methods: Vec<MethodResult>,
    /// MinoanER's pipeline report.
    pub minoan_report: PipelineReport,
}

/// Runs SiGMa-like, PARIS-like, BSL and MinoanER on `kind`.
pub fn run_methods(kind: DatasetKind, seed: u64, scale: f64) -> DatasetRun {
    let dataset = kind.generate_scaled(seed, scale);
    let pair = &dataset.pair;
    let truth = &dataset.truth;
    let config = MinoanConfig::default();
    let exec = config.executor();
    let artifacts = build_blocks(pair, &config, &exec);
    let mut methods = Vec::new();

    // SiGMa-like: seeds are the unique-name pairs, candidates from BT.
    let seeds = unique_name_pairs(&artifacts.name_blocks);
    let sigma = run_sigma(
        pair,
        &artifacts.tokens,
        &artifacts.token_blocks,
        &seeds,
        SigmaConfig::default(),
    );
    methods.push(MethodResult {
        method: "SiGMa",
        quality: MatchQuality::evaluate(&sigma, truth),
        detail: format!("{} seeds", seeds.len()),
    });

    // PARIS-like.
    let paris = run_paris(pair, ParisConfig::default());
    methods.push(MethodResult {
        method: "PARIS",
        quality: MatchQuality::evaluate(&paris, truth),
        detail: String::new(),
    });

    // BSL over the same BN ∪ BT input as MinoanER.
    let bsl = run_bsl(
        &pair.first,
        &pair.second,
        &[&artifacts.name_blocks, &artifacts.token_blocks],
        truth,
    );
    methods.push(MethodResult {
        method: "BSL",
        quality: bsl.quality,
        detail: format!("best config {}", bsl.config),
    });

    // MinoanER.
    let out = MinoanEr::with_defaults().run_with(pair, &exec);
    methods.push(MethodResult {
        method: "MinoanER",
        quality: MatchQuality::evaluate(&out.matching, truth),
        detail: format!(
            "H1={} H2={} H3={} H4-removed={}",
            out.report.h1_matches,
            out.report.h2_matches,
            out.report.h3_matches,
            out.report.h4_removed
        ),
    });

    DatasetRun {
        dataset,
        methods,
        minoan_report: out.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_produces_all_method_rows() {
        let run = run_methods(DatasetKind::Restaurant, 7, 0.1);
        let names: Vec<_> = run.methods.iter().map(|m| m.method).collect();
        assert_eq!(names, vec!["SiGMa", "PARIS", "BSL", "MinoanER"]);
        for m in &run.methods {
            assert!(m.quality.f1() >= 0.0 && m.quality.f1() <= 1.0);
        }
    }
}
