//! What a run prints and saves, and `spine compare`.
//!
//! Three renderings of one [`Outcome`]: a table on stderr (metric,
//! value, unit, sample count), the driver's result line on stdout, and
//! — with `--out` — a JSON record that also names the host, so two
//! result sets can be told apart and a noisy host is visible.

use std::path::Path;

use crate::layers::Json;
use crate::registry::{self, Metric, END_TO_END, PER_LAYER};
use crate::workloads::Outcome;

/// The metrics a run of this mode must print, all of them.
pub fn expected_metrics(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Checks that `outcome` carries exactly the registry's metrics for its
/// mode, each a finite number (and end-to-end ones never zero).
pub fn validate(outcome: &Outcome, traced: bool) -> Result<(), String> {
    let expected = expected_metrics(traced);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name).collect();
    if names != wanted {
        return Err(format!(
            "printed metrics {names:?} are not the registry's {wanted:?}"
        ));
    }
    for (name, value, _) in &outcome.metrics {
        if !registry::valid_name(name) {
            return Err(format!("{name:?} is not a name the contract accepts"));
        }
        if !value.is_finite() || (!traced && *value <= 0.0) {
            return Err(format!(
                "{name} measured {value}, which is not a usable number"
            ));
        }
    }
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    Ok(())
}

fn unit_of(metric: &str) -> &'static str {
    registry::metric(metric).map_or("", |m| m.unit)
}

pub fn print_table(workload: &str, outcome: &Outcome, wall_s: f64) {
    eprintln!(
        "== {workload}: {} ({} attempted, {} failed, {wall_s:.1} s)\n   {}",
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.attempted,
        outcome.failed,
        registry::workload(workload).map_or("", |w| w.why)
    );
    for (name, value, samples) in &outcome.metrics {
        let unit = unit_of(name);
        eprintln!("  {name:<36} {value:>16.4} {unit:<6} n={samples}");
    }
    for n in &outcome.notes {
        eprintln!("  ({:<34}) {:>16.4} {}", n.name, n.value, n.unit);
    }
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, value, _)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome)),
    ])
    .compact()
}

/// One workload's entry in an `--out` record.
pub fn workload_record(outcome: &Outcome, wall_s: f64) -> Json {
    Json::obj([
        ("wall_s", Json::Num(wall_s)),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome)),
        (
            "samples",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, _, n)| (name.to_string(), Json::num(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Obj(
                outcome
                    .notes
                    .iter()
                    .map(|n| {
                        (
                            n.name.clone(),
                            Json::obj([("value", Json::Num(n.value)), ("unit", Json::str(n.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The host a record was measured on.
pub fn environment(scratch_fs: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj([
        ("nproc", Json::num(nproc as f64)),
        ("loadavg_1m", Json::Num(loadavg)),
        ("scratch_fs", Json::str(scratch_fs)),
        ("git_commit", Json::str(commit)),
    ])
}

fn load_record(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("smoke") != Some(&Json::Bool(false)) {
        return Err(format!(
            "{} is a smoke run (or not a spine record); smoke numbers are not comparable",
            path.display()
        ));
    }
    if doc.get("traced") != Some(&Json::Bool(false)) {
        return Err(format!(
            "{} is a traced run; end-to-end metrics are never taken from one",
            path.display()
        ));
    }
    Ok(doc)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a;
    if metric.better == "lower" {
        change
    } else {
        -change
    }
}

/// `spine compare A.json B.json`: per end-to-end metric × workload, the
/// relative difference of B against A and pass/fail against the
/// metric's bound. Returns whether everything passed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load_record(a_path)?, load_record(b_path)?);
    for (label, doc) in [("A", &a), ("B", &b)] {
        println!(
            "{label}: seed {} env {}",
            doc.get("seed").map_or_else(|| "?".into(), Json::compact),
            doc.get("env").map_or_else(|| "?".into(), Json::compact)
        );
    }
    let value = |doc: &Json, workload: &str, metric: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let failed_ops =
        |doc: &Json, workload: &str| doc.get("workloads")?.get(workload)?.get("failed")?.as_f64();
    let mut all_pass = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in registry::WORKLOADS {
        let (fa, fb) = (failed_ops(&a, w.name), failed_ops(&b, w.name));
        if fa.is_none() && fb.is_none() {
            continue;
        }
        if fa != Some(0.0) || fb != Some(0.0) {
            println!("{:<14} ops_failed A={fa:?} B={fb:?}  FAIL", w.name);
            all_pass = false;
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            match (value(&a, w.name, m.name), value(&b, w.name, m.name)) {
                (Some(va), Some(vb)) => {
                    let worse = worsening(m, va, vb);
                    let pass = worse <= bound;
                    all_pass &= pass;
                    println!(
                        "{:<14} {:<18} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%  {}",
                        w.name,
                        m.name,
                        worse * 100.0,
                        bound * 100.0,
                        if pass { "pass" } else { "FAIL" }
                    );
                }
                _ => {
                    println!("{:<14} {:<18} missing on one side  FAIL", w.name, m.name);
                    all_pass = false;
                }
            }
        }
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::note;

    fn outcome(traced: bool) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            correct: true,
            metrics: expected_metrics(traced)
                .iter()
                .map(|m| (m.name, 1.5, 3))
                .collect(),
            notes: vec![note("extra", 2.0, "ms")],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome(false));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(!line.contains('\n'));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn validation_wants_every_registry_metric_and_usable_numbers() {
        assert!(validate(&outcome(false), false).is_ok());
        assert!(validate(&outcome(true), true).is_ok());
        assert!(
            validate(&outcome(true), false).is_err(),
            "wrong mode's metrics"
        );
        let mut missing = outcome(false);
        missing.metrics.pop();
        assert!(validate(&missing, false).is_err());
        let mut nan = outcome(false);
        nan.metrics[1].1 = f64::NAN;
        assert!(validate(&nan, false).is_err());
        let mut zero = outcome(false);
        zero.metrics[0].1 = 0.0;
        assert!(
            validate(&zero, false).is_err(),
            "an end-to-end metric is never 0"
        );
        zero.metrics = outcome(true).metrics;
        zero.metrics[0].1 = 0.0;
        assert!(validate(&zero, true).is_ok(), "a per-layer count may be 0");
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let latency = registry::metric("latency_p50_ms").unwrap();
        let throughput = registry::metric("throughput_per_s").unwrap();
        assert!((worsening(latency, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(latency, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(throughput, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(throughput, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn compare_refuses_smoke_and_traced_records() {
        let dir = std::env::temp_dir().join(format!("spine-compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, smoke: bool, traced: bool, latency: f64| {
            let mut o = outcome(false);
            o.metrics[1].1 = latency;
            let doc = Json::obj([
                ("smoke", Json::Bool(smoke)),
                ("traced", Json::Bool(traced)),
                ("seed", Json::num(1.0)),
                (
                    "workloads",
                    Json::obj([("resolve_rexa", workload_record(&o, 1.0))]),
                ),
            ]);
            let path = dir.join(name);
            std::fs::write(&path, doc.compact()).unwrap();
            path
        };
        let base = write("a.json", false, false, 100.0);
        assert_eq!(
            compare(&base, &write("same.json", false, false, 104.0)),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &write("slow.json", false, false, 140.0)),
            Ok(false)
        );
        assert!(compare(&base, &write("smoke.json", true, false, 100.0)).is_err());
        assert!(compare(&write("traced.json", false, true, 100.0), &base).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
