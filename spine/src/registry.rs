//! The benchmark's vocabulary: every workload and metric the harness
//! prints, with unit, direction and regression bound. `BENCHMARK.json`
//! at the repository root repeats this table for the driver; a unit
//! test keeps the two identical.

/// One set of inputs the benchmark runs.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, copied to `BENCHMARK.json`).
    pub why: &'static str,
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "resolve_rexa",
        why: "Cold `minoaner match` over one large, size-skewed, value-dense pair (Rexa-DBLP x2): similarity-index build dominates, parse/tokenize/scheduling should not show.",
    },
    Workload {
        name: "index_rexa",
        why: "Cold `minoaner index build` over the same pair: the pipeline plus artifact pack/encode/write, which costs as much again and sets peak memory.",
    },
    Workload {
        name: "fleet_small",
        why: "768 file jobs over 64 tiny pairs of all four profiles through one `minoaner batch`: tokenize, blocking, file load and queue/pool dispatch dominate, simindex does not.",
    },
    Workload {
        name: "serve_match",
        why: "Loopback-HTTP match queries on 2 keep-alive connections to a preloaded Rexa index, one all hits, one with 10% unknown entities: the read-only serving path and its miss/reconnect cost.",
    },
    Workload {
        name: "serve_churn",
        why: "`PATCH ?wait=true` of 16-op delta streams on a YAGO-IMDb x2 index, each followed by a read, beside a hot reader: load + delta + persist + reload on a relation-heavy profile.",
    },
];

/// What a caller of the system sees. Every workload prints all five;
/// README.md states the operation each workload counts.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", "lower", 0.25),
    gated("latency_p50_ms", "ms", "lower", 0.25),
    gated("throughput_per_s", "1/s", "higher", 0.25),
    gated("peak_rss_mb", "MB", "lower", 0.20),
    gated("f1", "ratio", "higher", 0.05),
];

/// Per-layer attribution from the traced run (layer = crate name).
pub const PER_LAYER: &[Metric] = &[
    lower("kb.parse_ms", "ms"),
    higher("kb.parse_mb_per_s", "MB/s"),
    lower("text.tokenize_ms", "ms"),
    lower("core.names_ms", "ms"),
    lower("blocking.name_ms", "ms"),
    lower("blocking.token_ms", "ms"),
    lower("blocking.purge_ms", "ms"),
    lower("blocking.token_blocks", "count"),
    lower("blocking.comparisons_kept", "count"),
    lower("blocking.purge_kept_ratio", "ratio"),
    lower("core.top_neighbors_ms", "ms"),
    lower("core.simindex_ms", "ms"),
    lower("core.value_pairs", "count"),
    lower("core.neighbor_pairs", "count"),
    higher("core.simindex_pairs_per_s", "1/s"),
    lower("core.heuristics_ms", "ms"),
    lower("core.pipeline_ms", "ms"),
    lower("core.stage_sum_ms", "ms"),
    lower("core.artifact_pack_ms", "ms"),
    lower("core.artifact_write_ms", "ms"),
    lower("core.artifact_read_ms", "ms"),
    lower("kb.artifact_open_ms", "ms"),
    lower("core.artifact_mb", "MB"),
    lower("core.artifact_bytes_per_input_byte", "ratio"),
    lower("core.match_query_us", "us"),
    lower("core.delta_apply_ms", "ms"),
    lower("core.delta_persist_ms", "ms"),
    lower("core.delta_affected_rows", "count"),
    lower("core.patch_over_rebuild", "ratio"),
    lower("serve.registry_hit_us", "us"),
    lower("serve.registry_load_ms", "ms"),
    lower("serve.http_floor_us", "us"),
    lower("serve.match_p50_us", "us"),
    lower("serve.match_p99_us", "us"),
    lower("serve.http_tax_us", "us"),
    lower("serve.match_over_floor_us", "us"),
    lower("serve.reconnect_ms", "ms"),
    lower("serve.linejson_match_us", "us"),
    higher("serve.match_qps", "1/s"),
    lower("serve.server_cpu_s", "s"),
    higher("serve.qps_per_cpu_s", "1/s"),
    higher("serve.registry_hits", "count"),
    lower("serve.registry_misses", "count"),
    lower("serve.registry_invalidations", "count"),
    lower("serve.patch_ms", "ms"),
    lower("serve.reload_ms", "ms"),
    lower("serve.batch_over_solo", "ratio"),
    lower("exec.pool1_over_seq", "ratio"),
    lower("exec.pool_steals", "count"),
    lower("exec.pool_injected", "count"),
    lower("obs.pipeline_overhead_ratio", "ratio"),
    lower("obs.query_overhead_ratio", "ratio"),
    lower("spine.trace_overhead_ratio", "ratio"),
];

/// Names the contract accepts: start with a letter or digit, then at
/// most 64 of `[A-Za-z0-9_.-]` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Json;

    #[test]
    fn names_follow_the_contract() {
        for ok in ["setup_s", "kb.parse_ms", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "slash/ed", "é", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// registry prints, inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 << 10);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("paths"),
            Some(&Json::arr([Json::str("spine")])),
            "the benchmark lives in spine/ and nowhere else"
        );
        let seconds = doc.get("run_seconds").and_then(Json::as_usize).unwrap();
        assert!((1..=60).contains(&seconds));

        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text_of =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert!((2..=8).contains(&workloads.len()));
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text_of(item, "name"), w.name);
            assert_eq!(text_of(item, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        for (key, table, cap) in [
            ("end_to_end", END_TO_END, 16),
            ("per_layer", PER_LAYER, 128),
        ] {
            let items = list(key);
            assert!((1..=cap).contains(&items.len()));
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, m) in items.iter().zip(table) {
                assert_eq!(text_of(item, "name"), m.name);
                assert_eq!(text_of(item, "unit"), m.unit);
                assert_eq!(text_of(item, "better"), m.better);
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
                assert!(m.bound.is_none_or(|b| (0.0..=0.25).contains(&b)));
                assert!(m.unit.len() <= 16);
            }
        }
        assert!(
            END_TO_END
                .iter()
                .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"),
            "the contract requires setup_s"
        );
    }
}
