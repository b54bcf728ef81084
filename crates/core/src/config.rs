//! Pipeline configuration.

use minoan_exec::{Executor, ExecutorKind};
use minoan_kb::Json;

use crate::MAX_CANDIDATES;

/// Configuration of the MinoanER matching pipeline.
///
/// The defaults are the paper's robust setting (§IV): `K=15`, `N=3`,
/// `k=2`, `θ=0.6`, with Block Purging enabled, running on the parallel
/// executor with all available threads.
#[derive(Debug, Clone, PartialEq)]
pub struct MinoanConfig {
    /// `k`: number of most distinctive attributes per KB whose literal
    /// values serve as entity names (H1).
    pub name_attrs_k: usize,
    /// `K`: number of candidate matches kept per entity from values and
    /// from neighbors (H3 list size and H4 reciprocity window), at most
    /// [`MAX_CANDIDATES`]: the similarity index stores only that many
    /// candidates of any row, and a non-probe row's reader ends there.
    pub candidates_k: usize,
    /// `N`: number of most important relations per KB defining
    /// `topNneighbors` (H3).
    pub top_relations_n: usize,
    /// `θ ∈ (0,1)`: trade-off between value-based (weight `θ`) and
    /// neighbor-based (weight `1-θ`) normalized ranks in H3.
    pub theta: f64,
    /// Whether to apply Block Purging to the token blocks.
    pub purge_blocks: bool,
    /// Smoothing factor for Block Purging.
    pub purge_smoothing: f64,
    /// Safety cap on `topNneighbors(e)` per entity. The paper leaves the
    /// set unbounded; the cap only guards against pathological hubs and
    /// is high enough to be inactive on the benchmark profiles.
    pub max_top_neighbors: usize,
    /// Which executor backend runs the hot stages (parsing, tokenizing,
    /// blocking, similarity indexing, matching). Results are
    /// bit-identical across backends.
    pub executor: ExecutorKind,
    /// Each pool wave's minimum task count (`0` = the core count). The
    /// pool itself always runs `available_parallelism()` workers; to
    /// run on fewer cores, limit the process's CPU affinity.
    pub threads: usize,
    /// Per-worker chunk size (KiB) of the streaming file parsers; the
    /// reader keeps roughly `ingest_chunk_kib × threads` KiB resident
    /// instead of the whole file.
    pub ingest_chunk_kib: usize,
}

impl Default for MinoanConfig {
    fn default() -> Self {
        Self {
            name_attrs_k: 2,
            candidates_k: 15,
            top_relations_n: 3,
            theta: 0.6,
            purge_blocks: true,
            purge_smoothing: minoan_blocking::DEFAULT_SMOOTHING,
            max_top_neighbors: 32,
            executor: ExecutorKind::Pool,
            threads: 0,
            ingest_chunk_kib: minoan_kb::parse::DEFAULT_CHUNK_BYTES >> 10,
        }
    }
}

impl MinoanConfig {
    /// Validates parameter ranges, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.theta && self.theta < 1.0) {
            return Err(format!("theta must be in (0,1), got {}", self.theta));
        }
        if self.name_attrs_k == 0 {
            return Err("name_attrs_k must be at least 1".into());
        }
        if !(1..=MAX_CANDIDATES).contains(&self.candidates_k) {
            return Err(format!(
                "candidates_k must be in 1..={MAX_CANDIDATES}, got {}",
                self.candidates_k
            ));
        }
        if self.top_relations_n == 0 {
            return Err("top_relations_n must be at least 1".into());
        }
        if self.purge_smoothing < 1.0 {
            return Err(format!(
                "purge_smoothing must be >= 1, got {}",
                self.purge_smoothing
            ));
        }
        if self.max_top_neighbors == 0 {
            return Err("max_top_neighbors must be at least 1".into());
        }
        if self.ingest_chunk_kib == 0 {
            return Err("ingest_chunk_kib must be at least 1".into());
        }
        Ok(())
    }

    /// The executor the pipeline stages run on.
    pub fn executor(&self) -> Executor {
        Executor::new(self.executor, self.threads)
    }

    /// Streaming-parser options derived from [`MinoanConfig::ingest_chunk_kib`].
    pub fn stream_options(&self) -> minoan_kb::parse::StreamOptions {
        minoan_kb::parse::StreamOptions {
            chunk_bytes: self.ingest_chunk_kib.max(1) << 10,
        }
    }

    /// Serializes the configuration as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name_attrs_k", Json::num(self.name_attrs_k as f64)),
            ("candidates_k", Json::num(self.candidates_k as f64)),
            ("top_relations_n", Json::num(self.top_relations_n as f64)),
            ("theta", Json::Num(self.theta)),
            ("purge_blocks", Json::Bool(self.purge_blocks)),
            ("purge_smoothing", Json::Num(self.purge_smoothing)),
            (
                "max_top_neighbors",
                Json::num(self.max_top_neighbors as f64),
            ),
            ("executor", Json::str(self.executor.name())),
            ("threads", Json::num(self.threads as f64)),
            ("ingest_chunk_kib", Json::num(self.ingest_chunk_kib as f64)),
        ])
    }

    /// Deserializes a configuration from [`MinoanConfig::to_json`]
    /// output. Missing fields keep their defaults; unknown fields error.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = json else {
            return Err("config must be a JSON object".into());
        };
        let mut config = MinoanConfig::default();
        for (key, value) in fields {
            let bad = || format!("bad value for {key}");
            match key.as_str() {
                "name_attrs_k" => config.name_attrs_k = value.as_usize().ok_or_else(bad)?,
                "candidates_k" => config.candidates_k = value.as_usize().ok_or_else(bad)?,
                "top_relations_n" => config.top_relations_n = value.as_usize().ok_or_else(bad)?,
                "theta" => config.theta = value.as_f64().ok_or_else(bad)?,
                "purge_blocks" => config.purge_blocks = value.as_bool().ok_or_else(bad)?,
                "purge_smoothing" => config.purge_smoothing = value.as_f64().ok_or_else(bad)?,
                "max_top_neighbors" => {
                    config.max_top_neighbors = value.as_usize().ok_or_else(bad)?
                }
                "executor" => {
                    config.executor = value.as_str().ok_or_else(bad)?.parse()?;
                }
                "threads" => config.threads = value.as_usize().ok_or_else(bad)?,
                "ingest_chunk_kib" => config.ingest_chunk_kib = value.as_usize().ok_or_else(bad)?,
                other => return Err(format!("unknown config field {other:?}")),
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = MinoanConfig::default();
        assert_eq!(c.name_attrs_k, 2);
        assert_eq!(c.candidates_k, 15);
        assert_eq!(c.top_relations_n, 3);
        assert!((c.theta - 0.6).abs() < 1e-12);
        assert!(c.purge_blocks);
        assert_eq!(c.executor, ExecutorKind::Pool);
        assert_eq!(c.threads, 0, "all available threads by default");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let default = MinoanConfig::default;
        for bad in [
            MinoanConfig {
                theta: 1.0,
                ..default()
            },
            MinoanConfig {
                theta: 0.0,
                ..default()
            },
            MinoanConfig {
                name_attrs_k: 0,
                ..default()
            },
            MinoanConfig {
                candidates_k: 0,
                ..default()
            },
            MinoanConfig {
                candidates_k: MAX_CANDIDATES + 1,
                ..default()
            },
            MinoanConfig {
                top_relations_n: 0,
                ..default()
            },
            MinoanConfig {
                purge_smoothing: 0.9,
                ..default()
            },
            MinoanConfig {
                ingest_chunk_kib: 0,
                ..default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        let widest = MinoanConfig {
            candidates_k: MAX_CANDIDATES,
            ..default()
        };
        assert_eq!(widest.validate(), Ok(()));
    }

    #[test]
    fn config_serializes_round_trip() {
        let c = MinoanConfig {
            theta: 0.37,
            executor: ExecutorKind::Sequential,
            threads: 4,
            purge_blocks: false,
            ..MinoanConfig::default()
        };
        let json = c.to_json().pretty();
        let back = MinoanConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn from_json_rejects_unknown_fields_and_bad_values() {
        let bad = Json::parse(r#"{"no_such_knob": 1}"#).unwrap();
        assert!(MinoanConfig::from_json(&bad).is_err());
        let bad = Json::parse(r#"{"candidates_k": -3}"#).unwrap();
        assert!(MinoanConfig::from_json(&bad).is_err());
        for executor in ["gpu", "rayon"] {
            let bad = Json::parse(&format!(r#"{{"executor": "{executor}"}}"#)).unwrap();
            assert!(MinoanConfig::from_json(&bad).is_err(), "{executor}");
        }
    }

    #[test]
    fn executor_instance_follows_config() {
        let mut c = MinoanConfig {
            executor: ExecutorKind::Sequential,
            ..MinoanConfig::default()
        };
        assert_eq!(c.executor().threads(), 1);
        c.executor = ExecutorKind::Pool;
        c.threads = 7;
        assert_eq!(c.executor().threads(), 7);
    }
}
