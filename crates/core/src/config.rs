//! Pipeline configuration.

use minoan_exec::Executor;
use minoan_kb::Json;

use crate::MAX_CANDIDATES;

/// Configuration of the MinoanER matching pipeline.
///
/// The defaults are the paper's robust setting (§IV): `K=15`, `N=3`,
/// `k=2`, `θ=0.6`, with Block Purging enabled. It holds only what
/// decides the result: which executor runs a stage is an argument of
/// each pipeline call, and every result is bit-identical on any.
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
        Ok(())
    }

    /// The default executor, [`Executor::pool`]. Kept only because the
    /// benchmark harness (`spine/`) calls it; ROADMAP item 1A(c) retires
    /// it. Program code passes its executor to each pipeline call.
    pub fn executor(&self) -> Executor {
        Executor::pool()
    }

    /// The default streaming-parser options. Kept only because the
    /// benchmark harness (`spine/`) calls it; ROADMAP item 1A(c) retires
    /// it.
    pub fn stream_options(&self) -> minoan_kb::parse::StreamOptions {
        minoan_kb::parse::StreamOptions::default()
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
        ])
    }

    /// Deserializes a configuration from [`MinoanConfig::to_json`]
    /// output. Missing fields keep their defaults; unknown fields error,
    /// except the three execution settings older files persist
    /// (`executor`, `threads`, `ingest_chunk_kib`), which never decided
    /// a result and are skipped.
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
                // How an older file's run executed, never what it
                // computed.
                "executor" | "threads" | "ingest_chunk_kib" => {}
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
        assert!(c.validate().is_ok());
        let Json::Obj(fields) = c.to_json() else {
            panic!("config serializes as an object")
        };
        assert_eq!(fields.len(), 7, "the seven §IV parameters only");
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
                max_top_neighbors: 0,
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
            candidates_k: 4,
            purge_blocks: false,
            ..MinoanConfig::default()
        };
        let json = c.to_json().pretty();
        let back = MinoanConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(c, back);
    }

    /// The execution settings older files persist are skipped whatever
    /// their values (see also the artifact test that opens the old
    /// default byte for byte).
    #[test]
    fn from_json_skips_the_retired_execution_settings() {
        let odd = r#"{"theta":0.4,"executor":"sequential","threads":7,"ingest_chunk_kib":0}"#;
        let back = MinoanConfig::from_json(&Json::parse(odd).unwrap()).unwrap();
        assert_eq!(
            back,
            MinoanConfig {
                theta: 0.4,
                ..MinoanConfig::default()
            }
        );
    }

    #[test]
    fn from_json_rejects_unknown_fields_and_bad_values() {
        let bad = Json::parse(r#"{"no_such_knob": 1}"#).unwrap();
        assert!(MinoanConfig::from_json(&bad).is_err());
        let bad = Json::parse(r#"{"candidates_k": -3}"#).unwrap();
        assert!(MinoanConfig::from_json(&bad).is_err());
    }

    /// The two methods the benchmark harness pins answer the defaults,
    /// whatever the parameters.
    #[test]
    fn pinned_methods_answer_the_defaults() {
        let c = MinoanConfig {
            candidates_k: 3,
            ..MinoanConfig::default()
        };
        assert_eq!(c.executor().kind(), Executor::pool().kind());
        assert_eq!(c.executor().threads(), Executor::pool().threads());
        assert_eq!(
            c.stream_options().chunk_bytes,
            minoan_kb::parse::DEFAULT_CHUNK_BYTES
        );
    }
}
