//! # minoan-obs — the observability layer of MinoanER
//!
//! A registry-free, dependency-free (std-only) observability kernel the
//! whole workspace can sit on — it lives *below* `minoan-exec` in the
//! dependency graph, so the executor, the KB layer, the pipeline and
//! the serving daemon all thread through the same three primitives:
//!
//! - **Leveled console logging** ([`Level`], the [`error!`]/[`warn!`]/
//!   [`info!`]/[`debug!`] macros): one stderr sink whose threshold comes
//!   from `MINOAN_LOG=error|warn|info|debug` (default `info`) or an
//!   explicit [`set_console_level`] (the CLI's `--log-level`). This is
//!   the replacement for the ad-hoc `eprintln!`s that used to be
//!   scattered through cli/serve/exec: `MINOAN_LOG=error` silences all
//!   non-essential output.
//! - **Structured tracing** ([`trace`]): per-job/request trace IDs,
//!   span enter/exit records for pipeline stages, executor waves,
//!   artifact I/O and registry loads, plus discrete events (job
//!   lifecycle transitions, shed decisions, patch completions) — all
//!   buffered in one lock-cheap bounded ring (drop-oldest, with an
//!   exported drop counter) that live subscribers (`GET /v1/events`)
//!   and the span-tree endpoint (`GET /v1/jobs/{id}/trace`) read from.
//!   A **disabled** collector costs exactly one relaxed atomic load per
//!   span/event site.
//! - **Log-bucketed latency histograms** ([`hist::Histogram`]):
//!   power-of-two microsecond buckets updated with relaxed atomics,
//!   merged on read into [`hist::Snapshot`]s that yield quantiles and
//!   Prometheus `_bucket`/`_sum`/`_count` families. Registry-free by
//!   design: each owner (the serving layer, say) holds its own
//!   histograms and renders them itself.
//!
//! None of this may perturb results: observation records what happened,
//! it never participates in it — the bit-identity gates run with
//! tracing enabled at `debug` and compare fingerprints against
//! untraced runs.

#![warn(missing_docs)]

pub mod hist;
pub mod trace;

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Severity of a log line, event or span. Ordered: `Error` is the most
/// severe (and always printed), `Debug` the least.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error,
    /// Degraded behavior worth a human's attention (mis-estimates,
    /// retries, shedding, dropped subscribers).
    Warn,
    /// Normal operational milestones (job lifecycle, server start).
    Info,
    /// High-volume diagnostics (spans, waves, artifact I/O).
    Debug,
}

impl Level {
    /// Canonical lower-case name.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// The level as a small integer (`error` = 0 … `debug` = 3).
    pub fn rank(self) -> u8 {
        match self {
            Level::Error => 0,
            Level::Warn => 1,
            Level::Info => 2,
            Level::Debug => 3,
        }
    }

    /// The inverse of [`Level::rank`]; `None` for out-of-range values.
    pub fn from_rank(rank: u8) -> Option<Level> {
        match rank {
            0 => Some(Level::Error),
            1 => Some(Level::Warn),
            2 => Some(Level::Info),
            3 => Some(Level::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug)"
            )),
        }
    }
}

/// The console threshold, packed into one atomic: `u8::MAX` means "not
/// yet resolved from the environment".
static CONSOLE_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

/// Default console threshold when neither `MINOAN_LOG` nor
/// [`set_console_level`] says otherwise.
pub const DEFAULT_CONSOLE_LEVEL: Level = Level::Info;

/// Resolves the console threshold: an explicit [`set_console_level`]
/// wins, then `MINOAN_LOG`, then [`DEFAULT_CONSOLE_LEVEL`].
pub fn console_level() -> Level {
    let raw = CONSOLE_LEVEL.load(Ordering::Relaxed);
    if let Some(level) = Level::from_rank(raw) {
        return level;
    }
    let level = std::env::var("MINOAN_LOG")
        .ok()
        .and_then(|v| v.parse::<Level>().ok())
        .unwrap_or(DEFAULT_CONSOLE_LEVEL);
    CONSOLE_LEVEL.store(level.rank(), Ordering::Relaxed);
    level
}

/// Overrides the console threshold (the CLI's `--log-level`); wins over
/// `MINOAN_LOG`.
pub fn set_console_level(level: Level) {
    CONSOLE_LEVEL.store(level.rank(), Ordering::Relaxed);
}

/// Whether a message at `level` would reach the console sink. The log
/// macros check this before building their message, so a silenced line
/// costs no formatting.
pub fn console_enabled(level: Level) -> bool {
    level <= console_level()
}

/// Writes one formatted line to the console sink (stderr). Called by
/// the log macros after their level check; direct callers should prefer
/// the macros.
pub fn console_write(level: Level, name: &str, message: &fmt::Arguments<'_>) {
    eprintln!("[{level}] {name}: {message}");
}

/// Logs at [`Level::Error`]: `error!("site.name", "format {}", args)`.
/// The line goes to the console sink when the threshold admits it and
/// into the trace ring as an event when the collector is enabled.
#[macro_export]
macro_rules! error {
    ($name:expr, $($arg:tt)*) => {
        $crate::trace::log_event($crate::Level::Error, $name, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Warn`]; see [`error!`].
#[macro_export]
macro_rules! warn {
    ($name:expr, $($arg:tt)*) => {
        $crate::trace::log_event($crate::Level::Warn, $name, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Info`]; see [`error!`].
#[macro_export]
macro_rules! info {
    ($name:expr, $($arg:tt)*) => {
        $crate::trace::log_event($crate::Level::Info, $name, format_args!($($arg)*))
    };
}

/// Logs at [`Level::Debug`]; see [`error!`].
#[macro_export]
macro_rules! debug {
    ($name:expr, $($arg:tt)*) => {
        $crate::trace::log_event($crate::Level::Debug, $name, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!("warn".parse::<Level>(), Ok(Level::Warn));
        assert_eq!("WARNING".parse::<Level>(), Ok(Level::Warn));
        assert_eq!("debug".parse::<Level>(), Ok(Level::Debug));
        assert!("loud".parse::<Level>().is_err());
        for level in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::from_rank(level.rank()), Some(level));
            assert_eq!(level.label().parse::<Level>(), Ok(level));
        }
        assert_eq!(Level::from_rank(9), None);
    }

    #[test]
    fn console_threshold_is_settable() {
        set_console_level(Level::Error);
        assert!(console_enabled(Level::Error));
        assert!(!console_enabled(Level::Warn));
        set_console_level(Level::Debug);
        assert!(console_enabled(Level::Debug));
        set_console_level(DEFAULT_CONSOLE_LEVEL);
    }
}
