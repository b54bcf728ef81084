//! Process-wide latency histograms of the serving layer.
//!
//! Each histogram is a static [`minoan_obs::hist::Histogram`]
//! (registry-free: the owner holds it, `GET /v1/metrics` renders it).
//! Buckets are power-of-two microseconds; recording is three relaxed
//! atomic adds, so the hot paths (match queries, HTTP dispatch, the
//! scheduler's claim loop) observe without contention.

use minoan_core::Timings;
use minoan_obs::hist::Histogram;

/// End-to-end `GET /v1/indexes/{id}/match` latency (registry load +
/// artifact query), observed by the shared intake layer for both
/// front-ends.
pub static MATCH_QUERY: Histogram = Histogram::new();

/// HTTP request duration: read-complete to response-written, every
/// endpoint (SSE streams excluded — they live until disconnect).
pub static HTTP_REQUEST: Histogram = Histogram::new();

/// Queue wait: submission (or retry re-queue, backoff included) to
/// dispatch.
pub static QUEUE_WAIT: Histogram = Histogram::new();

/// Per-job pipeline stage timings over finished jobs, one histogram
/// per stage in [`Timings::LABELS`] order: the serving layer's only
/// per-stage aggregate.
pub static STAGES: [Histogram; 5] = [const { Histogram::new() }; 5];

/// The stage histograms with their Prometheus `stage` label values.
pub fn stage_histograms() -> impl Iterator<Item = (&'static str, &'static Histogram)> {
    Timings::LABELS.into_iter().zip(&STAGES)
}

/// Feeds one finished job's stage timings into [`STAGES`].
pub fn observe_stages(t: &Timings) {
    for (histogram, d) in STAGES.iter().zip(t.durations()) {
        histogram.observe(d);
    }
}
