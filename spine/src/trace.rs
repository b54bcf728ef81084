//! The harness's own span recorder for the traced run.
//!
//! One span per call into a layer — `{name, layer, start_ns, end_ns,
//! parent}` — pushed into an in-memory vector and written out once the
//! workload ends. Recording happens around the calls, from outside the
//! program; spans inside the program are a later change. The traced
//! run is single-threaded on the harness side, so a `RefCell` suffices.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::Instant;

use crate::layers::Json;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    recording: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            recording: Cell::new(true),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that times but records nothing.
    pub fn muted() -> Self {
        let t = Self::new();
        t.set_recording(false);
        t
    }

    /// Turns span recording on or off; timing is returned either way,
    /// which is what lets the run measure its own recording overhead.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Runs `f` as a child span of whatever span is open, returning its
    /// result and its duration in milliseconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let slot = self.recording.get().then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            self.open.borrow_mut().push(spans.len() - 1);
            spans.len() - 1
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if let Some(slot) = slot {
            self.open.borrow_mut().pop();
            let mut spans = self.spans.borrow_mut();
            let span = &mut spans[slot];
            span.start_ns = (start - self.origin).as_nanos() as u64;
            span.end_ns = (end - self.origin).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its children cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, covered) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6;
            match by_layer.iter_mut().find(|(layer, _)| *layer == s.layer) {
                Some((_, total)) => *total += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            (
                "self_ms_by_layer",
                Json::Obj(
                    self.self_ms_by_layer()
                        .into_iter()
                        .map(|(layer, ms)| (layer.to_string(), Json::Num(ms)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::arr(spans.iter().map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer)),
                        ("start_ns", Json::num(s.start_ns as f64)),
                        ("end_ns", Json::num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        ),
                    ])
                })),
            ),
        ]);
        std::fs::write(path, doc.compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let t = Tracer::new();
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        let ((), outer_ms) = t.span("rep", "spine", || {
            t.span("parse", "kb", nap);
            t.span("tokenize", "text", nap);
        });
        assert!(outer_ms >= 4.0);
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        drop(spans);
        let own = t.self_ms_by_layer();
        let of = |layer| own.iter().find(|(l, _)| *l == layer).unwrap().1;
        assert!(of("kb") >= 2.0 && of("text") >= 2.0);
        assert!(of("spine") < outer_ms - 3.9, "children are subtracted");
    }

    #[test]
    fn recording_off_still_times_but_keeps_nothing() {
        let t = Tracer::new();
        t.set_recording(false);
        let (v, ms) = t.span("x", "kb", || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert_eq!(t.span_count(), 0);
    }
}
