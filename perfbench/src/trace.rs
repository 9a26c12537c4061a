//! In-memory span recording and layer self-time attribution.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, from whichever thread makes the call.
//! Self time is computed by a sweep over all span endpoints: every
//! instant of the window goes to the most specific layer active at
//! that instant on any thread (parallel spans of one layer therefore
//! merge by union before anything is subtracted), and instants with no
//! active span are unattributed. The self times plus the unattributed
//! time add up to the window exactly.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span, in nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Layer name (one of the workload's attribution order).
    pub layer: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Which parallel lane recorded it (domain index, device rank);
    /// 0 when the layer has no lanes.
    pub lane: u32,
}

impl Span {
    /// Duration in ns.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe span sink.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span of `layer` on `lane`.
    pub fn span_lane<T>(&self, layer: &'static str, lane: u32, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Span {
            layer,
            start,
            end,
            lane,
        });
        out
    }

    /// Time `f` as a span of `layer`.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_lane(layer, 0, f)
    }

    /// Record a finished span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .clone()
    }
}

/// Self time per layer over `[t0, t1)`, in ns, in the order of
/// `order` (most specific layer first: an instant covered by several
/// layers goes to the one listed earliest), plus the unattributed
/// remainder. Spans of layers not in `order` are ignored.
pub fn attribute(spans: &[Span], order: &[&str], t0: u64, t1: u64) -> (Vec<u64>, u64) {
    let mut events: Vec<(u64, usize, i32)> = Vec::with_capacity(2 * spans.len());
    for s in spans {
        if let Some(k) = order.iter().position(|&l| l == s.layer) {
            let (a, b) = (s.start.max(t0), s.end.min(t1));
            if a < b {
                events.push((a, k, 1));
                events.push((b, k, -1));
            }
        }
    }
    events.sort_unstable();
    let mut active = vec![0i32; order.len()];
    let mut self_ns = vec![0u64; order.len()];
    let mut unattributed = 0u64;
    let mut t = t0;
    for (at, k, delta) in events {
        let dt = at - t;
        match active.iter().position(|&c| c > 0) {
            Some(top) => self_ns[top] += dt,
            None => unattributed += dt,
        }
        active[k] += delta;
        t = at;
    }
    unattributed += t1.saturating_sub(t);
    (self_ns, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            layer,
            start,
            end,
            lane: 0,
        }
    }

    #[test]
    fn parallel_children_merge_by_union_before_subtraction() {
        // A parent step of 100 ns; two threads run the same child
        // layer over [10, 50) and [30, 70): the union covers 60 ns,
        // not the 80 ns the durations add up to.
        let spans = [sp("step", 0, 100), sp("pot", 10, 50), sp("pot", 30, 70)];
        let (own, un) = attribute(&spans, &["pot", "step"], 0, 100);
        assert_eq!(own, vec![60, 40]);
        assert_eq!(un, 0);
    }

    #[test]
    fn overlapping_siblings_split_by_order_and_tile_the_window() {
        // Child A on two threads, child B overlapping A's tail, an
        // idle gap outside the parent. Every ns is counted once.
        let spans = [
            sp("parent", 0, 100),
            sp("a", 10, 50),
            sp("a", 30, 70),
            sp("b", 60, 80),
            sp("ignored", 0, 120),
        ];
        let (own, un) = attribute(&spans, &["a", "b", "parent"], 0, 120);
        assert_eq!(own, vec![60, 10, 30]);
        assert_eq!(un, 20);
        assert_eq!(own.iter().sum::<u64>() + un, 120);
        // Reversing the sibling order moves only the contested 10 ns.
        let (own, _) = attribute(&spans, &["b", "a", "parent"], 0, 120);
        assert_eq!(own, vec![20, 50, 30]);
    }

    #[test]
    fn window_clips_spans() {
        let spans = [sp("x", 0, 50), sp("x", 90, 200)];
        let (own, un) = attribute(&spans, &["x"], 20, 100);
        assert_eq!(own, vec![40]);
        assert_eq!(un, 40);
    }
}
