//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark's own code around its calls
//! into each layer's public functions — name, start, end, parent span
//! and operation id — and kept in memory until the run ends, when
//! self times are computed from them. A disabled tracer records
//! nothing, so untraced runs pay only a branch per call site.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static layer-boundary name, e.g. `sta.grid_scan`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one request or draw.
    pub op: u64,
}

impl Span {
    /// Wall duration, ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id` (and anything left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-timed leaf span (a client-side request
    /// timed by the load generator itself).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns: its duration minus the part of its
    /// interval covered by its children.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, span.start_ns);
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Wall durations, ms, of every span named `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ns_to_ms(s.duration_ns()))
            .collect()
    }

    /// Total self time, ms, of every span named `name`.
    #[must_use]
    pub fn self_total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| ns_to_ms(t))
            .sum()
    }
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn ns_to_ms(ns: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let ms = ns as f64 / 1e6;
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 60, Some(0)), // overlaps a: union is 10..60
            span("c", 40, 50, Some(2)),
        ];
        assert_eq!(t.self_times_ns(), vec![50, 20, 25, 10]);
        assert!((t.self_total_ms("b") - 25.0 / 1e6).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 1);
        t.exit(id);
        t.record("y", 2, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", 7);
        t.span("child", 7, || std::hint::black_box(3 + 4));
        t.exit(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
