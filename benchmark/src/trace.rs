//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of every call into the
//! product (and from the pass-through decorators in [`crate::timed`]), kept
//! in memory, and written out once at exit. A span's *self time* is its
//! duration minus the durations of the spans nested directly in it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Spans kept per run; later ones are only counted (`dropped`), so a long
/// durable run cannot grow the trace file without bound.
const MAX_SPANS: usize = 60_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Tick or request number the span belongs to.
    pub op: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    dropped: u64,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Totals of one span name: `(count, total_ns, self_ns)`.
pub type SpanTotals = BTreeMap<&'static str, (u64, u64, u64)>;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer mutex poisoned: a span was being recorded during a panic")
    }

    /// Sets the operation number (tick or request) stamped on new spans.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    fn enter(&self, name: &'static str) -> Option<u32> {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped += 1;
            return None;
        }
        let id = inner.spans.len() as u32;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: inner.stack.last().copied(),
            op: inner.op,
        };
        inner.spans.push(span);
        inner.stack.push(id);
        Some(id)
    }

    fn exit(&self, id: Option<u32>) {
        let end_ns = self.now_ns();
        let Some(id) = id else { return };
        let mut inner = self.lock();
        if let Some(pos) = inner.stack.iter().rposition(|&open| open == id) {
            inner.stack.truncate(pos);
        }
        if let Some(span) = inner.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and wall time.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let id = self.enter(name);
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed();
        self.exit(id);
        (out, wall)
    }

    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Per-name totals with self time (duration minus direct children).
    pub fn totals(&self) -> SpanTotals {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SpanTotals::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(children);
        }
        out
    }
}

/// Times `f`, recording a span when a tracer is given (the traced run) and
/// only reading the clock otherwise (the measured run).
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    match tracer {
        Some(t) => t.time(name, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_self_time_to_the_parent() {
        let t = Tracer::new();
        t.set_op(7);
        t.time("outer", || {
            t.time("inner", || std::hint::black_box(1 + 1));
            t.time("inner", || std::hint::black_box(2 + 2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let totals = t.totals();
        let (n_outer, total_outer, self_outer) = totals["outer"];
        let (n_inner, total_inner, _) = totals["inner"];
        assert_eq!((n_outer, n_inner), (1, 2));
        assert_eq!(self_outer, total_outer - total_inner);
    }
}
