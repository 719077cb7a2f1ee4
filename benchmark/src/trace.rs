//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions — nothing under `crates/` is
//! instrumented. They are held in memory (name, start, end, parent,
//! operation id) and written out once, at exit. A disabled tracer
//! records nothing, so the end-to-end run measures with tracing off.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `kg.index_build`.
    pub name: &'static str,
    /// Start of the span.
    pub start_ns: u64,
    /// End of the span (`start_ns` while still open).
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder for one thread of the load generator.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Is this the traced run?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// [`Tracer::enter`] when `on`, otherwise a handle that closes to
    /// nothing — for runs that trace only some operations.
    pub fn enter_if(&mut self, on: bool, name: &'static str) -> SpanId {
        if on {
            self.enter(name)
        } else {
            SpanId(None)
        }
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close innermost
    /// first; closing out of order is a bug in the caller.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a child of the innermost open span whose duration the
    /// callee measured itself (e.g. `DebugStats::grounding_time`): the
    /// interval is real, its position inside the parent is not known,
    /// so reported children are laid end to end from the parent's start.
    pub fn reported(&mut self, name: &'static str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        // Children are recorded after their parent.
        let start = self.spans[parent as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent as usize].start_ns);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + dur.as_nanos() as u64,
            parent: Some(parent),
            op: self.op,
        });
    }

    /// All spans recorded so far, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span called `name`: its duration minus
    /// the part of that interval its direct children cover.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        self_times_ns(&self.spans)
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| ns as f64 / 1e6)
            .collect()
    }

    /// Serialises the spans as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Self time of every span: duration minus the union of the intervals
/// its direct children cover (clipped to the span, so overlapping or
/// overhanging children are never subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a
            span("c", 90, 130, Some(0)), // overhangs the parent
            span("a.inner", 12, 20, Some(1)),
        ];
        // op: 100 - |[10,60) ∪ [90,100)| = 100 - 60 = 40
        assert_eq!(self_times_ns(&spans), vec![40, 22, 30, 40, 8]);
    }

    #[test]
    fn nesting_and_reported_children() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let op = t.enter("op");
        let inner = t.enter("inner");
        t.reported("told.first", Duration::from_nanos(5));
        t.reported("told.second", Duration::from_nanos(7));
        t.exit(inner);
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7));
        // Reported children are laid end to end from the parent's start.
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert_eq!(spans[3].dur_ns(), 7);
        assert_eq!(t.durations_ms("told.second"), vec![7e-6]);
        assert!(t.to_json().contains("\"name\":\"told.first\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("op");
        t.reported("x", Duration::from_secs(1));
        t.exit(id);
        assert_eq!(t.span("y", || 3), 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), "[\n]");
    }
}
