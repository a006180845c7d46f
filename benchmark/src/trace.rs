//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Spans live in memory and are written out at exit as Chrome-trace JSON.
//! A span's self time is its duration minus the part its children cover.
//! With tracing off `begin`/`end` are a branch and nothing else, so the
//! untraced run pays no clock reads for them.

use std::time::Instant;

use pocolo_json::{json, Value};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.repair_fault`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Tick or op identifier shared by the spans of one operation.
    pub op: u64,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// Duration minus child spans, milliseconds.
    pub fn self_ms(&self) -> f64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns) as f64 / 1e6
    }
}

/// In-memory span recorder for the single load-generator thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.iter().rev().nth(1).copied(),
            op,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.stack.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = end_ns;
        if let Some(parent) = self.spans[id].parent {
            self.spans[parent].child_ns += end_ns - self.spans[id].start_ns;
        }
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) complete events.
    pub fn chrome_json(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                    "args": json!({
                        "id": id,
                        "parent": s.parent.map(|p| p as f64),
                        "op": s.op,
                        "self_us": s.self_ms() * 1e3
                    })
                })
            })
            .collect();
        json!({ "traceEvents": events, "displayTimeUnit": "ms" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut tr = Tracer::new(true);
        tr.begin("outer", 7);
        tr.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end();
        tr.end();
        let [outer, inner] = tr.spans() else {
            panic!("two spans expected");
        };
        assert_eq!(inner.parent, Some(0));
        assert_eq!(outer.parent, None);
        assert!(inner.ms() >= 2.0);
        assert!(outer.self_ms() <= outer.ms() - inner.ms() + 1e-9);
        assert_eq!(
            tr.chrome_json()["traceEvents"].as_array().map(Vec::len),
            Some(2)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin("x", 0);
        tr.end();
        assert!(tr.spans().is_empty());
    }
}
