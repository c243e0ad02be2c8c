//! Spans recorded by the harness around its calls into the program.
//!
//! Spans stay in memory and are written out as Chrome-trace JSON when
//! the run ends. A span's self time is its duration minus the part of
//! that interval its direct children cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use spg_telemetry::json;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `fwd.L03.conv`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Step or request the span belongs to.
    pub op: u64,
    /// Harness thread that recorded it.
    pub tid: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::open`]; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder for one harness thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, tid: u32, enabled: bool) -> Self {
        Tracer { enabled, origin, tid, spans: Vec::new(), stack: Vec::new() }
    }

    /// Switches recording on or off; open spans stay open.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        spg_telemetry::saturating_nanos(t.saturating_duration_since(self.origin))
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op,
            tid: self.tid,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and anything opened inside it that was left open).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (for boundaries the harness only sees as callbacks).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, op: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            op,
            tid: self.tid,
        });
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the part of its interval
    /// covered by its direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// The largest share of any parent span's duration that its children
    /// do not account for (`parent self time / parent duration`).
    pub fn residual_share(&self) -> f64 {
        let selfs = self.self_times_ns();
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(selfs)
            .zip(has_child)
            .filter(|((s, _), parent)| *parent && s.duration_ns() > 0)
            .map(|((s, own), _)| own as f64 / s.duration_ns() as f64)
            .fold(0.0, f64::max)
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): complete events with microsecond timestamps, the
    /// parent index and op id under `args`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_to(&mut out)?;
        out.flush()
    }

    fn write_chrome_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let selfs = self.self_times_ns();
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{}}}}}{sep}",
                json::string(&s.name),
                s.tid,
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.duration_ns() as f64 / 1e3),
                s.op,
                json::number(own as f64 / 1e3),
            )?;
        }
        writeln!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0, true);
        let root = t.open("root", 1);
        t.close(root);
        // Rebuild deterministic intervals by hand: root 0..100us, two
        // children 10..40 and 50..70, one grandchild 15..25.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100_000;
        t.stack.push(0);
        t.record("a", at(origin, 10), at(origin, 40), 1);
        t.record("b", at(origin, 50), at(origin, 70), 1);
        t.stack.push(1);
        t.record("a.inner", at(origin, 15), at(origin, 25), 1);
        let selfs = t.self_times_ns();
        assert_eq!(selfs, vec![50_000, 20_000, 20_000, 10_000]);
        // root leaves 50 of 100us unexplained; `a` leaves 20 of 30.
        assert!((t.residual_share() - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0, true);
        t.record("p", at(origin, 0), at(origin, 10), 0);
        t.stack.push(0);
        t.record("c", at(origin, 5), at(origin, 50), 0);
        assert_eq!(t.self_times_ns()[0], 5_000);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_links_parents() {
        let mut off = Tracer::new(Instant::now(), 0, false);
        let id = off.open("x", 0);
        off.close(id);
        off.record("y", Instant::now(), Instant::now(), 0);
        assert!(off.spans().is_empty());

        let mut t = Tracer::new(Instant::now(), 3, true);
        let a = t.open("a", 7);
        let b = t.open("b", 7);
        t.close(b);
        t.close(a);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut merged = Tracer::new(Instant::now(), 0, true);
        merged.record("first", Instant::now(), Instant::now(), 0);
        merged.absorb(t);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert_eq!(merged.spans()[2].tid, 3);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0, true);
        let a = t.open("step \"1\"", 1);
        t.record("child", at(origin, 1), at(origin, 2), 1);
        t.close(a);
        let mut bytes = Vec::new();
        t.write_chrome_to(&mut bytes).unwrap();
        let doc = json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("traceEvents").and_then(|e| e.as_array()).map(<[_]>::len), Some(2));
    }
}
