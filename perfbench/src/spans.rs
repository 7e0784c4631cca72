//! In-memory span recording around each call into a layer.
//!
//! A span has a name, start and end (ns since the tracer was made), the
//! index of the span open when it began, and the request it belongs to.
//! Spans stay in memory and are written out once, at exit. With tracing
//! off every call is a no-op that reads no clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the span wrapping one whole request.
pub const REQUEST: &str = "request";

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call (or `request`) this span times.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals folded from the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    /// Spans with this name.
    pub calls: u64,
    /// Σ span durations, ns.
    pub total_ns: u64,
    /// Σ (span duration − time covered by its direct children), ns.
    pub self_ns: u64,
}

impl Layer {
    /// Mean self time per call, in ms (0 when never called).
    #[must_use]
    pub fn self_ms_per_call(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64 / 1e6, self.calls as f64)
    }
}

/// Records spans when on; does nothing when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts the next request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("close() matches an open()");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Folds the spans into per-name call counts, total and self time.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.total_ns += s.ns();
            l.self_ns += s.ns().saturating_sub(children);
        }
        out
    }

    /// Share of request time no child layer span covers.
    #[must_use]
    pub fn unattributed_share(&self) -> f64 {
        let req = self.layers().get(REQUEST).copied().unwrap_or_default();
        crate::stats::ratio(req.self_ns as f64, req.total_ns as f64)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.next_request();
        assert_eq!(t.time("x", || 3), 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.unattributed_share(), 0.0);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.next_request();
        t.open(REQUEST);
        t.time("a", || t_sleep(2));
        t.time("b", || t_sleep(2));
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.request == 1));
        let layers = t.layers();
        let req = layers[REQUEST];
        assert_eq!(req.self_ns, req.total_ns - s[1].ns() - s[2].ns());
        assert_eq!(layers["a"].calls, 1);
        assert!(t.unattributed_share() < 0.5);
    }

    fn t_sleep(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}
