//! Span recording around the calls into each layer.
//!
//! A span is one layer call: its name, start and end (host nanoseconds
//! since the tracer was created), the span that encloses it, and the op
//! it belongs to. Spans stay in memory and are written out once, after
//! the run. With the tracer off, [`Tracer::enter`] and [`Tracer::exit`]
//! do nothing, so untraced ops pay one branch per layer call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `analysis.pdg`; `op` for the op itself.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end: u64,
}

/// An open span; hand it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Token(Option<usize>);

/// Records spans while on; a no-op while off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    op: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer, initially off.
    pub fn new() -> Self {
        Tracer {
            on: false,
            op: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True while recording.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts recording spans for op `op`.
    pub fn start_op(&mut self, op: u64) {
        self.on = true;
        self.op = op;
    }

    /// Stops recording (the next op is untraced).
    pub fn stop(&mut self) {
        self.on = false;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(idx);
        Token(Some(idx))
    }

    /// Closes the span `token` opened.
    pub fn exit(&mut self, token: Token) {
        if let Some(idx) = token.0 {
            self.spans[idx].end = self.now();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = self.enter(name);
        let out = f();
        self.exit(t);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (calls, summed self time in ns). A span's self time
    /// is its duration minus the durations of its direct children (spans
    /// nest and never overlap, so the children cover disjoint parts).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end.saturating_sub(s.start).saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.scope("x", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.start_op(3);
        let op = t.enter("op");
        t.scope("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end >= s.start));
        let st = t.self_times();
        let (calls, child_self) = st["child"];
        assert_eq!(calls, 1);
        assert!(child_self >= 2_000_000);
        let op_total = spans[0].end - spans[0].start;
        assert_eq!(st["op"].1, op_total - (spans[1].end - spans[1].start));
    }
}
