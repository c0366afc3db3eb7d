//! In-memory spans recorded around calls into the program's layers,
//! written out when the benchmark ends.
//!
//! A span has a name, start and end, the span that caused it and the
//! request it belongs to. A layer's self time is its span's duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for work outside any request).
    pub req: u64,
    /// Counts attached to the span, as the text of a JSON object.
    pub args: Option<String>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls its
/// closure, so the measured code path is the same either way.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
            args: None,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.ns(Instant::now());
        out
    }

    /// Record a top-level span measured by the caller (the server pass
    /// times each request from submit to checked report).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            let (start, end) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start,
                end,
                parent: None,
                req,
                args: None,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Attach counts (a JSON object's text) to span `idx`.
    pub fn set_args(&mut self, idx: usize, args: String) {
        if let Some(s) = self.spans.get_mut(idx) {
            s.args = Some(args);
        }
    }

    /// Self time per span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// `(calls, total self ns)` per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        out
    }

    /// Write the spans as JSON lines and as Chrome trace-event JSON
    /// (`chrome://tracing`, Perfetto). `host` is a JSON object stamped
    /// into both.
    pub fn write(&self, jsonl: &Path, chrome: &Path, host: &str) -> std::io::Result<()> {
        let self_ns = self.self_times();
        let mut lines = String::with_capacity(self.spans.len() * 96);
        let _ = writeln!(lines, "{{\"host\":{host}}}");
        for (i, (s, t)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let args = s.args.as_deref().unwrap_or("null");
            let _ = writeln!(
                lines,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t},\"parent\":{parent},\"req\":{},\"args\":{args}}}",
                s.name, s.start, s.end, s.req
            );
        }
        write_file(jsonl, &lines)?;

        // Complete ("X") events; nesting on one thread track is what
        // the viewers draw as the span tree. The server pass's request
        // spans overlap (several requests are outstanding), so each gets
        // a track per outstanding slot.
        let mut ev = String::with_capacity(self.spans.len() * 96);
        let _ = write!(ev, "{{\"otherData\":{{\"host\":{host}}},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = if s.name == "serve.request" {
                1 + s.req % 64
            } else {
                0
            };
            let _ = write!(
                ev,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\"args\":{{\"req\":{},\"counts\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.req,
                s.args.as_deref().unwrap_or("null")
            );
        }
        ev.push_str("]}\n");
        write_file(chrome, &ev)
    }
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(text.as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::on();
        tr.span("outer", 1, |tr| {
            tr.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let by = tr.self_by_name();
        let (outer, inner) = (by["outer"], by["inner"]);
        assert_eq!((outer.0, inner.0), (1, 1));
        assert!(inner.1 >= 2_000_000);
        assert_eq!(outer.1 + inner.1, tr.spans()[0].dur());
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("x", 1, |_| 7);
        tr.record("y", 1, Instant::now(), Instant::now());
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
