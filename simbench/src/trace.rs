//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span it was opened in. Spans
//! stay in memory until the run ends, when [`Tracer::write`] saves them.
//! A disabled tracer only runs the closures, so the untraced and the traced
//! passes share one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `core.run`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`. `f` must not unwind: callers
    /// catch panics of the program inside it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Spans recorded from index `from` on.
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Per-name `(total, self)` seconds of `spans`, where a span's self time is
/// its duration minus the time its child spans cover. `spans` must be a
/// suffix of one tracer's spans whose parents all lie inside it, so parent
/// indices are taken relative to `base`.
pub fn self_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p >= base) {
            child[p - base] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        let e = out.entry(s.name).or_default();
        e.0 += s.secs();
        e.1 += s.secs() - c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 10_000,
                parent: None,
            },
            Span {
                name: "b",
                start_ns: 1_000,
                end_ns: 4_000,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 5_000,
                end_ns: 6_000,
                parent: Some(0),
            },
        ];
        let t = self_times(&spans, 0);
        assert!((t["a"].0 - 10e-6).abs() < 1e-12);
        assert!((t["a"].1 - 6e-6).abs() < 1e-12);
        assert!((t["b"].1 - 4e-6).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.since(0)[1].parent, Some(0));
        assert_eq!(t.since(0)[0].parent, None);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert_eq!(off.len(), 0);
    }
}
