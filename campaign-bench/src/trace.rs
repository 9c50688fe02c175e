//! In-memory spans: name, start, end and parent, recorded around calls into
//! the product's layers and written out once the traced run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread. A span's parent is the span open
/// when it started.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                parent: self.open.borrow().last().copied(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let result = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children's intervals cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Sums of duration and self time per span name, and self time per layer,
/// all in milliseconds.
pub struct Summary {
    pub total_ms: BTreeMap<&'static str, f64>,
    pub count: BTreeMap<&'static str, u64>,
    pub layer_self_ms: BTreeMap<&'static str, f64>,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let self_ns = self_times_ns(spans);
    let mut summary = Summary {
        total_ms: BTreeMap::new(),
        count: BTreeMap::new(),
        layer_self_ms: BTreeMap::new(),
    };
    for (span, own) in spans.iter().zip(self_ns) {
        *summary.total_ms.entry(span.name).or_default() += span.duration_ns() as f64 / 1e6;
        *summary.count.entry(span.name).or_default() += 1;
        *summary.layer_self_ms.entry(span.layer()).or_default() += own as f64 / 1e6;
    }
    summary
}

/// Writes one JSON line per span: index, parent, name, start, end and self
/// time in microseconds.
pub fn write_spans(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for (id, (span, own)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\
             \"end_us\":{:.3},\"self_us\":{:.3}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
            own as f64 / 1e3
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, "campaign", 0, 100),
            span(Some(0), "engine.run", 10, 60),
            span(Some(1), "sink.accept", 20, 30),
            span(Some(1), "cache.flush", 25, 40), // overlaps its sibling
            span(Some(0), "merge.sort", 70, 120), // runs past its parent
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 10, 15, 50]);
    }

    #[test]
    fn recorded_spans_nest_and_never_have_negative_self_time() {
        let tracer = Tracer::new();
        tracer.span("campaign", || {
            tracer.span("spec.parse_plan", || std::hint::black_box(1));
            tracer.span("engine.run", || {
                for _ in 0..3 {
                    tracer.span("sink.accept", || std::hint::black_box(2));
                }
            });
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[3..].iter().all(|s| s.parent == Some(2)));
        let own = self_times_ns(&spans);
        assert!(own.iter().zip(&spans).all(|(o, s)| *o <= s.duration_ns()));
        let summary = summarize(&spans);
        assert_eq!(summary.count["sink.accept"], 3);
        let layer_total: f64 = summary.layer_self_ms.values().sum();
        assert!((layer_total - spans[0].duration_ns() as f64 / 1e6).abs() < 1e-6);
    }
}
