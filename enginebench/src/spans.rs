//! In-memory spans recorded by the traced replay around each call into a
//! layer, with per-name aggregation and self time.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created; `end_ns == u64::MAX` while open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static span name, e.g. `cluster.place_vm`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans in memory. Spans are opened and closed in stack
/// order; the enclosing open span becomes the parent.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: u64::MAX,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in stack order");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let result = f();
        self.close(id);
        result
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines: id, parent (-1 for roots),
    /// name, start ns, end ns.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-span self time: the span's duration minus the part its direct
/// children cover (children never overlap each other, as spans nest).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children_ns[span.parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children_ns)
        .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
        .collect()
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans recorded under the name.
    pub calls: usize,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Each span's full duration, µs, in open order.
    pub durations_us: Vec<f64>,
}

/// Group spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.self_ns += self_ns;
        entry.durations_us.push(span.duration_ns() as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("event", 10, 60, 0),
            span("call", 20, 50, 1),
            span("call", 70, 80, 0),
        ];
        // root: 100 − (50 + 10); event: 50 − 30; leaves keep everything.
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
        let stats = by_name(&spans);
        assert_eq!(stats["call"].calls, 2);
        assert_eq!(stats["call"].self_ns, 40);
        assert_eq!(stats["call"].durations_us, vec![0.03, 0.01]);
        assert_eq!(stats["root"].self_ns, 40);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut rec = SpanRecorder::new();
        let outer = rec.open("outer");
        let value = rec.time("inner", || 7);
        rec.close(outer);
        assert_eq!(value, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let self_ns = self_times_ns(spans);
        assert_eq!(self_ns[0] + self_ns[1], spans[0].duration_ns());

        let mut tsv = Vec::new();
        rec.write_tsv(&mut tsv).unwrap();
        let text = String::from_utf8(tsv).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().starts_with("1\t0\tinner\t"));
    }

    #[test]
    #[should_panic(expected = "stack order")]
    fn out_of_order_close_panics() {
        let mut rec = SpanRecorder::new();
        let a = rec.open("a");
        let _b = rec.open("b");
        rec.close(a);
    }
}
