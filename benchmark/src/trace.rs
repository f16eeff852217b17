//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions. Kept in memory, flushed as JSON lines when the
//! workload ends. Spans *inside* the product are ROADMAP item 2.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that caused it; spans
/// of one operation (one request, one query) share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name totals derived from a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Σ (end − start).
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children).
    pub self_ns: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call, so the same code path serves traced and
/// untraced runs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            op_id,
        });
        SpanId(Some(self.spans.len() as u32 - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` under a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of a closed span in seconds (0 when disabled).
    pub fn seconds(&self, id: SpanId) -> f64 {
        id.0.map_or(0.0, |i| {
            let s = &self.spans[i as usize];
            (s.end_ns - s.start_ns) as f64 * 1e-9
        })
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Writes one JSON object per span. Errors are returned, never
    /// swallowed: a traced run that cannot write its trace is a failed run.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        w.flush()
    }
}

/// Self time = a span's duration minus the part of it its direct children
/// cover. Children of one parent never overlap here (each is opened and
/// closed by the one thread that owns the tracer), so "covered" is the sum
/// of their durations clipped to the parent.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&covered) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(*c);
    }
    out
}

/// The root handle: a span with no parent.
pub const ROOT: SpanId = SpanId(None);

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("exec", 20, 90, Some(0)),
            span("kernel", 30, 50, Some(2)),
            // A child that overruns its parent is clipped to it.
            span("render", 95, 120, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["request"].total_ns, 100);
        assert_eq!(t["request"].self_ns, 100 - 10 - 70 - 5);
        assert_eq!(t["exec"].self_ns, 70 - 20);
        assert_eq!(t["kernel"].self_ns, 20);
        assert_eq!(t["parse"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", ROOT, 1);
        t.end(id);
        assert_eq!(t.leaf("y", id, 1, || 7), 7);
        assert_eq!(t.len(), 0);
        assert_eq!(t.seconds(id), 0.0);
    }

    #[test]
    fn enabled_tracer_nests_and_flushes() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", ROOT, 3);
        t.leaf("inner", outer, 3, || std::hint::black_box(1 + 1));
        t.end(outer);
        assert_eq!(t.len(), 2);
        let totals = t.totals();
        assert!(totals["outer"].total_ns >= totals["inner"].total_ns);
    }
}
