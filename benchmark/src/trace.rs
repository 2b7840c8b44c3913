//! Spans recorded from the benchmark's own code around each call into a
//! layer. They stay in memory until the run ends and are then written
//! in Chrome `trace_event` form, the format `datasync trace` exports and
//! `chrome://tracing` / Perfetto load.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer; `NONE` for "no span".
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (`NONE` for an op's root span).
    pub parent: SpanId,
    /// The op (cell or request) the span belongs to.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Disabled, `begin` and `end` return at
/// once, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer { enabled, origin, spans: Vec::new(), open: Vec::new() }
    }

    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        let now = self.ns(Instant::now());
        let id = self.spans.len() as SpanId;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Records a span from two instants already taken (the serve client
    /// stamps its phases whether or not a trace is wanted).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        self.spans
            .push(Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, op });
        id
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children of one parent do not overlap here: each
/// thread records its spans one after another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What the spans of one traced run add up to.
#[derive(Debug, Default)]
pub struct Summary {
    /// Durations (ns) of every span, by name.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Per root span: the share of it that its children cover.
    pub coverage: Vec<f64>,
    pub spans: usize,
}

impl Summary {
    pub fn add(&mut self, spans: &[Span]) {
        let own = self_times(spans);
        for (s, &own_ns) in spans.iter().zip(&own) {
            self.durations.entry(s.name).or_default().push(s.dur_ns() as f64);
            if s.parent == NONE && s.dur_ns() > 0 {
                self.coverage.push(1.0 - own_ns as f64 / s.dur_ns() as f64);
            }
        }
        self.spans += spans.len();
    }

    pub fn of(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn total(&self, name: &str) -> f64 {
        self.of(name).iter().sum()
    }
}

/// Per op, the summed duration (ns) of its spans called `name`: a stage
/// that runs once per chunk still counts once per request.
pub fn per_op(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_op.entry(s.op).or_default() += s.dur_ns() as f64;
    }
    by_op.into_values().collect()
}

/// Renders per-thread span lists as one Chrome `trace_event` document.
pub fn chrome_json(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = if s.parent == NONE { "" } else { spans[s.parent as usize].name };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"op\":{},\"parent\":\"{parent}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("cell", 0, 100, NONE),
            span("compile", 5, 25, 0),
            span("run", 30, 90, 0),
            span("deliver", 40, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let mut sum = Summary::default();
        sum.add(&spans);
        assert_eq!(sum.coverage, vec![0.8]);
        assert_eq!(sum.total("run"), 60.0);
        assert_eq!(sum.spans, 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("cell", 1);
        t.end(id);
        assert_eq!(id, NONE);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("cell", 3);
        let child = t.begin("run", 3);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans[child as usize].parent, root);
        assert_eq!(t.spans[root as usize].parent, NONE);
        assert!(t.spans[root as usize].dur_ns() >= t.spans[child as usize].dur_ns());
        let doc = chrome_json(&[t.spans]);
        assert!(doc.contains("\"name\":\"run\"") && doc.contains("\"parent\":\"cell\""));
    }
}
