//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the library's public functions from the outside;
//! nothing inside the library is instrumented. Each span records its name,
//! the layer (library module) it belongs to, start and end, the span that
//! caused it and the request it served, plus any counters read at its
//! boundary. Spans stay in memory until the run ends. A disabled tracer
//! records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    counters: Vec<(&'static str, f64)>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
            counters: Vec::new(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span, attaching the counters read at its boundary.
    pub fn exit(&mut self, span: SpanId, counters: &[(&'static str, f64)]) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.counters.extend_from_slice(counters);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.enter(name, layer, request);
        let out = f();
        self.exit(span, &[]);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of root spans with this name, in seconds.
    pub fn root_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Per-layer self time (seconds): a span's duration minus the time its
    /// children cover. Children of one span run one after another on the
    /// benchmark's single client thread, so their durations do not overlap.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            let entry = out.entry(s.layer).or_default();
            entry.0 += own as f64 * 1e-9;
            entry.1 += 1;
        }
        out
    }

    /// All spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                s.request, s.name, s.layer, s.start_ns, s.end_ns
            );
            for (i, (k, v)) in s.counters.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{k}\":{}", crate::report::json_number(*v));
            }
            out.push_str("}}\n");
        }
        out
    }
}
