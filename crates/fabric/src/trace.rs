//! Causal tracing for the discrete-event kernel.
//!
//! Every traced unit of work is a **span**: a named interval of simulated
//! time attributed to a site/actor and linked to the span that caused it.
//! Spans from one logical request share a **trace** — the kernel threads a
//! [`TraceContext`] through message deliveries, timer fires and compute
//! completions so cross-actor causality needs no per-call plumbing (see
//! `Ctx::span` in [`crate::sim`]).
//!
//! All records land in a [`TraceSink`]: a bounded, deterministic buffer.
//! Ids are allocated in event order and the sink never consults the
//! simulation RNG, so two runs with the same seed produce byte-identical
//! traces — and enabling tracing cannot perturb an experiment's results.

use std::borrow::Cow;

use crate::sim::ActorId;
use crate::time::SimTime;
use crate::topology::SiteId;

/// Default span capacity of a [`TraceSink`] (records beyond it are counted
/// in [`TraceSink::dropped`] but not stored).
pub const DEFAULT_MAX_SPANS: usize = 1 << 18;

/// Identifier of one causal trace (one logical request / root event).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace{}", self.0)
    }
}

/// Identifier of one span, unique within a [`TraceSink`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span{}", self.0)
    }
}

/// The causal coordinates carried by messages, timers and compute tickets.
///
/// `parent` is the span that caused this one (`None` for trace roots).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceContext {
    /// Trace this context belongs to.
    pub trace_id: TraceId,
    /// The span these coordinates denote.
    pub span_id: SpanId,
    /// Causing span, if any.
    pub parent: Option<SpanId>,
}

/// Coarse classification of a span, used by the critical-path breakdown.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SpanKind {
    /// A logical request as seen by its initiator (trace roots, usually).
    Request,
    /// Time on the wire: link latency + serialization + jitter.
    Network,
    /// Time waiting for a CPU core to free up.
    Queue,
    /// Time executing on a core.
    Compute,
    /// A priced service call (GridFTP, Expect, GRAM, MDS ...).
    Service,
    /// Everything else: protocol rounds, bookkeeping, sub-stages.
    Internal,
}

impl SpanKind {
    /// Stable lowercase label (used as the Chrome trace category).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Network => "network",
            SpanKind::Queue => "queue",
            SpanKind::Compute => "compute",
            SpanKind::Service => "service",
            SpanKind::Internal => "internal",
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One completed (or still-open) span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// Causing span, if any.
    pub parent: Option<SpanId>,
    /// Human-readable name (`"node.query"`, `"cpu.registry"` ...): borrowed
    /// when the caller passed a literal, owned when it was computed.
    pub name: Cow<'static, str>,
    /// Coarse classification.
    pub kind: SpanKind,
    /// Site the span is attributed to, when known.
    pub site: Option<SiteId>,
    /// Actor the span is attributed to, when known.
    pub actor: Option<ActorId>,
    /// Simulated start instant.
    pub start: SimTime,
    /// Simulated end instant (`== start` for instantaneous spans).
    pub end: SimTime,
    /// Free-form key/value attributes, in insertion order. A key is always
    /// a literal; a value is borrowed when it is one (`"1"`, `"cache"`).
    pub attrs: Vec<(&'static str, Cow<'static, str>)>,
}

/// A count as a span attribute value: borrowed for 0–15, the counts spans
/// carry nearly always (concrete types, peers, keys, installs, prompts),
/// owned above.
pub fn count_attr(n: usize) -> Cow<'static, str> {
    const SMALL: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    match SMALL.get(n) {
        Some(s) => Cow::Borrowed(s),
        None => Cow::Owned(n.to_string()),
    }
}

/// A lightweight, copyable reference to an open span.
///
/// Obtained from `Ctx::span` (or [`TraceSink::open`]); inert when tracing
/// is disabled, so instrumented code needs no `if traced` branches.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanHandle(pub(crate) Option<TraceContext>);

impl SpanHandle {
    /// The inert handle (tracing disabled).
    pub const NONE: SpanHandle = SpanHandle(None);

    /// Make a handle from a raw context.
    pub(crate) fn from_context(ctx: TraceContext) -> SpanHandle {
        SpanHandle(Some(ctx))
    }

    /// The underlying context, `None` when inert.
    pub(crate) fn context(self) -> Option<TraceContext> {
        self.0
    }
}

/// Bounded, deterministic collector of [`SpanRecord`]s.
///
/// Span and trace ids are dense counters allocated in call order; the
/// closed-span buffer preserves close order. Because simulations process
/// events in a deterministic `(time, seq)` order, the sink's contents are
/// a pure function of the seed.
#[derive(Clone, Debug)]
pub struct TraceSink {
    max_spans: usize,
    next_trace: u64,
    next_span: u64,
    closed: Vec<SpanRecord>,
    open: Vec<SpanRecord>,
    dropped: u64,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new(DEFAULT_MAX_SPANS)
    }
}

impl TraceSink {
    /// A sink storing at most `max_spans` records.
    pub fn new(max_spans: usize) -> TraceSink {
        TraceSink {
            max_spans,
            next_trace: 0,
            next_span: 0,
            closed: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// Allocate a fresh trace id.
    pub(crate) fn new_trace(&mut self) -> TraceId {
        let id = TraceId(self.next_trace);
        self.next_trace += 1;
        id
    }

    /// Allocate the context of a new span under `parent` (in a fresh trace
    /// without one), and say whether the sink has room to store it: once it
    /// holds `max_spans` records it has not, and the span counts as dropped.
    fn begin(&mut self, parent: Option<TraceContext>) -> (TraceContext, bool) {
        let trace_id = match parent {
            Some(p) => p.trace_id,
            None => self.new_trace(),
        };
        let span_id = SpanId(self.next_span);
        self.next_span += 1;
        let ctx = TraceContext {
            trace_id,
            span_id,
            parent: parent.map(|p| p.span_id),
        };
        let room = self.closed.len() + self.open.len() < self.max_spans;
        if !room {
            self.dropped += 1;
        }
        (ctx, room)
    }

    /// Open a span at `start`. With `parent: None` a fresh trace is
    /// started; otherwise the span joins the parent's trace.
    ///
    /// Ids are always allocated (propagation stays deterministic) but the
    /// record is discarded — and counted in [`TraceSink::dropped`] — once
    /// the sink holds `max_spans` records.
    pub fn open(
        &mut self,
        parent: Option<TraceContext>,
        name: impl Into<Cow<'static, str>>,
        kind: SpanKind,
        site: Option<SiteId>,
        actor: Option<ActorId>,
        start: SimTime,
    ) -> TraceContext {
        let (ctx, room) = self.begin(parent);
        if room {
            self.open.push(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent: ctx.parent,
                name: name.into(),
                kind,
                site,
                actor,
                start,
                end: start,
                attrs: Vec::new(),
            });
        }
        ctx
    }

    /// Attach an attribute to a still-open span (no-op if unknown/closed).
    pub fn attr(&mut self, span: SpanId, key: &'static str, value: impl Into<Cow<'static, str>>) {
        if let Some(rec) = self.open.iter_mut().rev().find(|r| r.span_id == span) {
            rec.attrs.push((key, value.into()));
        }
    }

    /// Close an open span at `end`. Returns `false` when the span is
    /// unknown (dropped at the bound, or already closed).
    ///
    /// Spans nest, so the one to close is nearly always the last one
    /// opened: the search runs from the back, and spans an abandoned
    /// request left open at the front are never walked.
    pub fn close(&mut self, span: SpanId, end: SimTime) -> bool {
        let Some(pos) = self.open.iter().rposition(|r| r.span_id == span) else {
            return false;
        };
        let mut rec = self.open.remove(pos);
        rec.end = rec.start.max(end);
        self.closed.push(rec);
        true
    }

    /// Open and immediately close a span over `[start, end]` with the
    /// given attributes: the closed record is written once, straight into
    /// the closed buffer. Returns the context for chaining children.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: Option<TraceContext>,
        name: impl Into<Cow<'static, str>>,
        kind: SpanKind,
        site: Option<SiteId>,
        actor: Option<ActorId>,
        start: SimTime,
        end: SimTime,
        attrs: impl IntoIterator<Item = (&'static str, Cow<'static, str>)>,
    ) -> TraceContext {
        let (ctx, room) = self.begin(parent);
        if room {
            self.closed.push(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent: ctx.parent,
                name: name.into(),
                kind,
                site,
                actor,
                start,
                end: start.max(end),
                attrs: attrs.into_iter().collect(),
            });
        }
        ctx
    }

    /// Close every still-open span at `now` (open order preserved).
    pub fn finish(&mut self, now: SimTime) {
        for mut rec in self.open.drain(..) {
            rec.end = rec.start.max(now);
            self.closed.push(rec);
        }
    }

    /// Closed spans, in close order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.closed
    }

    /// Spans opened and not closed so far, in open order.
    pub fn open_spans(&self) -> &[SpanRecord] {
        &self.open
    }

    /// Number of stored (closed) spans.
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// Whether no span has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty() && self.open.is_empty()
    }

    /// Number of spans discarded at the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn open_close_roundtrip() {
        let mut sink = TraceSink::new(16);
        let root = sink.open(None, "req", SpanKind::Request, None, None, t(0));
        assert_eq!(root.trace_id, TraceId(0));
        assert_eq!(root.span_id, SpanId(0));
        assert_eq!(root.parent, None);
        let child = sink.open(Some(root), "net", SpanKind::Network, None, None, t(1));
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent, Some(root.span_id));
        sink.attr(child.span_id, "bytes", "512");
        assert!(sink.close(child.span_id, t(3)));
        assert!(sink.close(root.span_id, t(5)));
        assert!(!sink.close(root.span_id, t(6)), "double close rejected");
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "net", "close order preserved");
        assert_eq!(spans[0].attrs, vec![("bytes", "512".into())]);
        assert_eq!(spans[1].end.saturating_since(spans[1].start), crate::time::SimDuration::from_millis(5));
    }

    #[test]
    fn bound_drops_but_keeps_allocating_ids() {
        let mut sink = TraceSink::new(1);
        let a = sink.open(None, "a", SpanKind::Internal, None, None, t(0));
        let b = sink.open(Some(a), "b", SpanKind::Internal, None, None, t(1));
        assert_eq!(b.span_id, SpanId(1), "ids keep flowing past the bound");
        assert!(!sink.close(b.span_id, t(2)), "b was dropped");
        assert!(sink.close(a.span_id, t(2)));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn finish_closes_open_spans_in_order() {
        let mut sink = TraceSink::new(8);
        let a = sink.open(None, "a", SpanKind::Internal, None, None, t(0));
        let _b = sink.open(Some(a), "b", SpanKind::Internal, None, None, t(1));
        sink.finish(t(9));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.spans()[0].name, "a");
        assert_eq!(sink.spans()[1].end, t(9));
    }

    #[test]
    fn record_is_open_plus_close() {
        let mut sink = TraceSink::new(8);
        let ctx = sink.record(
            None,
            "step",
            SpanKind::Service,
            Some(SiteId(2)),
            None,
            t(10),
            t(14),
            [("step", "untar".into())],
        );
        assert_eq!(sink.len(), 1);
        let rec = &sink.spans()[0];
        assert_eq!(rec.span_id, ctx.span_id);
        assert_eq!(rec.site, Some(SiteId(2)));
        assert_eq!(rec.end, t(14));
        assert_eq!(rec.attrs[0].1, "untar");
    }

    #[test]
    fn count_attr_borrows_small_counts_and_reads_like_to_string() {
        for n in [0, 1, 9, 10, 15, 16, 99, 1_000_000] {
            let v = count_attr(n);
            assert_eq!(v, n.to_string());
            assert_eq!(matches!(v, Cow::Borrowed(_)), n < 16, "{n}");
        }
    }

    /// The sink as it was before span text borrowed and `close` searched
    /// from the back: every name and attribute an owned `String`, `close`
    /// a front scan. Kept as the reference the sink is compared against.
    struct OwningSink {
        max_spans: usize,
        next_trace: u64,
        next_span: u64,
        closed: Vec<OwningRecord>,
        open: Vec<OwningRecord>,
        dropped: u64,
    }

    #[derive(Debug, PartialEq)]
    struct OwningRecord {
        ctx: TraceContext,
        name: String,
        start: SimTime,
        end: SimTime,
        attrs: Vec<(String, String)>,
    }

    impl OwningSink {
        fn open(&mut self, parent: Option<TraceContext>, name: &str, start: SimTime) -> TraceContext {
            let trace_id = match parent {
                Some(p) => p.trace_id,
                None => {
                    self.next_trace += 1;
                    TraceId(self.next_trace - 1)
                }
            };
            self.next_span += 1;
            let span_id = SpanId(self.next_span - 1);
            let ctx = TraceContext { trace_id, span_id, parent: parent.map(|p| p.span_id) };
            if self.closed.len() + self.open.len() < self.max_spans {
                let (name, attrs) = (name.to_owned(), Vec::new());
                self.open.push(OwningRecord { ctx, name, start, end: start, attrs });
            } else {
                self.dropped += 1;
            }
            ctx
        }

        fn attr(&mut self, span: SpanId, key: &str, value: &str) {
            if let Some(rec) = self.open.iter_mut().rev().find(|r| r.ctx.span_id == span) {
                rec.attrs.push((key.to_owned(), value.to_owned()));
            }
        }

        fn close(&mut self, span: SpanId, end: SimTime) -> bool {
            let Some(pos) = self.open.iter().position(|r| r.ctx.span_id == span) else {
                return false;
            };
            let mut rec = self.open.remove(pos);
            rec.end = rec.start.max(end);
            self.closed.push(rec);
            true
        }

        fn finish(&mut self, now: SimTime) {
            for mut rec in self.open.drain(..) {
                rec.end = rec.start.max(now);
                self.closed.push(rec);
            }
        }
    }

    /// What the reference would hold for `rec`.
    fn owning(rec: &SpanRecord) -> OwningRecord {
        OwningRecord {
            ctx: TraceContext { trace_id: rec.trace_id, span_id: rec.span_id, parent: rec.parent },
            name: rec.name.to_string(),
            start: rec.start,
            end: rec.end,
            attrs: rec.attrs.iter().map(|(k, v)| ((*k).to_owned(), v.to_string())).collect(),
        }
    }

    /// Random `open` / `attr` / `record` / `close` / `finish` against the
    /// owning reference, at and past `max_spans`: closes in LIFO order, out
    /// of order, and of ids that are unknown, dropped or already closed.
    /// Same ids returned, same `close` verdicts, same stored spans (names,
    /// attributes as strings, order, ends), same open spans, same drops.
    #[test]
    fn borrowing_sink_equals_the_owning_one_under_random_use() {
        use crate::rng::SimRng;

        const NAMES: [&str; 4] = ["rdm.request", "deploy.step", "net.send", "cpu.queue"];
        const KEYS: [&str; 3] = ["hit", "step", "bytes"];
        const VALUES: [&str; 3] = ["1", "cache", "unreachable"];
        let mut rng = SimRng::from_seed(0x23_7ACE);
        for round in 0..300 {
            let max_spans = rng.range(1, 24) as usize;
            let mut sink = TraceSink::new(max_spans);
            let mut old = OwningSink {
                max_spans,
                next_trace: 0,
                next_span: 0,
                closed: Vec::new(),
                open: Vec::new(),
                dropped: 0,
            };
            // Every context handed out so far: open, closed or dropped.
            let mut known: Vec<TraceContext> = Vec::new();
            let mut clock = 0u64;
            for _ in 0..rng.range(1, 80) {
                clock += rng.range(0, 3);
                let now = t(clock);
                let parent = (!known.is_empty() && rng.chance(0.6)).then(|| known[rng.index(known.len())]);
                // Literal or computed text, as the kernel's `cpu.<tag>` is.
                let literal = rng.chance(0.8);
                let (name, value) = (NAMES[rng.index(NAMES.len())], VALUES[rng.index(VALUES.len())]);
                let (computed_name, computed_value) = (format!("cpu.{clock}"), clock.to_string());
                let key = KEYS[rng.index(KEYS.len())];
                match rng.range(0, 10) {
                    0..=2 => {
                        let got = if literal {
                            sink.open(parent, name, SpanKind::Internal, None, None, now)
                        } else {
                            sink.open(parent, computed_name.clone(), SpanKind::Compute, None, None, now)
                        };
                        let want = old.open(parent, if literal { name } else { &computed_name }, now);
                        assert_eq!(got, want);
                        known.push(got);
                    }
                    3 => {
                        let end = t(clock + rng.range(0, 5));
                        let n = rng.range(0, 3) as usize;
                        let attrs: Vec<(&'static str, Cow<'static, str>)> = (0..n)
                            .map(|i| (KEYS[i], if literal { value.into() } else { computed_value.clone().into() }))
                            .collect();
                        let want = old.open(parent, name, now);
                        for (k, v) in &attrs {
                            old.attr(want.span_id, k, v);
                        }
                        old.close(want.span_id, end);
                        let got = sink.record(parent, name, SpanKind::Service, None, None, now, end, attrs);
                        assert_eq!(got, want);
                        known.push(got);
                    }
                    4 | 5 => {
                        // Any id ever handed out, or one never handed out.
                        let span = match known.is_empty() || rng.chance(0.1) {
                            true => SpanId(1_000_000),
                            false => known[rng.index(known.len())].span_id,
                        };
                        if literal {
                            sink.attr(span, key, value);
                        } else {
                            sink.attr(span, key, computed_value.clone());
                        }
                        old.attr(span, key, if literal { value } else { &computed_value });
                    }
                    6..=8 => {
                        // The innermost open span (LIFO), any known id (out
                        // of order, closed already or dropped), or unknown.
                        let span = match (old.open.last(), rng.range(0, 10)) {
                            (Some(last), 0..=5) => last.ctx.span_id,
                            (_, 6..=8) if !known.is_empty() => known[rng.index(known.len())].span_id,
                            _ => SpanId(1_000_000),
                        };
                        assert_eq!(sink.close(span, now), old.close(span, now), "close of {span}");
                    }
                    _ => {
                        if rng.chance(0.2) {
                            sink.finish(now);
                            old.finish(now);
                        }
                    }
                }
                assert_eq!(sink.len(), old.closed.len(), "round {round}");
                assert_eq!(sink.dropped(), old.dropped);
                assert_eq!(sink.is_empty(), old.closed.is_empty() && old.open.is_empty());
            }
            assert_eq!(sink.open_spans().iter().map(owning).collect::<Vec<_>>(), old.open);
            assert_eq!(sink.spans().iter().map(owning).collect::<Vec<_>>(), old.closed);
        }
    }
}
