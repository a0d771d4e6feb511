//! Post-hoc analysis of causal traces recorded by the fabric kernel.
//!
//! The simulator's [`TraceSink`] holds every span a run recorded (see
//! `glare_fabric::trace`). This module turns that raw span table into the
//! two artifacts the experiments want:
//!
//! * **Chrome `trace_event` JSON** ([`chrome_trace_json`]) — one complete
//!   (`ph: "X"`) event per span, `pid` = site, `tid` = actor, loadable
//!   straight into `chrome://tracing` / Perfetto. Events are sorted by
//!   `(trace, start, span)` so the same simulation always serializes to
//!   the same bytes.
//! * **Critical paths** ([`critical_paths`]) — per trace, the longest
//!   chain of causally-ordered spans from the root to the last-finishing
//!   leaf, with each hop's *exclusive* time attributed to network,
//!   compute or queueing. This is the per-request breakdown behind the
//!   `--trace` summaries of `fig12` and `fig13`.
//!
//! Everything here is a pure function of the recorded spans: analyzing a
//! trace can never perturb the simulation that produced it.

use std::collections::HashMap;

use glare_fabric::{SimDuration, SimTime, SpanId, SpanKind, SpanRecord, TraceId, TraceSink};

use crate::json::Json;

/// One hop on a critical path: a span and the share of the path's wall
/// time it owns exclusively (its duration minus its on-path child's).
#[derive(Clone, Debug)]
pub struct Hop {
    /// Span name (e.g. `net.send`, `cpu.req`).
    pub name: String,
    /// Span kind, which buckets the exclusive time.
    pub kind: SpanKind,
    /// Time attributed to this hop alone.
    pub exclusive: SimDuration,
}

/// The critical path of one trace.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Trace analyzed.
    pub trace_id: TraceId,
    /// End-to-end duration of the root span.
    pub total: SimDuration,
    /// Hops from the root down to the last-finishing leaf.
    pub hops: Vec<Hop>,
    /// Exclusive time spent on the wire (`SpanKind::Network`).
    pub network: SimDuration,
    /// Exclusive time spent executing (`SpanKind::Compute` and
    /// `SpanKind::Service`).
    pub compute: SimDuration,
    /// Exclusive time spent waiting for a core (`SpanKind::Queue`).
    pub queueing: SimDuration,
    /// Exclusive time in request/internal wrapper spans.
    pub other: SimDuration,
}

impl CriticalPath {
    /// JSON view of the path (hops omitted; see [`CriticalPath::to_json_full`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trace", Json::from(self.trace_id.0)),
            ("total_ms", Json::from(self.total.as_millis_f64())),
            ("network_ms", Json::from(self.network.as_millis_f64())),
            ("compute_ms", Json::from(self.compute.as_millis_f64())),
            ("queueing_ms", Json::from(self.queueing.as_millis_f64())),
            ("other_ms", Json::from(self.other.as_millis_f64())),
            ("hops", Json::from(self.hops.len())),
        ])
    }

    /// JSON view including the per-hop breakdown.
    pub fn to_json_full(&self) -> Json {
        let Json::Obj(mut fields) = self.to_json() else {
            unreachable!("to_json returns an object");
        };
        fields.pop(); // replace the hop count with the hop list
        fields.push((
            "hops".to_owned(),
            Json::arr(self.hops.iter().map(|h| {
                Json::obj([
                    ("name", Json::from(h.name.clone())),
                    ("kind", Json::from(h.kind.label())),
                    ("exclusive_ms", Json::from(h.exclusive.as_millis_f64())),
                ])
            })),
        ));
        Json::Obj(fields)
    }
}

/// Aggregate critical-path statistics over all traces of a run.
#[derive(Clone, Debug)]
pub struct CriticalPathStats {
    /// Traces analyzed.
    pub traces: usize,
    /// Mean end-to-end time.
    pub mean: SimDuration,
    /// Maximum end-to-end time.
    pub max: SimDuration,
    /// Mean exclusive time per bucket.
    pub mean_network: SimDuration,
    /// Mean exclusive compute time.
    pub mean_compute: SimDuration,
    /// Mean exclusive queueing time.
    pub mean_queueing: SimDuration,
}

impl CriticalPathStats {
    /// Aggregate a set of per-trace paths (all-zero when empty).
    pub fn of(paths: &[CriticalPath]) -> CriticalPathStats {
        let n = paths.len().max(1) as u64;
        let sum = |f: fn(&CriticalPath) -> SimDuration| {
            let total: u64 = paths.iter().map(|p| f(p).as_nanos()).sum();
            SimDuration::from_nanos(total / n)
        };
        CriticalPathStats {
            traces: paths.len(),
            mean: sum(|p| p.total),
            max: paths
                .iter()
                .map(|p| p.total)
                .max()
                .unwrap_or(SimDuration::ZERO),
            mean_network: sum(|p| p.network),
            mean_compute: sum(|p| p.compute),
            mean_queueing: sum(|p| p.queueing),
        }
    }

    /// JSON view for the `BENCH_overlay.json` emitter.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("traces", Json::from(self.traces)),
            ("mean_ms", Json::from(self.mean.as_millis_f64())),
            ("max_ms", Json::from(self.max.as_millis_f64())),
            ("mean_network_ms", Json::from(self.mean_network.as_millis_f64())),
            ("mean_compute_ms", Json::from(self.mean_compute.as_millis_f64())),
            ("mean_queueing_ms", Json::from(self.mean_queueing.as_millis_f64())),
        ])
    }
}

/// Deterministically ordered view of a sink's spans: sorted by
/// `(trace, start, span)`, so identical simulations yield identical
/// serializations regardless of close order.
fn ordered_spans(sink: &TraceSink) -> Vec<&SpanRecord> {
    let mut spans: Vec<&SpanRecord> = sink.spans().iter().collect();
    spans.sort_by_key(|r| (r.trace_id.0, r.start, r.span_id.0));
    spans
}

fn micros(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1_000.0
}

/// Serialize a sink as Chrome `trace_event` JSON (the "JSON Array
/// Format" wrapped in an object with `traceEvents`).
pub fn chrome_trace_json(sink: &TraceSink) -> Json {
    let events = ordered_spans(sink).into_iter().map(|r| {
        let mut args: Vec<(String, Json)> = vec![
            ("trace".to_owned(), Json::from(r.trace_id.0)),
            ("span".to_owned(), Json::from(r.span_id.0)),
        ];
        if let Some(p) = r.parent {
            args.push(("parent".to_owned(), Json::from(p.0)));
        }
        for (k, v) in &r.attrs {
            args.push(((*k).to_owned(), Json::from(&**v)));
        }
        Json::obj([
            ("name", Json::from(&*r.name)),
            ("cat", Json::from(r.kind.label())),
            ("ph", Json::from("X")),
            ("ts", Json::from(micros(r.start))),
            (
                "dur",
                Json::from(r.end.since(r.start).as_nanos() as f64 / 1_000.0),
            ),
            ("pid", Json::from(u64::from(r.site.map_or(0, |s| s.0)))),
            ("tid", Json::from(u64::from(r.actor.map_or(0, |a| a.0)))),
            ("args", Json::Obj(args)),
        ])
    });
    Json::obj([
        ("traceEvents", Json::arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Part of `[start, end)` not covered by any of the `deeper` intervals
/// (nanosecond arithmetic).
fn uncovered(start: u64, end: u64, deeper: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = deeper
        .iter()
        .filter_map(|&(a, b)| {
            let a = a.max(start);
            let b = b.min(end);
            (a < b).then_some((a, b))
        })
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (end - start) - covered
}

/// Compute the critical path of every trace in the sink whose root span's
/// name matches `root_name` (all traces when `None`).
///
/// The path descends from the root through each span's *last-finishing*
/// child (ties broken toward the smallest span id, keeping the result
/// seed-stable) down to a childless span — the chain of spans that
/// determined when the request finished. Each hop's exclusive time is the
/// part of its interval no deeper hop covers, so the buckets sum to the
/// root's duration whenever the chain covers it. Spans left open (never
/// closed before [`TraceSink::finish`]) are analyzed with their recorded
/// bounds.
pub fn critical_paths(sink: &TraceSink, root_name: Option<&str>) -> Vec<CriticalPath> {
    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for r in sink.spans() {
        by_trace.entry(r.trace_id.0).or_default().push(r);
    }
    let mut trace_ids: Vec<u64> = by_trace.keys().copied().collect();
    trace_ids.sort_unstable();
    let mut out = Vec::new();
    for tid in trace_ids {
        let spans = &by_trace[&tid];
        let mut children: HashMap<SpanId, Vec<&SpanRecord>> = HashMap::new();
        for r in spans {
            if let Some(p) = r.parent {
                children.entry(p).or_default().push(r);
            }
        }
        // Root: parentless span with the smallest id (ids allocate in
        // causal order, so that is the first span of the trace).
        let Some(root) = spans
            .iter()
            .filter(|r| r.parent.is_none())
            .min_by_key(|r| r.span_id)
        else {
            continue;
        };
        if let Some(want) = root_name {
            if root.name != want {
                continue;
            }
        }
        let mut chain: Vec<&SpanRecord> = vec![root];
        let mut cursor = *root;
        while let Some(next) = children
            .get(&cursor.span_id)
            .and_then(|c| c.iter().max_by(|a, b| a.end.cmp(&b.end).then(b.span_id.cmp(&a.span_id))))
        {
            chain.push(next);
            cursor = next;
        }
        let mut cp = CriticalPath {
            trace_id: TraceId(tid),
            total: root.end.since(root.start),
            hops: Vec::with_capacity(chain.len()),
            network: SimDuration::ZERO,
            compute: SimDuration::ZERO,
            queueing: SimDuration::ZERO,
            other: SimDuration::ZERO,
        };
        let intervals: Vec<(u64, u64)> = chain
            .iter()
            .map(|r| (r.start.as_nanos(), r.end.as_nanos()))
            .collect();
        for (i, r) in chain.iter().enumerate() {
            let exclusive =
                SimDuration::from_nanos(uncovered(intervals[i].0, intervals[i].1, &intervals[i + 1..]));
            match r.kind {
                SpanKind::Network => cp.network += exclusive,
                SpanKind::Compute | SpanKind::Service => cp.compute += exclusive,
                SpanKind::Queue => cp.queueing += exclusive,
                SpanKind::Request | SpanKind::Internal => cp.other += exclusive,
            }
            cp.hops.push(Hop {
                name: r.name.to_string(),
                kind: r.kind,
                exclusive,
            });
        }
        out.push(cp);
    }
    out
}

/// Render the aggregate stats plus the single worst trace's hop-by-hop
/// breakdown — the `--trace` console summary.
pub fn render_summary(label: &str, paths: &[CriticalPath]) -> String {
    let stats = CriticalPathStats::of(paths);
    let mut s = format!(
        "Critical path [{label}]: {} traces, mean {:.2} ms, max {:.2} ms\n\
         mean breakdown: network {:.2} ms | compute {:.2} ms | queueing {:.2} ms\n",
        stats.traces,
        stats.mean.as_millis_f64(),
        stats.max.as_millis_f64(),
        stats.mean_network.as_millis_f64(),
        stats.mean_compute.as_millis_f64(),
        stats.mean_queueing.as_millis_f64(),
    );
    if let Some(worst) = paths.iter().max_by_key(|p| (p.total, p.trace_id.0)) {
        s.push_str(&format!(
            "slowest trace #{} ({:.2} ms):\n",
            worst.trace_id.0,
            worst.total.as_millis_f64()
        ));
        for h in &worst.hops {
            s.push_str(&format!(
                "  {:<18} {:<8} {:>9.3} ms\n",
                h.name,
                h.kind.label(),
                h.exclusive.as_millis_f64()
            ));
        }
    }
    s
}

/// What the overlay figures' binaries write besides their series: one
/// `BENCH_overlay.json` entry per run (the point plus the critical-path
/// statistics of its traces) and, under `--trace`, a critical-path
/// summary per run on stderr.
pub struct OverlayReport {
    experiment: &'static str,
    verbose: bool,
    runs: Vec<Json>,
}

impl OverlayReport {
    /// An empty report for `experiment`; `verbose` prints the summaries.
    pub fn new(experiment: &'static str, verbose: bool) -> OverlayReport {
        OverlayReport {
            experiment,
            verbose,
            runs: Vec::new(),
        }
    }

    /// Record one run whose requests are rooted at `root` spans.
    pub fn record(&mut self, label: &str, point: Json, sink: &TraceSink, root: &str) {
        let paths = critical_paths(sink, Some(root));
        if self.verbose {
            eprint!("{}", render_summary(label, &paths));
            if sink.dropped() > 0 {
                eprintln!(
                    "warning: {label}: {} span(s) dropped at the sink bound — \
                     critical paths may be incomplete",
                    sink.dropped()
                );
            }
        }
        self.runs.push(Json::obj([
            ("point", point),
            ("critical_path", CriticalPathStats::of(&paths).to_json()),
            ("dropped_spans", Json::from(sink.dropped())),
        ]));
    }

    /// The `BENCH_overlay.json` document.
    pub fn into_json(self) -> Json {
        Json::obj([
            ("experiment", Json::from(self.experiment)),
            ("runs", Json::Arr(self.runs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glare_fabric::SiteId;

    /// One synthetic request trace:
    /// root [0,100] -> net [0,10] -> cpu.queue [10,30] -> cpu [30,90].
    fn sink() -> TraceSink {
        let mut t = TraceSink::new(1024);
        let ms = SimTime::from_millis;
        let root = t.open(
            None,
            "client.query",
            SpanKind::Request,
            Some(SiteId(0)),
            None,
            ms(0),
        );
        let net = t.record(
            Some(root),
            "net.send",
            SpanKind::Network,
            Some(SiteId(0)),
            None,
            ms(0),
            ms(10),
            [],
        );
        let q = t.record(
            Some(net),
            "cpu.queue",
            SpanKind::Queue,
            Some(SiteId(1)),
            None,
            ms(10),
            ms(30),
            [],
        );
        t.record(
            Some(q),
            "cpu.req",
            SpanKind::Compute,
            Some(SiteId(1)),
            None,
            ms(30),
            ms(90),
            [],
        );
        t.close(root.span_id, ms(100));
        t
    }

    #[test]
    fn critical_path_walks_to_root_with_breakdown() {
        let t = sink();
        let paths = critical_paths(&t, Some("client.query"));
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.total, SimDuration::from_millis(100));
        let names: Vec<&str> = p.hops.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["client.query", "net.send", "cpu.queue", "cpu.req"]);
        // Deepest-covering attribution: cpu owns [30,90], queue [10,30],
        // net [0,10], and the root keeps the uncovered [90,100] tail.
        let excl: Vec<u64> = p.hops.iter().map(|h| h.exclusive.as_millis()).collect();
        assert_eq!(excl, vec![10, 10, 20, 60]);
        assert_eq!(p.network, SimDuration::from_millis(10));
        assert_eq!(p.compute, SimDuration::from_millis(60));
        assert_eq!(p.queueing, SimDuration::from_millis(20));
        assert_eq!(p.other, SimDuration::from_millis(10));
        // Buckets cover the whole request end-to-end.
        let sum = p.network + p.compute + p.queueing + p.other;
        assert_eq!(sum, p.total);
    }

    #[test]
    fn root_filter_and_missing_root_skip_traces() {
        let t = sink();
        assert!(critical_paths(&t, Some("rdm.request")).is_empty());
        assert_eq!(critical_paths(&t, None).len(), 1);
    }

    #[test]
    fn chrome_export_is_deterministic_and_wellformed() {
        let a = chrome_trace_json(&sink()).to_string_pretty();
        let b = chrome_trace_json(&sink()).to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\": \"X\""));
        assert!(a.contains("\"cat\": \"network\""));
        // ts/dur are microseconds: the 10 ms net.send is 10000 us.
        assert!(a.contains("\"dur\": 10000"), "{a}");
    }

    #[test]
    fn summary_mentions_worst_trace() {
        let paths = critical_paths(&sink(), None);
        let s = render_summary("test", &paths);
        assert!(s.contains("1 traces"));
        assert!(s.contains("slowest trace #0"));
        assert!(s.contains("cpu.req"));
    }
}
