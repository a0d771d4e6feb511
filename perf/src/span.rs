//! Host-time spans recorded from outside the crates under test.
//!
//! A [`Tracer`] keeps a stack of open spans. Closing one books its duration
//! under its name, subtracts its children to get its self time, and hands its
//! duration to its parent as child time. Spans are aggregated in memory
//! (count, sum, self sum, every duration for the percentiles); one operation
//! in [`RAW_SAMPLE_EVERY`] is also kept raw — name, start, end, parent and
//! operation id — and written out when the run ends.
//!
//! A disabled tracer reads no clock and allocates nothing, so the untraced
//! run executes the same harness code as the traced one.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// One operation in this many keeps its spans raw.
pub const RAW_SAMPLE_EVERY: u64 = 1024;

/// Interned span name (index into the tracer's name table).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Name(u16);

/// A closed span kept raw.
#[derive(Clone, Debug, PartialEq)]
pub struct RawSpan {
    /// Span name.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the parent in the raw list, `None` for an operation's root.
    pub parent: Option<u32>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// Per-name aggregate.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub sum_ns: u64,
    /// Sum of their self times (duration minus children), ns.
    pub self_ns: u64,
    /// Every duration, ns (saturating at `u32::MAX`, 4.3 s).
    durations: Vec<u32>,
}

impl Agg {
    /// Nearest-rank percentile of the durations, ns (0 when empty).
    pub fn percentile_ns(&self, p: f64) -> f64 {
        let mut d = self.durations.clone();
        d.sort_unstable();
        stats::percentile(&d, p).map_or(0.0, f64::from)
    }

    /// Mean duration, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    fn absorb(&mut self, other: Agg) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.self_ns += other.self_ns;
        self.durations.extend(other.durations);
    }
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    raw_index: Option<u32>,
}

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`on`) or one whose every call is a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            raw: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Intern a span name. Call at set-up, not per span.
    pub fn name(&mut self, name: &'static str) -> Name {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return Name(i as u16);
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        Name((self.names.len() - 1) as u16)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new operation.
    #[inline]
    pub fn begin_op(&mut self, name: Name) {
        if self.on {
            self.op += 1;
            let t = self.now_ns();
            self.open_at(name, t);
        }
    }

    /// Open a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: Name) {
        if self.on {
            let t = self.now_ns();
            self.open_at(name, t);
        }
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            let t = self.now_ns();
            self.close_at(t);
        }
    }

    /// Close the innermost open span and open a sibling at the same instant
    /// (one clock read for two adjacent layer boundaries).
    #[inline]
    pub fn next(&mut self, name: Name) {
        if self.on {
            let t = self.now_ns();
            self.close_at(t);
            self.open_at(name, t);
        }
    }

    /// Close the two innermost open spans at the same instant (the last
    /// child and its operation's root).
    #[inline]
    pub fn exit_both(&mut self) {
        if self.on {
            let t = self.now_ns();
            self.close_at(t);
            self.close_at(t);
        }
    }

    /// Re-book the innermost open span under `name`: for a call whose
    /// layer is only known from its outcome.
    pub fn rename_innermost(&mut self, name: Name) {
        if self.on {
            let open = self.stack.last_mut().expect("rename without an open span");
            open.name = name;
            if let Some(i) = open.raw_index {
                self.raw[i as usize].name = self.names[name.0 as usize];
            }
        }
    }

    fn open_at(&mut self, name: Name, t: u64) {
        let sampled = self.op.is_multiple_of(RAW_SAMPLE_EVERY);
        let raw_index = sampled.then(|| {
            let parent = self.stack.last().and_then(|o| o.raw_index);
            self.raw.push(RawSpan {
                name: self.names[name.0 as usize],
                start_ns: t,
                end_ns: t,
                parent,
                op: self.op,
            });
            (self.raw.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start_ns: t,
            child_ns: 0,
            raw_index,
        });
    }

    fn close_at(&mut self, t: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = t - open.start_ns;
        let agg = &mut self.aggs[open.name.0 as usize];
        agg.count += 1;
        agg.sum_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.durations.push(u32::try_from(dur).unwrap_or(u32::MAX));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw_index {
            self.raw[i as usize].end_ns = t;
        }
    }

    /// Finish: every span must be closed. Returns the aggregates by name
    /// and the raw sample.
    pub fn finish(self) -> Trace {
        assert!(self.stack.is_empty(), "tracer finished with open spans");
        Trace {
            aggs: self.names.into_iter().zip(self.aggs).collect(),
            raw: self.raw,
        }
    }
}

/// What one or more tracers recorded.
#[derive(Default)]
pub struct Trace {
    /// Aggregates by span name.
    pub aggs: BTreeMap<&'static str, Agg>,
    /// Raw sampled spans (parent indices are per contributing tracer and
    /// rebased by [`Trace::merge`]).
    pub raw: Vec<RawSpan>,
}

impl Trace {
    /// Fold another thread's trace into this one.
    pub fn merge(&mut self, other: Trace) {
        for (name, agg) in other.aggs {
            self.aggs.entry(name).or_default().absorb(agg);
        }
        let base = self.raw.len() as u32;
        self.raw.extend(other.raw.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Aggregate of `name`; empty if no such span closed.
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    /// Mean duration of `name`, ns.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.aggs.get(name).map_or(0.0, Agg::mean_ns)
    }

    /// Total duration of `name`, ns.
    pub fn sum_ns(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.sum_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        let (root, a, b) = (tr.name("op"), tr.name("a"), tr.name("b"));
        for _ in 0..3 {
            tr.begin_op(root);
            spin(20_000);
            tr.enter(a);
            spin(50_000);
            tr.next(b);
            spin(30_000);
            tr.exit_both();
        }
        let trace = tr.finish();
        let (op, a, b) = (trace.agg("op"), trace.agg("a"), trace.agg("b"));
        assert_eq!((op.count, a.count, b.count), (3, 3, 3));
        // Children plus self close the root exactly, by construction.
        assert_eq!(op.self_ns + a.sum_ns + b.sum_ns, op.sum_ns);
        // Leaves have no children: self time is the whole span.
        assert_eq!(a.self_ns, a.sum_ns);
        assert!(op.self_ns >= 3 * 20_000 && op.self_ns < op.sum_ns);
        assert!(a.sum_ns >= 3 * 50_000 && b.sum_ns >= 3 * 30_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let n = tr.name("op");
        tr.begin_op(n);
        tr.enter(n);
        tr.exit_both();
        let trace = tr.finish();
        assert_eq!(trace.agg("op").count, 0);
        assert!(trace.raw.is_empty());
    }

    #[test]
    fn one_operation_in_1024_is_kept_raw_with_parent_links() {
        let mut tr = Tracer::new(true);
        let (root, child) = (tr.name("op"), tr.name("child"));
        for _ in 0..2 * RAW_SAMPLE_EVERY {
            tr.begin_op(root);
            tr.enter(child);
            tr.exit_both();
        }
        let mut trace = tr.finish();
        assert_eq!(trace.raw.len(), 4, "two sampled operations, two spans each");
        assert_eq!(trace.raw[0].parent, None);
        assert_eq!(trace.raw[1].parent, Some(0));
        assert_eq!(trace.raw[1].op, trace.raw[0].op);
        assert!(trace.raw[1].start_ns >= trace.raw[0].start_ns);
        assert!(trace.raw[1].end_ns <= trace.raw[0].end_ns);
        // Merging rebases the other thread's parent indices.
        let mut other = Tracer::new(true);
        let r = other.name("op");
        for _ in 0..RAW_SAMPLE_EVERY {
            other.begin_op(r);
            other.enter(r);
            other.exit_both();
        }
        trace.merge(other.finish());
        assert_eq!(trace.raw.len(), 6);
        assert_eq!(trace.raw[5].parent, Some(4));
        assert_eq!(
            trace.agg("op").count,
            2 * RAW_SAMPLE_EVERY + 2 * RAW_SAMPLE_EVERY
        );
    }
}
