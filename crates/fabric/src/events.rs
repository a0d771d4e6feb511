//! Structured event log: bounded, sim-time-stamped JSONL records.
//!
//! The telemetry counterpart of [`crate::trace`]: where spans answer
//! "where did the latency go", events answer "what notable state
//! transitions happened" — election won/lost, failure suspected/confirmed,
//! cache entry discarded as outdated, deploy-file step failed/retried,
//! lease granted/rejected, query shed by admission control
//! (`query.shed`, carrying the tenant class and the retry-after hint),
//! inbox slots reclaimed from expired admission tickets
//! (`inbox.ttl_release`, carrying the reclaimed-slot count), and the
//! autonomic placement controller's actions
//! (`autonomic.provision` / `autonomic.retire` / `autonomic.reprovision`,
//! carrying the controller identity, activity, target site and outcome),
//! gray failures injected and lifted by the fault layer
//! (`site.degraded` / `site.recovered`, carrying the site and the
//! compute slowdown in `factor_permille`; `link.degraded` /
//! `link.recovered`, carrying the directed endpoints and the latency
//! multiplier), and hedged read probes
//! (`query.hedged`, carrying the activity and the alternate target a
//! slow stage was raced against). One kind is spelled two ways by its two
//! emitters: `store.recovered` carries `snapshot` as `1`/`0` from a
//! `GlareNode` and as `true`/`false` from the synchronous `Grid`.
//! The log is strictly observe-only: emitting an
//! event never consults the RNG, never schedules simulation work, and
//! sequence numbers are allocated in emission order, so an instrumented
//! run is event-for-event identical to a plain run and the rendered JSONL
//! is byte-identical across same-seed runs.
//!
//! The buffer is bounded ([`DEFAULT_MAX_EVENTS`] by default); once full,
//! further records are counted in [`EventLog::dropped`] rather than
//! growing without bound.

use std::fmt::Write as _;

use crate::time::SimTime;
use crate::topology::SiteId;

/// Default bound on retained event records.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 16;

/// One structured event record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotone sequence number in emission order.
    pub seq: u64,
    /// Simulation time of emission.
    pub time: SimTime,
    /// Dotted event kind from the record catalogue (e.g. `election.won`).
    pub kind: String,
    /// Site the event happened on, when attributable.
    pub site: Option<SiteId>,
    /// Short component tag (`node`, `rdm.cache_refresher`, `lease`, ...).
    pub component: String,
    /// Free-form `(key, value)` payload in emission order.
    pub fields: Vec<(String, String)>,
}

impl EventRecord {
    /// Render as one JSON line (no trailing newline).
    ///
    /// Times are integer nanoseconds so the encoding is exact and
    /// byte-stable; field order is preserved from emission.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\"site\":",
            self.seq,
            self.time.as_nanos(),
            json_escape(&self.kind)
        );
        match self.site {
            Some(s) => {
                let _ = write!(out, "{}", s.0);
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"component\":\"{}\",\"fields\":{{", json_escape(&self.component));
        let mut first = true;
        for (k, v) in &self.fields {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}");
        out
    }
}

/// Bounded, deterministic event log.
#[derive(Clone, Debug)]
pub struct EventLog {
    max_events: usize,
    next_seq: u64,
    records: Vec<EventRecord>,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(DEFAULT_MAX_EVENTS)
    }
}

impl EventLog {
    /// New log retaining at most `max_events` records.
    pub fn new(max_events: usize) -> EventLog {
        EventLog {
            max_events,
            next_seq: 0,
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// Append a record; returns its sequence number.
    ///
    /// Once the bound is reached the record is counted as dropped instead
    /// of retained (the sequence number still advances, so JSONL consumers
    /// can detect the gap).
    pub fn emit(
        &mut self,
        now: SimTime,
        kind: &str,
        site: Option<SiteId>,
        component: &str,
        fields: &[(&str, &str)],
    ) -> u64 {
        self.emit_with(now, kind, site, component, || {
            fields.iter().map(|&(k, v)| (k, v.to_owned()))
        })
    }

    /// [`EventLog::emit`] with the fields built by a closure that is called
    /// only when the record is retained: a full log still advances the
    /// sequence number and the dropped count, and formats nothing.
    pub fn emit_with<K: Into<String>, I: IntoIterator<Item = (K, String)>>(
        &mut self,
        now: SimTime,
        kind: &str,
        site: Option<SiteId>,
        component: &str,
        fields: impl FnOnce() -> I,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() >= self.max_events {
            self.dropped += 1;
            return seq;
        }
        self.records.push(EventRecord {
            seq,
            time: now,
            kind: kind.to_owned(),
            site,
            component: component.to_owned(),
            fields: fields().into_iter().map(|(k, v)| (k.into(), v)).collect(),
        });
        seq
    }

    /// All retained records in emission order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records emitted past the bound and not retained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records of a given kind, in emission order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Render the whole log as JSONL (one record per line, trailing
    /// newline after each). Byte-identical across same-seed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// `s` as the body of a JSON string literal (no surrounding quotes): the
/// one escaper behind every `*.jsonl`, `snapshot_json` and `BENCH_*.json`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_in_order_with_stable_jsonl() {
        let mut log = EventLog::new(16);
        log.emit(
            SimTime::from_millis(5),
            "election.won",
            Some(SiteId(2)),
            "node",
            &[("group_size", "4")],
        );
        log.emit(SimTime::from_millis(9), "lease.rejected", None, "lease", &[]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].seq, 0);
        assert_eq!(log.records()[1].seq, 1);
        let jsonl = log.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"seq\":0,\"t_ns\":5000000,\"kind\":\"election.won\",\"site\":2,\
             \"component\":\"node\",\"fields\":{\"group_size\":\"4\"}}\n\
             {\"seq\":1,\"t_ns\":9000000,\"kind\":\"lease.rejected\",\"site\":null,\
             \"component\":\"lease\",\"fields\":{}}\n"
        );
        assert_eq!(log.of_kind("election.won").count(), 1);
    }

    #[test]
    fn bounded_log_counts_drops() {
        let mut log = EventLog::new(2);
        for i in 0..5 {
            let seq = log.emit(SimTime::from_secs(i), "k", None, "c", &[]);
            assert_eq!(seq, i);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn emit_with_builds_fields_only_for_a_retained_record() {
        let (mut lazy, mut eager) = (EventLog::new(2), EventLog::new(2));
        let mut built = 0;
        for i in 0..5u64 {
            let seq = lazy.emit_with(SimTime::from_secs(i), "k", None, "c", || {
                built += 1;
                [("i", i.to_string())]
            });
            assert_eq!(seq, eager.emit(SimTime::from_secs(i), "k", None, "c", &[("i", &i.to_string())]));
        }
        assert_eq!(built, 2, "past the bound the closure is not called");
        assert_eq!((lazy.len(), lazy.dropped()), (2, 3));
        assert_eq!(lazy.to_jsonl(), eager.to_jsonl());
    }

    #[test]
    fn escapes_field_values() {
        let mut log = EventLog::new(4);
        log.emit(
            SimTime::ZERO,
            "deploy.step_failed",
            Some(SiteId(0)),
            "rdm.deploy",
            &[("error", "bad \"quote\"\nnewline")],
        );
        let line = log.records()[0].to_json_line();
        assert!(line.contains("bad \\\"quote\\\"\\nnewline"));
    }
}
