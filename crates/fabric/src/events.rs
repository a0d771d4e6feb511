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
//! slow stage was raced against). `failure.confirmed` (carrying the
//! `suspect` actor) is also an invariant's input: the harnesses check
//! every one against the `site.crashed` records through
//! `glare_core::invariants::false_takeovers`.
//! The log is strictly observe-only: emitting an
//! event never consults the RNG, never schedules simulation work, and
//! sequence numbers are allocated in emission order, so an instrumented
//! run is event-for-event identical to a plain run and the rendered JSONL
//! is byte-identical across same-seed runs.
//!
//! A record keeps what it was given: its kind, component and field keys
//! are `&'static str`, and each field value is a [`FieldValue`] — a
//! literal, a shared name, a count or a float — so emitting one builds a
//! single vector and formats nothing. Text is rendered once, by
//! [`EventLog::to_jsonl`], straight into the export buffer.
//!
//! The buffer is bounded ([`DEFAULT_MAX_EVENTS`] by default); once full,
//! further records are counted in [`EventLog::dropped`] rather than
//! growing without bound.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::time::SimTime;
use crate::topology::SiteId;

/// Default bound on retained event records.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 16;

/// One field value of an [`EventRecord`], kept as a value and rendered
/// (as its [`Display`](fmt::Display)) only on export.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Text: a class label or literal borrows; text formatted at the emit
    /// site (with a precision, a unit or a prefix) moves in owned.
    Text(Cow<'static, str>),
    /// A name the request path already shares (an activity name): the
    /// record holds one more reference, not a copy.
    Shared(Arc<str>),
    /// A count.
    U64(u64),
    /// A float rendered as `f64`'s `Display` (e.g. `retry_after_ms`).
    F64(f64),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Text(s) => fmt::Display::fmt(s, f),
            FieldValue::Shared(s) => fmt::Display::fmt(s, f),
            FieldValue::U64(n) => fmt::Display::fmt(n, f),
            FieldValue::F64(x) => fmt::Display::fmt(x, f),
        }
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> FieldValue {
        FieldValue::Text(Cow::Owned(s))
    }
}

impl From<&'static str> for FieldValue {
    fn from(s: &'static str) -> FieldValue {
        FieldValue::Text(Cow::Borrowed(s))
    }
}

impl From<Arc<str>> for FieldValue {
    fn from(s: Arc<str>) -> FieldValue {
        FieldValue::Shared(s)
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> FieldValue {
        FieldValue::U64(n)
    }
}

impl From<f64> for FieldValue {
    fn from(x: f64) -> FieldValue {
        FieldValue::F64(x)
    }
}

/// The fields of a record that carries none, typed for
/// [`EventLog::emit`] and its wrappers.
pub const NO_FIELDS: [(&str, FieldValue); 0] = [];

/// One structured event record.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Monotone sequence number in emission order.
    pub seq: u64,
    /// Simulation time of emission.
    pub time: SimTime,
    /// Dotted event kind from the record catalogue (e.g. `election.won`).
    pub kind: &'static str,
    /// Site the event happened on, when attributable.
    pub site: Option<SiteId>,
    /// Short component tag (`node`, `rdm.cache_refresher`, `lease`, ...).
    pub component: &'static str,
    /// `(key, value)` payload in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl EventRecord {
    /// The value of field `key` as text, if the record carries it:
    /// borrowed for text and names, rendered for numbers.
    pub fn field(&self, key: &str) -> Option<Cow<'_, str>> {
        let (_, v) = self.fields.iter().find(|(k, _)| *k == key)?;
        Some(match v {
            FieldValue::Text(s) => Cow::Borrowed(s),
            FieldValue::Shared(s) => Cow::Borrowed(s),
            n => Cow::Owned(n.to_string()),
        })
    }

    /// Render as one JSON line (no trailing newline) at the end of `out`.
    ///
    /// Times are integer nanoseconds so the encoding is exact and
    /// byte-stable; field order is preserved from emission, and every
    /// value is a JSON string.
    pub(crate) fn write_json_line(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"",
            self.seq,
            self.time.as_nanos()
        );
        json_escape_into(out, self.kind);
        match self.site {
            Some(s) => {
                let _ = write!(out, "\",\"site\":{}", s.0);
            }
            None => out.push_str("\",\"site\":null"),
        }
        out.push_str(",\"component\":\"");
        json_escape_into(out, self.component);
        out.push_str("\",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(out, k);
            out.push_str("\":\"");
            match v {
                FieldValue::Text(s) => json_escape_into(out, s),
                FieldValue::Shared(s) => json_escape_into(out, s),
                // Digits, signs, `.`, `inf` and `NaN` need no escaping.
                n => {
                    let _ = write!(out, "{n}");
                }
            }
            out.push('"');
        }
        out.push_str("}}");
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
    pub(crate) fn new(max_events: usize) -> EventLog {
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
    pub fn emit<V: Into<FieldValue>>(
        &mut self,
        now: SimTime,
        kind: &'static str,
        site: Option<SiteId>,
        component: &'static str,
        fields: impl IntoIterator<Item = (&'static str, V)>,
    ) -> u64 {
        self.emit_with(now, kind, site, component, || fields)
    }

    /// [`EventLog::emit`] with the fields built by a closure that is called
    /// only when the record is retained: a full log still advances the
    /// sequence number and the dropped count, and builds nothing.
    pub fn emit_with<V: Into<FieldValue>, I: IntoIterator<Item = (&'static str, V)>>(
        &mut self,
        now: SimTime,
        kind: &'static str,
        site: Option<SiteId>,
        component: &'static str,
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
            kind,
            site,
            component,
            // An array of fields collects into a vector of its exact size.
            fields: fields().into_iter().map(|(k, v)| (k, v.into())).collect(),
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
    /// newline after each) in one pass into one buffer. Byte-identical
    /// across same-seed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            r.write_json_line(&mut out);
            out.push('\n');
        }
        out
    }
}

/// `s` as the body of a JSON string literal (no surrounding quotes): the
/// one escaper behind every `*.jsonl`, `snapshot_json` and `BENCH_*.json`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// [`json_escape`] appended to `out`: runs that need no escaping are
/// copied whole. Every byte that needs escaping is ASCII, so it never
/// sits inside a multi-byte character and the slices stay on boundaries.
pub fn json_escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn emits_in_order_with_stable_jsonl() {
        let mut log = EventLog::new(16);
        log.emit(
            SimTime::from_millis(5),
            "election.won",
            Some(SiteId(2)),
            "node",
            [("group_size", 4u64)],
        );
        log.emit(
            SimTime::from_millis(9),
            "lease.rejected",
            None,
            "lease",
            NO_FIELDS,
        );
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
        assert_eq!(log.records()[0].field("group_size").as_deref(), Some("4"));
        assert_eq!(log.records()[1].field("group_size"), None);
    }

    #[test]
    fn bounded_log_counts_drops() {
        let mut log = EventLog::new(2);
        for i in 0..5 {
            let seq = log.emit(SimTime::from_secs(i), "k", None, "c", NO_FIELDS);
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
                [("i", i)]
            });
            assert_eq!(
                seq,
                eager.emit(
                    SimTime::from_secs(i),
                    "k",
                    None,
                    "c",
                    [("i", i.to_string())]
                )
            );
        }
        assert_eq!(built, 2, "past the bound the closure is not called");
        assert_eq!((lazy.len(), lazy.dropped()), (2, 3));
        assert_eq!(lazy.to_jsonl(), eager.to_jsonl());
    }

    #[test]
    fn fields_are_held_at_their_exact_size() {
        let mut log = EventLog::new(4);
        let name: Arc<str> = "Imaging".into();
        log.emit_with(SimTime::ZERO, "query.shed", None, "admission", || {
            [
                ("class", FieldValue::from("gold")),
                ("activity", Arc::clone(&name).into()),
                ("retry_after_ms", 12.5.into()),
            ]
        });
        let fields = &log.records()[0].fields;
        assert_eq!((fields.len(), fields.capacity()), (3, 3));
        assert_eq!(Arc::strong_count(&name), 2, "the record shares the name");
        assert_eq!(
            log.records()[0].field("retry_after_ms").as_deref(),
            Some("12.5")
        );
    }

    #[test]
    fn escapes_field_values() {
        let mut log = EventLog::new(4);
        log.emit(
            SimTime::ZERO,
            "deploy.step_failed",
            Some(SiteId(0)),
            "rdm.deploy",
            [("error", "bad \"quote\"\nnewline")],
        );
        let mut line = String::new();
        log.records()[0].write_json_line(&mut line);
        assert!(line.contains("bad \\\"quote\\\"\\nnewline"));
    }

    /// A record as the string renderer took it: `(seq, time, kind, site,
    /// component, fields)`, every value already text.
    type StringRecord<'a> = (
        u64,
        SimTime,
        &'a str,
        Option<SiteId>,
        &'a str,
        Vec<(&'a str, String)>,
    );

    /// The string renderer records had before they kept typed values:
    /// every value a `String`, each line and each escaped token built on
    /// its own.
    fn string_renderer(records: &[StringRecord<'_>]) -> String {
        fn escape(s: &str) -> String {
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
        let mut jsonl = String::new();
        for (seq, time, kind, site, component, fields) in records {
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\"site\":",
                seq,
                time.as_nanos(),
                escape(kind)
            );
            match site {
                Some(s) => {
                    let _ = write!(out, "{}", s.0);
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"component\":\"{}\",\"fields\":{{",
                escape(component)
            );
            let mut first = true;
            for (k, v) in fields {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
            }
            out.push_str("}}");
            jsonl.push_str(&out);
            jsonl.push('\n');
        }
        jsonl
    }

    /// A random value of each kind the emitters use, with the text the
    /// string renderer was given for it (`to_string()` of the number).
    fn random_value(rng: &mut SimRng) -> (FieldValue, String) {
        const FLOATS: [f64; 12] = [
            0.0,
            -0.0,
            0.1,
            1e-7,
            1e21,
            f64::MAX,
            f64::MIN_POSITIVE,
            1.0,
            -3.0,
            250.0,
            12.5,
            1e15,
        ];
        const TEXT: [&str; 8] = [
            "\"",
            "\\",
            "\n",
            "\r\t",
            "\u{1}\u{1f}",
            "é",
            "→日本",
            "plain",
        ];
        match rng.index(5) {
            0 => {
                let x = match rng.index(3) {
                    0 => FLOATS[rng.index(FLOATS.len())],
                    1 => rng.range(0, 100_000) as f64,
                    _ => rng.unit() * 1e3,
                };
                (FieldValue::F64(x), x.to_string())
            }
            1 => {
                let n = [0, u64::MAX, rng.next_u64(), rng.range(0, 1000)][rng.index(4)];
                (FieldValue::U64(n), n.to_string())
            }
            2 => {
                let name: Arc<str> = format!("Act{}", rng.range(0, 50)).into();
                (FieldValue::Shared(Arc::clone(&name)), name.to_string())
            }
            3 => {
                let lit = TEXT[rng.index(TEXT.len())];
                (FieldValue::from(lit), lit.to_owned())
            }
            _ => {
                let s: String = (0..rng.range(0, 6))
                    .map(|_| TEXT[rng.index(TEXT.len())])
                    .collect();
                (FieldValue::from(s.clone()), s)
            }
        }
    }

    #[test]
    fn typed_records_render_as_the_string_renderer_did() {
        const KEYS: [&str; 5] = ["count", "activity", "retry_after_ms", "q\"uote", "tab\t"];
        const KINDS: [&str; 3] = ["query.shed", "esc\\aped", "ctl\u{7}"];
        let mut rng = SimRng::from_seed(29);
        for round in 0..64 {
            let mut log = EventLog::new(64);
            let mut strings = Vec::new();
            for i in 0..rng.range(0, 40) {
                let (kind, component) = (KINDS[rng.index(3)], KINDS[rng.index(3)]);
                let site = rng.chance(0.5).then(|| SiteId(rng.next_u32()));
                let time = SimTime::from_nanos(rng.next_u64() >> rng.range(0, 64));
                let fields: Vec<_> = (0..rng.range(0, 5))
                    .map(|_| (KEYS[rng.index(5)], random_value(&mut rng)))
                    .collect();
                let typed: Vec<_> = fields.iter().map(|(k, (v, _))| (*k, v.clone())).collect();
                log.emit(time, kind, site, component, typed);
                strings.push((
                    i,
                    time,
                    kind,
                    site,
                    component,
                    fields.into_iter().map(|(k, (_, s))| (k, s)).collect(),
                ));
            }
            assert_eq!(log.to_jsonl(), string_renderer(&strings), "round {round}");
        }
    }
}
