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
//! A record keeps what it was given, in columns the whole log shares. Its
//! kind, component and field keys are `&'static str`, each kept once in a
//! table of names and named by a `u16`; each field value is a
//! [`FieldValue`] — a literal (kept in the same table), a shared name
//! (kept once per log, one reference however many records name it), text
//! formatted at the emit site (appended to one log-wide string), a count
//! or a float (kept inline). A record is one 24-byte row (time, site, kind,
//! component, the end of its fields) and one 16-byte cell per field in one
//! arena, so a retained emit allocates nothing once the columns have grown
//! and formats nothing. Text is rendered once, by [`EventLog::to_jsonl`],
//! straight into the export buffer; [`EventLog::records`] reads the
//! columns back as borrowed [`EventRecord`]s.
//!
//! The buffer is bounded ([`DEFAULT_MAX_EVENTS`] by default); once full,
//! further records are counted in [`EventLog::dropped`] rather than
//! growing without bound. A record's sequence number is its row, so the
//! records kept are exactly sequence numbers `0..len`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::ptr;
use std::sync::Arc;

use crate::time::SimTime;
use crate::topology::SiteId;

/// Default bound on retained event records.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 16;

/// One field value as an emitter hands it to the log, kept as a value and
/// rendered only on export.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Text: a class label or literal borrows; text formatted at the emit
    /// site (with a precision, a unit or a prefix) moves in owned.
    Text(Cow<'static, str>),
    /// A name the request path already shares (an activity name): the
    /// log holds one reference to it, not a copy per record.
    Shared(Arc<str>),
    /// A count.
    U64(u64),
    /// A float rendered as `f64`'s `Display` (e.g. `retry_after_ms`).
    F64(f64),
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

/// A retained record's fixed part: one row of the log.
#[derive(Clone, Copy, Debug)]
struct Row {
    time: SimTime,
    site: Option<SiteId>,
    /// Names in [`EventLog::names`].
    kind: u16,
    component: u16,
    /// One past the record's last cell; its first is the previous row's end.
    end: u32,
}

/// Where a [`Cell`]'s value lives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tag {
    /// A literal: `word` names it in [`EventLog::names`].
    Name,
    /// A shared name: `word` indexes [`EventLog::shared`].
    Shared,
    /// Owned text: `len` bytes of [`EventLog::text`] from `word`.
    Text,
    /// A count in `word`.
    U64,
    /// A float's bits in `word`.
    F64,
}

/// One field of a record: its key (a name) and its value, in 16 bytes.
#[derive(Clone, Copy, Debug)]
struct Cell {
    key: u16,
    tag: Tag,
    len: u32,
    word: u64,
}

const _: () = assert!(size_of::<Row>() == 24 && size_of::<Cell>() == 16);

/// A field value read back out of the log's columns.
#[derive(Clone, Copy)]
enum Value<'a> {
    Text(&'a str),
    U64(u64),
    F64(f64),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => f.write_str(s),
            Value::U64(n) => fmt::Display::fmt(n, f),
            Value::F64(x) => fmt::Display::fmt(x, f),
        }
    }
}

/// One structured event record, borrowed from its [`EventLog`].
#[derive(Clone, Copy)]
pub struct EventRecord<'a> {
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
    log: &'a EventLog,
    cells: &'a [Cell],
}

impl<'a> EventRecord<'a> {
    /// The value of field `key` as text, if the record carries it:
    /// borrowed for text and names, rendered for numbers.
    pub fn field(&self, key: &str) -> Option<Cow<'a, str>> {
        let (_, v) = self.fields().find(|(k, _)| *k == key)?;
        Some(match v {
            Value::Text(s) => Cow::Borrowed(s),
            n => Cow::Owned(n.to_string()),
        })
    }

    /// `(key, value)` payload in emission order.
    fn fields(&self) -> impl Iterator<Item = (&'static str, Value<'a>)> + use<'a> {
        let log = self.log;
        self.cells
            .iter()
            .map(move |c| (log.names[c.key as usize], log.value(c)))
    }

    /// Render as one JSON line (no trailing newline) at the end of `out`.
    ///
    /// Times are integer nanoseconds so the encoding is exact and
    /// byte-stable; field order is preserved from emission, and every
    /// value is a JSON string.
    fn write_json_line(&self, out: &mut String) {
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
        for (i, (k, v)) in self.fields().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(out, k);
            out.push_str("\":\"");
            match v {
                Value::Text(s) => json_escape_into(out, s),
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

impl fmt::Debug for EventRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<_> = self.fields().map(|(k, v)| (k, v.to_string())).collect();
        f.debug_struct("EventRecord")
            .field("seq", &self.seq)
            .field("time", &self.time)
            .field("kind", &self.kind)
            .field("site", &self.site)
            .field("component", &self.component)
            .field("fields", &fields)
            .finish()
    }
}

/// Bounded, deterministic event log, held in columns: one row per
/// record, its fields in one arena of cells.
#[derive(Clone, Debug)]
pub struct EventLog {
    max_events: usize,
    dropped: u64,
    rows: Vec<Row>,
    cells: Vec<Cell>,
    /// Kinds, components, keys and literal values, each once.
    names: Vec<&'static str>,
    /// Shared names, each once, found again by address in `shared_ids`.
    shared: Vec<Arc<str>>,
    shared_ids: HashMap<usize, u64, BuildHasherDefault<AddressHasher>>,
    /// Every owned text value, back to back.
    text: String,
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
            dropped: 0,
            rows: Vec::new(),
            cells: Vec::new(),
            names: Vec::new(),
            shared: Vec::new(),
            shared_ids: HashMap::default(),
            text: String::new(),
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
        let seq = self.rows.len() as u64 + self.dropped;
        if self.rows.len() >= self.max_events {
            self.dropped += 1;
            return seq;
        }
        let fields = fields().into_iter();
        let (kind, component, like) = self.open(kind, component, fields.size_hint().0);
        for (i, (key, value)) in fields.enumerate() {
            self.push_field(key, value.into(), like.clone().nth(i));
        }
        self.close(now, site, kind, component);
        seq
    }

    // The generic `emit_with` is built once per call site, so the work of a
    // record lives in the three plain methods it calls.

    /// Name a new record's kind and component, and make room for `extra`
    /// fields. Records of one kind mostly repeat its component and its keys
    /// in order, so the previous record's names are tried first; the cells
    /// of that record, if it has this kind, come back to hint the keys.
    fn open(
        &mut self,
        kind: &'static str,
        component: &'static str,
        extra: usize,
    ) -> (u16, u16, Range<usize>) {
        let last = self.rows.len().checked_sub(1);
        let prev = last.map(|i| (self.rows[i], self.start(i)));
        let kind = self.name_id(kind, prev.map(|(r, _)| r.kind));
        let component = self.name_id(component, prev.map(|(r, _)| r.component));
        let like = match prev {
            Some((r, start)) if r.kind == kind => start..r.end as usize,
            _ => 0..0,
        };
        let (rows, max) = (self.rows.len() + 1, self.max_events);
        reserve(&mut self.cells, extra, |need| {
            need.saturating_mul(max) / rows
        });
        (kind, component, like)
    }

    /// Append one field; `hint` is the cell at its place in the previous
    /// record of its kind.
    fn push_field(&mut self, key: &'static str, value: FieldValue, hint: Option<usize>) {
        let hint = hint.map(|c| self.cells[c]);
        let key = self.name_id(key, hint.map(|c| c.key));
        let (tag, len, word) = match value {
            FieldValue::Text(Cow::Borrowed(s)) => {
                let hint = hint.filter(|c| c.tag == Tag::Name).map(|c| c.word as u16);
                (Tag::Name, 0, u64::from(self.name_id(s, hint)))
            }
            FieldValue::Text(Cow::Owned(s)) => {
                let start = self.text.len() as u64;
                self.text.push_str(&s);
                let len = u32::try_from(s.len()).expect("a field under 4 GiB");
                (Tag::Text, len, start)
            }
            FieldValue::Shared(s) => {
                let (next, at) = (self.shared.len() as u64, Arc::as_ptr(&s) as *const u8);
                let id = *self.shared_ids.entry(at as usize).or_insert(next);
                if id == next {
                    self.shared.push(s);
                }
                (Tag::Shared, 0, id)
            }
            FieldValue::U64(n) => (Tag::U64, 0, n),
            FieldValue::F64(x) => (Tag::F64, 0, x.to_bits()),
        };
        self.cells.push(Cell {
            key,
            tag,
            len,
            word,
        });
    }

    /// End the record whose cells were just pushed with its row.
    fn close(&mut self, time: SimTime, site: Option<SiteId>, kind: u16, component: u16) {
        let end = u32::try_from(self.cells.len()).expect("under 2^32 fields in one log");
        reserve(&mut self.rows, 1, |_| self.max_events);
        self.rows.push(Row {
            time,
            site,
            kind,
            component,
            end,
        });
    }

    /// The id of `name` in the names table, added if new. Names compare by
    /// address and length (two literals of one text may get two ids, which
    /// render alike); `hint` is tried before the table is scanned.
    fn name_id(&mut self, name: &'static str, hint: Option<u16>) -> u16 {
        if let Some(h) = hint.filter(|&h| ptr::eq(self.names[h as usize], name)) {
            return h;
        }
        if let Some(i) = self.names.iter().position(|n| ptr::eq(*n, name)) {
            return i as u16;
        }
        let id = u16::try_from(self.names.len()).expect("under 65 536 distinct names in one log");
        self.names.push(name);
        id
    }

    /// The first cell of row `i`.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |p| self.rows[p].end as usize)
    }

    fn value(&self, cell: &Cell) -> Value<'_> {
        let at = cell.word as usize;
        match cell.tag {
            Tag::Name => Value::Text(self.names[at]),
            Tag::Shared => Value::Text(&self.shared[at]),
            Tag::Text => Value::Text(&self.text[at..at + cell.len as usize]),
            Tag::U64 => Value::U64(cell.word),
            Tag::F64 => Value::F64(f64::from_bits(cell.word)),
        }
    }

    fn record(&self, i: usize) -> EventRecord<'_> {
        let row = self.rows[i];
        EventRecord {
            seq: i as u64,
            time: row.time,
            kind: self.names[row.kind as usize],
            site: row.site,
            component: self.names[row.component as usize],
            log: self,
            cells: &self.cells[self.start(i)..row.end as usize],
        }
    }

    /// All retained records in emission order.
    pub fn records(&self) -> impl Iterator<Item = EventRecord<'_>> {
        (0..self.rows.len()).map(|i| self.record(i))
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no record has been retained.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Records emitted past the bound and not retained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records of a given kind, in emission order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = EventRecord<'a>> {
        self.records().filter(move |r| r.kind == kind)
    }

    /// Render the whole log as JSONL (one record per line, trailing
    /// newline after each) in one pass into one buffer. Byte-identical
    /// across same-seed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            r.write_json_line(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Make room in `col` for `extra` more: double as `Vec` does, but not past
/// `limit(need)`, the length the log's bound projects for a column that
/// needs `need`, unless `need` is more. A step is at least an eighth of the
/// column, so a low projection cannot turn growth into a copy per record.
fn reserve<T>(col: &mut Vec<T>, extra: usize, limit: impl FnOnce(usize) -> usize) {
    let (cap, need) = (col.capacity(), col.len() + extra);
    if need > cap {
        let to = (cap * 2)
            .max(8)
            .min(limit(need).max(cap + cap / 8))
            .max(need);
        col.reserve_exact(to - col.len());
    }
}

/// Hashes an address with one multiply, its well-mixed high half rotated
/// low: the keys are live allocations, so nothing adversarial reaches it.
#[derive(Clone, Copy, Debug, Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
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
        let seqs: Vec<_> = log.records().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1]);
        let jsonl = log.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"seq\":0,\"t_ns\":5000000,\"kind\":\"election.won\",\"site\":2,\
             \"component\":\"node\",\"fields\":{\"group_size\":\"4\"}}\n\
             {\"seq\":1,\"t_ns\":9000000,\"kind\":\"lease.rejected\",\"site\":null,\
             \"component\":\"lease\",\"fields\":{}}\n"
        );
        assert_eq!(log.of_kind("election.won").count(), 1);
        let fields: Vec<_> = log.records().map(|r| r.field("group_size")).collect();
        assert_eq!(fields, [Some("4".into()), None]);
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
    fn escapes_field_values() {
        let mut log = EventLog::new(4);
        log.emit(
            SimTime::ZERO,
            "deploy.step_failed",
            Some(SiteId(0)),
            "rdm.deploy",
            [("error", "bad \"quote\"\nnewline")],
        );
        assert!(log.to_jsonl().contains("bad \\\"quote\\\"\\nnewline"));
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
    /// string renderer was given for it (`to_string()` of the number). A
    /// shared value is one of `names`, so records share it.
    fn random_value(rng: &mut SimRng, names: &[Arc<str>]) -> (FieldValue, String) {
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
                let name = &names[rng.index(names.len())];
                (FieldValue::Shared(Arc::clone(name)), name.to_string())
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

    /// Random records — every value variant, text that needs escapes,
    /// sites and none, runs past the bound — render as the string renderer
    /// rendered what was emitted, and the readers answer as the inputs say.
    #[test]
    fn typed_records_render_as_the_string_renderer_did() {
        const KEYS: [&str; 5] = ["count", "activity", "retry_after_ms", "q\"uote", "tab\t"];
        // A second `query.shed` at another address: the log tells names
        // apart by address, its readers by text.
        let twin: &'static str = Box::leak(String::from("query.shed").into_boxed_str());
        let kinds = ["query.shed", "esc\\aped", "ctl\u{7}", twin];
        let names: Vec<Arc<str>> = (0..4).map(|i| format!("Act{i}").into()).collect();
        let mut rng = SimRng::from_seed(29);
        for round in 0..64 {
            let bound = rng.range(0, 40) as usize;
            let mut log = EventLog::new(bound);
            let mut strings = Vec::new();
            let emitted = rng.range(0, 48);
            for i in 0..emitted {
                let (kind, component) = (kinds[rng.index(4)], kinds[rng.index(4)]);
                let site = rng.chance(0.5).then(|| SiteId(rng.next_u32()));
                let time = SimTime::from_nanos(rng.next_u64() >> rng.range(0, 64));
                let fields: Vec<_> = (0..rng.range(0, 5))
                    .map(|_| (KEYS[rng.index(5)], random_value(&mut rng, &names)))
                    .collect();
                let typed: Vec<_> = fields.iter().map(|(k, (v, _))| (*k, v.clone())).collect();
                assert_eq!(log.emit(time, kind, site, component, typed), i);
                strings.push((
                    i,
                    time,
                    kind,
                    site,
                    component,
                    fields.into_iter().map(|(k, (_, s))| (k, s)).collect(),
                ));
            }
            strings.truncate(bound);
            assert_eq!(log.to_jsonl(), string_renderer(&strings), "round {round}");
            assert_eq!(log.len(), strings.len());
            assert_eq!(log.dropped(), emitted.saturating_sub(bound as u64));
            let seqs = |kind: &str| -> Vec<u64> {
                strings
                    .iter()
                    .filter(|s| s.2 == kind)
                    .map(|s| s.0)
                    .collect()
            };
            for kind in ["query.shed", "esc\\aped", "ctl\u{7}", "absent"] {
                assert_eq!(
                    log.of_kind(kind).map(|r| r.seq).collect::<Vec<_>>(),
                    seqs(kind)
                );
            }
            for (r, s) in log.records().zip(&strings) {
                assert_eq!(
                    (r.seq, r.time, r.kind, r.site, r.component),
                    (s.0, s.1, s.2, s.3, s.4)
                );
                for key in KEYS.into_iter().chain(["absent"]) {
                    let given = s.5.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str());
                    assert_eq!(r.field(key).as_deref(), given, "round {round}: {key}");
                }
            }
            for name in &names {
                assert!(Arc::strong_count(name) <= 2, "the log holds {name} once");
            }
        }
    }
}
