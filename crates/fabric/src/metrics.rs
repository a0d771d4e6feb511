//! Experiment instrumentation: counters, gauges, latency histograms and
//! time series.
//!
//! The benchmark harness in `glare-bench` reads these back to print the
//! rows/series of the paper's tables and figures. Counters and time series
//! are addressable by a flat string name (e.g.
//! `"site3.deployments.installed"`).
//!
//! Counters, histograms and gauges also live in *labeled* families, the
//! model of the health-telemetry subsystem: a metric family has a
//! Prometheus-style name (`glare_cache_hits_total`) and each instrument in
//! the family is addressed by a sorted `(key=value)` label set
//! ([`Labels`]) — site, activity type, peer group, component. Histograms
//! and gauges are labeled only. Labeled families render deterministically
//! to a Prometheus-style text exposition
//! ([`MetricsRegistry::expose_prometheus`]) and a JSON snapshot
//! ([`MetricsRegistry::snapshot_json`]); both are byte-identical across
//! same-seed runs because every map involved is a `BTreeMap` and all
//! values derive from deterministic simulation state.
//!
//! [`WindowedGauge`] aggregates a sampled value over fixed sim-time
//! buckets (last/min/max/mean per bucket) so a monitoring client can
//! replay "gauge over time" without the registry storing every sample.
//!
//! Instruments are stored densely and the sorted maps index them, so a
//! recorder on a hot path resolves a counter or gauge once, at its first
//! record, and from then on records through the [`CounterId`] /
//! [`GaugeId`] it got back: an index, with no name or label comparison.

use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::events::json_escape;
use crate::time::{SimDuration, SimTime};

/// Bucket width of every windowed gauge a [`MetricsRegistry`] creates. Fixed:
/// each recorder passed this value, and a snapshot prints it as `window_ms`.
pub const DEFAULT_GAUGE_WINDOW: SimDuration = SimDuration::from_secs(60);

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// The workspace's one order statistic: nearest-rank quantile `q` in
/// `[0, 1]` of an ascending slice — the smallest sample with at least a
/// `q` share of the samples at or below it, i.e. the element of 1-based
/// rank `ceil(q·n)`. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    Some(sorted[rank.min(sorted.len() - 1)])
}

/// Reservoir of duration samples with quantile queries.
///
/// Samples are kept exactly (experiments are bounded) and sorted lazily on
/// query. The sort state lives behind `RefCell`/`Cell` so quantile reads
/// work through `&self` — read paths like
/// [`MetricsRegistry::histogram_labeled_ref`] can compute `p50`/`p95`
/// without mutable access to the registry. The interior mutability costs
/// `Sync` (the simulation is single-threaded, the harness reads after the
/// run) but keeps queries exact, which is the right trade for a
/// reproducibility harness.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: RefCell<Vec<SimDuration>>,
    sorted: Cell<bool>,
}

impl Histogram {
    /// Record one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.get_mut().push(d);
        self.sorted.set(false);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> SimDuration {
        let total: u128 = self
            .samples
            .borrow()
            .iter()
            .map(|d| d.as_nanos() as u128)
            .sum();
        SimDuration::from_nanos(total.min(u64::MAX as u128) as u64)
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return None;
        }
        let total: u128 = samples.iter().map(|d| d.as_nanos() as u128).sum();
        Some(SimDuration::from_nanos((total / samples.len() as u128) as u64))
    }

    fn ensure_sorted(&self) {
        if !self.sorted.get() {
            self.samples.borrow_mut().sort_unstable();
            self.sorted.set(true);
        }
    }

    /// Quantile in `[0, 1]` by [`percentile`]; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        self.ensure_sorted();
        percentile(&self.samples.borrow(), q)
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<SimDuration> {
        self.quantile(0.0)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<SimDuration> {
        self.quantile(1.0)
    }
}

/// A `(time, value)` series, e.g. load average over the run.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Append a point. Timestamps must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "TimeSeries::push: time went backwards");
        }
        self.points.push((t, v));
    }

    /// All recorded points in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean of values over all points, or `None` when empty.
    pub fn mean_value(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }
}

/// A sorted, immutable `(key=value)` label set addressing one instrument
/// inside a metric family.
///
/// Keys are sorted at construction and duplicates rejected, so two label
/// sets built from the same pairs in any order compare equal and render
/// identically — the backbone of deterministic exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// Build from `(key, value)` pairs; order-insensitive.
    ///
    /// Panics on duplicate keys or empty key names.
    pub fn of(pairs: &[(&str, &str)]) -> Labels {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, val)| {
                assert!(!k.is_empty(), "empty label key");
                ((*k).to_owned(), (*val).to_owned())
            })
            .collect();
        v.sort();
        for w in v.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate label key: {}", w[0].0);
        }
        Labels(v)
    }

    /// The empty label set.
    pub fn empty() -> Labels {
        Labels::default()
    }

    /// True when no labels are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value for `key` if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Iterate `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Render as `{k="v",k2="v2"}`, or `""` when empty. A value's `\`, `"`
    /// and line feed are escaped, as the text exposition format requires.
    pub fn render(&self) -> String {
        self.render_with(&[])
    }

    /// [`Labels::render`] with extra trailing pairs (e.g. `quantile="0.5"`).
    fn render_with(&self, extra: &[(&str, &str)]) -> String {
        if self.0.is_empty() && extra.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in self.iter().chain(extra.iter().copied()) {
            if !first {
                out.push(',');
            }
            first = false;
            let v = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
        out
    }
}

/// One sim-time bucket of a [`WindowedGauge`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaugeBucket {
    /// Bucket start time (a multiple of [`DEFAULT_GAUGE_WINDOW`]).
    pub start: SimTime,
    /// Last value set in the bucket.
    pub last: f64,
    /// Smallest value set in the bucket.
    pub min: f64,
    /// Largest value set in the bucket.
    pub max: f64,
    /// Sum of values set in the bucket.
    pub sum: f64,
    /// Number of values set in the bucket.
    pub count: u64,
}

impl GaugeBucket {
    /// Mean of values set in the bucket.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// A gauge whose samples are aggregated over [`DEFAULT_GAUGE_WINDOW`]-wide
/// sim-time buckets.
///
/// Each `set(now, v)` lands in the bucket `now / window`; the gauge keeps
/// one [`GaugeBucket`] per touched window in time order. This gives
/// monitoring clients a bounded "value over time" view (`--watch` mode of
/// the health report) without retaining every sample.
#[derive(Clone, Debug, Default)]
pub struct WindowedGauge {
    buckets: Vec<GaugeBucket>,
}

impl WindowedGauge {
    /// Record the gauge value `v` observed at `now`.
    ///
    /// Samples must arrive in non-decreasing time order (the simulation
    /// clock guarantees this for fabric-published gauges).
    pub fn set(&mut self, now: SimTime, v: f64) {
        let window = DEFAULT_GAUGE_WINDOW.as_nanos();
        let start = SimTime::from_nanos(now.as_nanos() / window * window);
        if let Some(b) = self.buckets.last_mut() {
            assert!(start >= b.start, "WindowedGauge::set: time went backwards");
            if b.start == start {
                b.last = v;
                b.min = b.min.min(v);
                b.max = b.max.max(v);
                b.sum += v;
                b.count += 1;
                return;
            }
        }
        self.buckets.push(GaugeBucket {
            start,
            last: v,
            min: v,
            max: v,
            sum: v,
            count: 1,
        });
    }

    /// All touched buckets in time order.
    pub fn buckets(&self) -> &[GaugeBucket] {
        &self.buckets
    }

    /// Last value set, or `None` before any sample.
    pub fn latest(&self) -> Option<f64> {
        self.buckets.last().map(|b| b.last)
    }
}

/// Handle to a counter, flat or labeled: its position in the registry that
/// resolved it. Append-only, so it stays valid for the registry's lifetime
/// (and addresses the same counter in a clone); meaningless in any other
/// registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(u32);

/// Handle to a windowed gauge; see [`CounterId`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GaugeId(u32);

/// Ordered index of one kind's labeled families: family name, then label
/// set, to the instrument's position in its store.
type FamilyIndex = BTreeMap<String, BTreeMap<Labels, u32>>;

/// Every instrument of one kind, once, in creation order, and the sorted
/// indexes into it: by flat name and by family then label set. Counters
/// use both indexes, histograms and gauges only the families, time series
/// only the flat names.
#[derive(Clone, Debug, Default)]
struct Table<V> {
    store: Vec<V>,
    flat: BTreeMap<String, u32>,
    families: FamilyIndex,
}

impl<V: Default> Table<V> {
    /// Position of the flat instrument `name`, created when absent.
    fn flat_id(&mut self, name: &str) -> u32 {
        resolve(&mut self.flat, &mut self.store, name)
    }

    /// Position of the instrument `labels` inside `family`, created when
    /// absent: one search per level for a known instrument.
    fn labeled_id(&mut self, family: &str, labels: &Labels) -> u32 {
        if let Some(&i) = self.families.get(family).and_then(|m| m.get(labels)) {
            return i;
        }
        resolve(self.families.entry(family.to_owned()).or_default(), &mut self.store, labels)
    }

    /// The flat instrument `name`, if it exists.
    fn flat(&self, name: &str) -> Option<&V> {
        self.flat.get(name).map(|&i| &self.store[i as usize])
    }

    /// The instrument `labels` inside `family`, if it exists.
    fn labeled(&self, family: &str, labels: &Labels) -> Option<&V> {
        let i = *self.families.get(family)?.get(labels)?;
        Some(&self.store[i as usize])
    }

    /// The `(labels, instrument)` entries of `family`, in label order.
    fn family(&self, family: &str) -> impl Iterator<Item = (&Labels, &V)> {
        self.families.get(family).into_iter().flat_map(|m| stored(m, &self.store))
    }

    /// Append every family to the exposition as `kind`, each instrument
    /// rendered by `line(out, family, labels, instrument)`.
    fn expose(&self, out: &mut String, kind: &str, line: impl Fn(&mut String, &str, &Labels, &V)) {
        for (family, entries) in &self.families {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for (labels, v) in stored(entries, &self.store) {
                line(out, family, labels, v);
            }
        }
    }

    /// Append every family to the snapshot as `"family":[{"labels":{..},..}]`,
    /// the fields after the labels written by `fields`.
    fn families_json(&self, out: &mut String, fields: impl Fn(&mut String, &V)) {
        push_entries(out, self.families.iter(), |out, (family, entries)| {
            let _ = write!(out, "\"{}\":[", json_escape(family));
            push_entries(out, stored(entries, &self.store), |out, (labels, v)| {
                let _ = write!(out, "{{\"labels\":{},", labels_json(labels));
                fields(out, v);
                out.push('}');
            });
            out.push(']');
        });
    }

    /// Append every flat instrument to the snapshot as `"name":` followed
    /// by what `value` writes.
    fn flat_json(&self, out: &mut String, value: impl Fn(&mut String, &V)) {
        push_entries(out, stored(&self.flat, &self.store), |out, (name, v)| {
            let _ = write!(out, "\"{}\":", json_escape(name));
            value(out, v);
        });
    }
}

/// Flat and labeled registry of all instruments in one simulation run.
///
/// Every instrument lives once, in one table per kind. The sorted name
/// and label maps are indexes into its store: exposition, the snapshot and
/// the read accessors walk them, so output order is the key order whatever
/// the creation order was. The get-or-create accessors search the index
/// and then index the store; a caller that records often keeps the
/// [`CounterId`] / [`GaugeId`] of its first record and skips the search
/// ([`MetricsRegistry::counter_at`], [`MetricsRegistry::gauge_at`]).
/// Resolving an id creates the instrument, so a caller resolves when it
/// first records and not before: an instrument that never recorded must not
/// show up in exposition.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Table<Counter>,
    histograms: Table<Histogram>,
    gauges: Table<WindowedGauge>,
    series: Table<TimeSeries>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        let id = self.counter_id(name);
        self.counter_at(id)
    }

    /// Handle of the counter `name`, created when absent.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        CounterId(self.counters.flat_id(name))
    }

    /// The counter `id` was resolved to.
    ///
    /// # Panics
    /// May panic on an id another registry resolved.
    pub fn counter_at(&mut self, id: CounterId) -> &mut Counter {
        &mut self.counters.store[id.0 as usize]
    }

    /// Read a counter value without creating it (zero if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.flat(name).map_or(0, Counter::get)
    }

    /// Get or create the time series `name`.
    pub fn time_series(&mut self, name: &str) -> &mut TimeSeries {
        let i = self.series.flat_id(name);
        &mut self.series.store[i as usize]
    }

    /// Read-only view of a time series if it exists.
    pub fn time_series_ref(&self, name: &str) -> Option<&TimeSeries> {
        self.series.flat(name)
    }

    /// Names of all counters, in sorted order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.flat.keys().map(String::as_str)
    }

    /// Get or create the counter `labels` inside family `family`.
    pub fn counter_labeled(&mut self, family: &str, labels: &Labels) -> &mut Counter {
        let id = self.counter_labeled_id(family, labels);
        self.counter_at(id)
    }

    /// Handle of the counter `labels` inside family `family`, created when
    /// absent.
    pub fn counter_labeled_id(&mut self, family: &str, labels: &Labels) -> CounterId {
        CounterId(self.counters.labeled_id(family, labels))
    }

    /// Read a labeled counter without creating it (zero if absent).
    pub fn counter_labeled_value(&self, family: &str, labels: &Labels) -> u64 {
        self.counters.labeled(family, labels).map_or(0, Counter::get)
    }

    /// All `(labels, value)` entries of a counter family, in label order.
    pub fn labeled_counters_of(&self, family: &str) -> impl Iterator<Item = (&Labels, u64)> {
        self.counters.family(family).map(|(l, c)| (l, c.get()))
    }

    /// Sum of `family`'s counters whose label sets carry every `(key, value)`
    /// pair of `matching` — the whole family when it is empty.
    pub fn family_total(&self, family: &str, matching: &[(&str, &str)]) -> u64 {
        let wanted = |l: &Labels| matching.iter().all(|&(k, v)| l.get(k) == Some(v));
        self.labeled_counters_of(family).filter(|(l, _)| wanted(l)).map(|(_, v)| v).sum()
    }

    /// Get or create the histogram `labels` inside family `family`.
    pub fn histogram_labeled(&mut self, family: &str, labels: &Labels) -> &mut Histogram {
        let i = self.histograms.labeled_id(family, labels);
        &mut self.histograms.store[i as usize]
    }

    /// Read-only view of a labeled histogram if it exists.
    pub fn histogram_labeled_ref(&self, family: &str, labels: &Labels) -> Option<&Histogram> {
        self.histograms.labeled(family, labels)
    }

    /// All `(labels, histogram)` entries of a family, in label order.
    pub fn labeled_histograms_of(
        &self,
        family: &str,
    ) -> impl Iterator<Item = (&Labels, &Histogram)> {
        self.histograms.family(family)
    }

    /// Get or create the windowed gauge `labels` inside family `family`.
    pub fn gauge(&mut self, family: &str, labels: &Labels) -> &mut WindowedGauge {
        let id = self.gauge_id(family, labels);
        self.gauge_at(id)
    }

    /// Handle of the windowed gauge `labels` inside family `family`,
    /// created when absent.
    pub fn gauge_id(&mut self, family: &str, labels: &Labels) -> GaugeId {
        GaugeId(self.gauges.labeled_id(family, labels))
    }

    /// The gauge `id` was resolved to.
    ///
    /// # Panics
    /// May panic on an id another registry resolved.
    pub fn gauge_at(&mut self, id: GaugeId) -> &mut WindowedGauge {
        &mut self.gauges.store[id.0 as usize]
    }

    /// Read-only view of a windowed gauge if it exists.
    pub fn gauge_ref(&self, family: &str, labels: &Labels) -> Option<&WindowedGauge> {
        self.gauges.labeled(family, labels)
    }

    /// All `(labels, gauge)` entries of a family, in label order.
    pub fn gauges_of(&self, family: &str) -> impl Iterator<Item = (&Labels, &WindowedGauge)> {
        self.gauges.family(family)
    }

    /// Names of all labeled counter families, in sorted order.
    pub fn labeled_counter_families(&self) -> impl Iterator<Item = &str> {
        self.counters.families.keys().map(String::as_str)
    }

    /// Deterministic Prometheus-style text exposition.
    ///
    /// Labeled families render under their own names; flat counters render
    /// under a sanitized name (dots become underscores). Durations are in
    /// milliseconds. Output ordering is fully determined by the sorted
    /// maps, so same-seed runs are byte-identical.
    pub fn expose_prometheus(&self) -> String {
        let mut out = String::new();
        self.counters.expose(&mut out, "counter", |out, family, labels, c| {
            let _ = writeln!(out, "{family}{} {}", labels.render(), c.get());
        });
        for (name, c) in stored(&self.counters.flat, &self.counters.store) {
            let family = sanitize_name(name);
            let _ = writeln!(out, "# TYPE {family} counter\n{family} {}", c.get());
        }
        self.histograms.expose(&mut out, "summary", expose_histogram);
        self.gauges.expose(&mut out, "gauge", |out, family, labels, g| {
            if let Some(v) = g.latest() {
                let _ = writeln!(out, "{family}{} {v}", labels.render());
            }
        });
        out
    }

    /// Deterministic JSON snapshot of every instrument in the registry.
    ///
    /// Self-contained (no serializer dependency); durations are reported
    /// in milliseconds. Ordering follows the sorted maps, so the string
    /// is byte-identical across same-seed runs. `histograms` is always
    /// empty: the key stays so the format does not change.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        self.counters.flat_json(&mut out, |out, c| {
            let _ = write!(out, "{}", c.get());
        });
        out.push_str("},\"labeled_counters\":{");
        self.counters.families_json(&mut out, |out, c| {
            let _ = write!(out, "\"value\":{}", c.get());
        });
        out.push_str("},\"histograms\":{},\"labeled_histograms\":{");
        self.histograms.families_json(&mut out, |out, h| {
            let _ = write!(out, "\"stats\":{}", histogram_json(h));
        });
        out.push_str("},\"gauges\":{");
        self.gauges.families_json(&mut out, |out, g| {
            let window_ms = DEFAULT_GAUGE_WINDOW.as_millis_f64();
            let _ = write!(out, "\"window_ms\":{window_ms},\"buckets\":[");
            push_entries(out, g.buckets().iter(), |out, b| {
                let _ = write!(
                    out,
                    "{{\"start_ms\":{},\"last\":{},\"min\":{},\"max\":{},\"mean\":{},\"count\":{}}}",
                    b.start.as_nanos() as f64 / 1e6,
                    b.last,
                    b.min,
                    b.max,
                    b.mean(),
                    b.count
                );
            });
            out.push(']');
        });
        out.push_str("},\"series\":{");
        self.series.flat_json(&mut out, |out, s| {
            let _ = write!(
                out,
                "{{\"points\":{},\"mean\":{},\"max\":{},\"last\":{}}}",
                s.points().len(),
                opt_f64(s.mean_value()),
                opt_f64(s.max_value()),
                opt_f64(s.points().last().map(|&(_, v)| v))
            );
        });
        out.push_str("}}");
        out
    }

    /// Lint metric names registered at runtime; returns violation
    /// messages (empty = clean).
    ///
    /// Rules:
    /// 1. Labeled family names must follow the telemetry naming scheme
    ///    `^[a-z][a-z0-9_]*$` — no ad-hoc dotted or mixed-case names.
    /// 2. Every instrument in a labeled family must carry at least one
    ///    label (otherwise it belongs in the flat namespace).
    /// 3. A family name must be registered under exactly one metric type
    ///    (counter vs histogram vs gauge).
    /// 4. A flat name, once sanitized for exposition, must not collide
    ///    with a labeled family name.
    pub fn lint_metric_names(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let kinds = [
            ("counter", &self.counters.families),
            ("histogram", &self.histograms.families),
            ("gauge", &self.gauges.families),
        ];
        let all_families = || kinds.iter().flat_map(|&(kind, f)| f.iter().map(move |e| (kind, e)));
        for (_, (family, _)) in all_families() {
            if !is_valid_family_name(family) {
                violations.push(format!(
                    "ad-hoc family name {family:?}: must match ^[a-z][a-z0-9_]*$"
                ));
            }
        }
        let mut seen: BTreeMap<&String, &'static str> = BTreeMap::new();
        for (kind, (family, _)) in all_families() {
            if let Some(prev) = seen.insert(family, kind) {
                violations.push(format!(
                    "duplicate family {family:?}: registered as both {prev} and {kind}"
                ));
            }
        }
        for (kind, (family, entries)) in all_families() {
            if entries.contains_key(&Labels::empty()) {
                violations.push(format!("unlabeled instrument in {kind} family {family:?}"));
            }
        }
        for name in self.counters.flat.keys().chain(self.series.flat.keys()) {
            let sanitized = sanitize_name(name);
            if seen.contains_key(&sanitized) {
                violations.push(format!(
                    "flat metric {name:?} collides with labeled family {sanitized:?} in exposition"
                ));
            }
        }
        violations
    }
}

/// Position in `store` of the instrument `key` names, appended when the key
/// is new. One search for a known key, and the key is cloned only when it
/// is not known, so recording under an interned name or [`Labels`]
/// allocates nothing.
fn resolve<K, Q, V>(index: &mut BTreeMap<K, u32>, store: &mut Vec<V>, key: &Q) -> u32
where
    K: Ord + Borrow<Q>,
    Q: Ord + ToOwned<Owned = K> + ?Sized,
    V: Default,
{
    if let Some(&i) = index.get(key) {
        return i;
    }
    let i = u32::try_from(store.len()).expect("fewer than 2^32 instruments of a kind");
    store.push(V::default());
    index.insert(key.to_owned(), i);
    i
}

/// The instruments `index` points at, in key order.
fn stored<'a, K, V>(
    index: &'a BTreeMap<K, u32>,
    store: &'a [V],
) -> impl Iterator<Item = (&'a K, &'a V)> {
    index.iter().map(move |(k, &i)| (k, &store[i as usize]))
}

/// `true` when `name` follows the labeled-family naming scheme.
fn is_valid_family_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Map a flat metric name onto the exposition charset.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn expose_histogram(out: &mut String, family: &str, labels: &Labels, h: &Histogram) {
    for (q, qs) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        if let Some(v) = h.quantile(q) {
            let quantile = labels.render_with(&[("quantile", qs)]);
            let _ = writeln!(out, "{family}{quantile} {}", v.as_millis_f64());
        }
    }
    let labels = labels.render();
    let _ = writeln!(out, "{family}_count{labels} {}", h.count());
    let _ = writeln!(out, "{family}_sum{labels} {}", h.sum().as_millis_f64());
}

fn histogram_json(h: &Histogram) -> String {
    let ms = |d: Option<SimDuration>| opt_f64(d.map(SimDuration::as_millis_f64));
    format!(
        "{{\"count\":{},\"mean_ms\":{},\"p50_ms\":{},\"p95_ms\":{},\"max_ms\":{}}}",
        h.count(),
        ms(h.mean()),
        ms(h.quantile(0.5)),
        ms(h.quantile(0.95)),
        ms(h.max())
    )
}

fn labels_json(labels: &Labels) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "null".to_owned(),
    }
}

fn push_entries<I, T>(out: &mut String, iter: I, mut f: impl FnMut(&mut String, T))
where
    I: Iterator<Item = T>,
{
    let mut first = true;
    for item in iter {
        if !first {
            out.push(',');
        }
        first = false;
        f(out, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut m = MetricsRegistry::new();
        m.counter("a").inc();
        m.counter("a").add(4);
        assert_eq!(m.counter_value("a"), 5);
        assert_eq!(m.counter_value("missing"), 0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::default();
        for ms in 1..=100 {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), Some(SimDuration::from_millis(50)));
        assert_eq!(h.quantile(0.99), Some(SimDuration::from_millis(99)));
        assert_eq!(h.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(h.max(), Some(SimDuration::from_millis(100)));
        assert_eq!(h.mean(), Some(SimDuration::from_micros(50_500)));
    }

    #[test]
    fn percentile_is_ceil_nearest_rank_on_any_copy_type() {
        assert_eq!(percentile::<f64>(&[], 0.5), None);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(2.0), "rank ceil(2.0) = 2, not floor(2.0) + 1");
        assert_eq!(percentile(&v, 0.51), Some(3.0), "rank ceil(2.04) = 3");
        assert_eq!(percentile(&v, 1.0), Some(4.0));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::default();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_interleaved_record_and_query() {
        let mut h = Histogram::default();
        h.record(SimDuration::from_millis(10));
        assert_eq!(h.quantile(1.0), Some(SimDuration::from_millis(10)));
        h.record(SimDuration::from_millis(5));
        assert_eq!(h.min(), Some(SimDuration::from_millis(5)));
    }

    #[test]
    fn histogram_quantiles_through_shared_ref() {
        // The read path (`histogram_labeled_ref`) must answer quantiles
        // with no mutable access to the registry.
        let mut m = MetricsRegistry::new();
        let s0 = Labels::of(&[("site", "site0")]);
        m.histogram_labeled("glare_lat_ms", &s0).record(SimDuration::from_millis(3));
        m.histogram_labeled("glare_lat_ms", &s0).record(SimDuration::from_millis(1));
        let view: &MetricsRegistry = &m;
        let h = view.histogram_labeled_ref("glare_lat_ms", &s0).unwrap();
        assert_eq!(h.quantile(0.5), Some(SimDuration::from_millis(1)));
        assert_eq!(h.max(), Some(SimDuration::from_millis(3)));
    }

    #[test]
    fn time_series_queries() {
        let mut s = TimeSeries::default();
        s.push(SimTime::from_secs(1), 1.0);
        s.push(SimTime::from_secs(2), 5.0);
        s.push(SimTime::from_secs(3), 3.0);
        assert_eq!(s.max_value(), Some(5.0));
        assert_eq!(s.mean_value(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_series_rejects_backwards_time() {
        let mut s = TimeSeries::default();
        s.push(SimTime::from_secs(2), 0.0);
        s.push(SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn registry_namespaces_are_independent() {
        let mut m = MetricsRegistry::new();
        let s0 = Labels::of(&[("site", "site0")]);
        m.counter("x").inc();
        m.counter_labeled("x", &s0).add(2);
        m.histogram_labeled("x", &s0).record(SimDuration::from_millis(1));
        m.time_series("x").push(SimTime::ZERO, 0.0);
        assert_eq!(m.counter_value("x"), 1);
        assert_eq!(m.counter_labeled_value("x", &s0), 2);
        assert_eq!(m.histogram_labeled_ref("x", &s0).unwrap().count(), 1);
        assert_eq!(m.time_series_ref("x").unwrap().points().len(), 1);
        assert_eq!(m.counter_names().collect::<Vec<_>>(), vec!["x"]);
    }

    #[test]
    fn labels_sort_and_compare() {
        let a = Labels::of(&[("site", "site0"), ("group", "sp1")]);
        let b = Labels::of(&[("group", "sp1"), ("site", "site0")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "{group=\"sp1\",site=\"site0\"}");
        assert_eq!(a.get("site"), Some("site0"));
        assert_eq!(a.get("missing"), None);
        assert_eq!(Labels::empty().render(), "");
    }

    /// The text format requires a line feed in a label value escaped, or
    /// the sample splits across lines.
    #[test]
    fn labels_escape_line_feeds() {
        let l = Labels::of(&[("activity", "a\nb\\c\"d")]);
        assert_eq!(l.render(), "{activity=\"a\\nb\\\\c\\\"d\"}");
        let mut m = MetricsRegistry::new();
        m.gauge("glare_autonomic_replicas", &Labels::of(&[("activity", "a\nb")]))
            .set(SimTime::ZERO, 2.0);
        assert_eq!(
            m.expose_prometheus(),
            "# TYPE glare_autonomic_replicas gauge\nglare_autonomic_replicas{activity=\"a\\nb\"} 2\n"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn labels_reject_duplicate_keys() {
        Labels::of(&[("site", "a"), ("site", "b")]);
    }

    #[test]
    fn labeled_counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        let s0 = Labels::of(&[("site", "site0")]);
        let s1 = Labels::of(&[("site", "site1")]);
        m.counter_labeled("glare_cache_hits_total", &s0).add(3);
        m.counter_labeled("glare_cache_hits_total", &s1).inc();
        assert_eq!(m.counter_labeled_value("glare_cache_hits_total", &s0), 3);
        assert_eq!(m.counter_labeled_value("glare_cache_hits_total", &s1), 1);
        assert_eq!(m.counter_labeled_value("glare_cache_hits_total", &Labels::empty()), 0);
        let entries: Vec<_> = m.labeled_counters_of("glare_cache_hits_total").collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, 3);
    }

    #[test]
    fn family_total_sums_the_sets_that_match() {
        let mut m = MetricsRegistry::new();
        let drops = [("site0", "loss", 3), ("site0", "partition", 4), ("site1", "loss", 5)];
        for (site, reason, n) in drops {
            let labels = Labels::of(&[("site", site), ("reason", reason)]);
            m.counter_labeled("glare_net_dropped_total", &labels).add(n);
        }
        let total = |matching: &[(&str, &str)]| m.family_total("glare_net_dropped_total", matching);
        assert_eq!(total(&[]), 12);
        assert_eq!(total(&[("reason", "loss")]), 8);
        assert_eq!(total(&[("site", "site0")]), 7);
        assert_eq!(total(&[("site", "site0"), ("reason", "loss")]), 3);
        assert_eq!(total(&[("site", "site2")]), 0);
        assert_eq!(total(&[("tenant", "gold")]), 0, "a key no set carries matches nothing");
        assert_eq!(m.family_total("glare_absent_total", &[]), 0);
    }

    #[test]
    fn windowed_gauge_buckets_by_window() {
        let mut g = WindowedGauge::default();
        g.set(SimTime::from_secs(10), 1.0);
        g.set(SimTime::from_secs(50), 3.0);
        g.set(SimTime::from_secs(70), 2.0);
        assert_eq!(g.buckets().len(), 2);
        let b0 = g.buckets()[0];
        assert_eq!(b0.start, SimTime::ZERO);
        assert_eq!(b0.last, 3.0);
        assert_eq!(b0.min, 1.0);
        assert_eq!(b0.max, 3.0);
        assert_eq!(b0.mean(), 2.0);
        assert_eq!(g.buckets()[1].start, SimTime::from_secs(60));
        assert_eq!(g.latest(), Some(2.0));
    }

    #[test]
    fn exposition_is_deterministic_and_sorted() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.counter("net.msgs_sent").add(7);
            m.counter_labeled("glare_requests_total", &Labels::of(&[("site", "site1")]))
                .add(2);
            m.counter_labeled("glare_requests_total", &Labels::of(&[("site", "site0")]))
                .inc();
            m.histogram_labeled("glare_probe_latency_ms", &Labels::of(&[("site", "site0")]))
                .record(SimDuration::from_millis(12));
            m.gauge("glare_site_load1m", &Labels::of(&[("site", "site0")]))
                .set(SimTime::from_secs(30), 0.5);
            m
        };
        let a = build().expose_prometheus();
        let b = build().expose_prometheus();
        assert_eq!(a, b, "exposition must be byte-identical");
        assert!(a.contains("# TYPE glare_requests_total counter"));
        // site0 sorts before site1.
        let i0 = a.find("site=\"site0\"").unwrap();
        let i1 = a.find("site=\"site1\"").unwrap();
        assert!(i0 < i1);
        assert!(a.contains("net_msgs_sent 7"));
        assert!(a.contains("glare_probe_latency_ms{quantile=\"0.5\",site=\"site0\"}") || a.contains("glare_probe_latency_ms{site=\"site0\",quantile=\"0.5\"}"));
        assert!(a.contains("glare_site_load1m{site=\"site0\"} 0.5"));
        let snap_a = build().snapshot_json();
        let snap_b = build().snapshot_json();
        assert_eq!(snap_a, snap_b, "snapshot must be byte-identical");
        assert!(snap_a.starts_with('{') && snap_a.ends_with('}'));
    }

    /// Every get-or-create accessor finds the instrument an earlier call
    /// made (one instrument per name or label set, values accumulate),
    /// and the exposition is, byte for byte, what the registry rendered
    /// when each call cloned its keys up front.
    #[test]
    fn lookups_find_the_existing_instrument_and_exposition_is_pinned() {
        let mut m = MetricsRegistry::new();
        let s0 = Labels::of(&[("site", "site0")]);
        let s1 = Labels::of(&[("site", "site1")]);
        for round in 1..=3u64 {
            m.counter("site0.cache.hits").add(round);
            m.time_series("load").push(SimTime::from_secs(round), round as f64);
            m.counter_labeled("glare_requests_total", &s1).inc();
            m.counter_labeled("glare_requests_total", &s0).add(round);
            m.histogram_labeled("glare_probe_latency_ms", &s0)
                .record(SimDuration::from_millis(10 * round));
            m.gauge("glare_inbox_occupancy", &s0)
                .set(SimTime::from_secs(round), round as f64);
        }
        assert_eq!(m.counter_names().collect::<Vec<_>>(), ["site0.cache.hits"]);
        assert_eq!(m.counter_value("site0.cache.hits"), 6);
        assert_eq!(m.time_series_ref("load").unwrap().points().len(), 3);
        let requests: Vec<_> = m.labeled_counters_of("glare_requests_total").collect();
        assert_eq!(requests, [(&s0, 6), (&s1, 3)]);
        assert_eq!(m.labeled_histograms_of("glare_probe_latency_ms").count(), 1);
        assert_eq!(m.histogram_labeled_ref("glare_probe_latency_ms", &s0).unwrap().count(), 3);
        assert_eq!(m.gauges_of("glare_inbox_occupancy").count(), 1);
        let gauge = m.gauge_ref("glare_inbox_occupancy", &s0).unwrap();
        assert_eq!((gauge.buckets().len(), gauge.buckets()[0].count), (1, 3));
        assert_eq!(
            m.expose_prometheus(),
            "# TYPE glare_requests_total counter\n\
             glare_requests_total{site=\"site0\"} 6\n\
             glare_requests_total{site=\"site1\"} 3\n\
             # TYPE site0_cache_hits counter\n\
             site0_cache_hits 6\n\
             # TYPE glare_probe_latency_ms summary\n\
             glare_probe_latency_ms{site=\"site0\",quantile=\"0.5\"} 20\n\
             glare_probe_latency_ms{site=\"site0\",quantile=\"0.95\"} 30\n\
             glare_probe_latency_ms{site=\"site0\",quantile=\"0.99\"} 30\n\
             glare_probe_latency_ms_count{site=\"site0\"} 3\n\
             glare_probe_latency_ms_sum{site=\"site0\"} 60\n\
             # TYPE glare_inbox_occupancy gauge\n\
             glare_inbox_occupancy{site=\"site0\"} 3\n"
        );
    }

    /// The snapshot, byte for byte: an empty registry, then one holding
    /// every kind it reports.
    #[test]
    fn snapshot_json_is_pinned() {
        assert_eq!(
            MetricsRegistry::new().snapshot_json(),
            "{\"counters\":{},\"labeled_counters\":{},\"histograms\":{},\
             \"labeled_histograms\":{},\"gauges\":{},\"series\":{}}"
        );
        let mut m = MetricsRegistry::new();
        let (s0, s1) = (Labels::of(&[("site", "site0")]), Labels::of(&[("site", "site1")]));
        m.counter("net.msgs_sent").add(7);
        m.counter_labeled("glare_requests_total", &s1).add(2);
        m.counter_labeled("glare_requests_total", &s0).inc();
        let h = m.histogram_labeled("glare_probe_latency_ms", &s0);
        h.record(SimDuration::from_millis(12));
        h.record(SimDuration::from_millis(4));
        let g = m.gauge("glare_site_load1m", &s0);
        g.set(SimTime::from_secs(30), 0.5);
        g.set(SimTime::from_secs(45), 1.5);
        g.set(SimTime::from_secs(90), 2.0);
        let s = m.time_series("load");
        s.push(SimTime::from_secs(1), 1.0);
        s.push(SimTime::from_secs(2), 3.0);
        assert_eq!(
            m.snapshot_json(),
            "{\"counters\":{\"net.msgs_sent\":7},\
             \"labeled_counters\":{\"glare_requests_total\":[\
             {\"labels\":{\"site\":\"site0\"},\"value\":1},\
             {\"labels\":{\"site\":\"site1\"},\"value\":2}]},\
             \"histograms\":{},\
             \"labeled_histograms\":{\"glare_probe_latency_ms\":[\
             {\"labels\":{\"site\":\"site0\"},\"stats\":\
             {\"count\":2,\"mean_ms\":8,\"p50_ms\":4,\"p95_ms\":12,\"max_ms\":12}}]},\
             \"gauges\":{\"glare_site_load1m\":[\
             {\"labels\":{\"site\":\"site0\"},\"window_ms\":60000,\"buckets\":[\
             {\"start_ms\":0,\"last\":1.5,\"min\":0.5,\"max\":1.5,\"mean\":1,\"count\":2},\
             {\"start_ms\":60000,\"last\":2,\"min\":2,\"max\":2,\"mean\":2,\"count\":1}]}]},\
             \"series\":{\"load\":{\"points\":2,\"mean\":2,\"max\":3,\"last\":3}}}"
        );
    }

    /// A random interleaving of by-name and by-handle records over flat
    /// counters, labeled counters and gauges leaves exactly what the same
    /// records made by name alone leave.
    #[test]
    fn records_by_handle_equal_records_by_name() {
        use crate::rng::SimRng;
        let names = ["net.msgs_sent", "glare.requests", "site3.cache.hits", "a"];
        let families = ["glare_cache_hits_total", "glare_requests_total"];
        let gauge_families = ["glare_inbox_occupancy", "glare_cache_hit_ratio"];
        let sets: Vec<Labels> = (0..5)
            .map(|i| Labels::of(&[("site", &format!("site{i}")), ("peer_group", "g1")]))
            .collect();
        for seed in 0..20u64 {
            let mut rng = SimRng::from_seed(seed);
            let (mut by_name, mut mixed) = (MetricsRegistry::new(), MetricsRegistry::new());
            // The handles the mixed registry's recorder holds: one slot
            // per instrument, filled by its first by-handle record.
            let mut flat = [None; 4];
            let mut labeled = [[None; 5]; 2];
            let mut gauges = [[None; 5]; 2];
            for step in 0..400u64 {
                let (n, by_handle) = (rng.range(1, 9), rng.chance(0.6));
                match rng.index(3) {
                    0 => {
                        let i = rng.index(names.len());
                        by_name.counter(names[i]).add(n);
                        if by_handle {
                            let id = *flat[i].get_or_insert_with(|| mixed.counter_id(names[i]));
                            mixed.counter_at(id).add(n);
                        } else {
                            mixed.counter(names[i]).add(n);
                        }
                    }
                    1 => {
                        let (f, l) = (rng.index(families.len()), rng.index(sets.len()));
                        by_name.counter_labeled(families[f], &sets[l]).add(n);
                        if by_handle {
                            let id = *labeled[f][l].get_or_insert_with(|| {
                                mixed.counter_labeled_id(families[f], &sets[l])
                            });
                            mixed.counter_at(id).add(n);
                        } else {
                            mixed.counter_labeled(families[f], &sets[l]).add(n);
                        }
                    }
                    _ => {
                        let (f, l) = (rng.index(gauge_families.len()), rng.index(sets.len()));
                        let now = SimTime::from_secs(step);
                        by_name
                            .gauge(gauge_families[f], &sets[l])
                            .set(now, n as f64);
                        if by_handle {
                            let id = *gauges[f][l].get_or_insert_with(|| {
                                mixed.gauge_id(gauge_families[f], &sets[l])
                            });
                            mixed.gauge_at(id).set(now, n as f64);
                        } else {
                            mixed
                                .gauge(gauge_families[f], &sets[l])
                                .set(now, n as f64);
                        }
                    }
                }
            }
            assert_eq!(
                mixed.snapshot_json(),
                by_name.snapshot_json(),
                "seed {seed}"
            );
            assert_eq!(
                mixed.expose_prometheus(),
                by_name.expose_prometheus(),
                "seed {seed}"
            );
        }
    }

    /// Handles are positions in append-only storage: one taken early
    /// addresses its instrument after a thousand later creations, in its
    /// own family and in others, and in a clone of the registry.
    #[test]
    fn handles_survive_later_creations_and_cloning() {
        let site = |i: u32| Labels::of(&[("site", &format!("site{i}"))]);
        let mut m = MetricsRegistry::new();
        let flat = m.counter_id("m.first");
        let labeled = m.counter_labeled_id("glare_requests_total", &site(500));
        let gauge = m.gauge_id("glare_inbox_occupancy", &site(500));
        for i in 0..1000 {
            // Keys sorting before and after the early ones, same family
            // and others, every kind.
            m.counter(&format!("a.{i}")).inc();
            m.counter(&format!("z.{i}")).inc();
            m.counter_labeled("glare_requests_total", &site(i)).inc();
            m.counter_labeled("glare_a_total", &site(i)).inc();
            m.gauge("glare_inbox_occupancy", &site(i))
                .set(SimTime::ZERO, 1.0);
            m.gauge("glare_z_ratio", &site(i))
                .set(SimTime::ZERO, 1.0);
            m.histogram_labeled("glare_h_ms", &site(i))
                .record(SimDuration::from_millis(1));
        }
        m.counter_at(flat).add(7);
        m.counter_at(labeled).add(7);
        m.gauge_at(gauge).set(SimTime::from_secs(1), 7.0);
        assert_eq!(m.counter_value("m.first"), 7);
        // site(500) was also counted once by name inside the loop.
        assert_eq!(
            m.counter_labeled_value("glare_requests_total", &site(500)),
            8
        );
        let latest = |m: &MetricsRegistry| {
            m.gauge_ref("glare_inbox_occupancy", &site(500))
                .unwrap()
                .latest()
        };
        assert_eq!(latest(&m), Some(7.0));
        // Resolving again finds the same handle.
        assert_eq!(m.counter_id("m.first"), flat);
        assert_eq!(
            m.counter_labeled_id("glare_requests_total", &site(500)),
            labeled
        );
        assert_eq!(
            m.gauge_id("glare_inbox_occupancy", &site(500)),
            gauge
        );

        let mut copy = m.clone();
        copy.counter_at(flat).inc();
        copy.counter_at(labeled).inc();
        copy.gauge_at(gauge).set(SimTime::from_secs(2), 9.0);
        assert_eq!(copy.counter_value("m.first"), 8);
        assert_eq!(
            copy.counter_labeled_value("glare_requests_total", &site(500)),
            9
        );
        assert_eq!(latest(&copy), Some(9.0));
        assert_eq!(
            (m.counter_value("m.first"), latest(&m)),
            (7, Some(7.0)),
            "the original is untouched"
        );
    }

    /// Resolving is the only way an instrument appears. A recorder that
    /// holds a name, a label set and an empty handle slot but never
    /// records leaves nothing to expose, and reading creates nothing; the
    /// first resolve is when the line appears, at zero.
    #[test]
    fn an_unresolved_key_leaves_exposition_empty() {
        let mut m = MetricsRegistry::new();
        let (name, labels) = ("site3.cache.misses", Labels::of(&[("site", "site3")]));
        let mut slot: Option<CounterId> = None;
        assert_eq!(m.counter_value(name), 0);
        assert_eq!(
            m.counter_labeled_value("glare_cache_misses_total", &labels),
            0
        );
        assert!(m.gauge_ref("glare_cache_hit_ratio", &labels).is_none());
        assert_eq!(m.expose_prometheus(), "");
        assert_eq!(m.snapshot_json(), MetricsRegistry::new().snapshot_json());

        let id = *slot.get_or_insert_with(|| m.counter_id(name));
        assert_eq!(
            m.expose_prometheus(),
            "# TYPE site3_cache_misses counter\nsite3_cache_misses 0\n"
        );
        m.counter_at(id).inc();
        assert_eq!(m.counter_value(name), 1);
    }

    #[test]
    fn lint_accepts_scheme_conformant_names() {
        let mut m = MetricsRegistry::new();
        m.counter("net.msgs_sent").inc();
        m.counter_labeled("glare_cache_hits_total", &Labels::of(&[("site", "site0")]))
            .inc();
        m.histogram_labeled("glare_probe_latency_ms", &Labels::of(&[("site", "site0")]))
            .record(SimDuration::from_millis(1));
        m.gauge("glare_deployment_availability", &Labels::of(&[("site", "site0")]));
        assert_eq!(m.lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn lint_rejects_adhoc_and_unlabeled_names() {
        let mut m = MetricsRegistry::new();
        m.counter_labeled("Bad.Name", &Labels::of(&[("site", "site0")])).inc();
        m.counter_labeled("glare_ok_total", &Labels::empty()).inc();
        m.histogram_labeled("glare_ok_ms", &Labels::empty())
            .record(SimDuration::from_millis(1));
        m.gauge("glare_ok_ratio", &Labels::empty()).set(SimTime::ZERO, 1.0);
        let v = m.lint_metric_names();
        assert_eq!(v.len(), 4, "violations: {v:?}");
        assert!(v.iter().any(|s| s.contains("ad-hoc family name")));
        for kind in ["counter", "histogram", "gauge"] {
            let message = format!("unlabeled instrument in {kind} family");
            assert!(v.iter().any(|s| s.contains(&message)), "{kind}: {v:?}");
        }
    }

    #[test]
    fn lint_rejects_duplicates_across_types_and_namespaces() {
        let mut m = MetricsRegistry::new();
        let l = Labels::of(&[("site", "site0")]);
        m.counter_labeled("glare_probe_latency_ms", &l).inc();
        m.histogram_labeled("glare_probe_latency_ms", &l)
            .record(SimDuration::from_millis(1));
        m.counter("glare.probe.latency_ms").inc();
        let v = m.lint_metric_names();
        assert!(v.iter().any(|s| s.contains("duplicate family")), "{v:?}");
        assert!(v.iter().any(|s| s.contains("collides with labeled family")), "{v:?}");
    }
}
