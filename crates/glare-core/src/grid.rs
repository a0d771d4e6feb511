//! A whole-VO view: every site's host, registries and services in one
//! place.
//!
//! [`Grid`] is the synchronous harness the provisioning algorithm (§2.2)
//! operates on — Table 1, the examples and the integration tests all run
//! against it. The *distributed* behaviours (multi-site response time,
//! super-peer elections under failures) run on the discrete-event actors
//! in [`crate::node`], which host the same per-site state.

use std::borrow::Cow;
use std::sync::Arc;

use glare_fabric::topology::{LinkSpec, Platform, SiteId};
use glare_fabric::store::COMPACT_EVERY;
use glare_fabric::{
    EventLog, FieldValue, Labels, MetricsRegistry, SimDuration, SimRng, SimTime, SiteStore,
    StoreConfig, TraceSink, NO_FIELDS,
};
use glare_services::gridftp::Repository;
use glare_services::{GramService, SiteHost, Transport};

use crate::adr::ActivityDeploymentRegistry;
use crate::atr::ActivityTypeRegistry;
use crate::cache::RegistryCache;
use crate::durable::{self, RegistryMutation, SnapshotState};
use crate::error::GlareError;
use crate::lease::{LeaseKind, LeaseManager, LeaseTicket};
use crate::model::{ActivityDeployment, ActivityType, TypeKind};
use crate::retry::{BreakerBank, RetryPolicy, ATTEMPT_TIMEOUT};

/// Default age limit for cached registry entries.
pub(crate) const DEFAULT_CACHE_AGE: SimDuration = SimDuration::from_secs(300);

/// One GLARE-enabled Grid site: host plus local services.
#[derive(Clone, Debug)]
pub struct GridSite {
    /// Site name.
    pub name: String,
    /// Host state (filesystem, installed packages, container).
    pub host: SiteHost,
    /// Local activity type registry.
    pub atr: ActivityTypeRegistry,
    /// Local activity deployment registry.
    pub adr: ActivityDeploymentRegistry,
    /// Local job manager.
    pub gram: GramService,
    /// Local lease/reservation manager.
    pub leases: LeaseManager,
    /// Local cache of remote resources.
    pub cache: RegistryCache,
    /// The site's durable store (WAL + snapshots): every registry and
    /// lease mutation is journaled here, and it is all a crashed site
    /// gets back at [`Grid::restart_site`].
    store: SiteStore,
    /// Whether the site is reachable (false between a crash and its
    /// restart).
    up: bool,
    /// The `{site="site{i}"}` label set, built once: the telemetry door
    /// ([`Grid::count`], [`Grid::observe`], [`Grid::set_gauge`],
    /// [`Grid::emit`]) records by site index and formats nothing.
    labels: Labels,
    /// The `site{i}` name every event record [`Grid::emit`] keeps shares.
    short: Arc<str>,
}

impl GridSite {
    /// Site `i` of a VO (`site{i}.agrid.example`), up, with empty
    /// registries and an empty store.
    fn new(i: usize, transport: Transport) -> GridSite {
        let name = format!("site{i}.agrid.example");
        let short: Arc<str> = Grid::site_label(i).into();
        GridSite {
            host: SiteHost::new(&name, Platform::intel_linux_32()),
            atr: ActivityTypeRegistry::new(
                ["https://", &name, ":8084/wsrf/services/ActivityTypeRegistry"].concat(),
                transport,
            ),
            adr: ActivityDeploymentRegistry::new(
                ["https://", &name, ":8084/wsrf/services/ActivityDeploymentRegistry"].concat(),
                transport,
            ),
            gram: GramService::new(),
            leases: LeaseManager::new(),
            cache: RegistryCache::new(DEFAULT_CACHE_AGE),
            name,
            store: SiteStore::default(),
            up: true,
            labels: site_set(&short, None),
            short,
        }
    }
}

/// Notification sent to a site administrator (manual installs, failures;
/// §3.4: "GLARE service notifies administrator of the target site by
/// email referring to the website of the activity or contact of its
/// provider").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdminNotification {
    /// Destination site.
    pub site: String,
    /// Activity type concerned.
    pub type_name: String,
    /// Why the administrator is being contacted.
    pub reason: String,
    /// Provider contact from the type entry.
    pub provider_contact: String,
}

/// Cost of producing and delivering an admin/event notification
/// (Table 1's "Notification" row, ~345 ms).
pub(crate) const NOTIFICATION_COST: SimDuration = SimDuration::from_millis(345);

/// Synchronous-path message loss for the cost-model harness.
///
/// The distributed fabric injects faults at its kernel (crashes,
/// partitions, message loss); the synchronous [`Grid`] has no kernel.
/// Crashes are the sites' own ([`Grid::crash_site`]); this injector holds
/// only the loss model: each cross-site attempt is lost with probability
/// `loss`. Chaos's Grid phase and tests set it. At zero loss it never
/// draws from its RNG, which keeps faults-off runs bit-identical to runs
/// of builds that predate it.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    loss: f64,
    rng: SimRng,
}

impl FaultInjector {
    /// Injector losing each cross-site attempt with probability `loss`,
    /// drawing from its own seeded stream.
    pub fn seeded(seed: u64, loss: f64) -> FaultInjector {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        FaultInjector {
            loss,
            rng: SimRng::from_seed(seed),
        }
    }

    /// Draw the per-attempt loss. Does not touch the RNG when loss is 0.
    pub(crate) fn attempt_lost(&mut self) -> bool {
        self.rng.chance(self.loss)
    }

    /// The injector's RNG stream (backoff jitter draws share it so one
    /// seed reproduces an entire chaos run).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// The whole VO.
#[derive(Clone, Debug)]
pub struct Grid {
    pub(crate) sites: Vec<GridSite>,
    /// The outside world's download servers.
    pub repo: Repository,
    /// Inter-site / repository link characteristics.
    pub link: LinkSpec,
    /// Administrator notifications sent so far.
    pub notifications: Vec<AdminNotification>,
    /// Causal spans recorded by the synchronous RDM path (discovery
    /// ladder stages, per-step deployment work, service calls). Spans are
    /// laid out on the same virtual clock the cost model charges, so the
    /// bench harness can run the identical critical-path analysis over
    /// them. Call [`TraceSink::finish`] before exporting.
    pub trace: TraceSink,
    /// Health-telemetry instruments published by the RDM monitors and the
    /// lease path (labeled counter/histogram/gauge families).
    pub metrics: MetricsRegistry,
    /// Structured event log of notable state transitions (cache discards,
    /// deploy-step failures, lease grants/rejections, ...).
    pub events: EventLog,
    /// Message loss for chaos runs; loses nothing by default.
    pub faults: FaultInjector,
    /// Recovery policy applied by the `_retrying` cross-site entry points.
    pub retry: RetryPolicy,
    /// Per-remote-site circuit breakers, keyed by site index.
    pub breakers: BreakerBank<usize>,
    /// Per-remote-site round-trip estimator: when enabled (default off),
    /// probe attempt timeouts tighten to the learned per-site budget
    /// instead of charging the full 500 ms attempt timeout per
    /// silent probe.
    pub suspicion: crate::suspicion::SuspicionTracker<usize>,
}

/// The lost attempts of one cross-site call under [`Grid::retry`], as
/// booked by [`Grid::attempt_timed_out`] and [`Grid::back_off`].
#[derive(Debug, Default)]
pub(crate) struct Lost {
    /// Attempts that timed out so far.
    pub(crate) attempts: u32,
    /// Virtual-clock cost of their timeouts and of the back-offs between
    /// them.
    pub(crate) elapsed: SimDuration,
    /// The last back-off drawn; decorrelated jitter grows from it.
    prev_backoff: SimDuration,
}

/// The `{site}` label set of the site called `name`, or its `{site, key}`
/// one when a record carries a `second` label.
fn site_set(name: &str, second: Option<(&str, &str)>) -> Labels {
    let pairs = [("site", name), second.unwrap_or_default()];
    Labels::of(&pairs[..1 + usize::from(second.is_some())])
}

/// The `site` value of a set [`site_set`] built.
fn site_name(labels: &Labels) -> &str {
    labels.get("site").expect("site_set names the site")
}

/// What a record at a site is keyed on: its interned set, or a fresh one
/// when the record carries a `second` label.
fn labels_of<'a>(site: &'a Labels, second: Option<(&str, &str)>) -> Cow<'a, Labels> {
    match second {
        None => Cow::Borrowed(site),
        Some(_) => Cow::Owned(site_set(site_name(site), second)),
    }
}

impl Grid {
    /// Build a VO of `n` homogeneous sites (`site0..`), catalog published.
    pub fn new(n: usize, transport: Transport) -> Grid {
        assert!(n > 0, "a VO needs at least one site");
        Grid {
            sites: (0..n).map(|i| GridSite::new(i, transport)).collect(),
            repo: Repository::with_catalog(),
            link: LinkSpec::wan_default(),
            notifications: Vec::new(),
            trace: TraceSink::default(),
            metrics: MetricsRegistry::new(),
            events: EventLog::default(),
            faults: FaultInjector::seeded(0, 0.0),
            retry: RetryPolicy::standard(),
            breakers: BreakerBank::default(),
            suspicion: crate::suspicion::SuspicionTracker::default(),
        }
    }

    /// A no-op: every site of a `Grid` is durable from [`Grid::new`] on.
    /// Kept for the perf ledger's `provision_storm`, which still calls it.
    pub fn enable_durability(&mut self, _cfg: StoreConfig) {}

    /// A site's durable store; always `Some` (the `Option` is kept for
    /// the perf ledger's `provision_storm`, which still unwraps it).
    pub fn store(&self, site: usize) -> Option<&SiteStore> {
        Some(&self.sites[site].store)
    }

    /// Append one journal record at `site`, compacting the journal into a
    /// snapshot at [`COMPACT_EVERY`] records.
    fn journal(&mut self, site: usize, kind: &'static str, payload: String, now: SimTime) {
        let store = &mut self.sites[site].store;
        store.append(kind, payload);
        let journal_len = store.journal_len();
        self.count(site, "glare_store_appends_total", None, 1);
        if journal_len >= COMPACT_EVERY {
            self.snapshot_site(site, now);
        }
    }

    /// Write `m` at `site` through [`RegistryMutation::apply`], the path
    /// crash replay runs, and journal it once it took. `logged`, the
    /// write's own event, is emitted in between: an append can compact and
    /// log `store.compacted`, which comes after it.
    fn commit(
        &mut self,
        site: usize,
        m: RegistryMutation,
        now: SimTime,
        logged: Option<(&'static str, &'static str, (&'static str, FieldValue))>,
    ) -> Result<SimDuration, GlareError> {
        let (kind, payload) = (m.kind(), m.payload());
        let s = &mut self.sites[site];
        let result = m.apply(&s.atr, &s.adr, Some(&mut s.leases), now);
        if result.is_ok() {
            if let Some((event, component, field)) = logged {
                self.emit(site, now, event, component, [field]);
            }
            self.journal(site, kind, payload, now);
        }
        result
    }

    /// Fold a site's full durable state into a snapshot, clearing the
    /// journal.
    pub(crate) fn snapshot_site(&mut self, site: usize, now: SimTime) {
        let s = &mut self.sites[site];
        let state = SnapshotState::capture(&s.atr, &s.adr, Some(&s.leases), now);
        let records = s.store.install_snapshot(&durable::encode_snapshot(&state));
        self.count(site, "glare_store_snapshots_total", None, 1);
        self.emit(site, now, "store.compacted", "store", [("records", records as u64)]);
    }

    /// Short label for a site (`site{i}`), the `site` label value of
    /// every telemetry family the Grid publishes.
    pub fn site_label(i: usize) -> String {
        format!("site{i}")
    }

    /// Add `n` to `site`'s counter in `family`: keyed `{site}`, or
    /// `{site, key}` when the record carries a `second` label.
    pub(crate) fn count(&mut self, site: usize, family: &str, second: Option<(&str, &str)>, n: u64) {
        let labels = labels_of(&self.sites[site].labels, second);
        self.metrics.counter_labeled(family, &labels).add(n);
    }

    /// Record `d` into `site`'s histogram in the `{site}`-keyed `family`.
    pub(crate) fn observe(&mut self, site: usize, family: &str, d: SimDuration) {
        self.metrics.histogram_labeled(family, &self.sites[site].labels).record(d);
    }

    /// Set `site`'s gauge in `family` (keyed as `Grid::count` keys a
    /// counter) to `v` at `now`.
    pub fn set_gauge(
        &mut self,
        site: usize,
        family: &str,
        second: Option<(&str, &str)>,
        now: SimTime,
        v: f64,
    ) {
        let labels = labels_of(&self.sites[site].labels, second);
        self.metrics.gauge(family, &labels).set(now, v);
    }

    /// The latest value of `site`'s `{site}`-keyed gauge in `family`, if it
    /// was ever set.
    pub(crate) fn gauge_latest(&self, site: usize, family: &str) -> Option<f64> {
        self.metrics.gauge_ref(family, &self.sites[site].labels)?.latest()
    }

    /// Log a `kind` event of `component` at `site`: the record names the
    /// site and carries its shared `site` name ahead of `fields`.
    pub(crate) fn emit<V: Into<FieldValue>>(
        &mut self,
        site: usize,
        now: SimTime,
        kind: &'static str,
        component: &'static str,
        fields: impl IntoIterator<Item = (&'static str, V)>,
    ) {
        let name = &self.sites[site].short;
        self.events.emit_with(now, kind, Some(SiteId(site as u32)), component, || {
            let rest = fields.into_iter().map(|(k, v)| (k, v.into()));
            std::iter::once(("site", FieldValue::Shared(Arc::clone(name)))).chain(rest)
        });
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the VO has no sites (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Site by index.
    pub fn site(&self, i: usize) -> &GridSite {
        &self.sites[i]
    }

    /// Mutable site by index.
    pub fn site_mut(&mut self, i: usize) -> &mut GridSite {
        &mut self.sites[i]
    }

    /// Two distinct sites at once, the first shared and the second mutable
    /// (a transfer reads one host and writes the other). Panics when
    /// `src == dst`.
    pub fn site_pair_mut(&mut self, src: usize, dst: usize) -> (&GridSite, &mut GridSite) {
        assert_ne!(src, dst, "a site cannot be borrowed twice");
        if src < dst {
            let (head, tail) = self.sites.split_at_mut(dst);
            (&head[src], &mut tail[0])
        } else {
            let (head, tail) = self.sites.split_at_mut(src);
            (&tail[0], &mut head[dst])
        }
    }

    /// Index of a site by name.
    pub fn site_index(&self, name: &str) -> Option<usize> {
        self.sites.iter().position(|s| s.name == name)
    }

    /// All site indices.
    pub fn site_indices(&self) -> impl Iterator<Item = usize> {
        0..self.sites.len()
    }

    /// Register an activity type at one site (the provider's local site —
    /// "the registration of an activity type is done only on a single
    /// Grid site, and GLARE takes care of distributing and deploying it on
    /// other sites on-demand", §2.2).
    pub fn register_type(
        &mut self,
        site: usize,
        t: ActivityType,
        now: SimTime,
    ) -> Result<SimDuration, GlareError> {
        self.commit(site, RegistryMutation::AtrRegister(Box::new(t)), now, None)
    }

    /// Register a deployment at a site's ADR and journal it. The RDM
    /// deploy path funnels through here so installed deployments survive
    /// a crash.
    pub(crate) fn register_deployment(
        &mut self,
        site: usize,
        d: ActivityDeployment,
        now: SimTime,
    ) -> Result<SimDuration, GlareError> {
        self.commit(site, RegistryMutation::AdrRegister(Box::new(d)), now, None)
    }

    /// Drop a deployment record without a tombstone (failed-record
    /// cleanup, undeploy), journaling the removal so replay does not
    /// resurrect it. Returns whether there was one.
    pub(crate) fn remove_deployment(&mut self, site: usize, key: &str, now: SimTime) -> bool {
        self.commit(site, RegistryMutation::AdrRemove(key.to_owned()), now, None).is_ok()
    }

    /// Remove an activity type from a site's ATR, journaling the removal.
    /// Returns whether there was one.
    pub(crate) fn remove_type(&mut self, site: usize, name: &str, now: SimTime) -> bool {
        self.commit(site, RegistryMutation::AtrRemove(name.to_owned()), now, None).is_ok()
    }

    /// Uninstall a deployment at a site, leaving a tombstone at `now` so
    /// stale copies can never resurrect it (deletes win). Returns whether
    /// a live entry was actually removed. Journaled.
    pub fn uninstall_deployment(&mut self, site: usize, key: &str, now: SimTime) -> bool {
        let s = &mut self.sites[site];
        let removed = s.adr.contains(key);
        s.cache.evict_deployment(key);
        let m = RegistryMutation::AdrUninstall { key: key.to_owned(), at: now };
        let tombstoned = ("deployment.tombstoned", "adr", ("key", key.to_owned().into()));
        let _ = self.commit(site, m, now, Some(tombstoned));
        removed
    }

    /// Site indices in the order a VO-wide lookup asks them: the asking
    /// site first, then the others in index order.
    fn asking_first(&self, from_site: usize) -> impl Iterator<Item = usize> {
        std::iter::once(from_site).chain(self.site_indices().filter(move |&i| i != from_site))
    }

    /// Find a type anywhere in the VO: the asking site's registry first,
    /// then the other sites'. A revoked entry is skipped and the next site
    /// asked, as [`Grid::resolve_concrete`] does. Returns the registry's
    /// shared entry.
    pub(crate) fn find_type(
        &self,
        from_site: usize,
        name: &str,
        now: SimTime,
    ) -> Option<Arc<ActivityType>> {
        let live = |i: usize| self.sites[i].atr.lookup(name, now).filter(|r| !r.value.revoked);
        self.asking_first(from_site).find_map(live).map(|resp| resp.value)
    }

    /// Resolve a possibly-abstract type name to deployable concrete types,
    /// searching the whole VO (the §2.2 "iterative lookup"), and keep what
    /// `project` takes from each: a copy of it, or only its name.
    pub(crate) fn resolve_concrete<R>(
        &mut self,
        from_site: usize,
        name: &str,
        project: impl Fn(&ActivityType) -> R,
    ) -> (Vec<R>, SimDuration) {
        let mut cost = SimDuration::ZERO;
        let order = self.asking_first(from_site);
        let rtt = self.link.transfer_time(1024) * 2;
        // A site's closure names each of its types once: nothing repeats.
        let concrete = |t: &ActivityType| (t.kind == TypeKind::Concrete).then(|| project(t));
        for (hop, i) in order.enumerate() {
            if hop > 0 {
                cost += rtt;
            }
            let resp = self.sites[i].atr.resolve_concrete(name, &concrete);
            cost += resp.cost;
            let out: Vec<R> = resp.value.into_iter().flatten().collect();
            if !out.is_empty() {
                return (out, cost); // found on this site; no need to go wider
            }
        }
        (Vec::new(), cost)
    }

    /// Sites whose platform satisfies a type's install constraints and
    /// which can still accept a deployment under the provider limits.
    pub(crate) fn eligible_sites(&self, t: &ActivityType) -> Vec<usize> {
        let Some(inst) = &t.installation else {
            return Vec::new();
        };
        let total: usize = self
            .sites
            .iter()
            .map(|s| s.adr.count_of(&t.name))
            .sum();
        if total as u32 >= t.limits.max {
            return Vec::new();
        }
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, s)| inst.constraints.accepts(&s.host.platform))
            .filter(|(_, s)| !s.host.is_installed(&inst.package))
            .map(|(i, _)| i)
            .collect()
    }

    /// All usable deployments of a concrete type across the VO, with the
    /// site indices holding them.
    pub fn deployments_anywhere(
        &self,
        type_name: &str,
        now: SimTime,
    ) -> Vec<(usize, crate::model::ActivityDeployment)> {
        let mut out = Vec::new();
        for (i, s) in self.sites.iter().enumerate() {
            for d in s.adr.deployments_of(type_name, now).value {
                out.push((i, d));
            }
        }
        out
    }

    /// Acquire a lease over `window` on a site's deployment, publishing
    /// the outcome to the Grid telemetry: `glare_leases_total{site,outcome}`
    /// counters and a `lease.granted` / `lease.rejected` event.
    pub fn acquire_lease(
        &mut self,
        site: usize,
        deployment: &str,
        client: &str,
        kind: LeaseKind,
        window: std::ops::Range<SimTime>,
        now: SimTime,
    ) -> Result<LeaseTicket, GlareError> {
        let result = self.sites[site]
            .leases
            .acquire(deployment, client, kind, window.start, window.end);
        let kind_label = match kind {
            LeaseKind::Exclusive => "exclusive",
            LeaseKind::Shared => "shared",
        };
        let (outcome, event, last) = match &result {
            Ok(ticket) => ("granted", "lease.granted", ("ticket", FieldValue::from(ticket.id))),
            Err(e) => ("rejected", "lease.rejected", ("reason", e.to_string().into())),
        };
        self.count(site, "glare_leases_total", Some(("outcome", outcome)), 1);
        let fields = [
            ("deployment", FieldValue::from(deployment.to_owned())),
            ("client", client.to_owned().into()),
            ("kind", kind_label.into()),
            last,
        ];
        self.emit(site, now, event, "lease", fields);
        if let Ok(ticket) = &result {
            let m = RegistryMutation::LeaseGrant(ticket.clone());
            self.journal(site, m.kind(), m.payload(), now);
        }
        result
    }

    /// Release a lease early, journaling the release so a replayed lease
    /// table does not revive freed capacity.
    pub fn release_lease(
        &mut self,
        site: usize,
        ticket: u64,
        now: SimTime,
    ) -> Result<(), GlareError> {
        let released = ("lease.released", "lease", ("ticket", ticket.into()));
        self.commit(site, RegistryMutation::LeaseRelease(ticket), now, Some(released)).map(|_| ())
    }

    /// Crash a site: it is unreachable until [`Grid::restart_site`], and
    /// the crash is amnesia-faithful — the site's registries, lease
    /// tickets and cache are wiped, and only what its store journaled or
    /// snapshotted comes back at restart. Its host and its per-deployment
    /// lease caps (site configuration) survive.
    pub fn crash_site(&mut self, site: usize, now: SimTime) {
        let s = &mut self.sites[site];
        s.up = false;
        s.atr = ActivityTypeRegistry::new(s.atr.address.clone(), s.atr.transport);
        s.adr = ActivityDeploymentRegistry::new(s.adr.address.clone(), s.adr.transport);
        s.leases = s.leases.after_crash();
        s.cache = RegistryCache::new(DEFAULT_CACHE_AGE);
        self.emit(site, now, "site.crashed", "fault", NO_FIELDS);
        self.emit(site, now, "site.amnesia", "fault", NO_FIELDS);
    }

    /// Bring a crashed site back: it rebuilds its registries and lease
    /// table from its store (snapshot load + journal replay, truncating at
    /// the last valid record if the tail was torn), then reclaims expired
    /// leases on the way up — the granting site sweeps its ledger so
    /// capacity that freed during the outage is usable again — and
    /// re-snapshots, so the next crash replays from a compact journal that
    /// already reflects the swept table. Returns how many tickets were
    /// reclaimed.
    pub fn restart_site(&mut self, site: usize, now: SimTime) -> usize {
        let s = &mut self.sites[site];
        s.up = true;
        let (recovered, leases) = (s.store.recover(), Some(&mut s.leases));
        let fields =
            durable::recover(&recovered, &s.atr, &s.adr, leases, now, &mut self.metrics, &s.labels);
        self.emit(site, now, "store.recovered", "store", fields);
        let reclaimed = self.sites[site].leases.sweep_expired(now);
        self.emit(site, now, "site.restarted", "fault", [("leases_reclaimed", reclaimed as u64)]);
        self.snapshot_site(site, now);
        reclaimed
    }

    /// Whether `site` is reachable (not crashed).
    pub fn site_is_up(&self, site: usize) -> bool {
        self.sites[site].up
    }

    /// Whether `site`'s breaker lets a call through at `at`; a refusal is
    /// counted as a short circuit.
    pub(crate) fn breaker_allows(&mut self, site: usize, at: SimTime) -> bool {
        let allowed = self.breakers.breaker(site).allow(at);
        if !allowed {
            self.count(site, "glare_breaker_short_circuits_total", None, 1);
        }
        allowed
    }

    /// Whether an attempt to reach `site` is lost: the site is down, or
    /// the injector's per-attempt loss draw fires (no draw at zero loss).
    pub(crate) fn attempt_lost(&mut self, site: usize) -> bool {
        !self.sites[site].up || self.faults.attempt_lost()
    }

    /// Book an attempt of `op` at `site` that stayed silent for `budget`.
    pub(crate) fn attempt_timed_out(
        &mut self,
        site: usize,
        op: &str,
        budget: SimDuration,
        lost: &mut Lost,
    ) {
        lost.attempts += 1;
        lost.elapsed += budget;
        self.count(site, "glare_retries_total", Some(("op", op)), 1);
    }

    /// Feed `site`'s breaker a failed attempt of `op` at `at`, publishing
    /// the trip when this failure opens it.
    pub(crate) fn breaker_failure(&mut self, site: usize, op: &'static str, at: SimTime) {
        if self.breakers.breaker(site).record_failure(at) {
            self.count(site, "glare_breaker_transitions_total", Some(("to", "open")), 1);
            self.emit(site, at, "breaker.open", "retry", [("op", op)]);
        }
    }

    /// The wait before the next attempt at `site`, charged to `lost`, or
    /// `None` when the policy allows no further attempt. Only a granted
    /// wait draws from the injector's RNG, and only after the lost attempt
    /// was booked and the breaker fed: a run's loss draws come from the
    /// same stream, so an extra, missing or earlier draw here moves
    /// everything after it (`tests/sync_recovery_pin.rs`).
    pub(crate) fn back_off(&mut self, site: usize, lost: &mut Lost) -> Option<SimDuration> {
        if !self.retry.may_attempt(lost.attempts + 1, lost.elapsed) {
            return None;
        }
        let delay = self.retry.next_backoff(self.faults.rng_mut(), lost.prev_backoff);
        lost.prev_backoff = delay;
        self.observe(site, "glare_retry_backoff_ms", delay);
        lost.elapsed += delay;
        Some(delay)
    }

    /// [`Grid::acquire_lease`] under the unified recovery policy:
    /// decorrelated-jitter backoff between attempts, a per-site circuit
    /// breaker, and an overall deadline budget. Returns the outcome plus
    /// the accumulated virtual-clock cost of timed-out attempts and
    /// backoff waits. With the fault injector inert the first attempt
    /// succeeds and this is exactly [`Grid::acquire_lease`] at zero extra
    /// cost — no RNG draws, no extra telemetry.
    pub fn acquire_lease_retrying(
        &mut self,
        site: usize,
        deployment: &str,
        client: &str,
        kind: LeaseKind,
        window: std::ops::Range<SimTime>,
        now: SimTime,
    ) -> (Result<LeaseTicket, GlareError>, SimDuration) {
        let mut lost = Lost::default();
        let detail = loop {
            if !self.breaker_allows(site, now + lost.elapsed) {
                break "circuit open".to_owned();
            }
            if !self.attempt_lost(site) {
                self.breakers.breaker(site).record_success();
                let at = now + lost.elapsed;
                let result = self.acquire_lease(site, deployment, client, kind, window, at);
                return (result, lost.elapsed);
            }
            // The attempt timed out: charge the per-attempt timeout.
            self.attempt_timed_out(site, "lease", ATTEMPT_TIMEOUT, &mut lost);
            let at = now + lost.elapsed;
            self.breaker_failure(site, "lease", at);
            let Some(delay) = self.back_off(site, &mut lost) else {
                break format!("retry budget exhausted after {} attempts", lost.attempts);
            };
            let fields = [
                ("op", FieldValue::from("lease")),
                ("attempt", u64::from(lost.attempts + 1).into()),
                ("backoff_ms", format!("{:.1}", delay.as_millis_f64()).into()),
            ];
            self.emit(site, at, "retry.attempt", "retry", fields);
        };
        let site = self.sites[site].short.to_string();
        (Err(GlareError::SiteUnavailable { site, detail }), lost.elapsed)
    }

    /// Send an admin notification (recorded; costs
    /// [`NOTIFICATION_COST`]).
    pub(crate) fn notify_admin(
        &mut self,
        site: usize,
        type_name: &str,
        reason: &str,
        provider_contact: &str,
    ) -> SimDuration {
        self.notifications.push(AdminNotification {
            site: self.sites[site].name.clone(),
            type_name: type_name.to_owned(),
            reason: reason.to_owned(),
            provider_contact: provider_contact.to_owned(),
        });
        NOTIFICATION_COST
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::example_hierarchy;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn grid_with_types() -> Grid {
        let mut g = Grid::new(3, Transport::Http);
        for ty in example_hierarchy(SimTime::ZERO) {
            g.register_type(0, ty, t(0)).unwrap();
        }
        g
    }

    #[test]
    fn acquire_lease_publishes_outcome_telemetry() {
        let mut g = grid_with_types();
        g.acquire_lease(1, "jpovray@site1", "alice", LeaseKind::Exclusive, t(10)..t(100), t(5))
            .expect("uncontended exclusive lease");
        let err = g
            .acquire_lease(1, "jpovray@site1", "bob", LeaseKind::Shared, t(20)..t(30), t(6))
            .expect_err("overlapping an exclusive lease is rejected");
        assert!(matches!(err, GlareError::LeaseDenied { .. }));
        for (outcome, n) in [("granted", 1), ("rejected", 1)] {
            assert_eq!(
                g.metrics.counter_labeled_value(
                    "glare_leases_total",
                    &Labels::of(&[("site", "site1"), ("outcome", outcome)]),
                ),
                n
            );
        }
        let granted: Vec<_> = g.events.of_kind("lease.granted").collect();
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].site, Some(SiteId(1)));
        let rejected: Vec<_> = g.events.of_kind("lease.rejected").collect();
        assert_eq!(rejected.len(), 1);
        assert!(rejected[0].field("reason").is_some_and(|v| v.contains("exclusive")));
        assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn retrying_lease_is_observe_only_when_inert() {
        let mut g = grid_with_types();
        let (res, cost) = g.acquire_lease_retrying(
            1,
            "jpovray@site1",
            "alice",
            LeaseKind::Exclusive,
            t(10)..t(100),
            t(5),
        );
        res.expect("inert injector: first attempt succeeds");
        assert_eq!(cost, SimDuration::ZERO);
        assert_eq!(
            g.metrics.counter_labeled_value(
                "glare_retries_total",
                &Labels::of(&[("site", "site1"), ("op", "lease")]),
            ),
            0
        );
        assert_eq!(g.events.of_kind("retry.attempt").count(), 0);
    }

    type Call = fn(&mut Grid);

    /// One retried call of each kind against site 1: a lease there, a
    /// discovery from site 0 that probes it, and a package install on it.
    fn retried_calls() -> [(&'static str, Call); 3] {
        fn lease(g: &mut Grid) {
            let (window, kind) = (t(10)..t(100), LeaseKind::Shared);
            let _ = g.acquire_lease_retrying(1, "jpovray@site1", "a", kind, window, t(2));
        }
        fn probe(g: &mut Grid) {
            let _ = crate::RequestManager::new(false).list_deployments(g, 0, "Wien2k", t(2));
        }
        fn deploy(g: &mut Grid) {
            let ty = g.find_type(0, "Wien2k", t(2)).expect("registered");
            let _ = crate::rdm::install(g, &ty, 1, glare_services::ChannelKind::Expect, t(2));
        }
        [("lease", lease), ("probe", probe), ("deploy", deploy)]
    }

    /// The exposition lines of the families the attempt loop books, with
    /// the `op` value blanked.
    fn booked(g: &Grid, op: &str) -> Vec<String> {
        let families = ["glare_retries_total", "glare_retry_backoff_ms", "glare_breaker"];
        let text = g.metrics.expose_prometheus().replace(&format!("op=\"{op}\""), "op");
        let of_loop = |l: &&str| families.iter().any(|f| l.starts_with(f));
        text.lines().filter(of_loop).map(str::to_owned).collect()
    }

    #[test]
    fn three_callers_share_one_attempt_loop() {
        let against_a_dead_site = |call: Call| {
            let mut g = Grid::new(2, Transport::Http);
            for ty in example_hierarchy(SimTime::ZERO) {
                g.register_type(0, ty, t(0)).unwrap();
            }
            g.faults = FaultInjector::seeded(9, 0.0);
            g.crash_site(1, t(1));
            call(&mut g);
            g
        };
        let [lease, probe, deploy] = retried_calls().map(|(op, call)| {
            let mut g = against_a_dead_site(call);
            assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
            (booked(&g, op), g.faults.rng_mut().next_u64())
        });
        // Guarded alike, so booked alike: three timeouts trip the breaker
        // and the fourth attempt is short-circuited.
        assert_eq!(lease, probe, "lease and probe differ only in `op`");
        let thrice = [
            "glare_retries_total{op,site=\"site1\"} 3",
            "glare_retry_backoff_ms_count{site=\"site1\"} 3",
        ];
        for line in thrice {
            assert!(lease.0.iter().any(|l| l == line), "no {line} in {lease:?}");
        }
        // No breaker guards a deploy step: a fourth timeout, then the
        // policy's refusal — the same families and the same three draws.
        let unguarded = lease.0.iter().filter(|l| !l.contains("breaker"));
        let fourth = |l: &String| l.replace("{op,site=\"site1\"} 3", "{op,site=\"site1\"} 4");
        assert_eq!(deploy.0, unguarded.map(fourth).collect::<Vec<_>>());
        assert_eq!(deploy.1, lease.1, "three back-offs drawn each");
    }

    #[test]
    fn an_inert_injector_books_and_draws_nothing() {
        let mut g = grid_with_types();
        for (op, call) in retried_calls() {
            call(&mut g);
            assert_eq!(booked(&g, op), Vec::<String>::new());
        }
        let untouched = FaultInjector::seeded(0, 0.0).rng_mut().next_u64();
        assert_eq!(g.faults.rng_mut().next_u64(), untouched);
    }

    #[test]
    fn crashed_site_opens_breaker_and_short_circuits() {
        let mut g = grid_with_types();
        g.crash_site(1, t(1));
        let (res, cost) = g.acquire_lease_retrying(
            1,
            "jpovray@site1",
            "alice",
            LeaseKind::Shared,
            t(10)..t(100),
            t(2),
        );
        assert!(matches!(
            res.unwrap_err(),
            GlareError::SiteUnavailable { .. }
        ));
        assert!(cost > SimDuration::ZERO);
        // Three timed-out attempts trip the breaker (threshold 3); the
        // fourth is short-circuited instead of waiting out a timeout.
        assert_eq!(
            g.metrics.counter_labeled_value(
                "glare_retries_total",
                &Labels::of(&[("site", "site1"), ("op", "lease")]),
            ),
            3
        );
        assert_eq!(
            g.metrics.counter_labeled_value(
                "glare_breaker_transitions_total",
                &Labels::of(&[("site", "site1"), ("to", "open")]),
            ),
            1
        );
        assert_eq!(
            g.metrics.counter_labeled_value(
                "glare_breaker_short_circuits_total",
                &Labels::of(&[("site", "site1")]),
            ),
            1
        );
        assert_eq!(g.events.of_kind("breaker.open").count(), 1);
        // After restart and the cooldown the breaker half-opens and the
        // site serves again at zero extra cost.
        g.restart_site(1, t(2) + cost);
        let later = t(2) + cost + SimDuration::from_secs(31);
        let (res, cost2) = g.acquire_lease_retrying(
            1,
            "jpovray@site1",
            "alice",
            LeaseKind::Shared,
            t(200)..t(300),
            later,
        );
        res.expect("half-open probe succeeds after restart");
        assert_eq!(cost2, SimDuration::ZERO);
        assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn restart_reclaims_expired_leases() {
        let mut g = grid_with_types();
        g.acquire_lease(0, "jpovray@site0", "a", LeaseKind::Shared, t(10)..t(20), t(5))
            .unwrap();
        g.acquire_lease(0, "jpovray@site0", "b", LeaseKind::Shared, t(10)..t(30), t(5))
            .unwrap();
        g.crash_site(0, t(12));
        assert!(!g.site_is_up(0));
        let reclaimed = g.restart_site(0, t(25));
        assert_eq!(reclaimed, 1, "the [10,20) ticket expired during the outage");
        assert!(g.site_is_up(0));
        assert_eq!(g.site(0).leases.tickets().len(), 1);
        assert_eq!(g.events.of_kind("site.restarted").count(), 1);
    }

    #[test]
    fn find_type_local_then_remote() {
        let g = grid_with_types();
        let served = |g: &Grid| (0..3).map(|i| g.site(i).atr.lookups_served()).collect::<Vec<_>>();
        // From the registering site: a local hit asks no other site.
        let before = served(&g);
        let local = g.find_type(0, "JPOVray", t(1)).unwrap();
        assert_eq!(local.name, "JPOVray");
        assert_eq!(served(&g), [before[0] + 1, before[1], before[2]]);
        // From site 2: its own registry misses, then site 0 hits and site 1
        // is never asked. Both hand out the registry's one shared entry.
        let remote = g.find_type(2, "JPOVray", t(1)).unwrap();
        assert!(Arc::ptr_eq(&local, &remote));
        assert_eq!(served(&g), [before[0] + 2, before[1], before[2] + 1]);
        assert!(g.find_type(1, "Ghost", t(1)).is_none());
        assert_eq!(served(&g), [before[0] + 3, before[1] + 1, before[2] + 2]);
    }

    #[test]
    fn resolve_concrete_across_vo() {
        let mut g = grid_with_types();
        let (types, _) = g.resolve_concrete(2, "Imaging", ActivityType::clone);
        assert_eq!(types.len(), 1);
        assert_eq!(types[0].name, "JPOVray");
        let (none, _) = g.resolve_concrete(1, "Nothing", ActivityType::clone);
        assert!(none.is_empty());
    }

    /// The walk as it was before it took a projection: whole types cloned
    /// out of each site by name lookup, revoked ones dropped, the concrete
    /// ones kept once per name; the cost arithmetic restated. Runs on
    /// `registries`, clones of the grid's, so it counts no lookups there.
    fn cloning_walk(
        g: &Grid,
        registries: &[ActivityTypeRegistry],
        from_site: usize,
        name: &str,
        now: SimTime,
    ) -> (Vec<ActivityType>, SimDuration, Vec<usize>) {
        use crate::atr::TYPE_WIRE_BYTES;
        use glare_services::mds::REQUEST_BASE_COST;
        let (mut out, mut cost, mut visited) = (Vec::<ActivityType>::new(), SimDuration::ZERO, Vec::new());
        let rtt = g.link.transfer_time(1024) * 2;
        let order = std::iter::once(from_site).chain((0..g.len()).filter(|&i| i != from_site));
        for (hop, i) in order.enumerate() {
            if hop > 0 {
                cost += rtt;
            }
            visited.push(i);
            let atr = &registries[i];
            let names = atr.with_hierarchy(|h| h.resolve_concrete(name));
            let types: Vec<ActivityType> = names
                .iter()
                .filter_map(|n| atr.lookup(n, now))
                .filter(|r| !r.value.revoked)
                .map(|r| ActivityType::clone(&r.value))
                .collect();
            cost += REQUEST_BASE_COST
                + SimDuration::from_micros(40) * names.len().max(1) as u64
                + atr.transport.overhead_cost(512 + TYPE_WIRE_BYTES * types.len().max(1) as u64);
            for t in types {
                if t.kind == TypeKind::Concrete && !out.iter().any(|o| o.name == t.name) {
                    out.push(t);
                }
            }
            if !out.is_empty() {
                break;
            }
        }
        (out, cost, visited)
    }

    /// After random `register` / (un)revoking `update` / `remove`
    /// across three sites, both projections of the one walk — whole types,
    /// names — find what the cloning walk found, at its cost, and each
    /// counts one lookup on every site it visited; so does the registry's
    /// own walk under both projections.
    #[test]
    fn both_projections_of_the_walk_equal_the_cloning_walk_after_random_edits() {
        const NAMES: u64 = 8;
        let mut rng = SimRng::from_seed(0x23_A7B);
        for _ in 0..60 {
            let mut g = Grid::new(3, Transport::Http);
            let mut clock = 1;
            for _ in 0..rng.range(1, 50) {
                clock += rng.range(0, 3);
                let (site, i) = (rng.index(3), rng.range(0, NAMES));
                let name = format!("T{i}");
                let atr = &g.site(site).atr;
                match rng.range(0, 10) {
                    0..=4 => {
                        // Bases have smaller indices: the graph stays acyclic.
                        let mut ty = match rng.chance(0.6) {
                            true => ActivityType::concrete_type(&name, "d", "wien2k"),
                            false => ActivityType::abstract_type(&name, "d"),
                        };
                        for _ in 0..rng.range(0, 3).min(i) {
                            ty = ty.extends(&format!("T{}", rng.range(0, i)));
                        }
                        let _ = g.register_type(site, ty, t(clock));
                    }
                    5 | 6 => {
                        let revoked = rng.chance(0.6);
                        drop(atr.update(&name, t(clock), |ty| ty.revoked = revoked));
                    }
                    7 | 8 => drop(atr.update(&name, t(clock), |ty| ty.revoked = true)),
                    _ => drop(g.remove_type(site, &name, t(clock))),
                }
                let (from_site, now) = (rng.index(3), t(clock));
                let probe = format!("T{}", rng.range(0, NAMES + 1));
                let registries: Vec<_> = (0..3).map(|i| g.site(i).atr.clone()).collect();
                let served = |g: &Grid| (0..3).map(|i| g.site(i).atr.lookups_served()).collect::<Vec<_>>();
                let (want, want_cost, visited) = cloning_walk(&g, &registries, from_site, &probe, now);
                let want: Vec<&str> = want.iter().map(|t| t.name.as_str()).collect();

                let before = served(&g);
                let (types, cost) = g.resolve_concrete(from_site, &probe, ActivityType::clone);
                let after_types = served(&g);
                let (names, names_cost) = g.resolve_concrete(from_site, &probe, |t| t.name.clone());
                let after_names = served(&g);
                assert_eq!(types.iter().map(|t| t.name.as_str()).collect::<Vec<_>>(), want, "{probe}");
                assert_eq!(names, want, "{probe}");
                assert_eq!((cost, names_cost), (want_cost, want_cost), "{probe}");
                for i in 0..3 {
                    let once = u64::from(visited.contains(&i));
                    assert_eq!(after_types[i] - before[i], once, "site {i} of {visited:?}");
                    assert_eq!(after_names[i] - after_types[i], once, "site {i} of {visited:?}");
                }

                let atr = &g.site(from_site).atr;
                let whole = atr.resolve_concrete(&probe, ActivityType::clone);
                let named = atr.resolve_concrete(&probe, |t| t.name.clone());
                assert_eq!(whole.value.iter().map(|t| &t.name).collect::<Vec<_>>(), named.value.iter().collect::<Vec<_>>());
                assert_eq!(whole.cost, named.cost);
                assert_eq!(atr.lookups_served() - after_names[from_site], 2);
            }
        }
    }

    #[test]
    fn eligible_sites_respect_constraints_and_installed() {
        let mut g = grid_with_types();
        let ty = g.find_type(0, "Wien2k", t(1)).unwrap();
        assert_eq!(g.eligible_sites(&ty).len(), 3);
        // Make one site incompatible.
        g.site_mut(1).host.platform = Platform::new("SPARC", "Solaris", "64bit");
        let mut constrained = ActivityType::clone(&ty);
        constrained.installation.as_mut().unwrap().constraints =
            crate::model::InstallConstraints::intel_linux_32();
        let elig = g.eligible_sites(&constrained);
        assert_eq!(elig, vec![0, 2]);
    }

    #[test]
    fn limits_cap_eligibility() {
        let mut g = grid_with_types();
        let limited = ActivityType::concrete_type("Limited", "d", "wien2k").with_limits(0, 0);
        g.register_type(0, limited, t(0)).unwrap();
        let limited = g.find_type(0, "Limited", t(1)).unwrap();
        assert!(
            g.eligible_sites(&limited).is_empty(),
            "max=0 forbids any deployment"
        );
    }

    #[test]
    fn notifications_recorded() {
        let mut g = grid_with_types();
        let cost = g.notify_admin(2, "POVray", "manual install requested", "mumtaz@dps.uibk.ac.at");
        assert_eq!(cost, NOTIFICATION_COST);
        assert_eq!(g.notifications.len(), 1);
        assert_eq!(g.notifications[0].site, "site2.agrid.example");
    }

    #[test]
    fn site_pair_mut_splits_in_both_orders() {
        let mut g = Grid::new(3, Transport::Http);
        for (src, dst) in [(0, 2), (2, 0), (1, 2), (2, 1)] {
            let expected = (g.site(src).name.clone(), g.site(dst).name.clone());
            let (a, b) = g.site_pair_mut(src, dst);
            assert_eq!((a.name.clone(), b.name.clone()), expected);
        }
    }

    #[test]
    #[should_panic(expected = "borrowed twice")]
    fn site_pair_mut_rejects_one_site_twice() {
        Grid::new(2, Transport::Http).site_pair_mut(1, 1);
    }

    #[test]
    fn deployments_anywhere_empty_initially() {
        let g = grid_with_types();
        assert!(g.deployments_anywhere("JPOVray", t(1)).is_empty());
    }

    #[test]
    fn durable_crash_is_amnesia_and_restart_replays() {
        let mut g = grid_with_types();
        let d = crate::model::ActivityDeployment::executable(
            "JPOVray",
            "site0",
            "/opt/jpovray/bin/jpovray",
            "/opt/jpovray",
        );
        let key = d.key.clone();
        g.register_deployment(0, d, t(1)).unwrap();
        let kept = g
            .acquire_lease(0, &key, "alice", LeaseKind::Shared, t(5)..t(500), t(2))
            .unwrap();
        g.acquire_lease(0, &key, "bob", LeaseKind::Shared, t(5)..t(20), t(3))
            .unwrap();
        let released = g
            .acquire_lease(0, &key, "carol", LeaseKind::Shared, t(5)..t(500), t(4))
            .unwrap();
        g.release_lease(0, released.id, t(6)).unwrap();

        g.crash_site(0, t(10));
        // Amnesia: volatile state really is gone between crash and restart.
        assert_eq!(g.site(0).atr.len(t(11)), 0, "ATR wiped by the crash");
        assert!(g.site(0).adr.is_empty(t(11)), "ADR wiped by the crash");
        assert!(g.site(0).leases.is_empty(), "lease table wiped by the crash");
        assert_eq!(g.events.of_kind("site.amnesia").count(), 1);

        let reclaimed = g.restart_site(0, t(30));
        assert_eq!(reclaimed, 1, "bob's [5,20) ticket expired during the outage");
        // Registries rebuilt from snapshot + journal replay.
        assert!(g.site(0).atr.contains("JPOVray"));
        assert!(g.site(0).adr.lookup(&key, t(31)).is_some());
        // Lease table: alice survives, carol's release held, ids monotonic.
        assert_eq!(g.site(0).leases.tickets().len(), 1);
        assert_eq!(g.site(0).leases.tickets()[0].id, kept.id);
        let fresh = g
            .acquire_lease(0, &key, "dave", LeaseKind::Shared, t(40)..t(50), t(31))
            .unwrap();
        assert!(fresh.id > released.id, "journaled ids never reused");
        assert_eq!(g.events.of_kind("store.recovered").count(), 1);
        assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn durable_uninstall_tombstone_survives_crash() {
        let mut g = grid_with_types();
        let d = crate::model::ActivityDeployment::executable(
            "JPOVray",
            "site0",
            "/opt/jpovray/bin/jpovray",
            "/opt/jpovray",
        );
        let key = d.key.clone();
        g.register_deployment(0, d.clone(), t(1)).unwrap();
        assert!(g.uninstall_deployment(0, &key, t(5)));
        g.crash_site(0, t(10));
        g.restart_site(0, t(20));
        assert!(g.site(0).adr.lookup(&key, t(21)).is_none(), "no resurrection");
        assert_eq!(g.site(0).adr.tombstone_of(&key), Some(t(5)));
        // A stale re-registration (not newer than the tombstone) loses.
        let err = g.register_deployment(0, d, t(4)).unwrap_err();
        assert!(matches!(err, GlareError::Tombstoned { .. }));
    }

    /// Whether `site` has a `glare_store_truncated_records_total` series.
    fn truncation_counted(g: &Grid, site: &str) -> bool {
        let series = format!("glare_store_truncated_records_total{{site=\"{site}\"}}");
        g.metrics.expose_prometheus().lines().any(|l| l.starts_with(&series))
    }

    #[test]
    fn torn_journal_tail_loses_only_the_tail() {
        let mut g = grid_with_types();
        // A clean recovery without a snapshot: `snapshot` reads "0" and no
        // truncation series is created.
        g.crash_site(1, t(1));
        g.restart_site(1, t(1));
        let clean: Vec<_> = g.events.of_kind("store.recovered").collect();
        assert_eq!(clean[0].field("snapshot").as_deref(), Some("0"));
        assert!(!truncation_counted(&g, "site1"), "nothing was truncated");

        g.snapshot_site(0, t(1)); // compact the type registrations away
        let mut keys = Vec::new();
        for name in ["alpha", "beta", "gamma", "delta"] {
            let d = crate::model::ActivityDeployment::executable(
                "JPOVray",
                "site0",
                &format!("/opt/jpovray/bin/{name}"),
                "/opt/jpovray",
            );
            keys.push(d.key.clone());
            g.register_deployment(0, d, t(2)).unwrap();
        }
        // A torn partial write at crash time damages the journal's tail.
        assert_eq!(g.sites[0].store.tear_tail(2), 2);
        g.crash_site(0, t(10));
        g.restart_site(0, t(20));
        assert!(g.site(0).adr.lookup(&keys[0], t(21)).is_some());
        assert!(g.site(0).adr.lookup(&keys[1], t(21)).is_some());
        assert!(g.site(0).adr.lookup(&keys[2], t(21)).is_none(), "torn away");
        assert!(g.site(0).adr.lookup(&keys[3], t(21)).is_none(), "torn away");
        assert_eq!(
            g.metrics.counter_labeled_value(
                "glare_store_truncated_records_total",
                &Labels::of(&[("site", "site0")]),
            ),
            2
        );
        let recovered: Vec<_> = g.events.of_kind("store.recovered").collect();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].field("truncated_records").as_deref(), Some("2"));
        assert_eq!(recovered[1].field("snapshot").as_deref(), Some("1"));
        assert!(truncation_counted(&g, "site0"));
    }

    /// What `site` holds at `now`, its snapshot's state.
    fn held(g: &Grid, site: usize, now: SimTime) -> SnapshotState {
        let s = g.site(site);
        SnapshotState::capture(&s.atr, &s.adr, Some(&s.leases), now)
    }

    /// A seeded walk of every journaled write — register and remove a type,
    /// register, remove and uninstall a deployment, acquire and release a
    /// lease — with crashes and restarts at random points on a 2-site Grid.
    /// Each restart gives a site back what it held at its crash, less the
    /// leases it swept as expired on the way up. The walk writes only to
    /// sites that are up: a write to a crashed site lands in its wiped
    /// registries and is replayed onto at restart, a fault of its own.
    #[test]
    fn a_restart_gives_back_what_the_live_writes_left() {
        for seed in 0..64 {
            let mut rng = SimRng::from_seed(0x0057_A7E0 + seed);
            let mut g = Grid::new(2, Transport::Http);
            let mut at_crash: [Option<SnapshotState>; 2] = [None, None];
            for step in 1..=40 {
                let (now, site) = (t(step), rng.index(2));
                let name = format!("T{}", rng.range(0, 3));
                let d = ActivityDeployment::executable(
                    &name,
                    &Grid::site_label(site),
                    &format!("/opt/bin/d{}", rng.range(0, 4)),
                    "/opt",
                );
                match (at_crash[site].take(), rng.range(0, 10)) {
                    (Some(mut want), 0..=3) => {
                        g.restart_site(site, now);
                        want.leases.retain(|l| l.until > now);
                        let got = durable::encode_snapshot(&held(&g, site, now));
                        assert_eq!(got, durable::encode_snapshot(&want), "seed {seed} step {step}");
                    }
                    (down @ Some(_), _) => at_crash[site] = down,
                    (None, 0) => {
                        at_crash[site] = Some(held(&g, site, now));
                        g.crash_site(site, now);
                    }
                    (None, 1) => drop(g.register_type(site, ActivityType::concrete_type(&name, "d", "wien2k"), now)),
                    (None, 2) => drop(g.remove_type(site, &name, now)),
                    (None, 3 | 4) => drop(g.register_deployment(site, d, now)),
                    (None, 5) => drop(g.remove_deployment(site, &d.key, now)),
                    (None, 6) => drop(g.uninstall_deployment(site, &d.key, now)),
                    (None, 7 | 8) => {
                        let kind = if rng.chance(0.3) { LeaseKind::Exclusive } else { LeaseKind::Shared };
                        let until = now + SimDuration::from_secs(rng.range(1, 20));
                        drop(g.acquire_lease(site, &d.key, "c", kind, now..until, now));
                    }
                    (None, _) => drop(g.release_lease(site, rng.range(0, 8), now)),
                }
            }
        }
    }

    /// A deployment whose type is removed after it is registered stays in
    /// the live ADR, and so through a restart's journal replay; the
    /// snapshot that restart writes must give it back after the next one.
    #[test]
    fn a_deployment_outliving_its_type_survives_a_second_restart() {
        let mut g = Grid::new(2, Transport::Http);
        g.register_type(0, ActivityType::concrete_type("T", "d", "wien2k"), t(1)).unwrap();
        let d = ActivityDeployment::executable("T", "site0", "/opt/bin/d", "/opt");
        g.register_deployment(0, d.clone(), t(2)).unwrap();
        assert!(g.remove_type(0, "T", t(3)));
        for restart in [5, 7] {
            g.crash_site(0, t(restart - 1));
            g.restart_site(0, t(restart));
            assert!(g.site(0).adr.contains(&d.key), "restart at {restart}s");
        }
    }

    #[test]
    fn a_bare_grid_journals_crashes_amnesiac_and_replays() {
        let mut g = grid_with_types();
        let appended = g.metrics.counter_labeled_value(
            "glare_store_appends_total",
            &Labels::of(&[("site", "site0")]),
        );
        assert!(appended > 0, "every registration was journaled");
        assert_eq!(g.store(0).expect("always durable").journal_len() as u64, appended);
        g.crash_site(0, t(1));
        assert!(!g.site(0).atr.contains("JPOVray"), "the crash wiped the ATR");
        assert_eq!(g.events.of_kind("site.amnesia").count(), 1);
        g.restart_site(0, t(3));
        assert!(g.site(0).atr.contains("JPOVray"), "replay rebuilt it");
        let recovered: Vec<_> = g.events.of_kind("store.recovered").collect();
        assert_eq!(recovered[0].field("replayed"), Some(appended.to_string().into()));
    }
}
