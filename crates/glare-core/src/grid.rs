//! A whole-VO view: every site's host, registries and services in one
//! place.
//!
//! [`Grid`] is the synchronous harness the provisioning algorithm (§2.2)
//! operates on — Table 1, the examples and the integration tests all run
//! against it. The *distributed* behaviours (multi-site response time,
//! super-peer elections under failures) run on the discrete-event actors
//! in [`crate::node`], which host the same per-site state.

use std::borrow::Cow;
use std::collections::BTreeSet;

use glare_fabric::topology::{LinkSpec, Platform, SiteId};
use glare_fabric::store::{replay_cost, COMPACT_EVERY};
use glare_fabric::{
    EventLog, Labels, MetricsRegistry, SimDuration, SimRng, SimTime, SiteStore, StoreConfig,
    TraceSink,
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
pub const DEFAULT_CACHE_AGE: SimDuration = SimDuration::from_secs(300);

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
}

impl GridSite {
    /// Fresh site with empty registries.
    pub fn new(name: &str, platform: Platform, transport: Transport) -> GridSite {
        GridSite {
            name: name.to_owned(),
            host: SiteHost::new(name, platform),
            atr: ActivityTypeRegistry::new(
                &format!("https://{name}:8084/wsrf/services/ActivityTypeRegistry"),
                transport,
            ),
            adr: ActivityDeploymentRegistry::new(
                &format!("https://{name}:8084/wsrf/services/ActivityDeploymentRegistry"),
                transport,
            ),
            gram: GramService::new(),
            leases: LeaseManager::new(),
            cache: RegistryCache::new(DEFAULT_CACHE_AGE),
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
pub const NOTIFICATION_COST: SimDuration = SimDuration::from_millis(345);

/// Synchronous-path fault injection for the cost-model harness.
///
/// The distributed fabric injects faults at its kernel (crashes,
/// partitions, message loss); the synchronous [`Grid`] has no kernel, so
/// chaos runs configure this injector instead. A cross-site attempt is
/// lost when the target site is marked down or the per-message loss draw
/// fires. With `loss` at zero and no sites marked down the injector never
/// draws from its RNG, which keeps faults-off runs bit-identical to runs
/// of builds that predate it.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    loss: f64,
    rng: SimRng,
    down: BTreeSet<usize>,
}

impl FaultInjector {
    /// Injector that never loses anything (the default).
    pub fn inert() -> FaultInjector {
        FaultInjector {
            loss: 0.0,
            rng: SimRng::from_seed(0),
            down: BTreeSet::new(),
        }
    }

    /// Injector losing each cross-site attempt with probability `loss`,
    /// drawing from its own seeded stream.
    pub fn seeded(seed: u64, loss: f64) -> FaultInjector {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        FaultInjector {
            loss,
            rng: SimRng::from_seed(seed),
            down: BTreeSet::new(),
        }
    }

    /// Whether the injector considers `site` reachable.
    pub fn site_up(&self, site: usize) -> bool {
        !self.down.contains(&site)
    }

    /// Mark a site down.
    pub fn crash(&mut self, site: usize) {
        self.down.insert(site);
    }

    /// Mark a site back up.
    pub fn restart(&mut self, site: usize) {
        self.down.remove(&site);
    }

    /// Draw the per-attempt loss. Does not touch the RNG when loss is 0.
    pub fn attempt_lost(&mut self) -> bool {
        self.rng.chance(self.loss)
    }

    /// The injector's RNG stream (backoff jitter draws share it so one
    /// seed reproduces an entire chaos run).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::inert()
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
    /// Fault injector for chaos runs; inert by default.
    pub faults: FaultInjector,
    /// Recovery policy applied by the `_retrying` cross-site entry points.
    pub retry: RetryPolicy,
    /// Per-remote-site circuit breakers, keyed by site index.
    pub breakers: BreakerBank<usize>,
    /// Per-remote-site round-trip estimator: when enabled (default off),
    /// probe attempt timeouts tighten to the learned per-site budget
    /// instead of charging the full [`ATTEMPT_TIMEOUT`] per
    /// silent probe.
    pub suspicion: crate::suspicion::SuspicionTracker<usize>,
    /// Per-site durable stores (`None` = durability off). With durability
    /// on, [`Grid::crash_site`] becomes amnesia-faithful — it wipes the
    /// site's volatile registries, lease table and cache — and
    /// [`Grid::restart_site`] rebuilds them by snapshot load + journal
    /// replay, making the "the ledger is durable" story real instead of
    /// assumed.
    stores: Option<Vec<SiteStore>>,
    /// Each site's `{site="site{i}"}` label set, built once: the telemetry
    /// door ([`Grid::count`], [`Grid::observe`], [`Grid::set_gauge`],
    /// [`Grid::emit`]) records by site index and formats nothing.
    site_labels: Vec<Labels>,
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
        let sites = (0..n)
            .map(|i| {
                GridSite::new(
                    &format!("site{i}.agrid.example"),
                    Platform::intel_linux_32(),
                    transport,
                )
            })
            .collect();
        Grid {
            sites,
            repo: Repository::with_catalog(),
            link: LinkSpec::wan_default(),
            notifications: Vec::new(),
            trace: TraceSink::default(),
            metrics: MetricsRegistry::new(),
            events: EventLog::default(),
            faults: FaultInjector::inert(),
            retry: RetryPolicy::standard(),
            breakers: BreakerBank::default(),
            suspicion: crate::suspicion::SuspicionTracker::default(),
            stores: None,
            site_labels: (0..n).map(|i| site_set(&Grid::site_label(i), None)).collect(),
        }
    }

    /// Give every site a durable store (WAL + snapshots). Off by default;
    /// with `cfg.enabled == false` this removes any stores and restores
    /// the legacy "state survives by fiat" crash semantics.
    pub fn enable_durability(&mut self, cfg: StoreConfig) {
        self.stores = cfg.enabled.then(|| vec![SiteStore::new(); self.sites.len()]);
    }

    /// Whether sites have durable stores.
    pub fn durability_enabled(&self) -> bool {
        self.stores.is_some()
    }

    /// A site's durable store, if durability is on (inspection/tests).
    pub fn store(&self, site: usize) -> Option<&SiteStore> {
        self.stores.as_ref().map(|s| &s[site])
    }

    /// Damage the tail of a site's journal, the way a torn partial write
    /// does at crash time. No-op (returning 0) when durability is off.
    pub fn tear_journal_tail(&mut self, site: usize, records: usize) -> usize {
        match self.stores.as_mut() {
            Some(stores) => stores[site].tear_tail(records),
            None => 0,
        }
    }

    /// Journal one registry mutation at `site` (no-op when durability is
    /// off), compacting the journal into a snapshot at [`COMPACT_EVERY`]
    /// records.
    fn journal(&mut self, site: usize, m: &RegistryMutation, now: SimTime) {
        let Some(stores) = self.stores.as_mut() else {
            return;
        };
        stores[site].append(m.kind(), &m.payload());
        let journal_len = stores[site].journal_len();
        self.count(site, "glare_store_appends_total", None, 1);
        if journal_len >= COMPACT_EVERY {
            self.snapshot_site(site, now);
        }
    }

    /// Fold a site's full durable state into a snapshot, clearing the
    /// journal. No-op when durability is off.
    pub fn snapshot_site(&mut self, site: usize, now: SimTime) {
        if self.stores.is_none() {
            return;
        }
        let s = &self.sites[site];
        let mut state = SnapshotState::capture(&s.atr, &s.adr, now);
        state.leases = s.leases.tickets().to_vec();
        let blob = durable::encode_snapshot(&state);
        let records = self
            .stores
            .as_mut()
            .expect("checked above")[site]
            .install_snapshot(&blob);
        self.count(site, "glare_store_snapshots_total", None, 1);
        self.emit(site, now, "store.compacted", "store", &[("records", &records.to_string())]);
    }

    /// Short label for a site (`site{i}`), the `site` label value of
    /// every telemetry family the Grid publishes.
    pub fn site_label(i: usize) -> String {
        format!("site{i}")
    }

    /// Add `n` to `site`'s counter in `family`: keyed `{site}`, or
    /// `{site, key}` when the record carries a `second` label.
    pub fn count(&mut self, site: usize, family: &str, second: Option<(&str, &str)>, n: u64) {
        let labels = labels_of(&self.site_labels[site], second);
        self.metrics.counter_labeled(family, &labels).add(n);
    }

    /// Record `d` into `site`'s histogram in the `{site}`-keyed `family`.
    pub fn observe(&mut self, site: usize, family: &str, d: SimDuration) {
        self.metrics.histogram_labeled(family, &self.site_labels[site]).record(d);
    }

    /// Set `site`'s gauge in `family` (keyed as [`Grid::count`] keys a
    /// counter) to `v` at `now`.
    pub fn set_gauge(
        &mut self,
        site: usize,
        family: &str,
        second: Option<(&str, &str)>,
        now: SimTime,
        v: f64,
    ) {
        let labels = labels_of(&self.site_labels[site], second);
        self.metrics.gauge(family, &labels).set(now, v);
    }

    /// The latest value of `site`'s `{site}`-keyed gauge in `family`, if it
    /// was ever set.
    pub fn gauge_latest(&self, site: usize, family: &str) -> Option<f64> {
        self.metrics.gauge_ref(family, &self.site_labels[site])?.latest()
    }

    /// Log a `kind` event of `component` at `site`: the record names the
    /// site and carries its `site` label ahead of `fields`.
    pub fn emit(
        &mut self,
        site: usize,
        now: SimTime,
        kind: &str,
        component: &str,
        fields: &[(&str, &str)],
    ) {
        let label = site_name(&self.site_labels[site]);
        self.events.emit_with(now, kind, Some(SiteId(site as u32)), component, || {
            let rest = fields.iter().map(|&(k, v)| (k, v.to_owned()));
            std::iter::once(("site", label.to_owned())).chain(rest)
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
        let journal = self.stores.is_some().then(|| t.clone());
        let result = self.sites[site].atr.register(t, now);
        if let Some(t) = journal.filter(|_| result.is_ok()) {
            self.journal(site, &RegistryMutation::AtrRegister(Box::new(t)), now);
        }
        result
    }

    /// Register a deployment at a site's ADR, journaling it when durable.
    /// The RDM deploy path funnels through here so installed deployments
    /// survive an amnesia-faithful crash.
    pub fn register_deployment(
        &mut self,
        site: usize,
        d: ActivityDeployment,
        now: SimTime,
    ) -> Result<SimDuration, GlareError> {
        let journal = self.stores.is_some().then(|| d.clone());
        let result = {
            let s = &self.sites[site];
            s.adr.register(d, &s.atr, now)
        };
        if let Some(d) = journal.filter(|_| result.is_ok()) {
            self.journal(site, &RegistryMutation::AdrRegister(Box::new(d)), now);
        }
        result
    }

    /// Drop a deployment record without a tombstone (failed-record
    /// cleanup, undeploy), journaling the removal when durable so replay
    /// does not resurrect it.
    pub fn remove_deployment(
        &mut self,
        site: usize,
        key: &str,
        now: SimTime,
    ) -> Result<ActivityDeployment, GlareError> {
        let result = self.sites[site].adr.remove(key);
        if result.is_ok() {
            self.journal(site, &RegistryMutation::AdrRemove(key.to_owned()), now);
        }
        result
    }

    /// Remove an activity type from a site's ATR, journaling the removal
    /// when durable.
    pub fn remove_type(
        &mut self,
        site: usize,
        name: &str,
        now: SimTime,
    ) -> Result<ActivityType, GlareError> {
        let result = self.sites[site].atr.remove(name);
        if result.is_ok() {
            self.journal(site, &RegistryMutation::AtrRemove(name.to_owned()), now);
        }
        result
    }

    /// Uninstall a deployment at a site, leaving a tombstone at `now` so
    /// stale copies can never resurrect it (deletes win). Returns whether
    /// a live entry was actually removed. Journaled when durable.
    pub fn uninstall_deployment(&mut self, site: usize, key: &str, now: SimTime) -> bool {
        let removed = {
            let s = &mut self.sites[site];
            let removed = s.adr.uninstall(key, now).is_ok();
            if !removed {
                s.adr.restore_tombstones([(key.to_owned(), now)]);
            }
            s.cache.evict_deployment(key);
            removed
        };
        self.emit(site, now, "deployment.tombstoned", "adr", &[("key", key)]);
        self.journal(
            site,
            &RegistryMutation::AdrUninstall {
                key: key.to_owned(),
                at: now,
            },
            now,
        );
        removed
    }

    /// Find a type anywhere in the VO: the local registry first, then the
    /// iterative lookup across other sites. Returns the type, the index of
    /// the site that had it, and the accumulated lookup cost (remote hops
    /// pay a network round-trip each).
    pub fn find_type(
        &mut self,
        from_site: usize,
        name: &str,
        now: SimTime,
    ) -> Option<(ActivityType, usize, SimDuration)> {
        let mut cost = SimDuration::ZERO;
        // Local first.
        if let Some(resp) = self.sites[from_site].atr.lookup(name, now) {
            return Some((resp.value, from_site, resp.cost));
        }
        cost += SimDuration::from_millis(4);
        // Then the rest of the VO.
        let rtt = self.link.transfer_time(1024) * 2;
        for i in self.site_indices() {
            if i == from_site {
                continue;
            }
            cost += rtt;
            if let Some(resp) = self.sites[i].atr.lookup(name, now) {
                return Some((resp.value, i, cost + resp.cost));
            }
        }
        None
    }

    /// Resolve a possibly-abstract type name to deployable concrete types,
    /// searching the whole VO (the §2.2 "iterative lookup"), and keep what
    /// `project` takes from each: a copy of it, or only its name.
    pub fn resolve_concrete<R>(
        &mut self,
        from_site: usize,
        name: &str,
        now: SimTime,
        project: impl Fn(&ActivityType) -> R,
    ) -> (Vec<R>, SimDuration) {
        let mut cost = SimDuration::ZERO;
        let order = std::iter::once(from_site)
            .chain(self.site_indices().filter(|&i| i != from_site));
        let rtt = self.link.transfer_time(1024) * 2;
        // A site's closure names each of its types once: nothing repeats.
        let concrete = |t: &ActivityType| (t.kind == TypeKind::Concrete).then(|| project(t));
        for (hop, i) in order.enumerate() {
            if hop > 0 {
                cost += rtt;
            }
            let resp = self.sites[i].atr.resolve_concrete_with(name, now, &concrete);
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
    pub fn eligible_sites(&self, t: &ActivityType, now: SimTime) -> Vec<usize> {
        let Some(inst) = &t.installation else {
            return Vec::new();
        };
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, s)| inst.constraints.accepts(&s.host.platform))
            .filter(|(_, s)| !s.host.is_installed(&inst.package))
            .map(|(i, _)| i)
            .filter(|_| {
                let total: usize = self
                    .sites
                    .iter()
                    .map(|s| s.adr.count_of(&t.name, now))
                    .sum();
                (total as u32) < t.limits.max
            })
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
            Ok(ticket) => ("granted", "lease.granted", ("ticket", ticket.id.to_string())),
            Err(e) => ("rejected", "lease.rejected", ("reason", e.to_string())),
        };
        self.count(site, "glare_leases_total", Some(("outcome", outcome)), 1);
        self.emit(
            site,
            now,
            event,
            "lease",
            &[
                ("deployment", deployment),
                ("client", client),
                ("kind", kind_label),
                (last.0, &last.1),
            ],
        );
        if self.stores.is_some() {
            if let Ok(ticket) = &result {
                let m = RegistryMutation::LeaseGrant(ticket.clone());
                self.journal(site, &m, now);
            }
        }
        result
    }

    /// Release a lease early, journaling the release when durable so a
    /// replayed lease table does not revive freed capacity.
    pub fn release_lease(
        &mut self,
        site: usize,
        ticket: u64,
        now: SimTime,
    ) -> Result<(), GlareError> {
        let result = self.sites[site].leases.release(ticket);
        if result.is_ok() {
            self.emit(site, now, "lease.released", "lease", &[("ticket", &ticket.to_string())]);
            self.journal(site, &RegistryMutation::LeaseRelease(ticket), now);
        }
        result
    }

    /// Mark a site down for the synchronous path. Without durable stores,
    /// registry and lease state survives the crash by fiat (the legacy
    /// fiction); only calls fail until [`Grid::restart_site`]. With
    /// durability on the crash is amnesia-faithful: the site's volatile
    /// registries, lease table and cache are wiped, and only what was
    /// journaled or snapshotted comes back at restart.
    pub fn crash_site(&mut self, site: usize, now: SimTime) {
        self.faults.crash(site);
        self.emit(site, now, "site.crashed", "fault", &[]);
        if self.stores.is_some() {
            let s = &mut self.sites[site];
            let atr_address = s.atr.address.clone();
            let adr_address = s.adr.address.clone();
            let transport = s.atr.transport;
            s.atr = ActivityTypeRegistry::new(&atr_address, transport);
            s.adr = ActivityDeploymentRegistry::new(&adr_address, transport);
            s.leases = LeaseManager::new();
            s.cache = RegistryCache::new(DEFAULT_CACHE_AGE);
            self.emit(site, now, "site.amnesia", "fault", &[]);
        }
    }

    /// Bring a crashed site back. With durability on, the site first
    /// rebuilds its registries and lease table from its store (snapshot
    /// load + journal replay, truncating at the last valid record if the
    /// tail was torn). Expired leases are then reclaimed on the way up —
    /// the granting site sweeps its ledger so capacity that freed during
    /// the outage is usable again. Returns how many tickets were
    /// reclaimed.
    pub fn restart_site(&mut self, site: usize, now: SimTime) -> usize {
        self.faults.restart(site);
        if self.stores.is_some() {
            self.recover_site(site, now);
        }
        let reclaimed = self.sites[site].leases.sweep_expired(now);
        let swept = reclaimed.to_string();
        self.emit(site, now, "site.restarted", "fault", &[("leases_reclaimed", &swept)]);
        if self.stores.is_some() {
            // Re-snapshot so the next crash replays from a compact journal
            // that already reflects the swept lease table.
            self.snapshot_site(site, now);
        }
        reclaimed
    }

    /// Rebuild a site's registries and lease table from its durable store.
    fn recover_site(&mut self, site: usize, now: SimTime) {
        let Some(stores) = self.stores.as_mut() else {
            return;
        };
        let recovered = stores[site].recover();
        let replayed = recovered.replayed_records();
        let truncated = recovered.truncated_records;
        let had_snapshot = recovered.snapshot.is_some();
        let s = &mut self.sites[site];
        durable::replay(&recovered, &s.atr, &s.adr, Some(&mut s.leases), now);
        self.count(site, "glare_store_replayed_records_total", None, replayed);
        self.count(site, "glare_store_truncated_records_total", None, truncated);
        self.observe(site, "glare_store_replay_ms", replay_cost(replayed, had_snapshot));
        self.emit(
            site,
            now,
            "store.recovered",
            "store",
            &[
                ("replayed", &replayed.to_string()),
                ("truncated_records", &truncated.to_string()),
                ("snapshot", if had_snapshot { "true" } else { "false" }),
            ],
        );
    }

    /// Whether the fault injector considers `site` reachable.
    pub fn site_is_up(&self, site: usize) -> bool {
        self.faults.site_up(site)
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
    /// the injector's per-attempt loss draw fires (no draw when inert).
    pub(crate) fn attempt_lost(&mut self, site: usize) -> bool {
        !self.faults.site_up(site) || self.faults.attempt_lost()
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
    pub(crate) fn breaker_failure(&mut self, site: usize, op: &str, at: SimTime) {
        if self.breakers.breaker(site).record_failure(at) {
            self.count(site, "glare_breaker_transitions_total", Some(("to", "open")), 1);
            self.emit(site, at, "breaker.open", "retry", &[("op", op)]);
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
            self.emit(
                site,
                at,
                "retry.attempt",
                "retry",
                &[
                    ("op", "lease"),
                    ("attempt", &(lost.attempts + 1).to_string()),
                    ("backoff_ms", &format!("{:.1}", delay.as_millis_f64())),
                ],
            );
        };
        let site = site_name(&self.site_labels[site]).to_owned();
        (Err(GlareError::SiteUnavailable { site, detail }), lost.elapsed)
    }

    /// Send an admin notification (recorded; costs
    /// [`NOTIFICATION_COST`]).
    pub fn notify_admin(
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
        assert!(rejected[0]
            .fields
            .iter()
            .any(|(k, v)| k == "reason" && v.contains("exclusive")));
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
            let (ty, _, _) = g.find_type(0, "Wien2k", t(2)).expect("registered");
            let channel = glare_services::ChannelKind::Expect;
            let _ = crate::rdm::install_package(g, &ty, 1, channel, t(2), None);
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
        let untouched = FaultInjector::inert().rng_mut().next_u64();
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
        let mut g = grid_with_types();
        // From the registering site: local hit, cheap.
        let (ty, site, local_cost) = g.find_type(0, "JPOVray", t(1)).unwrap();
        assert_eq!(ty.name, "JPOVray");
        assert_eq!(site, 0);
        // From another site: found remotely, costlier.
        let (_, site, remote_cost) = g.find_type(2, "JPOVray", t(1)).unwrap();
        assert_eq!(site, 0);
        assert!(remote_cost > local_cost);
        assert!(g.find_type(1, "Ghost", t(1)).is_none());
    }

    #[test]
    fn resolve_concrete_across_vo() {
        let mut g = grid_with_types();
        let (types, _) = g.resolve_concrete(2, "Imaging", t(1), ActivityType::clone);
        assert_eq!(types.len(), 1);
        assert_eq!(types[0].name, "JPOVray");
        let (none, _) = g.resolve_concrete(1, "Nothing", t(1), ActivityType::clone);
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
                .map(|r| r.value)
                .filter(|t| !t.revoked)
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

    /// After random `register` / `set_revoked` / `set_expiry` / `remove`
    /// across three sites, both projections of the one walk — whole types,
    /// names — find what the cloning walk found, at its cost, and each
    /// counts one lookup on every site it visited; so does the registry's
    /// own walk under `resolve_concrete` and `resolve_concrete_with`.
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
                    5 | 6 => drop(atr.set_revoked(&name, rng.chance(0.6), t(clock))),
                    7 | 8 => {
                        let when = rng.chance(0.7).then(|| t(clock + rng.range(1, 6)));
                        let _ = atr.set_expiry(&name, when, t(clock));
                    }
                    _ => drop(g.remove_type(site, &name, t(clock))),
                }
                let (from_site, now) = (rng.index(3), t(clock));
                let probe = format!("T{}", rng.range(0, NAMES + 1));
                let registries: Vec<_> = (0..3).map(|i| g.site(i).atr.clone()).collect();
                let served = |g: &Grid| (0..3).map(|i| g.site(i).atr.lookups_served()).collect::<Vec<_>>();
                let (want, want_cost, visited) = cloning_walk(&g, &registries, from_site, &probe, now);
                let want: Vec<&str> = want.iter().map(|t| t.name.as_str()).collect();

                let before = served(&g);
                let (types, cost) = g.resolve_concrete(from_site, &probe, now, ActivityType::clone);
                let after_types = served(&g);
                let (names, names_cost) = g.resolve_concrete(from_site, &probe, now, |t| t.name.clone());
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
                let whole = atr.resolve_concrete(&probe, now);
                let named = atr.resolve_concrete_with(&probe, now, |t| t.name.clone());
                assert_eq!(whole.value.iter().map(|t| &t.name).collect::<Vec<_>>(), named.value.iter().collect::<Vec<_>>());
                assert_eq!(whole.cost, named.cost);
                assert_eq!(atr.lookups_served() - after_names[from_site], 2);
            }
        }
    }

    #[test]
    fn eligible_sites_respect_constraints_and_installed() {
        let mut g = grid_with_types();
        let (ty, _, _) = g.find_type(0, "Wien2k", t(1)).unwrap();
        assert_eq!(g.eligible_sites(&ty, t(1)).len(), 3);
        // Make one site incompatible.
        g.site_mut(1).host.platform = Platform::new("SPARC", "Solaris", "64bit");
        let mut constrained = ty.clone();
        constrained.installation.as_mut().unwrap().constraints =
            crate::model::InstallConstraints::intel_linux_32();
        let elig = g.eligible_sites(&constrained, t(1));
        assert_eq!(elig, vec![0, 2]);
    }

    #[test]
    fn limits_cap_eligibility() {
        let mut g = grid_with_types();
        let mut limited =
            ActivityType::concrete_type("Limited", "d", "wien2k").with_limits(0, 0);
        g.register_type(0, limited.clone(), t(0)).unwrap();
        limited = g.find_type(0, "Limited", t(1)).unwrap().0;
        assert!(
            g.eligible_sites(&limited, t(1)).is_empty(),
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

    fn durable_grid() -> Grid {
        let mut g = Grid::new(2, Transport::Http);
        g.enable_durability(glare_fabric::StoreConfig::standard());
        for ty in example_hierarchy(SimTime::ZERO) {
            g.register_type(0, ty, t(0)).unwrap();
        }
        g
    }

    #[test]
    fn durable_crash_is_amnesia_and_restart_replays() {
        let mut g = durable_grid();
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
        assert!(g.site(0).atr.is_empty(t(11)), "ATR wiped by the crash");
        assert!(g.site(0).adr.is_empty(t(11)), "ADR wiped by the crash");
        assert!(g.site(0).leases.is_empty(), "lease table wiped by the crash");
        assert_eq!(g.events.of_kind("site.amnesia").count(), 1);

        let reclaimed = g.restart_site(0, t(30));
        assert_eq!(reclaimed, 1, "bob's [5,20) ticket expired during the outage");
        // Registries rebuilt from snapshot + journal replay.
        assert!(g.site(0).atr.contains("JPOVray", t(31)));
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
        let mut g = durable_grid();
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

    #[test]
    fn torn_journal_tail_loses_only_the_tail() {
        let mut g = durable_grid();
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
        assert_eq!(g.tear_journal_tail(0, 2), 2);
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
        assert_eq!(recovered.len(), 1);
        assert!(recovered[0]
            .fields
            .iter()
            .any(|(k, v)| k == "truncated_records" && v == "2"));
    }

    #[test]
    fn durability_off_keeps_legacy_crash_semantics() {
        let mut g = grid_with_types();
        assert!(!g.durability_enabled());
        assert!(g.store(0).is_none());
        g.crash_site(0, t(1));
        // Legacy fiction: state survives by fiat, no amnesia, no stores.
        assert!(g.site(0).atr.contains("JPOVray", t(2)));
        g.restart_site(0, t(3));
        assert_eq!(g.events.of_kind("site.amnesia").count(), 0);
        assert_eq!(g.events.of_kind("store.recovered").count(), 0);
        assert_eq!(
            g.metrics.counter_labeled_value(
                "glare_store_appends_total",
                &Labels::of(&[("site", "site0")]),
            ),
            0
        );
    }
}
