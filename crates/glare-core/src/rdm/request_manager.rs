//! The Request Manager: client-facing discovery.
//!
//! "The Request Manager receives and handles requests both from clients
//! (in the form of queries) and from activity providers (in the form of
//! updates)" (§3.2). Discovery follows the locality ladder of §3.2 "Local
//! Access": the client only ever talks to its local site; the local site
//! answers from its own registry, then its cache, then the rest of the
//! VO — caching whatever it learns.

use std::borrow::Cow;
use std::sync::Arc;

use glare_fabric::trace::count_attr;
use glare_fabric::{SimDuration, SimTime, SiteId, SpanKind, TraceContext};

use crate::error::GlareError;
use crate::grid::{Grid, Lost};
use crate::model::{ActivityDeployment, ActivityType};
use crate::retry::ATTEMPT_TIMEOUT;

/// Where a discovery answer came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiscoverySource {
    /// The site's own deployment registry.
    LocalRegistry,
    /// The site's cache of remote resources.
    LocalCache,
    /// Fetched from another site (index of the answering site).
    RemoteSite(usize),
    /// Served from cache entries past their age limit because every
    /// remote probe exhausted its retry budget (graceful degradation).
    DegradedCache,
}

/// A resolved deployment list with provenance and cost.
#[derive(Clone, Debug)]
pub struct ResolveOutcome {
    /// Usable deployments found, shared with the cache that held them.
    pub deployments: Vec<Arc<ActivityDeployment>>,
    /// Where the answer came from.
    pub source: DiscoverySource,
    /// End-to-end cost charged to the client.
    pub cost: SimDuration,
    /// Age of the stalest entry served, set only on degraded reads.
    pub staleness: Option<SimDuration>,
}

/// Cost of serving a hit from the local cache.
pub(crate) const CACHE_HIT_COST: SimDuration = SimDuration::from_millis(1);

/// The request manager of one site.
#[derive(Clone, Copy, Debug)]
pub struct RequestManager {
    /// Whether the local cache participates in resolution (Fig. 12's
    /// cache-on/off switch).
    pub use_cache: bool,
}

impl Default for RequestManager {
    fn default() -> Self {
        RequestManager { use_cache: true }
    }
}

impl RequestManager {
    /// New manager.
    pub fn new(use_cache: bool) -> Self {
        RequestManager { use_cache }
    }

    /// Answer "give me the deployments able to provide `activity`"
    /// (Example 3's `Get ImageConversion deployments using local GLARE`).
    ///
    /// The whole ladder is recorded into `grid.trace` as one trace: a
    /// `rdm.request` root span with one child per stage tried (hierarchy
    /// resolution, local registry, cache, remote probes), laid out on the
    /// same virtual clock the returned cost charges.
    pub fn list_deployments(
        &self,
        grid: &mut Grid,
        from_site: usize,
        activity: &str,
        now: SimTime,
    ) -> Result<ResolveOutcome, GlareError> {
        let site = Some(SiteId(from_site as u32));
        let root = grid
            .trace
            .open(None, "rdm.request", SpanKind::Request, site, None, now);
        grid.trace.attr(root.span_id, "activity", activity.to_owned());
        let mut lookup = Lookup {
            grid,
            use_cache: self.use_cache,
            from_site,
            activity,
            now,
            root,
            concrete: Vec::new(),
            cost: SimDuration::ZERO,
            probes_exhausted: false,
        };
        let out = lookup.run();
        let label = match &out {
            Ok(o) => match o.source {
                DiscoverySource::LocalRegistry => "registry",
                DiscoverySource::LocalCache => "cache",
                DiscoverySource::RemoteSite(_) => "remote",
                DiscoverySource::DegradedCache => "degraded",
            },
            Err(_) => "not-found",
        };
        // The request finished at `now` plus the accumulated cost, on the
        // error path too.
        let end = lookup.at();
        grid.trace.attr(root.span_id, "source", label);
        grid.trace.close(root.span_id, end);
        out
    }
}

/// One discovery request in progress: who asks for what, the `rdm.request`
/// span its rungs chain under, and the cost charged so far.
struct Lookup<'a> {
    grid: &'a mut Grid,
    use_cache: bool,
    from_site: usize,
    activity: &'a str,
    now: SimTime,
    root: TraceContext,
    /// Concrete type names `activity` resolved to.
    concrete: Vec<String>,
    /// Virtual-clock cursor: each rung adds what it cost, laying the rung
    /// spans out sequentially the way the cost model charges them.
    cost: SimDuration,
    /// Whether some remote stayed unreachable after its retry budget.
    probes_exhausted: bool,
}

impl Lookup<'_> {
    /// The discovery ladder proper: each rung either answers or leaves
    /// its cost on the cursor for the next one.
    fn run(&mut self) -> Result<ResolveOutcome, GlareError> {
        self.resolve_types()?;
        let (sites, from_site) = (self.grid.len(), self.from_site);
        let answer = self
            .local_registry()
            .or_else(|| self.local_cache())
            .or_else(|| (0..sites).filter(|&i| i != from_site).find_map(|i| self.probe(i)))
            .or_else(|| self.degraded_cache());
        answer.ok_or_else(|| GlareError::NotFound {
            what: format!("deployments of {}", self.activity),
        })
    }

    /// The virtual instant the cursor stands at.
    fn at(&self) -> SimTime {
        self.now + self.cost
    }

    /// Record a rung as a `name` span at `site`, from `start` to the cursor.
    fn span(
        &mut self,
        name: &'static str,
        kind: SpanKind,
        site: usize,
        start: SimTime,
        attrs: impl IntoIterator<Item = (&'static str, Cow<'static, str>)>,
    ) {
        let (parent, site, end) = (Some(self.root), Some(SiteId(site as u32)), self.at());
        self.grid.trace.record(parent, name, kind, site, None, start, end, attrs);
    }

    /// The answer `deployments`, found at `source`, at the cost so far.
    fn found(
        &self,
        deployments: Vec<Arc<ActivityDeployment>>,
        source: DiscoverySource,
        staleness: Option<SimDuration>,
    ) -> ResolveOutcome {
        ResolveOutcome {
            deployments,
            source,
            cost: self.cost,
            staleness,
        }
    }

    /// Record a rung that stayed on the asking site as a `name` span from
    /// `start` to the cursor, saying whether it `hit`.
    fn local_span(&mut self, name: &'static str, start: SimTime, hit: bool) {
        let attrs = [("hit", if hit { "1" } else { "0" }.into())];
        self.span(name, SpanKind::Service, self.from_site, start, attrs);
    }

    /// Resolve the (possibly abstract) activity to concrete type names,
    /// preferring purely local hierarchy knowledge.
    fn resolve_types(&mut self) -> Result<(), GlareError> {
        let (from_site, now) = (self.from_site, self.now);
        let name_of = |t: &ActivityType| t.name.clone();
        let local = self.grid.site(from_site).atr.resolve_concrete(self.activity, name_of);
        (self.concrete, self.cost) = (local.value, local.cost);
        if self.concrete.is_empty() {
            let (names, c) = self.grid.resolve_concrete(from_site, self.activity, name_of);
            self.cost += c;
            self.concrete = names;
        }
        let attrs = [("concrete", count_attr(self.concrete.len()))];
        self.span("resolve.types", SpanKind::Compute, from_site, now, attrs);
        if self.concrete.is_empty() {
            return Err(GlareError::NotFound {
                what: format!("concrete type for {}", self.activity),
            });
        }
        Ok(())
    }

    /// The first non-empty deployment list `site`'s registry holds for one
    /// of the concrete types, charging each lookup made.
    fn registry_hit(&mut self, site: usize) -> Vec<Arc<ActivityDeployment>> {
        for name in &self.concrete {
            let resp = self.grid.site(site).adr.deployments_of(name, self.now);
            self.cost += resp.cost;
            if !resp.value.is_empty() {
                return resp.value.into_iter().map(Arc::new).collect();
            }
        }
        Vec::new()
    }

    /// Rung 1: the local registry.
    fn local_registry(&mut self) -> Option<ResolveOutcome> {
        let start = self.at();
        let hit = self.registry_hit(self.from_site);
        self.local_span("registry.local", start, !hit.is_empty());
        (!hit.is_empty()).then(|| self.found(hit, DiscoverySource::LocalRegistry, None))
    }

    /// Rung 2: the local cache.
    fn local_cache(&mut self) -> Option<ResolveOutcome> {
        if !self.use_cache {
            return None;
        }
        let start = self.at();
        self.cost += CACHE_HIT_COST;
        let mut hits = Vec::new();
        for name in &self.concrete {
            hits = self.grid.site_mut(self.from_site).cache.deployments_of(name, self.now);
            if !hits.is_empty() {
                break;
            }
        }
        self.local_span("cache.lookup", start, !hits.is_empty());
        (!hits.is_empty()).then(|| self.found(hits, DiscoverySource::LocalCache, None))
    }

    /// Rung 3, once per remote: the rest of the VO (one round-trip per
    /// probed site), under the recovery policy: lost attempts charge the
    /// per-attempt timeout and back off with decorrelated jitter, an open
    /// per-site breaker skips the site outright, and a site whose retry
    /// budget exhausts is skipped rather than failing the whole ladder.
    /// With the fault injector inert no attempt is ever lost and this
    /// stage costs exactly what it did without the policy.
    fn probe(&mut self, peer: usize) -> Option<ResolveOutcome> {
        let start = self.at();
        let rtt = self.grid.link.transfer_time(1024) * 2;
        // A silent probe charges the per-remote budget: the configured
        // attempt timeout, tightened to the learned `margin×mean + k×σ`
        // once the site's estimator is warm — waiting 500 ms on a site
        // that always answers in 40 ms only stretches the ladder's tail.
        let budget = self.grid.suspicion.attempt_budget(peer, ATTEMPT_TIMEOUT);
        let mut lost = Lost::default();
        let reached = loop {
            if !self.grid.breaker_allows(peer, start + lost.elapsed) {
                break false;
            }
            if !self.grid.attempt_lost(peer) {
                self.grid.breakers.breaker(peer).record_success();
                // Feed the per-site round-trip estimator (no-op when
                // suspicion is disabled, the default).
                self.grid.suspicion.observe(peer, rtt);
                break true;
            }
            self.grid.attempt_timed_out(peer, "probe", budget, &mut lost);
            self.grid.breaker_failure(peer, "probe", start + lost.elapsed);
            if self.grid.back_off(peer, &mut lost).is_none() {
                break false;
            }
        };
        self.cost += lost.elapsed;
        if !reached {
            self.probes_exhausted = true;
            let attrs = [("peer", count_attr(peer)), ("hit", "unreachable".into())];
            self.span("probe.remote", SpanKind::Network, peer, start, attrs);
            return None;
        }
        self.cost += rtt;
        let hit = self.registry_hit(peer);
        let hit_attr = if hit.is_empty() { "0" } else { "1" };
        let attrs = [("peer", count_attr(peer)), ("hit", hit_attr.into())];
        self.span("probe.remote", SpanKind::Network, peer, start, attrs);
        if hit.is_empty() {
            return None;
        }
        // Cache what we learned (§3.1: "a resource discovered from a
        // remote registry is optionally cached locally").
        if self.use_cache {
            let found = hit.iter().map(|d| (peer, Arc::clone(d)));
            super::deploy_manager::cache_remote(self.grid, self.from_site, found, self.now);
        }
        Some(self.found(hit, DiscoverySource::RemoteSite(peer), None))
    }

    /// Rung 4, graceful degradation: at least one remote stayed unreachable
    /// after the retry budget, so a stale cache entry may be the best
    /// answer available. Serve it explicitly marked degraded, with its
    /// age, instead of erroring.
    fn degraded_cache(&mut self) -> Option<ResolveOutcome> {
        if !(self.use_cache && self.probes_exhausted) {
            return None;
        }
        let start = self.at();
        self.cost += CACHE_HIT_COST;
        let mut stale: Vec<(Arc<ActivityDeployment>, SimDuration)> = Vec::new();
        for name in &self.concrete {
            stale = self.grid.site(self.from_site).cache.deployments_of_degraded(name, self.now);
            if !stale.is_empty() {
                break;
            }
        }
        self.local_span("cache.degraded", start, !stale.is_empty());
        let age = stale.iter().map(|(_, a)| *a).max()?;
        self.grid.count(self.from_site, "glare_degraded_reads_total", None, 1);
        self.grid.emit(
            self.from_site,
            self.at(),
            "query.degraded",
            "retry",
            [
                ("activity", self.activity.to_owned()),
                ("age_ms", format!("{:.0}", age.as_millis_f64())),
            ],
        );
        let deployments = stale.into_iter().map(|(d, _)| d).collect();
        Some(self.found(deployments, DiscoverySource::DegradedCache, Some(age)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{example_hierarchy, ActivityDeployment, ActivityType};
    use glare_fabric::Labels;
    use glare_services::Transport;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Grid with types on every site (post-distribution state) and one
    /// JPOVray deployment registered at `deploy_site`.
    fn grid_with_deployment(n: usize, deploy_site: usize) -> Grid {
        let mut g = Grid::new(n, Transport::Http);
        for i in 0..n {
            for ty in example_hierarchy(SimTime::ZERO) {
                g.register_type(i, ty, t(0)).unwrap();
            }
        }
        let d = ActivityDeployment::executable(
            "JPOVray",
            &g.site(deploy_site).name.clone(),
            "/opt/deployments/jpovray/bin/jpovray",
            "/opt/deployments/jpovray",
        );
        let site = g.site_mut(deploy_site);
        site.adr.register(d, &site.atr, t(0)).unwrap();
        g
    }

    #[test]
    fn local_registry_wins() {
        let mut g = grid_with_deployment(3, 1);
        let rm = RequestManager::new(true);
        let out = rm.list_deployments(&mut g, 1, "Imaging", t(1)).unwrap();
        assert_eq!(out.source, DiscoverySource::LocalRegistry);
        assert_eq!(out.deployments.len(), 1);
    }

    #[test]
    fn remote_then_cache() {
        let mut g = grid_with_deployment(3, 2);
        let rm = RequestManager::new(true);
        let first = rm.list_deployments(&mut g, 0, "Imaging", t(1)).unwrap();
        assert_eq!(first.source, DiscoverySource::RemoteSite(2));
        let second = rm.list_deployments(&mut g, 0, "Imaging", t(2)).unwrap();
        assert_eq!(second.source, DiscoverySource::LocalCache);
        assert!(
            second.cost < first.cost,
            "cache hit {} must beat remote {}",
            second.cost,
            first.cost
        );
    }

    #[test]
    fn cache_disabled_always_goes_remote() {
        let mut g = grid_with_deployment(3, 2);
        let rm = RequestManager::new(false);
        let first = rm.list_deployments(&mut g, 0, "Imaging", t(1)).unwrap();
        let second = rm.list_deployments(&mut g, 0, "Imaging", t(2)).unwrap();
        assert_eq!(first.source, DiscoverySource::RemoteSite(2));
        assert_eq!(second.source, DiscoverySource::RemoteSite(2));
    }

    #[test]
    fn degraded_read_after_probe_exhaustion() {
        let mut g = grid_with_deployment(3, 2);
        let rm = RequestManager::new(true);
        let first = rm.list_deployments(&mut g, 0, "Imaging", t(1)).unwrap();
        assert_eq!(first.source, DiscoverySource::RemoteSite(2));
        // The cached entry ages past the freshness limit, and the site
        // holding the deployment crashes: retries exhaust, and the stale
        // entry is served explicitly marked degraded instead of erroring.
        g.crash_site(2, t(400));
        let out = rm.list_deployments(&mut g, 0, "Imaging", t(400)).unwrap();
        assert_eq!(out.source, DiscoverySource::DegradedCache);
        assert_eq!(out.deployments.len(), 1);
        assert!(out.staleness.unwrap() >= SimDuration::from_secs(300));
        assert!(out.cost > first.cost, "timed-out probes were charged");
        assert_eq!(g.events.of_kind("query.degraded").count(), 1);
        assert_eq!(
            g.metrics.counter_labeled_value(
                "glare_degraded_reads_total",
                &Labels::of(&[("site", "site0")]),
            ),
            1
        );
        assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn warm_suspicion_tightens_probe_budgets_without_changing_answers() {
        // Two grids with identical history; one runs the adaptive per-site
        // RTT estimator. Eight healthy cache-off queries warm it, then the
        // deployment holder crashes: the warm grid charges the learned
        // `margin×mean + k×σ` per silent probe instead of the full
        // configured attempt timeout, so the degraded read's ladder is
        // strictly cheaper — while source and answer stay identical.
        let run = |adaptive: bool| {
            // Deployment on the last site: the ladder walks through the
            // (soon-dead) site 1 before reaching it.
            let mut g = grid_with_deployment(4, 3);
            if adaptive {
                g.suspicion = crate::suspicion::SuspicionTracker::new(
                    crate::suspicion::SuspicionConfig::standard(),
                );
            }
            let rm = RequestManager::new(false);
            for k in 1..=8 {
                rm.list_deployments(&mut g, 0, "Imaging", t(k)).unwrap();
            }
            g.crash_site(1, t(400));
            let out = rm.list_deployments(&mut g, 0, "Imaging", t(400)).unwrap();
            (out, g)
        };
        let (warm_out, warm_g) = run(true);
        let (cold_out, _) = run(false);
        assert_eq!(warm_out.source, cold_out.source, "same replica answers");
        assert_eq!(warm_out.deployments.len(), cold_out.deployments.len());
        assert!(
            warm_out.cost < cold_out.cost,
            "warm ladder {} must undercut the fixed-timeout ladder {}",
            warm_out.cost,
            cold_out.cost
        );
        assert!(warm_g.suspicion.is_warm(1), "healthy probes warmed site1");
        // The learned budget for the crashed site is far below the
        // configured attempt timeout.
        let budget = warm_g.suspicion.attempt_budget(1, ATTEMPT_TIMEOUT);
        assert!(
            budget < ATTEMPT_TIMEOUT,
            "warm budget {budget} vs configured {ATTEMPT_TIMEOUT}"
        );
    }

    #[test]
    fn abstract_request_resolves_through_hierarchy() {
        let mut g = grid_with_deployment(2, 0);
        let rm = RequestManager::new(true);
        for name in ["Imaging", "POVray", "JPOVray"] {
            let out = rm.list_deployments(&mut g, 0, name, t(1)).unwrap();
            assert_eq!(out.deployments.len(), 1, "{name}");
        }
    }

    #[test]
    fn unknown_activity_errors() {
        let mut g = grid_with_deployment(2, 0);
        let rm = RequestManager::new(true);
        assert!(matches!(
            rm.list_deployments(&mut g, 0, "Ghost", t(1)),
            Err(GlareError::NotFound { .. })
        ));
    }

    #[test]
    fn no_deployments_anywhere_errors() {
        let mut g = Grid::new(2, Transport::Http);
        for i in 0..2 {
            g.register_type(
                i,
                ActivityType::concrete_type("Lonely", "d", "wien2k"),
                t(0),
            )
            .unwrap();
        }
        let rm = RequestManager::new(true);
        let err = rm.list_deployments(&mut g, 0, "Lonely", t(1)).unwrap_err();
        assert!(matches!(err, GlareError::NotFound { .. }));
    }

    #[test]
    fn type_known_only_remotely_still_resolves() {
        // Types registered on site0 only; client on site1.
        let mut g = Grid::new(2, Transport::Http);
        for ty in example_hierarchy(SimTime::ZERO) {
            g.register_type(0, ty, t(0)).unwrap();
        }
        let d = ActivityDeployment::executable(
            "JPOVray",
            "site0.agrid.example",
            "/opt/deployments/jpovray/bin/jpovray",
            "/opt/deployments/jpovray",
        );
        let site = g.site_mut(0);
        site.adr.register(d, &site.atr, t(0)).unwrap();
        let rm = RequestManager::new(true);
        let out = rm.list_deployments(&mut g, 1, "Imaging", t(1)).unwrap();
        assert_eq!(out.source, DiscoverySource::RemoteSite(0));
    }
}
