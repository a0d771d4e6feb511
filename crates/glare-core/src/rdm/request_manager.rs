//! The Request Manager: client-facing discovery.
//!
//! "The Request Manager receives and handles requests both from clients
//! (in the form of queries) and from activity providers (in the form of
//! updates)" (§3.2). Discovery follows the locality ladder of §3.2 "Local
//! Access": the client only ever talks to its local site; the local site
//! answers from its own registry, then its cache, then the rest of the
//! VO — caching whatever it learns.

use glare_fabric::{Labels, SimDuration, SimTime, SiteId, SpanKind, TraceContext};

use crate::error::GlareError;
use crate::grid::Grid;
use crate::model::ActivityDeployment;

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
    /// Usable deployments found.
    pub deployments: Vec<ActivityDeployment>,
    /// Where the answer came from.
    pub source: DiscoverySource,
    /// End-to-end cost charged to the client.
    pub cost: SimDuration,
    /// Age of the stalest entry served, set only on degraded reads.
    pub staleness: Option<SimDuration>,
}

/// Cost of serving a hit from the local cache.
pub const CACHE_HIT_COST: SimDuration = SimDuration::from_millis(1);

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
        grid.trace.attr(root.span_id, "activity", activity);
        let (out, end) = self.run_ladder(grid, from_site, activity, now, root);
        let label = match &out {
            Ok(o) => match o.source {
                DiscoverySource::LocalRegistry => "registry",
                DiscoverySource::LocalCache => "cache",
                DiscoverySource::RemoteSite(_) => "remote",
                DiscoverySource::DegradedCache => "degraded",
            },
            Err(_) => "not-found",
        };
        grid.trace.attr(root.span_id, "source", label);
        grid.trace.close(root.span_id, end);
        out
    }

    /// The discovery ladder proper. Returns the outcome plus the virtual
    /// instant the request finished (`now` + accumulated cost), which the
    /// caller uses to close the root span even on the error path.
    fn run_ladder(
        &self,
        grid: &mut Grid,
        from_site: usize,
        activity: &str,
        now: SimTime,
        root: TraceContext,
    ) -> (Result<ResolveOutcome, GlareError>, SimTime) {
        let site = Some(SiteId(from_site as u32));
        // Resolve the (possibly abstract) activity to concrete type names,
        // preferring purely local hierarchy knowledge.
        let local = grid.site_mut(from_site).atr.resolve_concrete(activity, now);
        let mut cost = local.cost;
        let mut concrete: Vec<String> = local.value.iter().map(|t| t.name.clone()).collect();
        if concrete.is_empty() {
            let (types, c) = grid.resolve_concrete(from_site, activity, now);
            cost += c;
            concrete = types.into_iter().map(|t| t.name).collect();
        }
        grid.trace.record(
            Some(root),
            "resolve.types",
            SpanKind::Compute,
            site,
            None,
            now,
            now + cost,
            &[("concrete", concrete.len().to_string())],
        );
        if concrete.is_empty() {
            let err = Err(GlareError::NotFound {
                what: format!("concrete type for {activity}"),
            });
            return (err, now + cost);
        }

        // 1. Local registry.
        let registry_start = now + cost;
        for name in &concrete {
            let resp = grid.site(from_site).adr.deployments_of(name, now);
            cost += resp.cost;
            if !resp.value.is_empty() {
                grid.trace.record(
                    Some(root),
                    "registry.local",
                    SpanKind::Service,
                    site,
                    None,
                    registry_start,
                    now + cost,
                    &[("hit", "1".to_owned())],
                );
                let out = Ok(ResolveOutcome {
                    deployments: resp.value,
                    source: DiscoverySource::LocalRegistry,
                    cost,
                    staleness: None,
                });
                return (out, now + cost);
            }
        }
        grid.trace.record(
            Some(root),
            "registry.local",
            SpanKind::Service,
            site,
            None,
            registry_start,
            now + cost,
            &[("hit", "0".to_owned())],
        );

        // 2. Local cache.
        if self.use_cache {
            let cache_start = now + cost;
            cost += CACHE_HIT_COST;
            let mut cache_hits = Vec::new();
            for name in &concrete {
                cache_hits = grid.site_mut(from_site).cache.deployments_of(name, now);
                if !cache_hits.is_empty() {
                    break;
                }
            }
            let hit = !cache_hits.is_empty();
            grid.trace.record(
                Some(root),
                "cache.lookup",
                SpanKind::Service,
                site,
                None,
                cache_start,
                now + cost,
                &[("hit", if hit { "1" } else { "0" }.to_owned())],
            );
            if hit {
                let out = Ok(ResolveOutcome {
                    deployments: cache_hits,
                    source: DiscoverySource::LocalCache,
                    cost,
                    staleness: None,
                });
                return (out, now + cost);
            }
        }

        // 3. The rest of the VO (one round-trip per probed site), each
        // probe under the recovery policy: lost attempts charge the
        // per-attempt timeout and back off with decorrelated jitter, an
        // open per-site breaker skips the site outright, and a site whose
        // retry budget exhausts is skipped rather than failing the whole
        // ladder. With the fault injector inert no attempt is ever lost
        // and this stage costs exactly what it did without the policy.
        let rtt = grid.link.transfer_time(1024) * 2;
        let site_count = grid.len();
        let policy = grid.retry;
        let mut probes_exhausted = false;
        for i in (0..site_count).filter(|&i| i != from_site) {
            let probe_start = now + cost;
            let peer_label = Grid::site_label(i);
            let mut reached = false;
            let mut prev_backoff = SimDuration::ZERO;
            let mut attempt = 1u32;
            let mut probe_elapsed = SimDuration::ZERO;
            loop {
                if !grid.breakers.breaker(i).allow(probe_start + probe_elapsed) {
                    grid.metrics
                        .counter_labeled(
                            "glare_breaker_short_circuits_total",
                            &Labels::of(&[("site", &peer_label)]),
                        )
                        .inc();
                    break;
                }
                let lost = !grid.faults.site_up(i) || grid.faults.attempt_lost();
                if !lost {
                    grid.breakers.breaker(i).record_success();
                    // Feed the per-site round-trip estimator (no-op when
                    // suspicion is disabled, the default).
                    grid.suspicion.observe(i, rtt);
                    reached = true;
                    break;
                }
                // A silent probe charges the per-remote budget: the
                // configured attempt timeout, tightened to the learned
                // `margin×mean + k×σ` once the site's estimator is warm —
                // waiting 500 ms on a site that always answers in 40 ms
                // only stretches the ladder's tail.
                probe_elapsed += grid.suspicion.attempt_budget(i, policy.attempt_timeout);
                grid.metrics
                    .counter_labeled(
                        "glare_retries_total",
                        &Labels::of(&[("site", &peer_label), ("op", "probe")]),
                    )
                    .inc();
                if grid
                    .breakers
                    .breaker(i)
                    .record_failure(probe_start + probe_elapsed)
                {
                    grid.metrics
                        .counter_labeled(
                            "glare_breaker_transitions_total",
                            &Labels::of(&[("site", &peer_label), ("to", "open")]),
                        )
                        .inc();
                    grid.events.emit(
                        probe_start + probe_elapsed,
                        "breaker.open",
                        Some(SiteId(i as u32)),
                        "retry",
                        &[("site", &peer_label), ("op", "probe")],
                    );
                }
                attempt += 1;
                if !policy.may_attempt(attempt, probe_elapsed) {
                    break;
                }
                let delay = policy.next_backoff(grid.faults.rng_mut(), prev_backoff);
                prev_backoff = delay;
                grid.metrics
                    .histogram_labeled(
                        "glare_retry_backoff_ms",
                        &Labels::of(&[("site", &peer_label)]),
                    )
                    .record(delay);
                probe_elapsed += delay;
            }
            cost += probe_elapsed;
            if !reached {
                probes_exhausted = true;
                grid.trace.record(
                    Some(root),
                    "probe.remote",
                    SpanKind::Network,
                    Some(SiteId(i as u32)),
                    None,
                    probe_start,
                    now + cost,
                    &[("peer", i.to_string()), ("hit", "unreachable".to_owned())],
                );
                continue;
            }
            cost += rtt;
            let mut hit: Vec<ActivityDeployment> = Vec::new();
            for name in &concrete {
                let resp = grid.site(i).adr.deployments_of(name, now);
                cost += resp.cost;
                if !resp.value.is_empty() {
                    hit = resp.value;
                    break;
                }
            }
            grid.trace.record(
                Some(root),
                "probe.remote",
                SpanKind::Network,
                Some(SiteId(i as u32)),
                None,
                probe_start,
                now + cost,
                &[
                    ("peer", i.to_string()),
                    ("hit", if hit.is_empty() { "0" } else { "1" }.to_owned()),
                ],
            );
            if !hit.is_empty() {
                // Cache what we learned (§3.1: "a resource discovered
                // from a remote registry is optionally cached locally").
                if self.use_cache {
                    let found: Vec<(usize, ActivityDeployment)> =
                        hit.iter().map(|d| (i, d.clone())).collect();
                    super::deploy_manager::cache_remote(grid, from_site, &found, now);
                }
                let out = Ok(ResolveOutcome {
                    deployments: hit,
                    source: DiscoverySource::RemoteSite(i),
                    cost,
                    staleness: None,
                });
                return (out, now + cost);
            }
        }

        // 4. Graceful degradation: at least one remote stayed unreachable
        // after the retry budget, so a stale cache entry may be the best
        // answer available. Serve it explicitly marked degraded, with its
        // age, instead of erroring.
        if self.use_cache && probes_exhausted {
            let degraded_start = now + cost;
            cost += CACHE_HIT_COST;
            let mut stale: Vec<(ActivityDeployment, SimDuration)> = Vec::new();
            for name in &concrete {
                stale = grid
                    .site(from_site)
                    .cache
                    .deployments_of_degraded(name, now);
                if !stale.is_empty() {
                    break;
                }
            }
            grid.trace.record(
                Some(root),
                "cache.degraded",
                SpanKind::Service,
                site,
                None,
                degraded_start,
                now + cost,
                &[("hit", if stale.is_empty() { "0" } else { "1" }.to_owned())],
            );
            if !stale.is_empty() {
                let age = stale
                    .iter()
                    .map(|(_, a)| *a)
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                let from_label = Grid::site_label(from_site);
                grid.metrics
                    .counter_labeled(
                        "glare_degraded_reads_total",
                        &Labels::of(&[("site", &from_label)]),
                    )
                    .inc();
                grid.events.emit(
                    now + cost,
                    "query.degraded",
                    site,
                    "retry",
                    &[
                        ("site", &from_label),
                        ("activity", activity),
                        ("age_ms", &format!("{:.0}", age.as_millis_f64())),
                    ],
                );
                let out = Ok(ResolveOutcome {
                    deployments: stale.into_iter().map(|(d, _)| d).collect(),
                    source: DiscoverySource::DegradedCache,
                    cost,
                    staleness: Some(age),
                });
                return (out, now + cost);
            }
        }

        let err = Err(GlareError::NotFound {
            what: format!("deployments of {activity}"),
        });
        (err, now + cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{example_hierarchy, ActivityDeployment, ActivityType};
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
        let budget = warm_g.suspicion.attempt_budget(1, warm_g.retry.attempt_timeout);
        assert!(
            budget < warm_g.retry.attempt_timeout,
            "warm budget {budget} vs configured {}",
            warm_g.retry.attempt_timeout
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
