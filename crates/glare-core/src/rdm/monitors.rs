//! The RDM's monitoring components.
//!
//! * **Cache Refresher** — "updates cached resources if and when they
//!   change on the source Grid site. Outdated resources are discarded
//!   automatically" (§3.2). Change detection compares the origin's
//!   current `LastUpdateTime` against the cached EPR's.
//! * **Deployment Status Monitor** — "checks the status of each locally
//!   registered activity deployment and updates its resource and endpoint
//!   reference" (§3.2): a heartbeat that bumps LUTs while the artifact is
//!   healthy, marks it failed when the installation vanished, and
//!   restores it when a later probe finds it healthy again.
//! * **Index Monitor** — probes each site's type registry against the
//!   community index and publishes how far they have diverged.
//! * **Migration** — "if a deployment fails on one site, it can be moved
//!   to another site" (§3.3): failed deployments are re-provisioned on
//!   another eligible site and dropped from the failing one.
//!
//! Every monitor is also a telemetry *producer*: each pass publishes
//! labeled counters/histograms/gauges into [`Grid::metrics`] and
//! structured records into [`Grid::events`] (see DESIGN.md §"Health
//! telemetry" for the family and record catalogue). Publication is
//! observe-only — it never changes what a pass decides.

use std::collections::BTreeSet;

use glare_fabric::{SimTime, SiteId};
use glare_services::ChannelKind;

use crate::cache::Freshness;
use crate::error::GlareError;
use crate::grid::Grid;
use crate::model::{DeploymentAccess, DeploymentStatus};
use crate::rdm::deploy_manager::{install_with_dependencies, InstallReport};

/// Result of one cache-refresh pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Entries inspected.
    pub checked: usize,
    /// Entries revived with fresher origin state.
    pub revived: usize,
    /// Entries evicted because the origin no longer has them.
    pub evicted: usize,
    /// Entries discarded for age.
    pub discarded: usize,
}

/// The Cache Refresher of one site.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheRefresher;

impl CacheRefresher {
    /// Run one refresh pass for `site`'s cache against the origins.
    ///
    /// Publishes the LUT-staleness distribution of every inspected copy
    /// (`glare_cache_staleness_ms{site}`), per-outcome refresh counters
    /// (`glare_cache_refresh_total{site,outcome}`), the post-pass entry
    /// count gauge (`glare_cache_entries{site}`) and one `cache.evicted` /
    /// `cache.discarded` event per dropped entry.
    pub fn refresh(grid: &mut Grid, site: usize, now: SimTime) -> RefreshReport {
        let mut report = RefreshReport::default();
        let site_id = Some(SiteId(site as u32));
        let mut origins = grid.site(site).cache.deployment_origins();
        // Deterministic pass order (the cache map is hash-ordered), so
        // emitted events and recorded samples replay byte-identically.
        origins.sort();
        let outcome = |grid: &mut Grid, o: &str, n: u64| {
            grid.count(site, "glare_cache_refresh_total", Some(("outcome", o)), n);
        };
        for (key, origin_name) in origins {
            report.checked += 1;
            if let Some(age) = grid.site(site).cache.age_of(&key, now) {
                grid.observe(site, "glare_cache_staleness_ms", age);
            }
            let Some(origin_idx) = grid.site_index(&origin_name) else {
                grid.site_mut(site).cache.evict_deployment(&key);
                report.evicted += 1;
                outcome(grid, "evicted", 1);
                grid.events.emit(
                    now,
                    "cache.evicted",
                    site_id,
                    "rdm.cache_refresher",
                    &[("key", &key), ("origin", &origin_name), ("reason", "origin unknown")],
                );
                continue;
            };
            match grid.site(origin_idx).adr.epr_of(&key, now) {
                None => {
                    // Origin destroyed the resource.
                    grid.site_mut(site).cache.evict_deployment(&key);
                    report.evicted += 1;
                    outcome(grid, "evicted", 1);
                    grid.events.emit(
                        now,
                        "cache.evicted",
                        site_id,
                        "rdm.cache_refresher",
                        &[("key", &key), ("origin", &origin_name), ("reason", "origin destroyed")],
                    );
                }
                Some(current) => {
                    if grid.site(site).cache.freshness(&key, &current)
                        == Some(Freshness::Stale)
                    {
                        if let Some(resp) = grid.site(origin_idx).adr.lookup(&key, now) {
                            grid.site_mut(site)
                                .cache
                                .revive_deployment(resp.value, current, now);
                            report.revived += 1;
                            outcome(grid, "revived", 1);
                        }
                    } else {
                        outcome(grid, "fresh", 1);
                    }
                }
            }
        }
        let discarded_keys = grid.site_mut(site).cache.discard_outdated_keys(now);
        report.discarded = discarded_keys.len();
        if !discarded_keys.is_empty() {
            outcome(grid, "discarded", discarded_keys.len() as u64);
            for key in &discarded_keys {
                grid.events.emit(
                    now,
                    "cache.discarded",
                    site_id,
                    "rdm.cache_refresher",
                    &[("key", key), ("reason", "outdated")],
                );
            }
        }
        let entries = grid.site(site).cache.len() as f64;
        grid.set_gauge(site, "glare_cache_entries", None, now, entries);
        report
    }
}

/// Result of one status-monitor pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Deployments inspected.
    pub checked: usize,
    /// Healthy deployments touched (LUT bumped).
    pub touched: usize,
    /// Deployments newly marked failed.
    pub failed: Vec<String>,
    /// Previously failed deployments restored by a healthy probe.
    pub restored: Vec<String>,
}

/// The Deployment Status Monitor of one site.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeploymentStatusMonitor;

impl DeploymentStatusMonitor {
    /// Check every deployment registered at `site` against the host's
    /// actual state.
    ///
    /// A deployment whose probe fails flips to [`DeploymentStatus::Failed`]
    /// (degraded); a failed deployment whose later probe succeeds is
    /// restored to [`DeploymentStatus::Available`]. Each probe's cost is
    /// recorded into `glare_probe_latency_ms{site}`; the pass publishes
    /// per-status deployment gauges (`glare_deployments{site,status}`),
    /// the availability ratio (`glare_deployment_availability{site}`) and
    /// `deployment.degraded` / `deployment.restored` events.
    pub fn run(grid: &mut Grid, site: usize, now: SimTime) -> StatusReport {
        let mut report = StatusReport::default();
        let site_id = Some(SiteId(site as u32));
        let mut keys = grid.site(site).adr.keys(now);
        keys.sort();
        let mut tally = [0u64; 3]; // available, unavailable, failed
        for key in keys {
            report.checked += 1;
            let Some(resp) = grid.site(site).adr.lookup(&key, now) else {
                continue;
            };
            grid.observe(site, "glare_probe_latency_ms", resp.cost);
            let healthy = match &resp.value.access {
                DeploymentAccess::Executable { path, .. } => {
                    let host = &grid.site(site).host;
                    host.vfs
                        .read_file(&glare_services::vfs::VPath::new(path))
                        .map(|f| f.executable)
                        .unwrap_or(false)
                }
                DeploymentAccess::Service { address } => {
                    // Service health = still running in the container.
                    grid.site(site)
                        .host
                        .running_services()
                        .iter()
                        .any(|s| address.contains(s.as_str()))
                }
            };
            let was_failed = resp.value.status == DeploymentStatus::Failed;
            let s = grid.site_mut(site);
            let status = if healthy {
                if was_failed {
                    let _ = s.adr.set_status(&key, DeploymentStatus::Available, now);
                    grid.events.emit(
                        now,
                        "deployment.restored",
                        site_id,
                        "rdm.status_monitor",
                        &[("key", &key)],
                    );
                    report.restored.push(key);
                } else {
                    let _ = s.adr.touch(&key, now);
                    report.touched += 1;
                }
                DeploymentStatus::Available
            } else if !was_failed {
                let _ = s.adr.set_status(&key, DeploymentStatus::Failed, now);
                grid.events.emit(
                    now,
                    "deployment.degraded",
                    site_id,
                    "rdm.status_monitor",
                    &[("key", &key), ("reason", "probe failed")],
                );
                report.failed.push(key);
                DeploymentStatus::Failed
            } else {
                DeploymentStatus::Failed
            };
            match status {
                DeploymentStatus::Available => tally[0] += 1,
                DeploymentStatus::Unavailable => tally[1] += 1,
                DeploymentStatus::Failed => tally[2] += 1,
            }
        }
        let by_status = [("available", tally[0]), ("unavailable", tally[1]), ("failed", tally[2])];
        for (status, n) in by_status {
            grid.set_gauge(site, "glare_deployments", Some(("status", status)), now, n as f64);
        }
        if report.checked > 0 {
            let availability = tally[0] as f64 / report.checked as f64;
            grid.set_gauge(site, "glare_deployment_availability", None, now, availability);
        }
        report
    }

    /// Migrate every *failed* deployment at `site` to another eligible
    /// site: install the type there, then drop the failed record.
    ///
    /// Each successful re-provision is logged as a `deploy.retried` event
    /// (the deployment's installation was retried on a new site).
    pub fn migrate_failed(
        grid: &mut Grid,
        site: usize,
        channel: ChannelKind,
        now: SimTime,
    ) -> Result<Vec<InstallReport>, GlareError> {
        let mut keys = grid.site(site).adr.keys(now);
        keys.sort();
        let site_id = Some(SiteId(site as u32));
        let mut installs = Vec::new();
        for key in keys {
            let Some(resp) = grid.site(site).adr.lookup(&key, now) else {
                continue;
            };
            if resp.value.status != DeploymentStatus::Failed {
                continue;
            }
            let type_name = resp.value.type_name.clone();
            // If a usable deployment of the type already exists on another
            // site (e.g. an earlier key of this pass migrated the package),
            // just drop the failed record.
            if grid
                .deployments_anywhere(&type_name, now)
                .iter()
                .any(|(i, _)| *i != site)
            {
                let _ = grid.remove_deployment(site, &key, now);
                continue;
            }
            let Some((t, _, _)) = grid.find_type(site, &type_name, now) else {
                continue;
            };
            let eligible: Vec<usize> = grid
                .eligible_sites(&t, now)
                .into_iter()
                .filter(|&i| i != site)
                .collect();
            let Some(&target) = eligible.first() else {
                continue; // nowhere to go; keep the failed record visible
            };
            let before = installs.len();
            let mut visiting = std::collections::HashSet::new();
            install_with_dependencies(grid, &t, target, channel, now, &mut visiting, &mut installs, None)?;
            for inst in &installs[before..] {
                grid.events.emit(
                    now,
                    "deploy.retried",
                    site_id,
                    "rdm.status_monitor",
                    &[
                        ("type", &inst.type_name),
                        ("from", &Grid::site_label(site)),
                        ("to", &inst.site),
                    ],
                );
            }
            let _ = grid.remove_deployment(site, &key, now);
        }
        Ok(installs)
    }
}

/// Result of one index-monitor pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexReport {
    /// Sites compared against the community index.
    pub sites: usize,
    /// Sites whose type registry diverges from the index.
    pub divergent_sites: usize,
    /// Largest per-site divergence (symmetric-difference size).
    pub max_divergence: usize,
}

/// The Index Monitor: probes each site's type registry against the
/// community index (the GT4 Default Index of the paper, here the
/// index-hosting site's ATR) and publishes how far they diverge.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexMonitor;

impl IndexMonitor {
    /// Compare every site's ATR against the community index at
    /// `index_site`.
    ///
    /// Divergence of a site is the symmetric difference between its type
    /// names and the index's — types the index advertises that the site
    /// has not yet learned, plus types registered locally that never made
    /// it into the index. Publishes `glare_index_divergence{site}` and
    /// `glare_registry_types{site}` gauges and an `index.diverged` event
    /// per divergent site.
    pub fn run(grid: &mut Grid, index_site: usize, now: SimTime) -> IndexReport {
        let mut report = IndexReport::default();
        let index_names: BTreeSet<String> =
            grid.site(index_site).atr.names(now).into_iter().collect();
        for i in 0..grid.len() {
            report.sites += 1;
            let local: BTreeSet<String> = grid.site(i).atr.names(now).into_iter().collect();
            let divergence = index_names.symmetric_difference(&local).count();
            grid.set_gauge(i, "glare_index_divergence", None, now, divergence as f64);
            grid.set_gauge(i, "glare_registry_types", None, now, local.len() as f64);
            if divergence > 0 {
                report.divergent_sites += 1;
                report.max_divergence = report.max_divergence.max(divergence);
                grid.events.emit(
                    now,
                    "index.diverged",
                    Some(SiteId(i as u32)),
                    "rdm.index_monitor",
                    &[("divergence", &divergence.to_string())],
                );
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::example_hierarchy;
    use crate::rdm::deploy_manager::{provision, ProvisionRequest};
    use glare_fabric::Labels;
    use glare_services::vfs::VPath;
    use glare_services::Transport;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn provisioned_grid() -> Grid {
        let mut g = Grid::new(3, Transport::Http);
        for ty in example_hierarchy(SimTime::ZERO) {
            g.register_type(0, ty, t(0)).unwrap();
        }
        provision(
            &mut g,
            &ProvisionRequest {
                activity: "Wien2k".into(),
                client: "c".into(),
                channel: ChannelKind::Expect,
                from_site: 1,
                preferred_site: Some(0),
            },
            t(1),
        )
        .unwrap();
        g
    }

    #[test]
    fn status_monitor_touches_healthy() {
        let mut g = provisioned_grid();
        let r = DeploymentStatusMonitor::run(&mut g, 0, t(100));
        assert!(r.checked >= 3, "wien2k registers 3 executables");
        assert_eq!(r.touched, r.checked);
        assert!(r.failed.is_empty());
        assert!(r.restored.is_empty());
        // Telemetry: one probe-latency sample per key, availability 1.0.
        let labels = Labels::of(&[("site", "site0")]);
        let h = g
            .metrics
            .histogram_labeled_ref("glare_probe_latency_ms", &labels)
            .unwrap();
        assert_eq!(h.count(), r.checked);
        assert_eq!(
            g.metrics
                .gauge_ref("glare_deployment_availability", &labels)
                .unwrap()
                .latest(),
            Some(1.0)
        );
    }

    #[test]
    fn status_monitor_detects_lost_install() {
        let mut g = provisioned_grid();
        // Destroy the installation behind the registry's back.
        g.site_mut(0).host.uninstall("wien2k").unwrap();
        let r = DeploymentStatusMonitor::run(&mut g, 0, t(100));
        assert_eq!(r.failed.len(), 3);
        // Registry no longer offers them.
        assert!(g.site(0).adr.deployments_of("Wien2k", t(101)).value.is_empty());
        assert_eq!(g.events.of_kind("deployment.degraded").count(), 3);
        let labels = Labels::of(&[("site", "site0"), ("status", "failed")]);
        assert_eq!(
            g.metrics.gauge_ref("glare_deployments", &labels).unwrap().latest(),
            Some(3.0)
        );
    }

    #[test]
    fn status_monitor_degrades_then_restores_on_probe_outcomes() {
        let mut g = provisioned_grid();
        // Find one executable deployment at site 0 and break its probe by
        // clearing the executable bit (a transient fault, unlike an
        // uninstall).
        let keys = g.site(0).adr.keys(t(99));
        let key = keys.first().unwrap().clone();
        let d = g.site(0).adr.lookup(&key, t(99)).unwrap().value;
        let DeploymentAccess::Executable { path, .. } = d.access else {
            panic!("wien2k deploys executables");
        };
        let vpath = VPath::new(&path);
        g.site_mut(0).host.vfs.chmod_exec(&vpath, false).unwrap();

        // Failed probe flips the deployment to degraded.
        let r1 = DeploymentStatusMonitor::run(&mut g, 0, t(100));
        assert_eq!(r1.failed, vec![key.clone()]);
        assert_eq!(
            g.site(0).adr.lookup(&key, t(100)).unwrap().value.status,
            DeploymentStatus::Failed
        );

        // A successful probe restores it.
        g.site_mut(0).host.vfs.chmod_exec(&vpath, true).unwrap();
        let r2 = DeploymentStatusMonitor::run(&mut g, 0, t(200));
        assert_eq!(r2.restored, vec![key.clone()]);
        assert!(r2.failed.is_empty());
        assert_eq!(
            g.site(0).adr.lookup(&key, t(200)).unwrap().value.status,
            DeploymentStatus::Available
        );
        assert_eq!(g.events.of_kind("deployment.degraded").count(), 1);
        assert_eq!(g.events.of_kind("deployment.restored").count(), 1);
        // Offered again after restoration.
        assert_eq!(g.site(0).adr.deployments_of("Wien2k", t(201)).value.len(), 3);
    }

    #[test]
    fn migration_moves_failed_deployments() {
        let mut g = provisioned_grid();
        g.site_mut(0).host.uninstall("wien2k").unwrap();
        DeploymentStatusMonitor::run(&mut g, 0, t(100));
        let installs =
            DeploymentStatusMonitor::migrate_failed(&mut g, 0, ChannelKind::Expect, t(101))
                .unwrap();
        assert_eq!(installs.len(), 1);
        assert_ne!(installs[0].site, "site0.agrid.example");
        // New deployments live elsewhere; failed ones removed at site0.
        let anywhere = g.deployments_anywhere("Wien2k", t(102));
        assert_eq!(anywhere.len(), 3);
        assert!(anywhere.iter().all(|(i, _)| *i != 0));
        assert_eq!(g.events.of_kind("deploy.retried").count(), 1);
    }

    #[test]
    fn cache_refresher_revives_stale_entries() {
        let mut g = provisioned_grid();
        // Site 1 cached the references during provisioning.
        assert!(!g.site(1).cache.is_empty());
        let keys: Vec<String> = g
            .site(1)
            .cache
            .deployment_origins()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        // Origin bumps its LUT (status monitor heartbeat).
        for k in &keys {
            g.site_mut(0).adr.touch(k, t(50)).unwrap();
        }
        let r = CacheRefresher::refresh(&mut g, 1, t(60));
        assert_eq!(r.checked, keys.len());
        assert_eq!(r.revived, keys.len(), "all entries were stale");
        // A second pass finds everything fresh.
        let r2 = CacheRefresher::refresh(&mut g, 1, t(61));
        assert_eq!(r2.revived, 0);
        // Outcome counters mirror the reports.
        let revived = Labels::of(&[("site", "site1"), ("outcome", "revived")]);
        let fresh = Labels::of(&[("site", "site1"), ("outcome", "fresh")]);
        assert_eq!(
            g.metrics.counter_labeled_value("glare_cache_refresh_total", &revived),
            keys.len() as u64
        );
        assert_eq!(
            g.metrics.counter_labeled_value("glare_cache_refresh_total", &fresh),
            keys.len() as u64
        );
        // Staleness sampled once per inspected entry per pass.
        let h = g
            .metrics
            .histogram_labeled_ref("glare_cache_staleness_ms", &Labels::of(&[("site", "site1")]))
            .unwrap();
        assert_eq!(h.count(), 2 * keys.len());
    }

    #[test]
    fn cache_refresher_evicts_destroyed_origins() {
        let mut g = provisioned_grid();
        let keys: Vec<String> = g
            .site(1)
            .cache
            .deployment_origins()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for k in &keys {
            g.site_mut(0).adr.remove(k).unwrap();
        }
        let r = CacheRefresher::refresh(&mut g, 1, t(60));
        assert_eq!(r.evicted, keys.len());
        assert_eq!(g.site(1).cache.len(), 0);
        assert_eq!(g.events.of_kind("cache.evicted").count(), keys.len());
    }

    #[test]
    fn cache_refresher_discards_aged_entries() {
        let mut g = provisioned_grid();
        let n = g.site(1).cache.len();
        assert!(n > 0);
        // Far beyond DEFAULT_CACHE_AGE without refresh opportunities:
        // origin EPRs unchanged, so nothing revives, and age wins.
        let r = CacheRefresher::refresh(&mut g, 1, t(100_000));
        assert_eq!(r.discarded, n);
    }

    #[test]
    fn cache_refresher_discards_stale_lut_entry_and_logs_it() {
        let mut g = provisioned_grid();
        let keys: Vec<String> = g
            .site(1)
            .cache
            .deployment_origins()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert!(!keys.is_empty());
        // Let the copies age past DEFAULT_CACHE_AGE with no origin LUT
        // movement: the refresher must discard them as outdated and say so
        // in the event log, one record per entry, deterministically keyed.
        let r = CacheRefresher::refresh(&mut g, 1, t(10_000));
        assert_eq!(r.discarded, keys.len());
        assert!(g.site(1).cache.is_empty());
        let discarded: Vec<&str> = g
            .events
            .of_kind("cache.discarded")
            .map(|e| e.fields.iter().find(|(k, _)| k == "key").unwrap().1.as_str())
            .collect();
        let mut expected: Vec<String> = keys.clone();
        expected.sort();
        assert_eq!(discarded, expected.iter().map(String::as_str).collect::<Vec<_>>());
        // The staleness histogram saw the (large) ages.
        let h = g
            .metrics
            .histogram_labeled_ref("glare_cache_staleness_ms", &Labels::of(&[("site", "site1")]))
            .unwrap();
        assert!(h.max().unwrap() >= glare_fabric::SimDuration::from_secs(9_000));
    }

    #[test]
    fn index_monitor_reports_divergence() {
        let mut g = provisioned_grid();
        // All types were registered at site 0 only; sites 1 and 2 learned
        // Wien2k's chain during provisioning but not the whole hierarchy.
        let r = IndexMonitor::run(&mut g, 0, t(10));
        assert_eq!(r.sites, 3);
        assert!(r.divergent_sites >= 1, "non-index sites lag the index");
        assert!(r.max_divergence >= 1);
        let d0 = g
            .metrics
            .gauge_ref("glare_index_divergence", &Labels::of(&[("site", "site0")]))
            .unwrap()
            .latest();
        assert_eq!(d0, Some(0.0), "the index site never diverges from itself");
        assert!(g.events.of_kind("index.diverged").count() >= 1);
        assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
    }
}
