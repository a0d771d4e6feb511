//! Workspace integration: the full registration → discovery → deployment
//! → provisioning → leasing lifecycle across crates.

use glare::core::grid::Grid;
use glare::core::lease::LeaseKind;
use glare::core::model::{example_hierarchy, ActivityType, DeploymentStatus, InstallConstraints};
use glare::core::rdm::deploy_manager::{provision, ProvisionRequest};
use glare::core::rdm::monitors::{CacheRefresher, DeploymentStatusMonitor};
use glare::core::rdm::request_manager::{DiscoverySource, RequestManager};
use glare::core::GlareError;
use glare::fabric::SimTime;
use glare::services::{ChannelKind, Transport};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn vo(n: usize) -> Grid {
    let mut g = Grid::new(n, Transport::Http);
    for ty in example_hierarchy(t(0)) {
        g.register_type(0, ty, t(0)).unwrap();
    }
    g
}

fn req(activity: &str, from: usize) -> ProvisionRequest {
    ProvisionRequest {
        activity: activity.into(),
        client: "it".into(),
        channel: ChannelKind::Expect,
        from_site: from,
        preferred_site: None,
    }
}

#[test]
fn provision_then_lease() {
    let mut g = vo(3);
    let out = provision(&mut g, &req("Wien2k", 1), t(1)).unwrap();
    let (site, d) = out.deployments[0].clone();

    // Lease the deployment exclusively, then verify authorization.
    let ticket = g
        .site_mut(site)
        .leases
        .acquire(&d.key, "alice", LeaseKind::Exclusive, t(10), t(100))
        .unwrap();
    assert!(g.site(site).leases.authorized(&d.key, "alice", t(50)));
    assert!(g.site(site).leases.blocked_for(&d.key, "bob", t(50)));
    assert!(g
        .site_mut(site)
        .leases
        .acquire(&d.key, "bob", LeaseKind::Shared, t(20), t(60))
        .is_err());
    g.site_mut(site).leases.release(ticket.id).unwrap();
}

#[test]
fn discovery_ladder_local_cache_remote() {
    let mut g = vo(4);
    provision(&mut g, &req("Invmod", 0), t(1)).unwrap();
    let install_site = g
        .site_indices()
        .find(|&i| g.site(i).host.is_installed("invmod"))
        .unwrap();

    let rm = RequestManager::new(true);
    // From the hosting site: local.
    let local = rm
        .list_deployments(&mut g, install_site, "Invmod", t(2))
        .unwrap();
    assert_eq!(local.source, DiscoverySource::LocalRegistry);

    // From a different site: remote, then cached.
    let other = (0..4).find(|&i| i != install_site).unwrap();
    let remote = rm.list_deployments(&mut g, other, "Invmod", t(3)).unwrap();
    assert_eq!(remote.source, DiscoverySource::RemoteSite(install_site));
    let cached = rm.list_deployments(&mut g, other, "Invmod", t(4)).unwrap();
    assert_eq!(cached.source, DiscoverySource::LocalCache);
    assert!(cached.cost < remote.cost);
}

#[test]
fn monitor_detects_loss_and_migrates_then_cache_refreshes() {
    let mut g = vo(3);
    provision(&mut g, &req("Wien2k", 1), t(1)).unwrap();
    let site = g
        .site_indices()
        .find(|&i| g.site(i).host.is_installed("wien2k"))
        .unwrap();

    // Wipe the install behind the registry's back; the monitor notices.
    g.site_mut(site).host.uninstall("wien2k").unwrap();
    let status = DeploymentStatusMonitor::run(&mut g, site, t(10));
    assert_eq!(status.failed.len(), 3);

    // Migration reinstalls elsewhere.
    let installs =
        DeploymentStatusMonitor::migrate_failed(&mut g, site, ChannelKind::Expect, t(11)).unwrap();
    assert_eq!(installs.len(), 1);
    let new_site = g.site_index(&installs[0].site).unwrap();
    assert_ne!(new_site, site);

    // The requester's cache still holds stale site references; a refresh
    // pass evicts them (origin destroyed the resources).
    let r = CacheRefresher::refresh(&mut g, 1, t(12));
    assert!(r.checked > 0);
}

#[test]
fn constraints_route_installs_to_compatible_sites() {
    let mut g = vo(3);
    // Make sites 0 and 1 incompatible.
    g.site_mut(0).host.platform = glare::fabric::Platform::new("SPARC", "Solaris", "64bit");
    g.site_mut(1).host.platform = glare::fabric::Platform::new("PowerPC", "AIX", "64bit");
    let ty = ActivityType::concrete_type("Picky", "d", "invmod")
        .with_constraints(InstallConstraints::intel_linux_32());
    g.register_type(0, ty, t(0)).unwrap();
    let out = provision(&mut g, &req("Picky", 0), t(1)).unwrap();
    assert_eq!(out.installs[0].site, "site2.agrid.example");

    // No compatible site at all.
    g.site_mut(2).host.platform = glare::fabric::Platform::new("MIPS", "IRIX", "64bit");
    let ty2 = ActivityType::concrete_type("Pickier", "d", "wien2k")
        .with_constraints(InstallConstraints::intel_linux_32());
    g.register_type(0, ty2, t(2)).unwrap();
    assert!(matches!(
        provision(&mut g, &req("Pickier", 0), t(3)),
        Err(GlareError::NoEligibleSite { .. })
    ));
}

#[test]
fn deployment_limits_enforced_across_vo() {
    let mut g = vo(3);
    let ty = ActivityType::concrete_type("Capped", "d", "wien2k").with_limits(0, 1);
    g.register_type(0, ty, t(0)).unwrap();
    let first = provision(&mut g, &req("Capped", 0), t(1)).unwrap();
    assert_eq!(first.installs.len(), 1);
    // Mark them failed so discovery can't reuse, then retry: the limit
    // forbids a second install.
    let keys: Vec<(usize, String)> = first
        .deployments
        .iter()
        .map(|(i, d)| (*i, d.key.clone()))
        .collect();
    for (i, k) in keys {
        g.site_mut(i)
            .adr
            .set_status(&k, DeploymentStatus::Failed, t(2))
            .unwrap();
    }
    // deployments_anywhere skips failed ones; eligibility counts them via
    // count_of (usable only) — but the host still has the package, which
    // also blocks reinstall on that site; other sites are blocked by the
    // max=1 limit only if count_of counts... usable=0 now, so a reinstall
    // is permitted on a *different* site. Verify it lands elsewhere.
    let second = provision(&mut g, &req("Capped", 0), t(3)).unwrap();
    if let Some(install) = second.installs.first() {
        assert_ne!(install.site, first.installs[0].site);
    }
}

#[test]
fn notifications_recorded_for_failures_and_success() {
    let mut g = vo(2);
    provision(&mut g, &req("Counter", 0), t(1)).unwrap();
    // Success notifications for java + counter.
    assert!(g.notifications.len() >= 2);
    assert!(g.notifications.iter().all(|n| !n.site.is_empty()));
}

#[test]
fn wsrf_layer_visible_through_registries() {
    let mut g = vo(2);
    provision(&mut g, &req("Imaging", 0), t(1)).unwrap();
    let site = g
        .site_indices()
        .find(|&i| g.site(i).host.is_installed("jpovray"))
        .unwrap();
    // EPR carries the LUT; touching bumps it (Fig. 6 semantics).
    let key = g.site(site).adr.keys(t(2))[0].clone();
    let epr1 = g.site(site).adr.epr_of(&key).unwrap();
    g.site_mut(site).adr.touch(&key, t(5)).unwrap();
    let epr2 = g.site(site).adr.epr_of(&key).unwrap();
    assert!(epr2.is_newer_than(&epr1));
    // And the XML form carries the bumped LUT.
    let xml = epr2.to_xml();
    let lut = epr2.last_update_time.as_nanos().to_string();
    let props = xml.first_child("ReferenceProperties").unwrap();
    assert_eq!(props.child_text_of("LastUpdateTime"), Some(lut.as_str()));
}
