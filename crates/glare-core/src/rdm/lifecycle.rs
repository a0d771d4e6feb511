//! Activity lifecycle extensions beyond the SC'05 prototype.
//!
//! The paper's §6 lists two planned features: "we are considering to add
//! features of un-deployment and generation of wrapper services for
//! legacy code by integrating with the Otho toolkit". Both are
//! implemented here:
//!
//! * [`undeploy`] — the inverse of on-demand deployment: deregister the
//!   deployments, uninstall the package from the host, optionally retire
//!   the type itself.
//! * [`generate_wrapper_service`] — Otho-style: given an *executable*
//!   deployment, synthesize a Grid/web service that wraps its invocation
//!   and register it as a sibling deployment of the same concrete type
//!   (the executable/WS-JPOVray duality of Fig. 2, manufactured on
//!   demand).

use glare_fabric::{SimDuration, SimTime};

use crate::error::GlareError;
use crate::grid::Grid;
use crate::model::{ActivityDeployment, DeploymentAccess};

/// Cost of a wrapper-service generation + container deployment.
pub(crate) const WRAPPER_GENERATION_COST: SimDuration = SimDuration::from_millis(4_200);

/// Report of one un-deployment.
#[derive(Clone, Debug)]
pub struct UndeployReport {
    /// Deployment keys removed, with the site they were removed from.
    pub removed: Vec<(String, String)>,
    /// Packages uninstalled from hosts.
    pub uninstalled: Vec<(String, String)>,
    /// Whether the type entry itself was retired.
    pub type_retired: bool,
}

/// Remove a type's deployments across the VO (or on one site only).
///
/// Honors the §3.3 lifecycle rule that providers control registrations:
/// the caller is the provider's RDM. With `retire_type`, the type entry
/// is destroyed everywhere too; otherwise it stays discoverable for
/// future on-demand installs.
pub fn undeploy(
    grid: &mut Grid,
    type_name: &str,
    only_site: Option<usize>,
    retire_type: bool,
    now: SimTime,
) -> Result<UndeployReport, GlareError> {
    // §3.2: "The GLARE ensures that a leased activity remains available
    // ... during the leased timeframe" — refuse to remove deployments
    // with active leases.
    let guard_sites: Vec<usize> = match only_site {
        Some(i) => vec![i],
        None => grid.site_indices().collect(),
    };
    for i in guard_sites {
        for k in grid.site(i).adr.keys(now) {
            let is_ours = grid
                .site(i)
                .adr
                .lookup(&k, now)
                .is_some_and(|r| r.value.type_name == type_name);
            if is_ours && !grid.site(i).leases.active_leases(&k, now).is_empty() {
                return Err(GlareError::LeaseDenied {
                    deployment: k,
                    reason: "cannot undeploy a leased activity".into(),
                });
            }
        }
    }
    let mut report = UndeployReport {
        removed: Vec::new(),
        uninstalled: Vec::new(),
        type_retired: false,
    };
    let mut found_any = false;
    let sites: Vec<usize> = match only_site {
        Some(i) => vec![i],
        None => grid.site_indices().collect(),
    };
    for i in sites {
        let site_name = grid.site(i).name.clone();
        // Deregister deployments of the type at this site.
        let keys: Vec<String> = grid
            .site(i)
            .adr
            .keys(now)
            .into_iter()
            .filter(|k| {
                grid.site(i)
                    .adr
                    .lookup(k, now)
                    .is_some_and(|r| r.value.type_name == type_name)
            })
            .collect();
        let mut package = None;
        for k in &keys {
            found_any = true;
            if grid.remove_deployment(i, k, now) {
                report.removed.push((k.clone(), site_name.clone()));
            }
        }
        // Uninstall the backing package from the host.
        if let Some(t) = grid.site(i).atr.lookup(type_name, now).map(|r| r.value) {
            package = t.installation.as_ref().map(|inst| inst.package.clone());
        }
        if let Some(pkg) = package {
            if !keys.is_empty() && grid.site_mut(i).host.uninstall(&pkg).is_some() {
                report.uninstalled.push((pkg, site_name.clone()));
            }
        }
        // Evict stale cached references everywhere.
        for j in grid.site_indices().collect::<Vec<_>>() {
            for k in &keys {
                grid.site_mut(j).cache.evict_deployment(k);
            }
        }
        if retire_type {
            let _ = grid.remove_type(i, type_name, now);
        }
    }
    if retire_type {
        report.type_retired = true;
    }
    if !found_any && !retire_type {
        return Err(GlareError::NotFound {
            what: format!("deployments of {type_name}"),
        });
    }
    Ok(report)
}

/// Generate a wrapper Grid/web service around an executable deployment
/// (the planned Otho-toolkit integration).
///
/// The wrapper runs in the site's WSRF container under the name
/// `WS-<executable>` and is registered as a *service* deployment of the
/// same concrete type, so schedulers preferring services (cf.
/// `SelectionPolicy::PreferService`) can use legacy codes transparently.
pub fn generate_wrapper_service(
    grid: &mut Grid,
    site: usize,
    deployment_key: &str,
    now: SimTime,
) -> Result<(ActivityDeployment, SimDuration), GlareError> {
    let d = grid
        .site(site)
        .adr
        .lookup(deployment_key, now)
        .ok_or_else(|| GlareError::NotFound {
            what: format!("deployment {deployment_key}"),
        })?
        .value;
    let DeploymentAccess::Executable { path, .. } = &d.access else {
        return Err(GlareError::InvalidType {
            name: deployment_key.to_owned(),
            reason: "wrapper generation needs an executable deployment".into(),
        });
    };
    let exe_name = path.rsplit('/').next().unwrap_or("app").to_owned();
    let service_name = format!("WS-{exe_name}");
    let site_name = grid.site(site).name.clone();

    // Deploy the generated wrapper into the container.
    grid.site_mut(site)
        .host
        .record_install(glare_services::InstallRecord {
            package: format!("{exe_name}-wrapper"),
            home: glare_services::vfs::VPath::new(&format!(
                "/opt/globus/services/{service_name}"
            )),
            executables: Vec::new(),
            services: vec![service_name.clone()],
        });
    let address = grid
        .site(site)
        .host
        .service_address(&service_name)
        .expect("just installed");
    let wrapper = ActivityDeployment::service(&d.type_name, &site_name, &service_name, &address);
    grid.register_deployment(site, wrapper.clone(), now)?;
    Ok((wrapper, WRAPPER_GENERATION_COST))
}

/// Enforce provider *minimum* deployment counts (§3.3: "a provider can
/// also specify minimum and maximum limits of deployments of an activity
/// and the GLARE system ensures to fulfil the implied constraints").
/// For every registered concrete type whose usable deployment count is
/// below `limits.min`, install on additional eligible sites until the
/// minimum holds (or no eligible site remains). Returns the installs
/// performed.
pub fn enforce_min_deployments(
    grid: &mut Grid,
    channel: glare_services::ChannelKind,
    now: SimTime,
) -> Result<Vec<crate::rdm::deploy_manager::InstallReport>, GlareError> {
    let mut installs = Vec::new();
    // Collect the type inventory across the VO (dedup by name).
    let mut names: Vec<String> = Vec::new();
    for i in grid.site_indices().collect::<Vec<_>>() {
        for n in grid.site(i).atr.names() {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    for name in names {
        let Some((t, _, _)) = grid.find_type(0, &name, now) else {
            continue;
        };
        if !t.is_deployable() || t.limits.min == 0 {
            continue;
        }
        loop {
            let usable = grid.deployments_anywhere(&t.name, now).len() as u32;
            if usable >= t.limits.min {
                break;
            }
            let eligible = grid.eligible_sites(&t);
            let Some(&site) = eligible.first() else {
                break; // nowhere left to install; best effort
            };
            let mut visiting = std::collections::HashSet::new();
            crate::rdm::deploy_manager::install_with_dependencies(
                grid,
                &t,
                site,
                channel,
                now,
                &mut visiting,
                &mut installs,
                None,
            )?;
        }
    }
    Ok(installs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::example_hierarchy;
    use crate::rdm::deploy_manager::{provision, ProvisionRequest};
    use glare_services::{ChannelKind, Transport};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn provisioned(activity: &str) -> (Grid, usize) {
        let mut g = Grid::new(3, Transport::Http);
        for ty in example_hierarchy(t(0)) {
            g.register_type(0, ty, t(0)).unwrap();
        }
        let out = provision(
            &mut g,
            &ProvisionRequest {
                activity: activity.into(),
                client: "t".into(),
                channel: ChannelKind::Expect,
                from_site: 1,
                preferred_site: Some(2),
            },
            t(1),
        )
        .unwrap();
        let site = out.deployments[0].0;
        (g, site)
    }

    #[test]
    fn undeploy_removes_everything() {
        let (mut g, site) = provisioned("Wien2k");
        assert!(g.site(site).host.is_installed("wien2k"));
        let report = undeploy(&mut g, "Wien2k", None, false, t(10)).unwrap();
        assert_eq!(report.removed.len(), 3, "three wien2k executables");
        assert_eq!(report.uninstalled.len(), 1);
        assert!(!report.type_retired);
        assert!(!g.site(site).host.is_installed("wien2k"));
        assert!(g.deployments_anywhere("Wien2k", t(11)).is_empty());
        // Type still discoverable; a re-provision reinstalls.
        let again = provision(
            &mut g,
            &ProvisionRequest {
                activity: "Wien2k".into(),
                client: "t".into(),
                channel: ChannelKind::Expect,
                from_site: 0,
                preferred_site: None,
            },
            t(12),
        )
        .unwrap();
        assert_eq!(again.installs.len(), 1);
    }

    #[test]
    fn undeploy_with_retirement_removes_type() {
        let (mut g, _site) = provisioned("Wien2k");
        let report = undeploy(&mut g, "Wien2k", None, true, t(10)).unwrap();
        assert!(report.type_retired);
        for i in g.site_indices().collect::<Vec<_>>() {
            assert!(!g.site(i).atr.contains("Wien2k"));
        }
        assert!(provision(
            &mut g,
            &ProvisionRequest {
                activity: "Wien2k".into(),
                client: "t".into(),
                channel: ChannelKind::Expect,
                from_site: 0,
                preferred_site: None,
            },
            t(12),
        )
        .is_err());
    }

    #[test]
    fn undeploy_single_site_leaves_others() {
        let (mut g, site) = provisioned("Wien2k");
        // Install on a second site too (mark first's deployments failed so
        // provisioning installs fresh elsewhere is complex; install
        // directly instead).
        let other = g.site_indices().find(|&i| i != site).unwrap();
        let (ty, _, _) = g.find_type(0, "Wien2k", t(2)).unwrap();
        let mut visiting = std::collections::HashSet::new();
        let mut reports = Vec::new();
        crate::rdm::deploy_manager::install_with_dependencies(
            &mut g,
            &ty,
            other,
            ChannelKind::Expect,
            t(3),
            &mut visiting,
            &mut reports,
            None,
        )
        .unwrap();
        assert_eq!(g.deployments_anywhere("Wien2k", t(4)).len(), 6);
        undeploy(&mut g, "Wien2k", Some(site), false, t(5)).unwrap();
        let left = g.deployments_anywhere("Wien2k", t(6));
        assert_eq!(left.len(), 3);
        assert!(left.iter().all(|(i, _)| *i == other));
    }

    #[test]
    fn undeploy_unknown_type_errors() {
        let (mut g, _) = provisioned("Wien2k");
        assert!(matches!(
            undeploy(&mut g, "Ghost", None, false, t(10)),
            Err(GlareError::NotFound { .. })
        ));
    }

    #[test]
    fn leased_deployments_cannot_be_undeployed() {
        use crate::lease::LeaseKind;
        let (mut g, site) = provisioned("Wien2k");
        let key = g.site(site).adr.keys(t(2))[0].clone();
        g.site_mut(site)
            .leases
            .acquire(&key, "alice", LeaseKind::Shared, t(0), t(100))
            .unwrap();
        let err = undeploy(&mut g, "Wien2k", None, false, t(10)).unwrap_err();
        assert!(matches!(err, GlareError::LeaseDenied { .. }));
        assert!(g.site(site).host.is_installed("wien2k"), "nothing removed");
        // After the lease lapses, undeploy proceeds.
        g.site_mut(site).leases.sweep_expired(t(100));
        undeploy(&mut g, "Wien2k", None, false, t(101)).unwrap();
        assert!(!g.site(site).host.is_installed("wien2k"));
    }

    #[test]
    fn min_deployment_limits_enforced() {
        use crate::model::ActivityType;
        let mut g = Grid::new(4, Transport::Http);
        for ty in example_hierarchy(t(0)) {
            g.register_type(0, ty, t(0)).unwrap();
        }
        g.register_type(
            0,
            // wien2k registers three executables per install, so min=7
            // requires installs on three distinct sites (3+3+3 >= 7).
            ActivityType::concrete_type("Redundant", "d", "wien2k").with_limits(7, 20),
            t(0),
        )
        .unwrap();
        let installs =
            enforce_min_deployments(&mut g, ChannelKind::Expect, t(1)).unwrap();
        assert_eq!(installs.len(), 3, "three sites provisioned");
        let dep_sites: std::collections::HashSet<usize> = g
            .deployments_anywhere("Redundant", t(2))
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(dep_sites.len(), 3, "spread over distinct sites");
        // Idempotent once satisfied.
        let again = enforce_min_deployments(&mut g, ChannelKind::Expect, t(3)).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn min_enforcement_is_best_effort_when_sites_run_out() {
        use crate::model::ActivityType;
        let mut g = Grid::new(2, Transport::Http);
        g.register_type(
            0,
            ActivityType::concrete_type("Greedy", "d", "wien2k").with_limits(7, 20),
            t(0),
        )
        .unwrap();
        let installs = enforce_min_deployments(&mut g, ChannelKind::Expect, t(1)).unwrap();
        assert_eq!(installs.len(), 2, "only two sites exist");
    }

    #[test]
    fn wrapper_service_generated_for_executable() {
        let (mut g, site) = provisioned("Wien2k");
        let key = g
            .site(site)
            .adr
            .keys(t(2))
            .into_iter()
            .find(|k| k.starts_with("lapw0"))
            .unwrap();
        let (wrapper, cost) = generate_wrapper_service(&mut g, site, &key, t(3)).unwrap();
        assert_eq!(cost, WRAPPER_GENERATION_COST);
        assert_eq!(wrapper.access.category(), "service");
        assert_eq!(wrapper.type_name, "Wien2k");
        assert!(wrapper.key.starts_with("WS-lapw0"));
        // It is now a sibling deployment of the same type.
        let all = g.site(site).adr.deployments_of("Wien2k", t(4)).value;
        assert_eq!(all.len(), 4);
        assert!(g
            .site(site)
            .host
            .running_services()
            .contains(&"WS-lapw0".to_owned()));
    }

    #[test]
    fn wrapper_requires_executable() {
        let (mut g, site) = provisioned("Counter");
        let key = g
            .site(site)
            .adr
            .keys(t(2))
            .into_iter()
            .find(|k| k.starts_with("CounterService"))
            .unwrap();
        assert!(matches!(
            generate_wrapper_service(&mut g, site, &key, t(3)),
            Err(GlareError::InvalidType { .. })
        ));
        assert!(matches!(
            generate_wrapper_service(&mut g, site, "ghost@site9", t(3)),
            Err(GlareError::NotFound { .. })
        ));
    }
}
