//! The Deployment Manager: on-demand, dependency-resolving automatic
//! installation (§2.2's walkthrough, §3.4's mechanics).
//!
//! Given a requested activity (possibly an abstract type), the manager
//! reproduces the paper's discovery-request procedure:
//!
//! 1. iterative lookup of concrete types in the VO;
//! 2. if deployments exist anywhere, return their references;
//! 3. otherwise pick an eligible target site (constraints + limits),
//!    resolve the dependency closure (Java/Ant before JPOVray), and for
//!    each missing package: fetch the deploy-file, plan it, and execute
//!    the plan through a deployment channel (Expect or JavaCoG);
//! 4. identify the produced executables/services, register the type and
//!    its deployments on the target site, and notify.
//!
//! Every phase's cost is accounted in a [`CostBreakdown`] whose rows are
//! exactly Table 1's.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use glare_fabric::trace::count_attr;
use glare_fabric::{FieldValue, SimDuration, SimTime, SiteId, SpanKind, TraceContext, TraceSink};
use glare_services::gridftp;
use glare_services::vfs::VPath;
use glare_services::ChannelKind;
use glare_services::{run_expect_traced, ExpectError, ExpectScript, Md5Digest, ShellSession};

use crate::deployfile::{PackagePlan, PlannedAction};
use crate::error::GlareError;
use crate::grid::{Grid, Lost};
use crate::model::{ActivityDeployment, ActivityType, InstallMode};
use crate::retry::ATTEMPT_TIMEOUT;

/// Cost of adding a new activity type to a site's registries, including
/// deploy-file retrieval and validation (Table 1 "Activity Type Addition"
/// ≈ 633 ms).
pub(crate) const TYPE_ADDITION_COST: SimDuration = SimDuration::from_millis(630);

/// Cost of registering the produced deployments of one installation
/// (Table 1 "Activity Deployment Registration" ≈ 350 ms).
pub(crate) const DEPLOYMENT_REGISTRATION_COST: SimDuration = SimDuration::from_millis(350);

/// Per-phase costs matching Table 1's rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// "Activity Type Addition".
    pub type_addition: SimDuration,
    /// "Communication Overhead" (file transfers).
    pub communication: SimDuration,
    /// "Activity Installation/Deployment" (unpack/configure/build/install).
    pub installation: SimDuration,
    /// "Activity Deployment Registration".
    pub deployment_registration: SimDuration,
    /// "Notification".
    pub notification: SimDuration,
    /// "Expect Overhead" / "JavaCoG Overhead".
    pub channel_overhead: SimDuration,
}

impl CostBreakdown {
    /// "Total overhead for meta-scheduler".
    pub fn total(&self) -> SimDuration {
        self.type_addition
            + self.communication
            + self.installation
            + self.deployment_registration
            + self.notification
            + self.channel_overhead
    }
}

/// Record of one package installed on one site.
#[derive(Clone, Debug)]
pub struct InstallReport {
    /// Activity type installed.
    pub type_name: String,
    /// Target site name.
    pub site: String,
    /// Package deployed.
    pub package: String,
    /// Cost rows.
    pub breakdown: CostBreakdown,
}

/// A provisioning request from a client (scheduler/enactment engine).
#[derive(Clone, Debug)]
pub struct ProvisionRequest {
    /// Requested activity type (abstract or concrete name).
    pub activity: String,
    /// Requesting client identity.
    pub client: String,
    /// Deployment channel to use for installs.
    pub channel: ChannelKind,
    /// Site the client talks to (its local GLARE service).
    pub from_site: usize,
    /// Preferred install target, if any.
    pub preferred_site: Option<usize>,
}

/// Outcome of provisioning.
#[derive(Clone, Debug)]
pub struct ProvisionOutcome {
    /// Usable deployments of the requested activity: `(site index, record)`.
    pub deployments: Vec<(usize, ActivityDeployment)>,
    /// Installs performed (empty when deployments already existed).
    pub installs: Vec<InstallReport>,
    /// End-to-end cost charged to the client.
    pub total_cost: SimDuration,
}

/// Provision an activity: discover, and deploy on demand if needed.
///
/// The whole request becomes one trace in `grid.trace`: an
/// `rdm.provision` root span with one `deploy.install` child per package
/// installed, each carrying one child span per deploy-file step plus the
/// service calls (GridFTP transfers, Expect dialogs) those steps make.
pub fn provision(
    grid: &mut Grid,
    req: &ProvisionRequest,
    now: SimTime,
) -> Result<ProvisionOutcome, GlareError> {
    let root = grid.trace.open(
        None,
        "rdm.provision",
        SpanKind::Request,
        Some(SiteId(req.from_site as u32)),
        None,
        now,
    );
    grid.trace.attr(root.span_id, "activity", req.activity.clone());
    grid.trace.attr(root.span_id, "client", req.client.clone());
    let out = provision_inner(grid, req, now, root);
    match &out {
        Ok(o) => {
            grid.trace
                .attr(root.span_id, "installs", count_attr(o.installs.len()));
            grid.trace.close(root.span_id, now + o.total_cost);
        }
        Err(e) => {
            grid.trace.attr(root.span_id, "error", e.to_string());
            grid.trace.close(root.span_id, now);
        }
    }
    out
}

fn provision_inner(
    grid: &mut Grid,
    req: &ProvisionRequest,
    now: SimTime,
    root: TraceContext,
) -> Result<ProvisionOutcome, GlareError> {
    let (candidates, lookup_cost) =
        grid.resolve_concrete(req.from_site, &req.activity, ActivityType::clone);
    let mut total_cost = lookup_cost;
    if candidates.is_empty() {
        return Err(GlareError::NotFound {
            what: format!("concrete type for {}", req.activity),
        });
    }

    // Existing deployments anywhere in the VO satisfy the request.
    for t in &candidates {
        let found = grid.deployments_anywhere(&t.name, now);
        if !found.is_empty() {
            // Cache the references at the client's local site.
            cache_remote(grid, req.from_site, cacheable(&found), now);
            total_cost += SimDuration::from_millis(2) * found.len() as u64;
            return Ok(ProvisionOutcome {
                deployments: found,
                installs: Vec::new(),
                total_cost,
            });
        }
    }

    // No deployment exists: install the first deployable candidate.
    let target_type = candidates
        .iter()
        .find(|t| t.is_deployable())
        .ok_or_else(|| GlareError::NotFound {
            what: format!("deployable concrete type for {}", req.activity),
        })?
        .clone();

    let eligible = grid.eligible_sites(&target_type);
    let site = match req.preferred_site {
        Some(p) if eligible.contains(&p) => p,
        Some(_) | None => *eligible.first().ok_or(GlareError::NoEligibleSite {
            type_name: target_type.name.clone(),
        })?,
    };

    let installs = install_under(grid, &target_type, site, req.channel, now, Some(root))?;
    total_cost += installs.iter().map(|r| r.breakdown.total()).sum();

    let deployments = grid.deployments_anywhere(&target_type.name, now);
    cache_remote(grid, req.from_site, cacheable(&deployments), now);
    Ok(ProvisionOutcome {
        deployments,
        installs,
        total_cost,
    })
}

/// Copies of `found` the cache can share.
fn cacheable(
    found: &[(usize, ActivityDeployment)],
) -> impl Iterator<Item = (usize, Arc<ActivityDeployment>)> + '_ {
    found.iter().map(|(i, d)| (*i, Arc::new(d.clone())))
}

/// Cache remote deployment references at a site (shared with the
/// Request Manager).
pub(crate) fn cache_remote(
    grid: &mut Grid,
    from_site: usize,
    found: impl Iterator<Item = (usize, Arc<ActivityDeployment>)>,
    now: SimTime,
) {
    for (i, d) in found {
        if let Some(epr) = grid.site(i).adr.epr_of(&d.key) {
            let origin = grid.site(i).name.clone();
            grid.site_mut(from_site)
                .cache
                .put_deployment(d, &origin, epr, now);
        }
    }
}

/// Install `t` on `site` through `channel`, dependencies first (§2.2: Java
/// and Ant before JPOVray; one already installed there is skipped).
/// Returns one report per package installed, in install order. Each
/// package's `deploy.install` span starts a trace of its own.
pub fn install(
    grid: &mut Grid,
    t: &ActivityType,
    site: usize,
    channel: ChannelKind,
    now: SimTime,
) -> Result<Vec<InstallReport>, GlareError> {
    install_under(grid, t, site, channel, now, None)
}

/// [`install`], chaining each package's `deploy.install` span under
/// `parent` (`None` starts a fresh trace per package).
fn install_under(
    grid: &mut Grid,
    t: &ActivityType,
    site: usize,
    channel: ChannelKind,
    now: SimTime,
    parent: Option<TraceContext>,
) -> Result<Vec<InstallReport>, GlareError> {
    let (visiting, reports) = (HashSet::new(), Vec::new());
    let mut closure = Closure { site, channel, now, parent, visiting, reports };
    closure.visit(grid, t)?;
    Ok(closure.reports)
}

/// A dependency-closure install in progress: where, how and when it
/// installs, the span its packages chain under, the types on the path from
/// the requested one down (meeting one again is a cycle), and the packages
/// installed so far.
struct Closure {
    site: usize,
    channel: ChannelKind,
    now: SimTime,
    parent: Option<TraceContext>,
    visiting: HashSet<String>,
    reports: Vec<InstallReport>,
}

impl Closure {
    /// Depth-first: install `t`'s missing dependencies, then `t`. An error
    /// ends the whole closure.
    fn visit(&mut self, grid: &mut Grid, t: &ActivityType) -> Result<(), GlareError> {
        if !self.visiting.insert(t.name.clone()) {
            let mut path: Vec<String> = self.visiting.iter().cloned().collect();
            path.sort();
            path.push(t.name.clone());
            return Err(GlareError::DependencyCycle { path });
        }
        let inst = t.installation.as_ref().ok_or_else(|| GlareError::InvalidType {
            name: t.name.clone(),
            reason: "abstract types cannot be installed".into(),
        })?;
        if inst.mode == InstallMode::Manual {
            let site_name = grid.site(self.site).name.clone();
            let reason = "manual installation required";
            grid.notify_admin(self.site, &t.name, reason, &t.provider_contact);
            return Err(GlareError::ManualInstallRequired {
                type_name: t.name.clone(),
                site: site_name,
            });
        }
        if !inst.constraints.accepts(&grid.site(self.site).host.platform) {
            return Err(GlareError::NoEligibleSite {
                type_name: t.name.clone(),
            });
        }
        for dep_name in &t.dependencies {
            let dep = grid.find_type(self.site, dep_name, self.now).ok_or_else(|| {
                GlareError::NotFound {
                    what: format!("dependency type {dep_name}"),
                }
            })?;
            let host = &grid.site(self.site).host;
            if !dep.installation.as_ref().is_some_and(|i| host.is_installed(&i.package)) {
                self.visit(grid, &dep)?;
            }
        }
        let report = self.install_package(grid, t)?;
        self.reports.push(report);
        self.visiting.remove(&t.name);
        Ok(())
    }

    /// Install the one package of `t` (checked installable by `visit`) on
    /// the closure's site, producing the Table 1 cost rows. Records a
    /// `deploy.install` span (one child per deploy-file step) into
    /// `grid.trace`, parented under the closure's span. An early error
    /// return leaves its `deploy.install` (and `deploy.step`) span open:
    /// nothing on the `Grid` path calls [`TraceSink::finish`], so such spans
    /// stay in [`TraceSink::open_spans`] for the Grid's life and never reach
    /// `spans()` or an export.
    fn install_package(
        &self,
        grid: &mut Grid,
        t: &ActivityType,
    ) -> Result<InstallReport, GlareError> {
        let (site, channel, now) = (self.site, self.channel, self.now);
        let inst = t.installation.as_ref().expect("checked by caller");
        let site_name = grid.site(site).name.clone();
        let spec = glare_services::packages::by_name(&inst.package).ok_or_else(|| {
            GlareError::InstallFailed {
                type_name: t.name.clone(),
                site: site_name.clone(),
                detail: format!("unknown package {}", inst.package),
            }
        })?;
        let site_id = Some(SiteId(site as u32));
        let (parent, kind) = (self.parent, SpanKind::Service);
        let span = grid.trace.open(parent, "deploy.install", kind, site_id, None, now);
        grid.trace.attr(span.span_id, "type", t.name.clone());
        grid.trace.attr(span.span_id, "package", spec.name.as_str());
        let mut install = Install {
            t,
            site,
            site_name,
            channel,
            site_id,
            span,
            session: grid.site(site).host.open_session(),
            at: now + channel.fixed_overhead(),
            breakdown: CostBreakdown {
                channel_overhead: channel.fixed_overhead(),
                ..CostBreakdown::default()
            },
        };

        // Dynamic type registration at the target site (+ deploy-file fetch
        // and validation).
        if !grid.site(site).atr.contains(&t.name) {
            grid.register_type(site, t.clone(), now)?;
        }
        let trace = &mut grid.trace;
        install.charge(trace, |b| &mut b.type_addition, "type.register", TYPE_ADDITION_COST, []);

        // The package's deploy-file, planned once per archive digest: the
        // session just opened is in the default environment it was planned in.
        let plan = PackagePlan::shared(spec, grid.repo.md5_of(&spec.archive_url))?;
        for action in &plan.actions {
            install.wait_out_fault(grid, action)?;
            match action {
                PlannedAction::Transfer {
                    url,
                    destination,
                    md5,
                    ..
                } => install.transfer(grid, action, url, destination, *md5)?,
                PlannedAction::Shell {
                    command, workdir, ..
                } => install.shell(grid, action, command, workdir, &plan.file.dialog)?,
            }
        }

        install.register_deployments(grid, &spec.name, now)?;
        let cost = grid.notify_admin(site, &t.name, "activity deployed", &t.provider_contact);
        install.charge(&mut grid.trace, |b| &mut b.notification, "notify.admin", cost, []);
        grid.trace.close(span.span_id, install.at);

        Ok(InstallReport {
            type_name: t.name.clone(),
            site: install.site_name,
            package: spec.name.clone(),
            breakdown: install.breakdown,
        })
    }
}

/// One package install in progress: what goes where, the `deploy.install`
/// span its steps chain under, and the cost rows charged so far.
struct Install<'a> {
    t: &'a ActivityType,
    site: usize,
    site_name: String,
    channel: ChannelKind,
    site_id: Option<SiteId>,
    span: TraceContext,
    session: ShellSession,
    /// Virtual-clock cursor: each charged cost row advances it, laying the
    /// step spans out sequentially the way the cost model charges them.
    at: SimTime,
    breakdown: CostBreakdown,
}

impl Install<'_> {
    /// Charge `cost` to the row `row` picks, record it as a `name` span at
    /// the cursor, and move the cursor past it.
    fn charge(
        &mut self,
        trace: &mut TraceSink,
        row: fn(&mut CostBreakdown) -> &mut SimDuration,
        name: &'static str,
        cost: SimDuration,
        attrs: impl IntoIterator<Item = (&'static str, Cow<'static, str>)>,
    ) {
        *row(&mut self.breakdown) += cost;
        let (parent, end) = (Some(self.span), self.at + cost);
        trace.record(parent, name, SpanKind::Service, self.site_id, None, self.at, end, attrs);
        self.at = end;
    }

    /// Open the `deploy.step` span of a plan step at the cursor.
    fn open_step(&self, trace: &mut TraceSink, step: &str, action: &'static str) -> TraceContext {
        let (parent, site) = (Some(self.span), self.site_id);
        let sspan = trace.open(parent, "deploy.step", SpanKind::Service, site, None, self.at);
        trace.attr(sspan.span_id, "step", step.to_owned());
        trace.attr(sspan.span_id, "action", action);
        sspan
    }

    /// A plan step failed for `reason`: publish `deploy.step_failed` and
    /// build the error that ends the install with `detail`.
    fn step_failed(&self, grid: &mut Grid, step: &str, reason: &str, detail: String) -> GlareError {
        grid.events.emit(
            self.at,
            "deploy.step_failed",
            self.site_id,
            "rdm.deploy_manager",
            [
                ("type", self.t.name.clone()),
                ("step", step.to_owned()),
                ("reason", reason.to_owned()),
            ],
        );
        self.failed(detail)
    }

    /// The error that ends this install, saying why in `detail`.
    fn failed(&self, detail: String) -> GlareError {
        GlareError::InstallFailed {
            type_name: self.t.name.clone(),
            site: self.site_name.clone(),
            detail,
        }
    }

    fn check_timeout(&self, action: &PlannedAction, cost: SimDuration) -> Result<(), GlareError> {
        let (step, timeout_secs) = (action.step_name(), action.timeout_secs());
        if timeout_secs > 0 && cost > SimDuration::from_secs(timeout_secs) {
            let detail = format!("step {step} exceeded its {timeout_secs}s timeout (took {cost})");
            return Err(self.failed(detail));
        }
        Ok(())
    }

    /// Step-granular recovery: a transient outage of the target site costs
    /// the attempt timeout, then the step — and only the step — is retried
    /// with backoff, resuming the plan from where it stopped. Only steps
    /// flagged idempotent may be rerun; a non-idempotent step interrupted
    /// mid-flight fails the install. With the fault injector inert the
    /// guard never fires.
    fn wait_out_fault(
        &mut self,
        grid: &mut Grid,
        action: &PlannedAction,
    ) -> Result<(), GlareError> {
        let (site, step, start) = (self.site, action.step_name(), self.at);
        let mut lost = Lost::default();
        while grid.attempt_lost(site) {
            grid.attempt_timed_out(site, "deploy", ATTEMPT_TIMEOUT, &mut lost);
            self.at = start + lost.elapsed;
            self.breakdown.channel_overhead += ATTEMPT_TIMEOUT;
            // No breaker guards a deploy step, and only an idempotent one
            // is ever granted another attempt.
            let granted = if action.is_idempotent() {
                grid.back_off(site, &mut lost)
                    .ok_or_else(|| format!("site unreachable after {} attempts", lost.attempts))
            } else {
                Err("transient failure on a non-idempotent step".to_owned())
            };
            if let Err(reason) = granted {
                return Err(self.step_failed(grid, step, &reason, format!("step {step}: {reason}")));
            }
            grid.events.emit(
                self.at,
                "deploy.step_retried",
                self.site_id,
                "rdm.deploy_manager",
                [
                    ("type", FieldValue::from(self.t.name.clone())),
                    ("step", step.to_owned().into()),
                    ("attempt", u64::from(lost.attempts + 1).into()),
                ],
            );
            self.at = start + lost.elapsed;
        }
        Ok(())
    }

    /// A transfer step: fetch `url` to `destination` on the target host.
    fn transfer(
        &mut self,
        grid: &mut Grid,
        action: &PlannedAction,
        url: &str,
        destination: &str,
        md5: Option<Md5Digest>,
    ) -> Result<(), GlareError> {
        let sspan = self.open_step(&mut grid.trace, action.step_name(), "transfer");
        let receipt = gridftp::download_traced(
            &grid.repo,
            url,
            &mut grid.sites[self.site].host,
            &VPath::new(destination),
            grid.link,
            md5,
            &mut grid.trace,
            Some(sspan),
            self.at,
        )?;
        let cost = receipt.cost.mul_f64(self.channel.transfer_cost_factor())
            + self.channel.transfer_extra_setup();
        self.check_timeout(action, cost)?;
        self.breakdown.communication += cost;
        self.at += cost;
        grid.trace.close(sspan.span_id, self.at);
        Ok(())
    }

    /// A shell step: run `command` in `workdir` through the expect dialog.
    fn shell(
        &mut self,
        grid: &mut Grid,
        action: &PlannedAction,
        command: &str,
        workdir: &str,
        dialog: &ExpectScript,
    ) -> Result<(), GlareError> {
        let step = action.step_name();
        let sspan = self.open_step(&mut grid.trace, step, "shell");
        let (host, trace) = (&mut grid.sites[self.site].host, &mut grid.trace);
        // Enter the step's working directory (create it if the deploy-file
        // expects it, as Fig. 9's Init step does).
        if !host.enter_dir(&mut self.session, workdir) {
            trace.attr(sspan.span_id, "error", "1");
            trace.close(sspan.span_id, self.at);
            let reason = format!("cannot enter {workdir}");
            return Err(self.step_failed(grid, step, &reason, format!("step {step}: {reason}")));
        }
        let session = &mut self.session;
        match run_expect_traced(host, session, command, dialog, trace, Some(sspan), self.at) {
            Ok(out) => {
                self.check_timeout(action, out.result.cost)?;
                self.breakdown.installation += out.result.cost;
                let step_over = self.channel.step_overhead(out.result.cost);
                self.breakdown.channel_overhead += step_over;
                self.at += out.result.cost + step_over;
                trace.close(sspan.span_id, self.at);
                Ok(())
            }
            Err(e) => {
                trace.attr(sspan.span_id, "error", "1");
                trace.close(sspan.span_id, self.at);
                // §3.4: failure notifies the target administrator.
                grid.notify_admin(
                    self.site,
                    &self.t.name,
                    &format!("installation failed at step {step}"),
                    &self.t.provider_contact,
                );
                let detail = match e {
                    ExpectError::UnmatchedPrompt { prompt } => {
                        format!("step {step}: unanswered prompt {prompt:?}")
                    }
                    ExpectError::CommandFailed(r) => {
                        format!("step {step}: exit {}: {}", r.exit_code, r.stdout)
                    }
                };
                Err(self.step_failed(grid, step, &detail, detail.clone()))
            }
        }
    }

    /// Identify the produced deployments — the install record's
    /// executables and services, or a bin/ exploration fallback (§3.4) —
    /// register them, and charge the registration.
    fn register_deployments(
        &mut self,
        grid: &mut Grid,
        package: &str,
        now: SimTime,
    ) -> Result<(), GlareError> {
        let host = &grid.site(self.site).host;
        let record = host.installation(package).cloned().ok_or_else(|| {
            self.failed("plan completed but package not recorded as installed".into())
        })?;
        let (type_name, site_name) = (&self.t.name, &self.site_name);
        let mut executables = record.executables.clone();
        if executables.is_empty() && record.services.is_empty() {
            executables = host.vfs.find_executables(&record.home);
        }
        let home = record.home.as_str();
        let mut deployments: Vec<ActivityDeployment> = executables
            .iter()
            .map(|exe| ActivityDeployment::executable(type_name, site_name, exe.as_str(), home))
            .collect();
        for svc in &record.services {
            let address = host
                .service_address(svc)
                .unwrap_or_else(|| format!("https://{site_name}:8084/wsrf/services/{svc}"));
            deployments.push(ActivityDeployment::service(type_name, site_name, svc, &address));
        }

        let n = deployments.len();
        for d in deployments {
            // Type is present (registered above); tolerate re-registration
            // of the same key on repeated installs. Goes through the Grid so
            // the registration is journaled when the site is durable.
            let _ = grid.register_deployment(self.site, d, now);
        }
        let reg_cost = DEPLOYMENT_REGISTRATION_COST + SimDuration::from_millis(2) * n as u64;
        let attrs = [("keys", count_attr(n))];
        let trace = &mut grid.trace;
        self.charge(trace, |b| &mut b.deployment_registration, "adr.register", reg_cost, attrs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployfile::DeployFile;
    use crate::grid::Grid;
    use crate::model::example_hierarchy;
    use glare_services::Transport;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn grid() -> Grid {
        let mut g = Grid::new(3, Transport::Http);
        for ty in example_hierarchy(SimTime::ZERO) {
            g.register_type(0, ty, t(0)).unwrap();
        }
        g
    }

    fn req(activity: &str, from: usize) -> ProvisionRequest {
        ProvisionRequest {
            activity: activity.to_owned(),
            client: "scheduler".into(),
            channel: ChannelKind::Expect,
            from_site: from,
            preferred_site: None,
        }
    }

    #[test]
    fn end_to_end_jpovray_with_dependencies() {
        let mut g = grid();
        // Request the *abstract* type from a different site (§2.2 flow).
        let out = provision(&mut g, &req("ImageConversion", 1), t(1));
        assert!(out.is_err(), "unknown abstract type");
        let out = provision(&mut g, &req("Imaging", 1), t(1)).unwrap();
        // Dependencies installed in order: java, ant, then jpovray.
        let order: Vec<&str> = out.installs.iter().map(|r| r.package.as_str()).collect();
        assert_eq!(order, vec!["java", "ant", "jpovray"]);
        // JPOVray produced both an executable and the WS-JPOVray service.
        let cats: Vec<&str> = out
            .deployments
            .iter()
            .map(|(_, d)| d.access.category())
            .collect();
        assert!(cats.contains(&"executable"));
        assert!(cats.contains(&"service"));
        // All on the same (first eligible) site.
        let target = out.installs[0].site.clone();
        assert!(out.installs.iter().all(|r| r.site == target));
        assert!(out.total_cost > SimDuration::from_secs(5));
    }

    /// A revoked type is not deployable, so no closure installs it as a
    /// dependency: with `Java` revoked at the one site that registered it,
    /// JPOVray's closure finds no `Java` to install.
    #[test]
    fn a_revoked_dependency_is_not_found() {
        let mut g = grid();
        g.sites[0].atr.update("Java", t(1), |ty| ty.revoked = true).unwrap();
        let err = provision(&mut g, &req("JPOVray", 0), t(2)).unwrap_err();
        assert!(
            matches!(&err, GlareError::NotFound { what } if what.contains("Java")),
            "{err:?}"
        );
        assert!((0..g.len()).all(|i| !g.site(i).host.is_installed("java")));
    }

    #[test]
    fn second_request_reuses_deployments() {
        let mut g = grid();
        let first = provision(&mut g, &req("Imaging", 1), t(1)).unwrap();
        assert!(!first.installs.is_empty());
        let second = provision(&mut g, &req("POVray", 2), t(2)).unwrap();
        assert!(second.installs.is_empty(), "no new install needed");
        assert_eq!(second.deployments.len(), first.deployments.len());
        assert!(
            second.total_cost < first.total_cost / 10,
            "reuse must be far cheaper: {} vs {}",
            second.total_cost,
            first.total_cost
        );
        // The requesting site cached the references.
        assert!(g.site(2).cache.len() >= 2);
    }

    #[test]
    fn breakdown_rows_populated() {
        let mut g = grid();
        let out = provision(&mut g, &req("Wien2k", 0), t(1)).unwrap();
        assert_eq!(out.installs.len(), 1);
        let b = &out.installs[0].breakdown;
        assert_eq!(b.type_addition, TYPE_ADDITION_COST);
        assert!(b.communication > SimDuration::from_millis(500), "21 MB transfer");
        assert!(b.installation >= SimDuration::from_millis(8_000), "unpack+install");
        assert!(b.deployment_registration >= DEPLOYMENT_REGISTRATION_COST);
        assert_eq!(b.notification, crate::grid::NOTIFICATION_COST);
        assert!(b.channel_overhead >= ChannelKind::Expect.fixed_overhead());
        assert_eq!(
            b.total(),
            b.type_addition
                + b.communication
                + b.installation
                + b.deployment_registration
                + b.notification
                + b.channel_overhead
        );
    }

    #[test]
    fn javacog_total_exceeds_expect_total() {
        let mut g1 = grid();
        let mut g2 = grid();
        let e = provision(&mut g1, &req("Invmod", 0), t(1)).unwrap();
        let mut r = req("Invmod", 0);
        r.channel = ChannelKind::JavaCog;
        let c = provision(&mut g2, &r, t(1)).unwrap();
        let et = e.installs[0].breakdown.total();
        let ct = c.installs[0].breakdown.total();
        assert!(ct > et, "JavaCoG {ct} must exceed Expect {et}");
        assert_eq!(
            e.installs[0].breakdown.installation,
            c.installs[0].breakdown.installation,
            "intrinsic work identical"
        );
    }

    #[test]
    fn manual_mode_notifies_admin() {
        let mut g = grid();
        let mut manual = ActivityType::concrete_type("ManualApp", "d", "wien2k");
        manual.installation.as_mut().unwrap().mode = InstallMode::Manual;
        manual.provider_contact = "provider@example.org".into();
        g.register_type(0, manual, t(0)).unwrap();
        let err = provision(&mut g, &req("ManualApp", 0), t(1)).unwrap_err();
        assert!(matches!(err, GlareError::ManualInstallRequired { .. }));
        assert_eq!(g.notifications.len(), 1);
        assert_eq!(g.notifications[0].provider_contact, "provider@example.org");
    }

    #[test]
    fn unsatisfiable_constraints_fail() {
        let mut g = grid();
        let ty = ActivityType::concrete_type("Exotic", "d", "wien2k").with_constraints(
            crate::model::InstallConstraints {
                os: Some("IRIX".into()),
                ..Default::default()
            },
        );
        g.register_type(0, ty, t(0)).unwrap();
        let err = provision(&mut g, &req("Exotic", 0), t(1)).unwrap_err();
        assert!(matches!(err, GlareError::NoEligibleSite { .. }));
    }

    #[test]
    fn dependency_cycle_detected() {
        let mut g = grid();
        g.register_type(
            0,
            ActivityType::concrete_type("CycA", "d", "wien2k").depends_on("CycB"),
            t(0),
        )
        .unwrap();
        g.register_type(
            0,
            ActivityType::concrete_type("CycB", "d", "invmod").depends_on("CycA"),
            t(0),
        )
        .unwrap();
        let err = provision(&mut g, &req("CycA", 0), t(1)).unwrap_err();
        assert!(matches!(err, GlareError::DependencyCycle { .. }), "{err}");
    }

    #[test]
    fn preferred_site_honored_when_eligible() {
        let mut g = grid();
        let mut r = req("Wien2k", 0);
        r.preferred_site = Some(2);
        let out = provision(&mut g, &r, t(1)).unwrap();
        assert_eq!(out.installs[0].site, "site2.agrid.example");
    }

    #[test]
    fn transient_faults_retried_per_step() {
        let mut base_grid = grid();
        let base = provision(&mut base_grid, &req("Wien2k", 0), t(1)).unwrap();
        let mut g = grid();
        g.faults = crate::grid::FaultInjector::seeded(42, 0.25);
        let out = provision(&mut g, &req("Wien2k", 0), t(1)).unwrap();
        assert_eq!(
            out.deployments.len(),
            base.deployments.len(),
            "installation converges despite transient losses"
        );
        let retried = g.events.of_kind("deploy.step_retried").count();
        assert!(retried > 0, "seeded loss must hit at least one step");
        assert!(
            out.total_cost > base.total_cost,
            "timed-out attempts and backoff are charged"
        );
        assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn non_idempotent_step_fails_fast_on_transient_fault() {
        // A GAR deploy (Counter) has a non-idempotent Deploy step; under
        // heavy loss the install must fail explicitly rather than rerun it.
        let mut g = grid();
        g.faults = crate::grid::FaultInjector::seeded(7, 0.95);
        let err = provision(&mut g, &req("Counter", 0), t(1)).unwrap_err();
        assert!(
            matches!(err, GlareError::InstallFailed { .. } | GlareError::SiteUnavailable { .. }),
            "{err}"
        );
        assert!(g.events.of_kind("deploy.step_failed").count() <= 1);
    }

    #[test]
    fn failed_install_leaves_its_spans_open_and_later_spans_close_behind_them() {
        let mut g = grid();
        g.repo = glare_services::gridftp::Repository::new(); // nothing to download
        let err = provision(&mut g, &req("Wien2k", 0), t(1)).unwrap_err();
        assert!(matches!(err, GlareError::Transfer(_)), "{err}");
        // The transfer's `?` returned past both closes; nothing on the Grid
        // path calls `finish`, so the two spans stay open and unexported.
        let open = |g: &Grid| -> Vec<String> {
            g.trace.open_spans().iter().map(|s| s.name.to_string()).collect()
        };
        assert_eq!(open(&g), ["deploy.install", "deploy.step"]);
        let stored = g.trace.len();
        // The next request's spans open behind the stale pair and each is
        // closed from the back of the open list: the pair is never walked,
        // never moved, never stored.
        let rm = crate::rdm::request_manager::RequestManager::new(true);
        assert!(rm.list_deployments(&mut g, 1, "Wien2k", t(2)).is_err(), "nothing was deployed");
        assert_eq!(open(&g), ["deploy.install", "deploy.step"]);
        assert!(g.trace.len() >= stored + 4, "request, resolution, registry and cache rungs closed");
        let stale: Vec<_> = g.trace.open_spans().iter().map(|s| s.span_id).collect();
        assert!(g.trace.spans().iter().all(|s| !stale.contains(&s.span_id)));
    }

    /// A Fig. 9-style deploy-file rooted in a directory whose name holds a
    /// space: every step must run in that directory, not in the prefix
    /// before the space.
    #[test]
    fn step_workdir_with_a_space_is_entered_whole() {
        let xml = r#"
          <Build baseDir="/scratch/my build" defaultTask="Deploy" name="Spaced">
            <Step name="Init" task="mkdir-p" timeout="10">
              <Property name="argument" value="out"/>
            </Step>
          </Build>"#;
        let file = DeployFile::from_xml(&glare_wsrf::parse_xml(xml).unwrap()).unwrap();
        let plan = file.plan(glare_services::SiteHost::default_env()).unwrap();
        let (mut g, ty) = (grid(), ActivityType::concrete_type("Spaced", "d", "wien2k"));
        let mut install = Install {
            t: &ty,
            site: 0,
            site_name: g.site(0).name.clone(),
            channel: ChannelKind::Expect,
            site_id: Some(SiteId(0)),
            span: g.trace.open(None, "deploy.install", SpanKind::Service, None, None, t(1)),
            session: g.site(0).host.open_session(),
            at: t(1),
            breakdown: CostBreakdown::default(),
        };
        for action in &plan {
            let PlannedAction::Shell {
                command, workdir, ..
            } = action
            else {
                unreachable!()
            };
            install
                .shell(&mut g, action, command, workdir, &file.dialog)
                .unwrap();
        }
        let vfs = &g.site(0).host.vfs;
        assert_eq!(install.session.cwd, VPath::new("/scratch/my build"));
        assert!(
            vfs.is_dir(&VPath::new("/scratch/my build/out")),
            "Init ran in the spaced dir"
        );
        assert!(
            !vfs.exists(&VPath::new("/scratch/my")),
            "nothing was split at the space"
        );
    }

    #[test]
    fn counter_service_deployment() {
        let mut g = grid();
        let out = provision(&mut g, &req("Counter", 0), t(1)).unwrap();
        // java dependency first, then the gar.
        let pkgs: Vec<&str> = out.installs.iter().map(|r| r.package.as_str()).collect();
        assert_eq!(pkgs, vec!["java", "counter"]);
        let (_, d) = &out.deployments[0];
        assert_eq!(d.access.category(), "service");
        assert!(matches!(
            &d.access,
            crate::model::DeploymentAccess::Service { address } if address.contains("CounterService")
        ));
    }
}
