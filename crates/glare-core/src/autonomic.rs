//! Autonomic replica placement: the actuator that closes GLARE's
//! telemetry loop.
//!
//! Eight layers of sensors (labeled metrics, structured events, probe
//! monitors, health reports) and failure machinery (retry, chaos,
//! durability, admission) exist below this module, but until now nothing
//! *consumed* them. A [`PlacementController`] runs on each super-peer
//! and periodically turns telemetry into deployment actions:
//!
//! * **provision** an extra replica of a hot activity type (per-replica
//!   demand above [`AutonomicConfig::hot_per_replica_hz`]) on the
//!   least-loaded live site not already holding one,
//! * **retire** a cold replica (per-replica demand below
//!   [`AutonomicConfig::cold_per_replica_hz`]) via tombstoned uninstall,
//! * **re-provision** a replica lost to a crashed or partitioned site
//!   (live replica count below [`MIN_REPLICAS`]).
//!
//! All actions flow through the existing deploy-file machinery
//! ([`crate::rdm::install_with_dependencies`] /
//! [`Grid::uninstall_deployment`]), so they inherit its retries,
//! idempotence guards and durability journaling for free.
//!
//! # Determinism and hysteresis
//!
//! Decisions are a pure function of a [`TelemetrySnapshot`] (BTree-ordered
//! telemetry readings) plus the controller's forked [`SimRng`] (used only
//! to break exact load ties between placement targets). The loop is
//! damped three ways so it cannot flap or amplify overload: a per-type
//! cooldown after any action, hard `[MIN_REPLICAS, max_replicas]` bounds,
//! and a per-round action budget.
//!
//! # Safety under failure
//!
//! The controller holds no ground truth: cooldowns and RNG state are
//! wiped by [`PlacementController::reset`] when its home site takes an
//! amnesia crash and everything it needs is re-observed from telemetry on
//! the next tick. Sibling controllers on other super-peers race for the
//! same hot-spot; before acting on a type, a controller must win a short
//! **exclusive lease** on the synthetic `autonomic/<type>` key at the
//! lowest-indexed live site (the coordination point), so two controllers
//! reacting to one hot-spot cannot double-provision — the loser observes
//! `lease.rejected` and backs off for a cooldown.
//!
//! # Observe-only when disabled
//!
//! With [`AutonomicConfig::disabled`] (the default), [`PlacementController::tick`]
//! returns immediately: no RNG draws, no metrics, no events, no registry
//! reads — a same-seed run with a disabled controller is byte-identical
//! to one where the controller was never constructed.

use std::collections::{BTreeMap, HashSet};

use glare_fabric::{Labels, SimDuration, SimRng, SimTime, SiteId};
use glare_services::ChannelKind;

use crate::grid::Grid;
use crate::lease::LeaseKind;
use crate::rdm::install_with_dependencies;

/// Metric family the harness publishes per-activity offered demand under
/// (label `activity`, value requests per simulated second). The
/// controller manages exactly the types this family reports on.
pub const DEMAND_FAMILY: &str = "glare_activity_demand_hz";

/// Metric family for per-site utilization (label `site`, value in
/// `[0, ∞)` where 1.0 saturates the site). Published by the load sampler
/// in the DES and by the harness in Grid scenarios.
pub const LOAD_FAMILY: &str = "glare_site_load1m";

/// Replica floor; re-provisioning restores up to this after crashes.
/// Fixed, like the three constants below: the flash-crowd scenario and
/// [`AutonomicConfig::standard`] agree on them, and a disabled controller
/// returns before reading any.
pub const MIN_REPLICAS: u32 = 1;

/// Per-type quiet period after any action (also the exclusive
/// coordination-lease window, so sibling controllers back off for the
/// same span they are locked out for).
pub const COOLDOWN: SimDuration = SimDuration::from_secs(10);

/// Hard cap on actions applied per tick, across all types: the blast
/// radius of one round.
pub const MAX_ACTIONS_PER_ROUND: usize = 2;

/// Sites hotter than this utilization are not provisioning targets —
/// healing a hot-spot must not create the next one.
pub const MAX_TARGET_LOAD: f64 = 0.75;

/// What a placement control loop is told: whether to act, where the
/// hysteresis band sits and how far a type may spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutonomicConfig {
    /// Master switch. `false` (the default) keeps every run byte-identical
    /// to a build without the controller.
    pub enabled: bool,
    /// Per-replica demand (req/s) above which a type is *hot* and earns
    /// another replica.
    pub hot_per_replica_hz: f64,
    /// Per-replica demand (req/s) below which a type is *cold* and sheds
    /// a replica (never below [`MIN_REPLICAS`]). Keep well under the hot
    /// threshold: the gap is the hysteresis band that prevents flapping.
    pub cold_per_replica_hz: f64,
    /// Replica ceiling however hot the type gets.
    pub max_replicas: u32,
}

impl AutonomicConfig {
    /// Controller off: ticks are no-ops and the run is event-identical to
    /// one without the controller.
    pub fn disabled() -> AutonomicConfig {
        AutonomicConfig {
            enabled: false,
            hot_per_replica_hz: f64::INFINITY,
            cold_per_replica_hz: 0.0,
            max_replicas: u32::MAX,
        }
    }

    /// Defaults tuned for a flash crowd: react within a couple of ticks,
    /// spread a hot type over at most four sites.
    pub fn standard() -> AutonomicConfig {
        AutonomicConfig {
            enabled: true,
            hot_per_replica_hz: 40.0,
            cold_per_replica_hz: 5.0,
            max_replicas: 4,
        }
    }
}

impl Default for AutonomicConfig {
    fn default() -> Self {
        AutonomicConfig::disabled()
    }
}

/// One site's reading in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteObservation {
    /// Site index.
    pub site: usize,
    /// Whether the fault injector considers the site alive.
    pub up: bool,
    /// Latest `glare_site_load1m` reading (0.0 when never published).
    pub load: f64,
}

/// One activity type's reading in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeObservation {
    /// Concrete activity-type name.
    pub name: String,
    /// Latest offered demand, requests per simulated second.
    pub demand_hz: f64,
    /// Live replica locations: *up* sites holding at least one available
    /// deployment of the type, ascending site order. One site counts as
    /// one replica however many executables the package registered.
    pub replica_sites: Vec<usize>,
}

/// A point-in-time, deterministically ordered view of the telemetry the
/// controller is allowed to act on. Everything is re-read from the grid
/// each tick — the snapshot is the controller's only ground truth, which
/// is what makes amnesia crashes of the controller itself survivable.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// Observation instant.
    pub at: SimTime,
    /// Per-site readings, ascending site order.
    pub sites: Vec<SiteObservation>,
    /// Per-type readings, lexicographic name order (BTree-iterated, so
    /// two controllers observing the same grid see the same sequence).
    pub types: Vec<TypeObservation>,
}

impl TelemetrySnapshot {
    /// Read the current telemetry out of `grid`. Pure observation: no
    /// RNG, no events, no mutation.
    pub fn observe(grid: &Grid, at: SimTime) -> TelemetrySnapshot {
        let mut demand: BTreeMap<String, f64> = BTreeMap::new();
        for (labels, gauge) in grid.metrics.gauges_of(DEMAND_FAMILY) {
            if let (Some(activity), Some(v)) = (labels.get("activity"), gauge.latest()) {
                demand.insert(activity.to_owned(), v);
            }
        }
        let sites = grid
            .site_indices()
            .map(|i| SiteObservation {
                site: i,
                up: grid.site_is_up(i),
                load: grid.gauge_latest(i, LOAD_FAMILY).unwrap_or(0.0),
            })
            .collect();
        let types = demand
            .into_iter()
            .map(|(name, demand_hz)| {
                let mut replica_sites: Vec<usize> = grid
                    .deployments_anywhere(&name, at)
                    .into_iter()
                    .filter(|(site, d)| grid.site_is_up(*site) && d.is_usable())
                    .map(|(site, _)| site)
                    .collect();
                replica_sites.dedup();
                TypeObservation {
                    name,
                    demand_hz,
                    replica_sites,
                }
            })
            .collect();
        TelemetrySnapshot { at, sites, types }
    }
}

/// What the controller decided to do about one type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionKind {
    /// Add a replica of a hot type.
    Provision,
    /// Remove a cold replica (tombstoned uninstall).
    Retire,
    /// Restore a replica lost to a crashed/partitioned site.
    Reprovision,
}

impl ActionKind {
    /// Stable lowercase label for metrics/events.
    pub fn label(self) -> &'static str {
        match self {
            ActionKind::Provision => "provision",
            ActionKind::Retire => "retire",
            ActionKind::Reprovision => "reprovision",
        }
    }
}

/// One decided placement action (not yet applied).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementAction {
    /// What to do.
    pub kind: ActionKind,
    /// The type acted on.
    pub type_name: String,
    /// Target site: the install site for provision/re-provision, the
    /// site losing its replica for retire.
    pub site: usize,
}

/// How applying an action went.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionOutcome {
    /// The action went through the deploy machinery successfully.
    Applied,
    /// A sibling controller holds the coordination lease for this type —
    /// skipped without touching any registry.
    LeaseDenied,
    /// The deploy machinery refused (e.g. install retries exhausted).
    Failed,
}

impl ActionOutcome {
    /// Stable lowercase label for metrics/events.
    pub fn label(self) -> &'static str {
        match self {
            ActionOutcome::Applied => "applied",
            ActionOutcome::LeaseDenied => "lease_denied",
            ActionOutcome::Failed => "failed",
        }
    }
}

/// One applied (or skipped) action, as recorded in a round's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActionRecord {
    /// The decided action.
    pub action: PlacementAction,
    /// What happened when it was applied.
    pub outcome: ActionOutcome,
}

/// Everything one [`PlacementController::tick`] did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundOutcome {
    /// Actions in application order (empty when disabled or quiet).
    pub records: Vec<ActionRecord>,
}

/// The feedback actuator: one per super-peer.
#[derive(Clone, Debug)]
pub struct PlacementController {
    /// Controller identity — the lease client name and event field, so
    /// dueling controllers are distinguishable in the telemetry.
    name: String,
    /// Home site: deploy lookups start here, and an amnesia crash of this
    /// site is what [`PlacementController::reset`] models.
    home: usize,
    cfg: AutonomicConfig,
    channel: ChannelKind,
    seed: u64,
    rng: SimRng,
    /// Per-type quiet-until instants (hysteresis state; safe to lose).
    cooldown_until: BTreeMap<String, SimTime>,
}

impl PlacementController {
    /// Controller named `name` homed on `home`, forking its RNG from
    /// `seed` by name so sibling controllers draw independent streams.
    pub fn new(
        name: &str,
        home: usize,
        seed: u64,
        cfg: AutonomicConfig,
        channel: ChannelKind,
    ) -> PlacementController {
        PlacementController {
            name: name.to_owned(),
            home,
            cfg,
            channel,
            seed,
            rng: SimRng::from_seed(seed).fork(name),
            cooldown_until: BTreeMap::new(),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AutonomicConfig {
        &self.cfg
    }

    /// The controller's identity.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The home super-peer site.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Whether the control loop acts at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Amnesia crash of the home super-peer: all soft state (cooldowns,
    /// RNG position) is wiped exactly like a site registry would be. The
    /// next tick rebuilds everything it needs from telemetry; in-flight
    /// coordination leases keep guarding against siblings meanwhile.
    pub fn reset(&mut self) {
        self.cooldown_until.clear();
        self.rng = SimRng::from_seed(self.seed).fork(&self.name);
    }

    /// Decide this round's actions from `snap`. Pure apart from the
    /// controller's own hysteresis state and tie-break RNG: no grid
    /// access, so dueling controllers can decide from one shared snapshot
    /// and race only at the lease guard in [`PlacementController::act`].
    ///
    /// Priority order when the budget binds: re-provision lost replicas,
    /// then spread hot types, then retire cold ones.
    pub fn decide(&mut self, snap: &TelemetrySnapshot) -> Vec<PlacementAction> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        let mut actions: Vec<PlacementAction> = Vec::new();
        // Provisioning targets chosen this round count as occupied, so one
        // round never stacks two new replicas on the same cool site.
        let mut claimed: HashSet<usize> = HashSet::new();
        for pass in [
            ActionKind::Reprovision,
            ActionKind::Provision,
            ActionKind::Retire,
        ] {
            for t in &snap.types {
                if actions.len() >= MAX_ACTIONS_PER_ROUND {
                    break;
                }
                // The cooldown damps optimization (provision/retire) but
                // never the replica floor: a type below `MIN_REPLICAS` is
                // re-provisioned immediately even if a retire on the same
                // type just fired — safety beats hysteresis.
                let below_floor = (t.replica_sites.len() as u32) < MIN_REPLICAS;
                if !(pass == ActionKind::Reprovision && below_floor)
                    && self
                        .cooldown_until
                        .get(&t.name)
                        .is_some_and(|&until| snap.at < until)
                {
                    continue;
                }
                if actions.iter().any(|a| a.type_name == t.name) {
                    continue;
                }
                let replicas = t.replica_sites.len() as u32;
                let per_replica = t.demand_hz / f64::from(replicas.max(1));
                let action = match pass {
                    ActionKind::Reprovision if replicas < MIN_REPLICAS => self
                        .pick_target(snap, t, &claimed)
                        .map(|site| PlacementAction {
                            kind: ActionKind::Reprovision,
                            type_name: t.name.clone(),
                            site,
                        }),
                    ActionKind::Provision
                        if replicas >= MIN_REPLICAS
                            && replicas < self.cfg.max_replicas
                            && per_replica > self.cfg.hot_per_replica_hz =>
                    {
                        self.pick_target(snap, t, &claimed)
                            .map(|site| PlacementAction {
                                kind: ActionKind::Provision,
                                type_name: t.name.clone(),
                                site,
                            })
                    }
                    ActionKind::Retire
                        if replicas > MIN_REPLICAS
                            && per_replica < self.cfg.cold_per_replica_hz =>
                    {
                        // Free the hottest of the replica sites; ties fall
                        // to the highest index (stable without RNG so the
                        // retire side stays maximally predictable).
                        t.replica_sites
                            .iter()
                            .max_by(|&&a, &&b| {
                                site_load(snap, a)
                                    .total_cmp(&site_load(snap, b))
                                    .then(a.cmp(&b))
                            })
                            .map(|&site| PlacementAction {
                                kind: ActionKind::Retire,
                                type_name: t.name.clone(),
                                site,
                            })
                    }
                    _ => None,
                };
                if let Some(a) = action {
                    if matches!(a.kind, ActionKind::Provision | ActionKind::Reprovision) {
                        claimed.insert(a.site);
                    }
                    self.cooldown_until
                        .insert(a.type_name.clone(), snap.at + COOLDOWN);
                    actions.push(a);
                }
            }
        }
        actions
    }

    /// Least-loaded live site that does not already hold the type, is not
    /// claimed by an earlier decision this round, and sits under the
    /// target-load ceiling. Exact load ties are broken with the
    /// controller's forked RNG so repeated placements spread instead of
    /// piling onto the lowest index.
    fn pick_target(
        &mut self,
        snap: &TelemetrySnapshot,
        t: &TypeObservation,
        claimed: &HashSet<usize>,
    ) -> Option<usize> {
        let candidates: Vec<&SiteObservation> = snap
            .sites
            .iter()
            .filter(|s| s.up)
            .filter(|s| !t.replica_sites.contains(&s.site))
            .filter(|s| !claimed.contains(&s.site))
            .filter(|s| s.load <= MAX_TARGET_LOAD)
            .collect();
        let best = candidates
            .iter()
            .map(|s| s.load)
            .min_by(f64::total_cmp)?;
        let tied: Vec<usize> = candidates
            .iter()
            .filter(|s| s.load == best)
            .map(|s| s.site)
            .collect();
        let pick = if tied.len() > 1 {
            self.rng.range(0, tied.len() as u64) as usize
        } else {
            0
        };
        Some(tied[pick])
    }

    /// Apply decided actions through the deploy machinery, guarding each
    /// with an exclusive coordination lease so sibling controllers cannot
    /// double-provision. Returns one record per action.
    pub fn act(
        &mut self,
        grid: &mut Grid,
        actions: Vec<PlacementAction>,
        now: SimTime,
    ) -> RoundOutcome {
        let mut records = Vec::with_capacity(actions.len());
        for action in actions {
            let outcome = self.apply(grid, &action, now);
            self.record_outcome(grid, &action, outcome, now);
            records.push(ActionRecord { action, outcome });
        }
        RoundOutcome { records }
    }

    /// One full control round: observe → decide → act. The disabled path
    /// returns before touching anything (no RNG, no metrics, no events).
    pub fn tick(&mut self, grid: &mut Grid, now: SimTime) -> RoundOutcome {
        if !self.cfg.enabled {
            return RoundOutcome::default();
        }
        let snap = TelemetrySnapshot::observe(grid, now);
        let actions = self.decide(&snap);
        self.act(grid, actions, now)
    }

    fn apply(&mut self, grid: &mut Grid, action: &PlacementAction, now: SimTime) -> ActionOutcome {
        // Coordination: an exclusive lease on the synthetic per-type key,
        // held at the lowest-indexed live site, for one cooldown window.
        // `Grid::acquire_lease` publishes grant/reject telemetry and
        // journals the grant, so the guard itself is observable/durable.
        let coordination_site = grid
            .site_indices()
            .find(|&i| grid.site_is_up(i))
            .unwrap_or(self.home);
        let key = format!("autonomic/{}", action.type_name);
        if grid
            .acquire_lease(
                coordination_site,
                &key,
                &self.name,
                LeaseKind::Exclusive,
                now..now + COOLDOWN,
                now,
            )
            .is_err()
        {
            return ActionOutcome::LeaseDenied;
        }
        match action.kind {
            ActionKind::Provision | ActionKind::Reprovision => {
                let Some((t, _, _)) = grid.find_type(self.home, &action.type_name, now) else {
                    return ActionOutcome::Failed;
                };
                let mut visiting = HashSet::new();
                let mut reports = Vec::new();
                match install_with_dependencies(
                    grid,
                    &t,
                    action.site,
                    self.channel,
                    now,
                    &mut visiting,
                    &mut reports,
                    None,
                ) {
                    Ok(()) => ActionOutcome::Applied,
                    Err(_) => ActionOutcome::Failed,
                }
            }
            ActionKind::Retire => {
                let keys: Vec<String> = grid
                    .site(action.site)
                    .adr
                    .deployments_of(&action.type_name, now)
                    .value
                    .into_iter()
                    .map(|d| d.key)
                    .collect();
                if keys.is_empty() {
                    return ActionOutcome::Failed;
                }
                for key in keys {
                    grid.uninstall_deployment(action.site, &key, now);
                }
                ActionOutcome::Applied
            }
        }
    }

    fn record_outcome(
        &self,
        grid: &mut Grid,
        action: &PlacementAction,
        outcome: ActionOutcome,
        now: SimTime,
    ) {
        grid.metrics
            .counter_labeled(
                "glare_autonomic_actions_total",
                &Labels::of(&[
                    ("action", action.kind.label()),
                    ("outcome", outcome.label()),
                ]),
            )
            .inc();
        grid.events.emit(
            now,
            &format!("autonomic.{}", action.kind.label()),
            Some(SiteId(action.site as u32)),
            "autonomic",
            &[
                ("controller", &self.name),
                ("activity", &action.type_name),
                ("site", &Grid::site_label(action.site)),
                ("outcome", outcome.label()),
            ],
        );
    }
}

/// Latest published replica counts, for dashboards: one gauge point per
/// managed type. Called by the harness after each controller round.
pub fn publish_replica_gauges(grid: &mut Grid, snap: &TelemetrySnapshot, now: SimTime) {
    for t in &snap.types {
        grid.metrics
            .gauge("glare_autonomic_replicas", &Labels::of(&[("activity", &t.name)]))
            .set(now, t.replica_sites.len() as f64);
    }
}

fn site_load(snap: &TelemetrySnapshot, site: usize) -> f64 {
    snap.sites
        .iter()
        .find(|s| s.site == site)
        .map(|s| s.load)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn snap(
        at: SimTime,
        sites: &[(usize, bool, f64)],
        types: &[(&str, f64, &[usize])],
    ) -> TelemetrySnapshot {
        TelemetrySnapshot {
            at,
            sites: sites
                .iter()
                .map(|&(site, up, load)| SiteObservation { site, up, load })
                .collect(),
            types: types
                .iter()
                .map(|&(name, demand_hz, replicas)| TypeObservation {
                    name: name.to_owned(),
                    demand_hz,
                    replica_sites: replicas.to_vec(),
                })
                .collect(),
        }
    }

    fn controller(cfg: AutonomicConfig) -> PlacementController {
        PlacementController::new("ctl@site0", 0, 42, cfg, ChannelKind::Expect)
    }

    #[test]
    fn disabled_controller_decides_nothing() {
        let mut c = controller(AutonomicConfig::disabled());
        let s = snap(
            t(10),
            &[(0, true, 0.9), (1, true, 0.0)],
            &[("Hot", 1000.0, &[0])],
        );
        assert!(c.decide(&s).is_empty());
    }

    #[test]
    fn hot_type_earns_a_replica_on_the_coolest_site() {
        let mut c = controller(AutonomicConfig::standard());
        let s = snap(
            t(10),
            &[(0, true, 0.9), (1, true, 0.6), (2, true, 0.2)],
            &[("Hot", 100.0, &[0])],
        );
        let actions = c.decide(&s);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].kind, ActionKind::Provision);
        assert_eq!(actions[0].site, 2, "least-loaded site wins");
    }

    #[test]
    fn provision_respects_the_target_load_ceiling() {
        let mut c = controller(AutonomicConfig::standard());
        // Every candidate is hotter than MAX_TARGET_LOAD: no action
        // (healing must not create the next hot-spot).
        let s = snap(
            t(10),
            &[(0, true, 0.9), (1, true, 0.8), (2, true, 0.95)],
            &[("Hot", 100.0, &[0])],
        );
        assert!(c.decide(&s).is_empty());
    }

    #[test]
    fn max_replicas_caps_growth() {
        let mut c = controller(AutonomicConfig {
            max_replicas: 2,
            ..AutonomicConfig::standard()
        });
        let s = snap(
            t(10),
            &[(0, true, 0.5), (1, true, 0.5), (2, true, 0.0)],
            &[("Hot", 1000.0, &[0, 1])],
        );
        assert!(c.decide(&s).is_empty(), "at the ceiling, however hot");
    }

    #[test]
    fn cold_type_retires_down_to_the_floor() {
        let mut c = controller(AutonomicConfig::standard());
        let s = snap(
            t(10),
            &[(0, true, 0.7), (1, true, 0.1)],
            &[("Cold", 1.0, &[0, 1])],
        );
        let actions = c.decide(&s);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].kind, ActionKind::Retire);
        assert_eq!(actions[0].site, 0, "the hottest replica site is freed");
        // At the floor no retire fires even at zero demand.
        let s = snap(t(30), &[(0, true, 0.0)], &[("Cold", 0.0, &[0])]);
        assert!(c.decide(&s).is_empty());
    }

    #[test]
    fn lost_replica_is_reprovisioned_before_anything_else() {
        let mut c = controller(AutonomicConfig::standard());
        // Three types want an action; the round's budget is two.
        let s = snap(
            t(10),
            &[(0, false, 0.0), (1, true, 0.2), (2, true, 0.3), (3, true, 0.1)],
            &[("Hot", 500.0, &[1]), ("Hotter", 500.0, &[2]), ("Lost", 3.0, &[])],
        );
        let actions = c.decide(&s);
        assert_eq!(actions.len(), MAX_ACTIONS_PER_ROUND, "budget binds");
        assert_eq!(actions[0].kind, ActionKind::Reprovision);
        assert_eq!(actions[0].type_name, "Lost");
        assert_ne!(actions[0].site, 0, "dead sites are never targets");
        assert_eq!(actions[1].kind, ActionKind::Provision, "then the hot types");
    }

    #[test]
    fn cooldown_damps_repeat_actions() {
        let mut c = controller(AutonomicConfig::standard());
        let hot = |at| {
            snap(
                at,
                &[(0, true, 0.9), (1, true, 0.0), (2, true, 0.0)],
                &[("Hot", 100.0, &[0])],
            )
        };
        assert_eq!(c.decide(&hot(t(10))).len(), 1);
        assert!(c.decide(&hot(t(15))).is_empty(), "inside the cooldown");
        assert_eq!(c.decide(&hot(t(21))).len(), 1, "cooldown expired");
    }

    #[test]
    fn replica_floor_overrides_the_cooldown() {
        let mut c = controller(AutonomicConfig::standard());
        // A retire at t=10 puts "Churn" on cooldown...
        let s = snap(
            t(10),
            &[(0, true, 0.5), (1, true, 0.1)],
            &[("Churn", 1.0, &[0, 1])],
        );
        assert_eq!(c.decide(&s)[0].kind, ActionKind::Retire);
        // ...but when a crash drops it below the floor two ticks later,
        // re-provisioning fires anyway: safety beats hysteresis.
        let s = snap(t(12), &[(0, false, 0.0), (1, true, 0.1)], &[("Churn", 1.0, &[])]);
        let actions = c.decide(&s);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].kind, ActionKind::Reprovision);
    }

    #[test]
    fn reset_wipes_hysteresis_state() {
        let mut c = controller(AutonomicConfig::standard());
        let hot = |at| {
            snap(
                at,
                &[(0, true, 0.9), (1, true, 0.0), (2, true, 0.0)],
                &[("Hot", 100.0, &[0])],
            )
        };
        assert_eq!(c.decide(&hot(t(10))).len(), 1);
        c.reset();
        // Amnesia forgot the cooldown: the controller re-derives its view
        // from telemetry and may act again immediately.
        assert_eq!(c.decide(&hot(t(12))).len(), 1);
    }

    #[test]
    fn one_round_never_stacks_two_new_replicas_on_one_site() {
        // The round's budget has room for both hot types.
        let mut c = controller(AutonomicConfig::standard());
        let s = snap(
            t(10),
            &[(0, true, 0.9), (1, true, 0.9), (2, true, 0.0)],
            &[("HotA", 100.0, &[0]), ("HotB", 100.0, &[1])],
        );
        let actions = c.decide(&s);
        assert_eq!(actions.len(), 1, "only one cool site to claim");
        assert_eq!(actions[0].site, 2);
    }

    #[test]
    fn dueling_controllers_cannot_double_provision() {
        use glare_services::Transport;

        let mut grid = Grid::new(4, Transport::Http);
        let ty = crate::model::ActivityType::concrete_type("Hot", "autonomic", "povray");
        grid.register_type(0, ty.clone(), t(0)).unwrap();
        let mut visiting = HashSet::new();
        let mut reports = Vec::new();
        install_with_dependencies(
            &mut grid,
            &ty,
            0,
            ChannelKind::Expect,
            t(0),
            &mut visiting,
            &mut reports,
            None,
        )
        .unwrap();
        grid.metrics
            .gauge(DEMAND_FAMILY, &Labels::of(&[("activity", "Hot")]))
            .set(t(5), 500.0);

        let cfg = AutonomicConfig::standard();
        let mut a = PlacementController::new("ctl-a", 0, 7, cfg, ChannelKind::Expect);
        let mut b = PlacementController::new("ctl-b", 1, 7, cfg, ChannelKind::Expect);
        // Both super-peers react to the SAME snapshot of the same
        // hot-spot; only the coordination lease arbitrates.
        let snap = TelemetrySnapshot::observe(&grid, t(5));
        let da = a.decide(&snap);
        let db = b.decide(&snap);
        assert_eq!(da.len(), 1);
        assert_eq!(db.len(), 1);
        let oa = a.act(&mut grid, da, t(5));
        let ob = b.act(&mut grid, db, t(5));
        assert_eq!(oa.records[0].outcome, ActionOutcome::Applied);
        assert_eq!(
            ob.records[0].outcome,
            ActionOutcome::LeaseDenied,
            "the second controller must lose the coordination lease"
        );
        // Exactly one new replica appeared: two live sites, not three.
        let after = TelemetrySnapshot::observe(&grid, t(6));
        assert_eq!(after.types[0].replica_sites.len(), 2);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let run = |seed| {
            let mut c = PlacementController::new(
                "ctl",
                0,
                seed,
                AutonomicConfig::standard(),
                ChannelKind::Expect,
            );
            // All-equal loads force the RNG tie-break.
            let s = snap(
                t(10),
                &[(0, true, 0.0), (1, true, 0.0), (2, true, 0.0), (3, true, 0.0)],
                &[("Hot", 100.0, &[0])],
            );
            c.decide(&s)
        };
        assert_eq!(run(7), run(7));
    }
}
