//! Autonomic healing scenario: flash crowd + site crashes, with the
//! placement controller closing the loop.
//!
//! The harness composes the PR 7 flash-crowd workload with PR 4 style
//! chaos scheduling on a synchronous [`Grid`]:
//!
//! 1. A five-type activity catalogue (real packages: povray, wien2k,
//!    invmod, java, vizkit) starts with one replica each, spread over the
//!    first five sites. Three open-loop tenants (gold/silver/best-effort,
//!    Zipf-skewed over the catalogue) offer load.
//! 2. A flash crowd multiplies every tenant's rate mid-run; the Zipf head
//!    turns the site hosting the popular type into a hot-spot.
//! 3. One super-peer (a controller's home) crashes mid-flash and later
//!    rejoins amnesiac (journal replay); near the end a replica-holding
//!    site crashes for good, orphaning the coldest type.
//!
//! Two [`PlacementController`]s — one per super-peer — observe the
//! published telemetry every few seconds and provision / retire /
//! re-provision replicas through the deploy machinery. A deterministic
//! queueing proxy turns per-site utilization into per-class latency, so
//! "did p99 recover" is a pure function of the placement the controller
//! achieved. The `--disabled` baseline builds no controller: the same
//! chaos and load, with the initial placement left as it is.
//!
//! The report (actions, replica timelines, recovery percentiles,
//! invariant violations, event digest) derives from sim-time alone, so
//! it is byte-identical for a given seed.

use std::collections::BTreeMap;
use std::ops::Range;

use glare_core::autonomic::{
    live_replica_sites, publish_replica_gauges, PlacementController, TelemetrySnapshot,
    COLD_PER_REPLICA_HZ, COOLDOWN, DEMAND_FAMILY, HOT_PER_REPLICA_HZ, LOAD_FAMILY,
    MAX_ACTIONS_PER_ROUND, MAX_REPLICAS, MAX_TARGET_LOAD, MIN_REPLICAS,
};
use glare_core::grid::Grid;
use glare_core::invariants;
use glare_core::model::ActivityType;
use glare_core::rdm::install;
use glare_fabric::store::fnv1a;
use glare_fabric::{percentile, Labels, SimDuration, SimTime};
use glare_services::{ChannelKind, Transport};
use glare_workload::{ArrivalStream, WorkloadSpec};

use crate::json::{fields, Json};

/// Activity catalogue, most popular first (Zipf rank order). Every entry
/// maps to a real dependency-free package so controller provisions run
/// the genuine deploy-file plans.
pub(crate) const CATALOGUE: &[(&str, &str)] = &[
    ("Render", "povray"),
    ("Simulate", "wien2k"),
    ("Hydrology", "invmod"),
    ("Runtime", "java"),
    ("Visualize", "vizkit"),
];

/// Latency charged to a request whose type has no live replica (the
/// degraded-read penalty).
const DEGRADED_MS: f64 = 5_000.0;

/// Trailing window (ticks) for the published demand gauges — smooths
/// Poisson arrival noise so thresholds see sustained rates, not blips.
const DEMAND_WINDOW_TICKS: usize = 5;

/// Whether the run has controllers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControllerMode {
    /// Controllers observe and act (the healing run).
    Enabled,
    /// No controller is built: the baseline the healing run is judged
    /// against.
    Disabled,
}

impl ControllerMode {
    /// Stable label for reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ControllerMode::Enabled => "enabled",
            ControllerMode::Disabled => "disabled",
        }
    }
}

/// Run length, simulated seconds (one telemetry tick per second).
const DURATION_SECS: u64 = 120;
/// Baseline offered load across all tenants, req/s.
const TOTAL_RATE_HZ: f64 = 120.0;
/// Flash-crowd window start.
const FLASH_AT_SECS: u64 = 25;
/// Flash-crowd window length.
const FLASH_SECS: u64 = 55;
/// Flash-crowd rate multiplier.
const FLASH_MULTIPLIER: f64 = 5.0;
/// Mid-flash crash of controller B's home super-peer.
const CRASH_B_AT_SECS: u64 = 40;
/// Amnesia restart of controller B's home (journal replay + reset).
const RESTART_B_AT_SECS: u64 = 55;
/// Permanent crash of the site hosting the coldest type's replica.
const CRASH_VICTIM_AT_SECS: u64 = 93;
/// Per-site service capacity, req/s at utilization 1.0.
const SITE_CAPACITY_HZ: f64 = 360.0;
/// Unloaded service latency, ms (the queueing-proxy numerator).
const BASE_LATENCY_MS: f64 = 50.0;
/// Controller round period, seconds.
const CONTROLLER_INTERVAL_SECS: u64 = 5;

const _: () = assert!(FLASH_AT_SECS + FLASH_SECS < DURATION_SECS);

/// Scenario parameters: what a run may set besides the fixed scenario
/// above. The default run is already CI-sized.
#[derive(Clone, Copy, Debug)]
pub struct AutonomicParams {
    /// Grid sites (≥ 6: five seeded replicas plus spare capacity).
    pub sites: usize,
    /// Master seed for workload and controller RNG forks.
    pub seed: u64,
    /// Controller participation.
    pub mode: ControllerMode,
}

impl Default for AutonomicParams {
    fn default() -> Self {
        AutonomicParams { sites: 8, seed: 4213, mode: ControllerMode::Enabled }
    }
}

/// Per-class traffic row.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassRow {
    /// Class label (`gold` / `silver` / `best_effort`).
    pub class: String,
    /// Requests offered over the run.
    pub offered: u64,
    /// Requests served by a live replica.
    pub served: u64,
    /// Requests that found no live replica (degraded reads).
    pub degraded: u64,
    /// Served rate in the pre-spike window, req/s.
    pub goodput_pre_hz: f64,
    /// Served rate in the late-flash (recovered) window, req/s.
    pub goodput_post_hz: f64,
}

/// One applied-or-skipped controller action.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRow {
    /// Round instant, seconds.
    pub t_secs: u64,
    /// Controller identity.
    pub controller: String,
    /// Action label (`provision` / `retire` / `reprovision`).
    pub action: String,
    /// Activity type acted on.
    pub type_name: String,
    /// Target site index.
    pub site: usize,
    /// Outcome label (`applied` / `lease_denied` / `failed`).
    pub outcome: String,
}

/// Live replica counts per type at one controller round.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaSample {
    /// Sample instant, seconds.
    pub t_secs: u64,
    /// `(type, live replica count)`, catalogue order.
    pub counts: Vec<(String, u32)>,
}

/// The assembled scenario report.
#[derive(Clone, Debug)]
pub struct AutonomicReport {
    /// Parameters that produced the report.
    pub params: AutonomicParams,
    /// Per-class traffic rows, gold first.
    pub classes: Vec<ClassRow>,
    /// Gold p99 latency in the pre-spike window, ms.
    pub gold_p99_pre_ms: f64,
    /// Gold p99 latency in the first 10 s of the flash, ms.
    pub gold_p99_peak_ms: f64,
    /// Gold p99 latency in the last 15 s of the flash, ms.
    pub gold_p99_post_ms: f64,
    /// Whether `p99_post <= 1.25 * p99_pre` (the recovery criterion).
    pub recovered: bool,
    /// Time from flash start until gold tick latency first returned under
    /// the recovery bound after spiking, ms (`None` = never recovered).
    pub recovery_after_flash_ms: Option<u64>,
    /// The permanently crashed site.
    pub crash_victim_site: usize,
    /// Types whose live replicas fell below the floor at the crash.
    pub crash_types_lost: Vec<String>,
    /// Median time from the crash to replica-floor restoration, ms.
    pub crash_recovery_p50_ms: f64,
    /// 95th-percentile crash-recovery time, ms.
    pub crash_recovery_p95_ms: f64,
    /// Degraded reads over the whole run.
    pub degraded_reads_total: u64,
    /// `(action, outcome) -> count` over all rounds.
    pub action_counts: BTreeMap<(String, String), u64>,
    /// Every controller action, round order.
    pub rounds: Vec<RoundRow>,
    /// Replica timeline, one sample per controller round.
    pub replicas: Vec<ReplicaSample>,
    /// Safety-invariant violations (must be empty).
    pub violations: Vec<String>,
    /// Event records emitted.
    pub events: u64,
    /// FNV-1a digest of the grid event log JSONL.
    pub event_digest: u64,
    /// Metric-name lint violations (must be 0).
    pub lint_errors: usize,
}

/// Weighted p99: the smallest latency such that 99% of the request mass
/// sits at or below it.
fn weighted_p99(samples: &[(f64, u64)]) -> f64 {
    let total: u64 = samples.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<(f64, u64)> = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = ((total as f64) * 0.99).ceil() as u64;
    let mut cum = 0u64;
    for (lat, n) in sorted {
        cum += n;
        if cum >= target {
            return lat;
        }
    }
    0.0
}

/// The healing loop: the Grid and its controllers, the offered arrivals
/// per tick (`[tick][activity][class index]`) and the report's tally.
struct Healing<'p> {
    p: &'p AutonomicParams,
    grid: Grid,
    controllers: Vec<PlacementController>,
    counts: Vec<Vec<[u64; 3]>>,
    /// The pre-spike, first-10-s-of-flash and last-15-s-of-flash windows.
    windows: [Range<u64>; 3],
    tally: Tally,
}

/// What the healing loop accumulates for the report.
#[derive(Default)]
struct Tally {
    /// The permanently crashed site (chosen at crash time).
    victim_site: usize,
    rounds: Vec<RoundRow>,
    replicas: Vec<ReplicaSample>,
    violations: Vec<String>,
    action_counts: BTreeMap<(String, String), u64>,
    /// Per class: offered, served, degraded, served pre-spike, served late-flash.
    traffic: [[u64; 3]; 5],
    /// Worst per-activity latency seen by gold traffic each tick — the
    /// spike/recovery scan tracks the hot-spot, not the mean.
    gold_tick_worst: Vec<f64>,
    /// Gold `(latency, requests)` samples per window.
    samples: [Vec<(f64, u64)>; 3],
    crash_lost: Vec<String>,
    crash_recovered_at: BTreeMap<String, Option<u64>>,
}

/// The durable Grid with the catalogue seeded, one replica of type `i` on
/// site `i % sites`.
fn seeded_grid(p: &AutonomicParams) -> Grid {
    let t0 = SimTime::ZERO;
    let mut grid = Grid::new(p.sites, Transport::Http);
    for (i, (name, pkg)) in CATALOGUE.iter().enumerate() {
        let ty = ActivityType::concrete_type(name, "autonomic", pkg);
        grid.register_type(0, ty.clone(), t0).unwrap();
        let home = i % p.sites;
        install(&mut grid, &ty, home, ChannelKind::Expect, t0)
            .expect("seed install succeeds on a healthy grid");
    }
    grid
}

/// The flash-crowd three-tier mix over the catalogue, as arrival counts
/// per tick, activity and class.
fn arrival_counts(p: &AutonomicParams) -> Vec<Vec<[u64; 3]>> {
    let names: Vec<&str> = CATALOGUE.iter().map(|(n, _)| *n).collect();
    let spec = WorkloadSpec::flash_crowd(
        p.seed,
        SimDuration::from_secs(DURATION_SECS),
        TOTAL_RATE_HZ,
        SimTime::from_secs(FLASH_AT_SECS),
        SimDuration::from_secs(FLASH_SECS),
        FLASH_MULTIPLIER,
    )
    .with_activities(&names);
    let ticks = DURATION_SECS as usize;
    let mut counts = vec![vec![[0u64; 3]; CATALOGUE.len()]; ticks];
    for (i, tenant) in spec.tenants.iter().enumerate() {
        let class = tenant.class.index();
        for a in ArrivalStream::generate(&spec, i).arrivals {
            let tick = (a.at.as_nanos() / 1_000_000_000) as usize;
            if tick < ticks {
                counts[tick][a.activity][class] += 1;
            }
        }
    }
    counts
}

impl Healing<'_> {
    /// Chaos step: the super-peer crash and its amnesia restart, and the
    /// permanent crash of the site holding the sole replica of a type at
    /// the replica floor, so the crash provably orphans it.
    fn chaos_step(&mut self, t: u64) {
        let now = SimTime::from_secs(t);
        if t == CRASH_B_AT_SECS {
            self.grid.crash_site(1, now);
        }
        if t == RESTART_B_AT_SECS {
            self.grid.restart_site(1, now);
            // The rejoined super-peer's controller lost all soft state to
            // the amnesia crash; it rebuilds from telemetry.
            for c in self.controllers.iter_mut().filter(|c| c.name() == "ctl@site1") {
                c.reset();
            }
        }
        if t == CRASH_VICTIM_AT_SECS {
            let grid = &self.grid;
            let mut types = CATALOGUE.iter().rev().map(|(n, _)| live_replica_sites(grid, n, now));
            if let Some(sites) = types.find(|s| !s.is_empty() && s.len() as u32 <= MIN_REPLICAS) {
                self.tally.victim_site = sites[0];
            }
            for (name, _) in CATALOGUE {
                let sites = live_replica_sites(grid, name, now);
                let survivors = sites.iter().filter(|&&s| s != self.tally.victim_site).count();
                if !sites.is_empty() && survivors < MIN_REPLICAS as usize {
                    self.tally.crash_lost.push((*name).to_owned());
                    self.tally.crash_recovered_at.insert((*name).to_owned(), None);
                }
            }
            self.grid.crash_site(self.tally.victim_site, now);
        }
    }

    /// Demand publication: per-type gauges of the trailing mean arrival
    /// rate over the demand window. Returns the rates.
    fn publish_demand(&mut self, t: u64) -> Vec<f64> {
        let lo = (t as usize + 1).saturating_sub(DEMAND_WINDOW_TICKS);
        let window = &self.counts[lo..=t as usize];
        let total = |a: usize| window.iter().map(|tk| tk[a].iter().sum::<u64>()).sum::<u64>();
        let demand_hz: Vec<f64> =
            (0..CATALOGUE.len()).map(|a| total(a) as f64 / window.len() as f64).collect();
        for (a, (name, _)) in CATALOGUE.iter().enumerate() {
            let gauge = self.grid.metrics.gauge(DEMAND_FAMILY, &Labels::of(&[("activity", name)]));
            gauge.set(SimTime::from_secs(t), demand_hz[a]);
        }
        demand_hz
    }

    /// Queueing proxy: per-site utilization from the demand and the current
    /// placement (published as load gauges), per-type latency from its
    /// replicas' mean utilization, and per-class accounting of the tick's
    /// arrivals.
    fn queueing_proxy(&mut self, t: u64, demand_hz: &[f64]) {
        let (p, now) = (self.p, SimTime::from_secs(t));
        let replica_map: Vec<Vec<usize>> =
            CATALOGUE.iter().map(|(name, _)| live_replica_sites(&self.grid, name, now)).collect();
        let mut util = vec![0.0f64; p.sites];
        for (a, sites) in replica_map.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            let per_site = demand_hz[a] / sites.len() as f64 / SITE_CAPACITY_HZ;
            for &s in sites {
                util[s] += per_site;
            }
        }
        for (s, u) in util.iter().enumerate() {
            if self.grid.site_is_up(s) {
                self.grid.set_gauge(s, LOAD_FAMILY, None, now, *u);
            }
        }

        let [pre, _, post] = &self.windows;
        let mut worst = f64::NAN;
        for (a, sites) in replica_map.iter().enumerate() {
            let lat_ms = if sites.is_empty() {
                DEGRADED_MS
            } else {
                let mean_util = sites.iter().map(|&s| util[s]).sum::<f64>() / sites.len() as f64;
                BASE_LATENCY_MS / (1.0 - mean_util.min(0.98))
            };
            let tick_counts = &self.counts[t as usize][a];
            let [offered, served, degraded, served_pre, served_post] = &mut self.tally.traffic;
            for (class, &n) in tick_counts.iter().enumerate() {
                offered[class] += n;
                if sites.is_empty() {
                    degraded[class] += n;
                    continue;
                }
                served[class] += n;
                if pre.contains(&t) {
                    served_pre[class] += n;
                }
                if post.contains(&t) {
                    served_post[class] += n;
                }
            }
            let gold_count = tick_counts[0];
            if gold_count > 0 {
                if worst.is_nan() || lat_ms > worst {
                    worst = lat_ms;
                }
                for (window, samples) in self.windows.iter().zip(&mut self.tally.samples) {
                    if window.contains(&t) {
                        samples.push((lat_ms, gold_count));
                    }
                }
            }
            // Crash-recovery bookkeeping: a lost type heals when its live
            // replica count is back at the floor.
            if let Some(slot @ None) = self.tally.crash_recovered_at.get_mut(CATALOGUE[a].0) {
                if sites.len() as u32 >= MIN_REPLICAS {
                    *slot = Some(t);
                }
            }
        }
        self.tally.gold_tick_worst.push(worst);
    }

    /// Controller round. Both controllers decide from ONE shared snapshot:
    /// they race for the same hot-spot, and only the coordination lease
    /// keeps them from double-provisioning.
    fn controller_round(&mut self, t: u64) {
        let (grid, now) = (&mut self.grid, SimTime::from_secs(t));
        let snap = TelemetrySnapshot::observe(grid, now);
        let mut records = Vec::new();
        let decisions: Vec<_> = self
            .controllers
            .iter_mut()
            .map(|c| if grid.site_is_up(c.home()) { c.decide(&snap) } else { Vec::new() })
            .collect();
        for (c, actions) in self.controllers.iter_mut().zip(decisions) {
            let outcome = c.act(grid, actions, now);
            let violations = invariants::placement_actions(grid, &outcome.records, now);
            self.tally.violations.extend(violations);
            for rec in &outcome.records {
                let action = rec.action.kind.label().to_owned();
                let oc = rec.outcome.label().to_owned();
                *self.tally.action_counts.entry((action.clone(), oc.clone())).or_default() += 1;
                let (controller, type_name) = (c.name().to_owned(), rec.action.type_name.clone());
                let site = rec.action.site;
                let row = RoundRow { t_secs: t, controller, action, type_name, site, outcome: oc };
                self.tally.rounds.push(row);
            }
            records.extend(outcome.records);
        }
        let names: Vec<&str> = CATALOGUE.iter().map(|(n, _)| *n).collect();
        self.tally.violations.extend(invariants::placement_round(grid, &records, &names, now));
        // Replica timeline.
        let post = TelemetrySnapshot::observe(grid, now);
        publish_replica_gauges(grid, &post, now);
        let counts = CATALOGUE
            .iter()
            .map(|(name, _)| ((*name).to_owned(), live_replica_sites(grid, name, now).len() as u32))
            .collect();
        self.tally.replicas.push(ReplicaSample { t_secs: t, counts });
    }
}

/// Run the scenario: one telemetry tick per simulated second, each a chaos
/// step, a demand publication, the queueing proxy and (every controller
/// interval) a controller round.
pub fn run(p: &AutonomicParams) -> AutonomicReport {
    assert!(p.sites >= 6, "the scenario needs at least 6 sites");
    let grid = seeded_grid(p);
    // Controllers: one per super-peer (sites 0 and 1).
    let controller = |name, home| PlacementController::new(name, home, p.seed, ChannelKind::Expect);
    let controllers = match p.mode {
        ControllerMode::Enabled => vec![controller("ctl@site0", 0), controller("ctl@site1", 1)],
        ControllerMode::Disabled => Vec::new(),
    };
    let flash_end = FLASH_AT_SECS + FLASH_SECS;
    let mut healing = Healing {
        p,
        grid,
        controllers,
        counts: arrival_counts(p),
        windows: [
            FLASH_AT_SECS.saturating_sub(10)..FLASH_AT_SECS,
            FLASH_AT_SECS..(FLASH_AT_SECS + 10).min(flash_end),
            flash_end.saturating_sub(15)..flash_end,
        ],
        tally: Tally {
            // The coldest type's initial site, unless a better victim
            // emerges at crash time.
            victim_site: (CATALOGUE.len() - 1) % p.sites,
            gold_tick_worst: Vec::with_capacity(DURATION_SECS as usize),
            ..Tally::default()
        },
    };
    for t in 0..DURATION_SECS {
        healing.chaos_step(t);
        let demand_hz = healing.publish_demand(t);
        healing.queueing_proxy(t, &demand_hz);
        if t > 0 && t % CONTROLLER_INTERVAL_SECS == 0 && !healing.controllers.is_empty() {
            healing.controller_round(t);
        }
    }
    distill(p, &healing.grid, &healing.windows, healing.tally)
}

/// The report from the healing loop's tally and the Grid's final state.
fn distill(p: &AutonomicParams, grid: &Grid, w: &[Range<u64>; 3], mut h: Tally) -> AutonomicReport {
    let flash_end = FLASH_AT_SECS + FLASH_SECS;
    let [gold_p99_pre_ms, gold_p99_peak_ms, gold_p99_post_ms] =
        h.samples.each_ref().map(|s| weighted_p99(s));
    let bound = 1.25 * gold_p99_pre_ms;
    let recovered = gold_p99_post_ms <= bound && gold_p99_pre_ms > 0.0;
    let worst = &h.gold_tick_worst;
    let spike_tick = (FLASH_AT_SECS..flash_end).find(|&t| worst[t as usize] > bound);
    let recovered_at = |spike| (spike..flash_end).find(|&t| worst[t as usize] <= bound);
    let recovery_after_flash_ms =
        spike_tick.and_then(recovered_at).map(|t| (t - FLASH_AT_SECS) * 1000);
    let since_crash = |&t: &u64| t.saturating_sub(CRASH_VICTIM_AT_SECS) as f64 * 1000.0;
    let mut crash_recovery_ms: Vec<f64> =
        h.crash_recovered_at.values().flatten().map(since_crash).collect();
    crash_recovery_ms.sort_by(f64::total_cmp);
    if p.mode == ControllerMode::Enabled {
        for (name, _) in h.crash_recovered_at.iter().filter(|(_, at)| at.is_none()) {
            h.violations.push(format!(
                "{name} never regained its replica floor after the crash at t={CRASH_VICTIM_AT_SECS}"
            ));
        }
    }
    // The controllers' coordination leases: exclusive, so none may overlap.
    for s in 0..grid.len() {
        h.violations.extend(invariants::lease_caps(s, &grid.site(s).leases));
    }
    h.violations.extend(invariants::lease_ids_unique(&grid.events));

    let [offered, served, degraded, served_pre, served_post] = h.traffic;
    let rate = |n: u64, w: &Range<u64>| n as f64 / (w.end - w.start).max(1) as f64;
    let classes = ["gold", "silver", "best_effort"].iter().enumerate().map(|(i, class)| ClassRow {
            class: (*class).to_owned(),
            offered: offered[i],
            served: served[i],
            degraded: degraded[i],
            goodput_pre_hz: rate(served_pre[i], &w[0]),
            goodput_post_hz: rate(served_post[i], &w[2]),
        });

    let jsonl = grid.events.to_jsonl();
    AutonomicReport {
        params: *p,
        classes: classes.collect(),
        gold_p99_pre_ms,
        gold_p99_peak_ms,
        gold_p99_post_ms,
        recovered,
        recovery_after_flash_ms,
        crash_victim_site: h.victim_site,
        crash_types_lost: h.crash_lost,
        crash_recovery_p50_ms: percentile(&crash_recovery_ms, 0.50).unwrap_or(0.0),
        crash_recovery_p95_ms: percentile(&crash_recovery_ms, 0.95).unwrap_or(0.0),
        degraded_reads_total: degraded.iter().sum(),
        action_counts: h.action_counts,
        rounds: h.rounds,
        replicas: h.replicas,
        violations: h.violations,
        events: jsonl.lines().count() as u64,
        event_digest: fnv1a(jsonl.as_bytes()),
        lint_errors: grid.metrics.lint_metric_names().len(),
    }
}

impl AutonomicReport {
    /// The `BENCH_autonomic.json` document: everything derives from
    /// sim-time alone, so it is byte-identical for a given seed.
    pub fn to_json(&self) -> Json {
        let p = &self.params;
        let recovery_after_flash_ms = self.recovery_after_flash_ms.map_or(Json::Null, Json::from);
        let deterministic = Json::obj([
            (
                "params",
                Json::obj([
                    ("sites", Json::from(p.sites)),
                    ("seed", Json::from(p.seed)),
                    ("duration_secs", Json::from(DURATION_SECS)),
                    ("total_rate_hz", Json::from(TOTAL_RATE_HZ)),
                    ("flash_at_secs", Json::from(FLASH_AT_SECS)),
                    ("flash_secs", Json::from(FLASH_SECS)),
                    ("flash_multiplier", Json::from(FLASH_MULTIPLIER)),
                    ("crash_b_at_secs", Json::from(CRASH_B_AT_SECS)),
                    ("restart_b_at_secs", Json::from(RESTART_B_AT_SECS)),
                    ("crash_victim_at_secs", Json::from(CRASH_VICTIM_AT_SECS)),
                    ("site_capacity_hz", Json::from(SITE_CAPACITY_HZ)),
                    ("base_latency_ms", Json::from(BASE_LATENCY_MS)),
                    ("controller_interval_secs", Json::from(CONTROLLER_INTERVAL_SECS)),
                    ("mode", Json::from(p.mode.label())),
                    ("hot_per_replica_hz", Json::from(HOT_PER_REPLICA_HZ)),
                    ("cold_per_replica_hz", Json::from(COLD_PER_REPLICA_HZ)),
                    ("min_replicas", Json::from(u64::from(MIN_REPLICAS))),
                    ("max_replicas", Json::from(u64::from(MAX_REPLICAS))),
                    ("cooldown_secs", Json::from(COOLDOWN.as_nanos() / 1_000_000_000)),
                    ("max_actions_per_round", Json::from(MAX_ACTIONS_PER_ROUND)),
                    ("max_target_load", Json::from(MAX_TARGET_LOAD)),
                ]),
            ),
            (
                "classes",
                Json::arr(self.classes.iter().map(|c| {
                    Json::obj(fields!(
                        c;
                        class, offered, served, degraded, goodput_pre_hz, goodput_post_hz,
                    ))
                })),
            ),
            (
                "gold",
                Json::obj([
                    ("p99_pre_ms", Json::from(self.gold_p99_pre_ms)),
                    ("p99_peak_ms", Json::from(self.gold_p99_peak_ms)),
                    ("p99_post_ms", Json::from(self.gold_p99_post_ms)),
                    ("recovered", Json::from(self.recovered)),
                    ("recovery_after_flash_ms", recovery_after_flash_ms),
                ]),
            ),
            (
                "crash",
                Json::obj([
                    ("victim_site", Json::from(self.crash_victim_site)),
                    (
                        "types_lost",
                        Json::arr(self.crash_types_lost.iter().map(|n| Json::from(n.as_str()))),
                    ),
                    ("recovery_p50_ms", Json::from(self.crash_recovery_p50_ms)),
                    ("recovery_p95_ms", Json::from(self.crash_recovery_p95_ms)),
                    ("degraded_reads_total", Json::from(self.degraded_reads_total)),
                ]),
            ),
            (
                "actions",
                Json::arr(self.action_counts.iter().map(|((action, outcome), n)| {
                    Json::obj([
                        ("action", Json::from(action.as_str())),
                        ("outcome", Json::from(outcome.as_str())),
                        ("count", Json::from(*n)),
                    ])
                })),
            ),
            (
                "rounds",
                Json::arr(self.rounds.iter().map(|r| {
                    Json::obj([
                        ("t_secs", Json::from(r.t_secs)),
                        ("controller", Json::from(r.controller.as_str())),
                        ("action", Json::from(r.action.as_str())),
                        ("type", Json::from(r.type_name.as_str())),
                        ("site", Json::from(r.site)),
                        ("outcome", Json::from(r.outcome.as_str())),
                    ])
                })),
            ),
            (
                "replicas",
                Json::arr(self.replicas.iter().map(|s| {
                    let counts = s.counts.iter().map(|(t, n)| (t.as_str(), Json::from(*n as u64)));
                    Json::obj([("t_secs", Json::from(s.t_secs)), ("counts", Json::obj(counts))])
                })),
            ),
            ("invariant_violations", Json::from(self.violations.len())),
            (
                "violations",
                Json::arr(self.violations.iter().map(|v| Json::from(v.as_str()))),
            ),
            ("events", Json::from(self.events)),
            ("event_digest", Json::from(format!("{:016x}", self.event_digest))),
            ("lint_errors", Json::from(self.lint_errors)),
        ]);
        Json::obj([
            ("schema", Json::from("glare.autonomic.v1")),
            ("experiment", Json::from("autonomic")),
            ("deterministic", deterministic),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_run_heals_the_hot_spot_and_the_crash() {
        let r = run(&AutonomicParams::default());
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        assert_eq!(r.lint_errors, 0);
        assert!(r.recovered, "p99 must recover: {r:?}");
        assert!(r.gold_p99_post_ms <= 1.25 * r.gold_p99_pre_ms, "recovery bound");
        assert!(r.recovery_after_flash_ms.is_some(), "spike must be visible");
        let applied = |action: &str| {
            r.action_counts
                .get(&(action.into(), "applied".into()))
                .copied()
                .unwrap_or(0)
        };
        assert!(applied("provision") > 0, "replicas must be provisioned");
        assert!(applied("reprovision") > 0, "the crash must be re-provisioned");
        assert!(
            applied("provision") + applied("reprovision") >= 5,
            "controller must spread replicas"
        );
        assert!(applied("retire") > 0, "cold replicas must be retired after the flash");
        let denied: u64 = r
            .action_counts
            .iter()
            .filter(|((_, o), _)| o == "lease_denied")
            .map(|(_, n)| *n)
            .sum();
        assert!(denied > 0, "the dueling controller must hit the lease guard");
        assert!(!r.crash_types_lost.is_empty(), "the crash must orphan a type");
        assert!(r.crash_recovery_p95_ms > 0.0, "floor restoration measured");
    }

    #[test]
    fn invariants_hold_across_swept_seeds() {
        for seed in 1..=32 {
            let r = run(&AutonomicParams { seed, ..AutonomicParams::default() });
            assert!(r.violations.is_empty(), "seed {seed}: {:?}", r.violations);
        }
    }

    #[test]
    fn disabled_run_does_not_recover() {
        let r = run(&AutonomicParams { mode: ControllerMode::Disabled, ..Default::default() });
        assert!(!r.recovered, "without the controller the hot-spot persists");
        assert!(r.rounds.is_empty());
        assert!(r.action_counts.is_empty());
    }

    #[test]
    fn deterministic_half_is_seed_stable() {
        let p = AutonomicParams::default();
        let a = run(&p).to_json().to_string_pretty();
        let b = run(&p).to_json().to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"glare.autonomic.v1\""));
        // Pinned at the last change meant to move these bytes.
        assert_eq!(fnv1a(a.as_bytes()), 0xebf9_32eb_82ee_f568);
    }
}
