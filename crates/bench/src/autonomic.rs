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
//! achieved.
//!
//! The report (actions, replica timelines, recovery percentiles,
//! invariant violations, event digest) derives from sim-time alone, so
//! it is byte-identical for a given seed.

use std::collections::BTreeMap;
use std::collections::HashSet;

use glare_core::autonomic::{
    publish_replica_gauges, ActionKind, ActionOutcome, AutonomicConfig, PlacementController,
    TelemetrySnapshot, COOLDOWN, DEMAND_FAMILY, LOAD_FAMILY, MAX_ACTIONS_PER_ROUND,
    MAX_TARGET_LOAD, MIN_REPLICAS,
};
use glare_core::grid::Grid;
use glare_core::model::ActivityType;
use glare_core::rdm::install_with_dependencies;
use glare_fabric::store::fnv1a;
use glare_fabric::{percentile, Labels, SimTime, StoreConfig};
use glare_services::{ChannelKind, Transport};
use glare_workload::{ArrivalStream, WorkloadSpec};

use crate::json::Json;

/// Activity catalogue, most popular first (Zipf rank order). Every entry
/// maps to a real dependency-free package so controller provisions run
/// the genuine deploy-file plans.
pub const CATALOGUE: &[(&str, &str)] = &[
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

/// How the controller participates in a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControllerMode {
    /// Controllers observe and act (the healing run).
    Enabled,
    /// Controllers exist but are configured off: every tick must be a
    /// no-op (observe-only invariant).
    Disabled,
    /// Controllers are never constructed — the baseline the disabled
    /// mode must be event-identical to.
    Absent,
}

impl ControllerMode {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ControllerMode::Enabled => "enabled",
            ControllerMode::Disabled => "disabled",
            ControllerMode::Absent => "absent",
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct AutonomicParams {
    /// Grid sites (≥ 6: five seeded replicas plus spare capacity).
    pub sites: usize,
    /// Master seed for workload and controller RNG forks.
    pub seed: u64,
    /// Run length, simulated seconds (one telemetry tick per second).
    pub duration_secs: u64,
    /// Baseline offered load across all tenants, req/s.
    pub total_rate_hz: f64,
    /// Flash-crowd window start.
    pub flash_at_secs: u64,
    /// Flash-crowd window length.
    pub flash_secs: u64,
    /// Flash-crowd rate multiplier.
    pub flash_multiplier: f64,
    /// Mid-flash crash of controller B's home super-peer.
    pub crash_b_at_secs: u64,
    /// Amnesia restart of controller B's home (journal replay + reset).
    pub restart_b_at_secs: u64,
    /// Permanent crash of the site hosting the coldest type's replica.
    pub crash_victim_at_secs: u64,
    /// Per-site service capacity, req/s at utilization 1.0.
    pub site_capacity_hz: f64,
    /// Unloaded service latency, ms (the queueing-proxy numerator).
    pub base_latency_ms: f64,
    /// Controller round period, seconds.
    pub controller_interval_secs: u64,
    /// Controller participation.
    pub mode: ControllerMode,
    /// Placement policy knobs shared by both controllers.
    pub cfg: AutonomicConfig,
}

impl Default for AutonomicParams {
    fn default() -> Self {
        AutonomicParams {
            sites: 8,
            seed: 4213,
            duration_secs: 120,
            total_rate_hz: 120.0,
            flash_at_secs: 25,
            flash_secs: 55,
            flash_multiplier: 5.0,
            crash_b_at_secs: 40,
            restart_b_at_secs: 55,
            crash_victim_at_secs: 93,
            site_capacity_hz: 360.0,
            base_latency_ms: 50.0,
            controller_interval_secs: 5,
            mode: ControllerMode::Enabled,
            cfg: AutonomicConfig {
                enabled: true,
                hot_per_replica_hz: 60.0,
                cold_per_replica_hz: 12.0,
                max_replicas: 6,
            },
        }
    }
}

impl AutonomicParams {
    /// CI-sized run (the default scenario is already CI-sized; the smoke
    /// alias pins the seed so gates and docs agree on one artifact).
    pub fn smoke() -> Self {
        AutonomicParams::default()
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

/// Distinct up sites holding a usable deployment of `name`.
fn live_replica_sites(grid: &Grid, name: &str, now: SimTime) -> Vec<usize> {
    let mut sites: Vec<usize> = grid
        .deployments_anywhere(name, now)
        .into_iter()
        .filter(|(site, d)| grid.site_is_up(*site) && d.is_usable())
        .map(|(site, _)| site)
        .collect();
    sites.dedup();
    sites
}

/// Run the scenario.
pub fn run(p: &AutonomicParams) -> AutonomicReport {
    assert!(p.sites >= 6, "the scenario needs at least 6 sites");
    assert!(p.flash_at_secs + p.flash_secs < p.duration_secs);
    let t0 = SimTime::ZERO;

    // ---- Grid with durable stores and the seeded catalogue ----
    let mut grid = Grid::new(p.sites, Transport::Http);
    grid.enable_durability(StoreConfig::standard());
    let mut initial_site = BTreeMap::new();
    for (i, (name, pkg)) in CATALOGUE.iter().enumerate() {
        let ty = ActivityType::concrete_type(name, "autonomic", pkg);
        grid.register_type(0, ty.clone(), t0).unwrap();
        let home = i % p.sites;
        let mut visiting = HashSet::new();
        let mut reports = Vec::new();
        install_with_dependencies(
            &mut grid,
            &ty,
            home,
            ChannelKind::Expect,
            t0,
            &mut visiting,
            &mut reports,
            None,
        )
        .expect("seed install succeeds on a healthy grid");
        initial_site.insert((*name).to_owned(), home);
    }

    // ---- Controllers: one per super-peer (sites 0 and 1) ----
    let ctl_cfg = match p.mode {
        ControllerMode::Enabled => p.cfg,
        _ => AutonomicConfig {
            enabled: false,
            ..p.cfg
        },
    };
    let mut controllers: Vec<PlacementController> = match p.mode {
        ControllerMode::Absent => Vec::new(),
        _ => vec![
            PlacementController::new("ctl@site0", 0, p.seed, ctl_cfg, ChannelKind::Expect),
            PlacementController::new("ctl@site1", 1, p.seed, ctl_cfg, ChannelKind::Expect),
        ],
    };

    // ---- Workload: flash-crowd three-tier mix over the catalogue ----
    let names: Vec<&str> = CATALOGUE.iter().map(|(n, _)| *n).collect();
    let spec = WorkloadSpec::flash_crowd(
        p.seed,
        glare_fabric::SimDuration::from_secs(p.duration_secs),
        p.total_rate_hz,
        SimTime::from_secs(p.flash_at_secs),
        glare_fabric::SimDuration::from_secs(p.flash_secs),
        p.flash_multiplier,
    )
    .with_activities(&names)
    .with_zipf(1.0);
    // Per-tick arrival counts: [tick][activity][class_index].
    let n_types = CATALOGUE.len();
    let ticks = p.duration_secs as usize;
    let mut counts = vec![vec![[0u64; 3]; n_types]; ticks];
    for (i, tenant) in spec.tenants.iter().enumerate() {
        let class = tenant.class.index();
        for a in ArrivalStream::generate(&spec, i).arrivals {
            let tick = (a.at.as_nanos() / 1_000_000_000) as usize;
            if tick < ticks {
                counts[tick][a.activity][class] += 1;
            }
        }
    }

    // ---- The telemetry / healing loop ----
    let flash_end = p.flash_at_secs + p.flash_secs;
    let pre_window = p.flash_at_secs.saturating_sub(10)..p.flash_at_secs;
    let peak_window = p.flash_at_secs..(p.flash_at_secs + 10).min(flash_end);
    let post_window = flash_end.saturating_sub(15)..flash_end;
    // Chosen at crash time: the site holding the sole replica of a type
    // sitting at the replica floor, so the crash provably orphans it.
    let mut victim_site = initial_site[CATALOGUE[n_types - 1].0];

    let mut rounds: Vec<RoundRow> = Vec::new();
    let mut replicas: Vec<ReplicaSample> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut action_counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut offered = [0u64; 3];
    let mut served = [0u64; 3];
    let mut degraded = [0u64; 3];
    let mut served_pre = [0u64; 3];
    let mut served_post = [0u64; 3];
    // Worst per-activity latency seen by gold traffic each tick — the
    // spike/recovery scan tracks the hot-spot, not the mean.
    let mut gold_tick_worst: Vec<f64> = Vec::with_capacity(ticks);
    let mut pre_samples: Vec<(f64, u64)> = Vec::new();
    let mut peak_samples: Vec<(f64, u64)> = Vec::new();
    let mut post_samples: Vec<(f64, u64)> = Vec::new();
    let mut crash_lost: Vec<String> = Vec::new();
    let mut crash_recovered_at: BTreeMap<String, Option<u64>> = BTreeMap::new();

    for t in 0..p.duration_secs {
        let now = SimTime::from_secs(t);

        // -- Chaos schedule --
        if t == p.crash_b_at_secs {
            grid.crash_site(1, now);
        }
        if t == p.restart_b_at_secs {
            grid.restart_site(1, now);
            // The rejoined super-peer's controller lost all soft state to
            // the amnesia crash; it rebuilds from telemetry.
            for c in controllers.iter_mut().filter(|c| c.name() == "ctl@site1") {
                c.reset();
            }
        }
        if t == p.crash_victim_at_secs {
            for (name, _) in CATALOGUE.iter().rev() {
                let sites = live_replica_sites(&grid, name, now);
                if sites.len() as u32 <= MIN_REPLICAS {
                    if let Some(&s) = sites.first() {
                        victim_site = s;
                        break;
                    }
                }
            }
            for (name, _) in CATALOGUE {
                let sites = live_replica_sites(&grid, name, now);
                let survivors = sites.iter().filter(|&&s| s != victim_site).count();
                if !sites.is_empty() && survivors < MIN_REPLICAS as usize {
                    crash_lost.push((*name).to_owned());
                    crash_recovered_at.insert((*name).to_owned(), None);
                }
            }
            grid.crash_site(victim_site, now);
        }

        // -- Publish demand telemetry (trailing mean over the window) --
        let lo = (t as usize + 1).saturating_sub(DEMAND_WINDOW_TICKS);
        let window = &counts[lo..=t as usize];
        let mut demand_hz = vec![0.0f64; n_types];
        for (a, d) in demand_hz.iter_mut().enumerate() {
            let total: u64 = window.iter().map(|tk| tk[a].iter().sum::<u64>()).sum();
            *d = total as f64 / window.len() as f64;
        }
        for (a, (name, _)) in CATALOGUE.iter().enumerate() {
            grid.metrics
                .gauge(DEMAND_FAMILY, &Labels::of(&[("activity", name)]))
                .set(now, demand_hz[a]);
        }

        // -- Per-site utilization from the current placement --
        let replica_map: Vec<Vec<usize>> = CATALOGUE
            .iter()
            .map(|(name, _)| live_replica_sites(&grid, name, now))
            .collect();
        let mut util = vec![0.0f64; p.sites];
        for (a, sites) in replica_map.iter().enumerate() {
            if sites.is_empty() {
                continue;
            }
            let per_site = demand_hz[a] / sites.len() as f64 / p.site_capacity_hz;
            for &s in sites {
                util[s] += per_site;
            }
        }
        for (s, u) in util.iter().enumerate() {
            if grid.site_is_up(s) {
                grid.set_gauge(s, LOAD_FAMILY, None, now, *u);
            }
        }

        // -- Queueing proxy: per-type latency, per-class accounting --
        let mut worst = f64::NAN;
        for (a, sites) in replica_map.iter().enumerate() {
            let lat_ms = if sites.is_empty() {
                DEGRADED_MS
            } else {
                let mean_util: f64 =
                    sites.iter().map(|&s| util[s]).sum::<f64>() / sites.len() as f64;
                p.base_latency_ms / (1.0 - mean_util.min(0.98))
            };
            let tick_counts = &counts[t as usize][a];
            for (class, &n) in tick_counts.iter().enumerate() {
                offered[class] += n;
                if sites.is_empty() {
                    degraded[class] += n;
                } else {
                    served[class] += n;
                    if pre_window.contains(&t) {
                        served_pre[class] += n;
                    }
                    if post_window.contains(&t) {
                        served_post[class] += n;
                    }
                }
            }
            let gold_count = tick_counts[0];
            if gold_count > 0 {
                if worst.is_nan() || lat_ms > worst {
                    worst = lat_ms;
                }
                if pre_window.contains(&t) {
                    pre_samples.push((lat_ms, gold_count));
                }
                if peak_window.contains(&t) {
                    peak_samples.push((lat_ms, gold_count));
                }
                if post_window.contains(&t) {
                    post_samples.push((lat_ms, gold_count));
                }
            }
            // Crash-recovery bookkeeping: a lost type heals when its live
            // replica count is back at the floor.
            if let Some((name, _)) = CATALOGUE.get(a) {
                if let Some(slot @ None) = crash_recovered_at.get_mut(*name) {
                    if sites.len() as u32 >= MIN_REPLICAS {
                        *slot = Some(t);
                    }
                }
            }
        }
        gold_tick_worst.push(worst);

        // -- Controller rounds --
        if t > 0 && t % p.controller_interval_secs == 0 && !controllers.is_empty() {
            // Both controllers decide from ONE shared snapshot: they race
            // for the same hot-spot, and only the coordination lease keeps
            // them from double-provisioning.
            let enabled = controllers.iter().any(|c| c.is_enabled());
            if !enabled {
                // Disabled controllers still tick: the observe-only
                // invariant says these calls change nothing.
                for c in &mut controllers {
                    let out = c.tick(&mut grid, now);
                    assert!(out.records.is_empty(), "disabled tick must be a no-op");
                }
            } else {
                let snap = TelemetrySnapshot::observe(&grid, now);
                let mut applied_this_round: BTreeMap<String, u32> = BTreeMap::new();
                let decisions: Vec<_> = controllers
                    .iter_mut()
                    .map(|c| {
                        if grid.site_is_up(c.home()) {
                            c.decide(&snap)
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                for (c, actions) in controllers.iter_mut().zip(decisions) {
                    let outcome = c.act(&mut grid, actions, now);
                    for rec in &outcome.records {
                        let action = rec.action.kind.label().to_owned();
                        let oc = rec.outcome.label().to_owned();
                        *action_counts.entry((action.clone(), oc.clone())).or_default() += 1;
                        if rec.outcome == ActionOutcome::Applied {
                            match rec.action.kind {
                                ActionKind::Provision | ActionKind::Reprovision => {
                                    *applied_this_round
                                        .entry(rec.action.type_name.clone())
                                        .or_default() += 1;
                                    if !grid.site_is_up(rec.action.site) {
                                        violations.push(format!(
                                            "t={t}: {} of {} applied on dead site {}",
                                            action, rec.action.type_name, rec.action.site
                                        ));
                                    }
                                }
                                ActionKind::Retire => {
                                    let live =
                                        live_replica_sites(&grid, &rec.action.type_name, now)
                                            .len() as u32;
                                    if live < MIN_REPLICAS {
                                        violations.push(format!(
                                            "t={t}: retire of {} broke the replica floor",
                                            rec.action.type_name
                                        ));
                                    }
                                }
                            }
                        }
                        rounds.push(RoundRow {
                            t_secs: t,
                            controller: c.name().to_owned(),
                            action,
                            type_name: rec.action.type_name.clone(),
                            site: rec.action.site,
                            outcome: oc,
                        });
                    }
                }
                for (name, n) in applied_this_round {
                    if n > 1 {
                        violations.push(format!("t={t}: {name} provisioned {n}x in one round"));
                    }
                }
                // Post-round state checks + replica timeline.
                let post = TelemetrySnapshot::observe(&grid, now);
                publish_replica_gauges(&mut grid, &post, now);
                let mut sample = Vec::with_capacity(n_types);
                for (name, _) in CATALOGUE {
                    let live = live_replica_sites(&grid, name, now).len() as u32;
                    if live > p.cfg.max_replicas {
                        violations
                            .push(format!("t={t}: {name} has {live} replicas above the cap"));
                    }
                    sample.push(((*name).to_owned(), live));
                }
                replicas.push(ReplicaSample { t_secs: t, counts: sample });
            }
        }
    }

    // ---- Distill ----
    let gold_p99_pre_ms = weighted_p99(&pre_samples);
    let gold_p99_peak_ms = weighted_p99(&peak_samples);
    let gold_p99_post_ms = weighted_p99(&post_samples);
    let bound = 1.25 * gold_p99_pre_ms;
    let recovered = gold_p99_post_ms <= bound && gold_p99_pre_ms > 0.0;
    let spike_tick = (p.flash_at_secs..flash_end)
        .find(|&t| gold_tick_worst[t as usize] > bound);
    let recovery_after_flash_ms = spike_tick.and_then(|spike| {
        (spike..flash_end)
            .find(|&t| gold_tick_worst[t as usize] <= bound)
            .map(|t| (t - p.flash_at_secs) * 1000)
    });
    let mut crash_recovery_ms: Vec<f64> = crash_recovered_at
        .values()
        .filter_map(|v| v.map(|t| (t.saturating_sub(p.crash_victim_at_secs)) as f64 * 1000.0))
        .collect();
    crash_recovery_ms.sort_by(f64::total_cmp);
    for (name, slot) in &crash_recovered_at {
        if slot.is_none() {
            violations_note_unrecovered(&mut violations, p, name);
        }
    }

    let class_names = ["gold", "silver", "best_effort"];
    let classes = (0..3)
        .map(|i| ClassRow {
            class: class_names[i].to_owned(),
            offered: offered[i],
            served: served[i],
            degraded: degraded[i],
            goodput_pre_hz: served_pre[i] as f64
                / (pre_window.end - pre_window.start).max(1) as f64,
            goodput_post_hz: served_post[i] as f64
                / (post_window.end - post_window.start).max(1) as f64,
        })
        .collect();

    let jsonl = grid.events.to_jsonl();
    let digest = fnv1a(jsonl.as_bytes());

    AutonomicReport {
        params: *p,
        classes,
        gold_p99_pre_ms,
        gold_p99_peak_ms,
        gold_p99_post_ms,
        recovered,
        recovery_after_flash_ms,
        crash_victim_site: victim_site,
        crash_types_lost: crash_lost,
        crash_recovery_p50_ms: percentile(&crash_recovery_ms, 0.50).unwrap_or(0.0),
        crash_recovery_p95_ms: percentile(&crash_recovery_ms, 0.95).unwrap_or(0.0),
        degraded_reads_total: degraded.iter().sum(),
        action_counts,
        rounds,
        replicas,
        violations,
        events: jsonl.lines().count() as u64,
        event_digest: digest,
        lint_errors: grid.metrics.lint_metric_names().len(),
    }
}

fn violations_note_unrecovered(violations: &mut Vec<String>, p: &AutonomicParams, name: &str) {
    if p.mode == ControllerMode::Enabled {
        violations.push(format!(
            "{name} never regained its replica floor after the crash at t={}",
            p.crash_victim_at_secs
        ));
    }
}

/// Render the human-readable summary table.
pub fn render(r: &AutonomicReport) -> String {
    let mut s = format!(
        "Autonomic healing scenario ({} mode, seed {})\n\
         gold p99: pre {:.1} ms | peak {:.1} ms | late-flash {:.1} ms | recovered: {}\n",
        r.params.mode.label(),
        r.params.seed,
        r.gold_p99_pre_ms,
        r.gold_p99_peak_ms,
        r.gold_p99_post_ms,
        r.recovered,
    );
    if let Some(ms) = r.recovery_after_flash_ms {
        s.push_str(&format!("flash recovery: {:.1} s after spike onset\n", ms as f64 / 1e3));
    }
    s.push_str(&format!(
        "crash: site{} lost {:?}; floor restored p50 {:.1} s / p95 {:.1} s; degraded reads {}\n",
        r.crash_victim_site,
        r.crash_types_lost,
        r.crash_recovery_p50_ms / 1e3,
        r.crash_recovery_p95_ms / 1e3,
        r.degraded_reads_total,
    ));
    s.push_str("\nclass       | offered | served | degraded | goodput pre (hz) | goodput late-flash (hz)\n");
    for c in &r.classes {
        s.push_str(&format!(
            "{:<12}| {:>7} | {:>6} | {:>8} | {:>16.1} | {:>23.1}\n",
            c.class, c.offered, c.served, c.degraded, c.goodput_pre_hz, c.goodput_post_hz
        ));
    }
    s.push_str("\nactions (action/outcome):\n");
    for ((action, outcome), n) in &r.action_counts {
        s.push_str(&format!("  {action:<12} {outcome:<12} {n}\n"));
    }
    if !r.replicas.is_empty() {
        let last = &r.replicas[r.replicas.len() - 1];
        s.push_str(&format!("\nfinal replicas (t={}s): ", last.t_secs));
        for (name, n) in &last.counts {
            s.push_str(&format!("{name}={n} "));
        }
        s.push('\n');
    }
    s.push_str(&format!(
        "\ninvariant violations: {}   events: {}   digest: {:016x}\n",
        r.violations.len(),
        r.events,
        r.event_digest
    ));
    s
}

impl AutonomicReport {
    /// The `BENCH_autonomic.json` document: everything derives from
    /// sim-time alone, so it is byte-identical for a given seed.
    pub fn to_json(&self) -> Json {
        let p = &self.params;
        let deterministic = Json::obj([
            (
                "params",
                Json::obj([
                    ("sites", Json::from(p.sites)),
                    ("seed", Json::from(p.seed)),
                    ("duration_secs", Json::from(p.duration_secs)),
                    ("total_rate_hz", Json::from(p.total_rate_hz)),
                    ("flash_at_secs", Json::from(p.flash_at_secs)),
                    ("flash_secs", Json::from(p.flash_secs)),
                    ("flash_multiplier", Json::from(p.flash_multiplier)),
                    ("crash_b_at_secs", Json::from(p.crash_b_at_secs)),
                    ("restart_b_at_secs", Json::from(p.restart_b_at_secs)),
                    ("crash_victim_at_secs", Json::from(p.crash_victim_at_secs)),
                    ("site_capacity_hz", Json::from(p.site_capacity_hz)),
                    ("base_latency_ms", Json::from(p.base_latency_ms)),
                    ("controller_interval_secs", Json::from(p.controller_interval_secs)),
                    ("mode", Json::from(p.mode.label())),
                    ("hot_per_replica_hz", Json::from(p.cfg.hot_per_replica_hz)),
                    ("cold_per_replica_hz", Json::from(p.cfg.cold_per_replica_hz)),
                    ("min_replicas", Json::from(u64::from(MIN_REPLICAS))),
                    ("max_replicas", Json::from(u64::from(p.cfg.max_replicas))),
                    ("cooldown_secs", Json::from(COOLDOWN.as_nanos() / 1_000_000_000)),
                    ("max_actions_per_round", Json::from(MAX_ACTIONS_PER_ROUND)),
                    ("max_target_load", Json::from(MAX_TARGET_LOAD)),
                ]),
            ),
            (
                "classes",
                Json::arr(self.classes.iter().map(|c| {
                    Json::obj([
                        ("class", Json::from(c.class.as_str())),
                        ("offered", Json::from(c.offered)),
                        ("served", Json::from(c.served)),
                        ("degraded", Json::from(c.degraded)),
                        ("goodput_pre_hz", Json::from(c.goodput_pre_hz)),
                        ("goodput_post_hz", Json::from(c.goodput_post_hz)),
                    ])
                })),
            ),
            (
                "gold",
                Json::obj([
                    ("p99_pre_ms", Json::from(self.gold_p99_pre_ms)),
                    ("p99_peak_ms", Json::from(self.gold_p99_peak_ms)),
                    ("p99_post_ms", Json::from(self.gold_p99_post_ms)),
                    ("recovered", Json::from(self.recovered)),
                    (
                        "recovery_after_flash_ms",
                        match self.recovery_after_flash_ms {
                            Some(ms) => Json::from(ms),
                            None => Json::Null,
                        },
                    ),
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
                    Json::obj([
                        ("t_secs", Json::from(s.t_secs)),
                        (
                            "counts",
                            Json::obj(
                                s.counts
                                    .iter()
                                    .map(|(name, n)| (name.as_str(), Json::from(u64::from(*n))))
                                    .collect::<Vec<_>>(),
                            ),
                        ),
                    ])
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
        let r = run(&AutonomicParams::smoke());
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
    fn disabled_run_does_not_recover() {
        let mut p = AutonomicParams::smoke();
        p.mode = ControllerMode::Disabled;
        let r = run(&p);
        assert!(!r.recovered, "without the controller the hot-spot persists");
        assert!(r.rounds.is_empty());
        assert!(r.action_counts.is_empty());
    }

    #[test]
    fn deterministic_half_is_seed_stable() {
        let p = AutonomicParams::smoke();
        let a = run(&p).to_json().to_string_pretty();
        let b = run(&p).to_json().to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"glare.autonomic.v1\""));
    }

    #[test]
    fn disabled_mode_is_event_identical_to_absent() {
        // The controller-disabled event-identity check: same seed, a
        // constructed-but-disabled controller pair vs no controller at
        // all must yield byte-identical event logs.
        let mut p = AutonomicParams::smoke();
        p.mode = ControllerMode::Disabled;
        let disabled = run(&p);
        p.mode = ControllerMode::Absent;
        let absent = run(&p);
        assert_eq!(disabled.event_digest, absent.event_digest);
        assert_eq!(disabled.events, absent.events);
        assert_eq!(
            disabled.to_json().to_string_pretty(),
            absent
                .to_json()
                .to_string_pretty()
                .replace("\"mode\": \"absent\"", "\"mode\": \"disabled\""),
        );
    }
}
