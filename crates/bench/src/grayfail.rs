//! Gray-failure resilience scenario: a slow (not dead) super-peer plus a
//! degraded trunk link under a closed-loop query workload.
//!
//! The discrete-event overlay (12 sites, three groups of four) serves a
//! skewed three-activity catalogue replicated once per *foreign* group:
//! with the cache off, every query escalates through the clients' super-
//! peer, yet any alternate super-peer can serve the read — the
//! precondition for a hedged probe to help. The run has three phases:
//!
//! 1. **Healthy** — baseline latencies; the per-peer RTT estimators warm.
//! 2. **Gray** — the clients' super-peer is compute-degraded by a large
//!    factor (its 4 ms request stage blows past the 500 ms probe
//!    deadline) and the trunk link between the two busiest super-peers is
//!    latency-degraded. Crucially the slow site keeps heartbeating: the
//!    crash detector sees a healthy peer while every probe through it
//!    stalls — the canonical gray failure.
//! 3. **Healed** — both degradations lift; latencies must return.
//!
//! Two modes share the seed: `enabled` (adaptive suspicion + hedged
//! probes) and `disabled` (the node's default config, which holds both
//! features off). Enabled must hold the gray-phase gold p99 within the
//! acceptance bound while the unhedged run blows through it; and neither
//! mode may ever *declare* the slow super-peer failed (zero false-positive
//! takeovers).
//!
//! The report (`BENCH_grayfail.json`) derives from sim-time alone, so it
//! is byte-identical for a given seed.

use std::sync::Arc;

use glare_core::invariants;
use glare_core::model::ActivityDeployment;
use glare_core::node::NodeConfig;
use glare_core::overlay::ClientStats;
use glare_core::suspicion::{HedgeConfig, SuspicionConfig};
use glare_core::{GlareNode, TenantClass};
use glare_fabric::store::fnv1a;
use glare_fabric::sync::Mutex;
use glare_fabric::{
    percentile, ActorId, FaultPlan, Labels, SimDuration, SimTime, Simulation, SiteId, Topology,
    DEFAULT_MAX_EVENTS,
};

use crate::json::{fields, Json};
use crate::scenario::{deployment, node_defaults, Client, Registry, Run, Scenario};

/// Skewed activity catalogue (concrete types of the example hierarchy):
/// client assignment is Zipf-flavored (half the clients hammer the head
/// entry).
pub const ACTIVITIES: &[&str] = &["JPOVray", "Wien2k", "Invmod"];

/// How the gray-resilience features participate in a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrayMode {
    /// Adaptive suspicion and hedged probes on (the resilient run).
    Enabled,
    /// Both features off, as [`glare_core::node::NodeConfig::new`] leaves
    /// them.
    Disabled,
}

impl GrayMode {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            GrayMode::Enabled => "enabled",
            GrayMode::Disabled => "disabled",
        }
    }
}

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct GrayfailParams {
    /// Overlay sites (12: three groups of four).
    pub sites: usize,
    /// Master seed.
    pub seed: u64,
    /// Closed-loop clients, spread over the plain members of group 0.
    pub clients: usize,
    /// Client think time between queries, ms.
    pub think_ms: u64,
    /// Healthy warm-up phase, seconds (also the baseline window).
    pub healthy_secs: u64,
    /// Gray phase length, seconds.
    pub gray_secs: u64,
    /// Post-heal cool-down, seconds.
    pub healed_secs: u64,
    /// Compute slowdown of the clients' super-peer during the gray phase.
    pub slow_factor: f64,
    /// Latency multiplier on the degraded trunk link.
    pub link_factor: f64,
}

impl Default for GrayfailParams {
    fn default() -> Self {
        GrayfailParams {
            sites: 12,
            seed: 2026,
            clients: 6,
            think_ms: 400,
            healthy_secs: 120,
            gray_secs: 120,
            healed_secs: 60,
            slow_factor: 150.0,
            link_factor: 4.0,
        }
    }
}

impl GrayfailParams {
    /// CI-sized run (the default scenario is already CI-sized; the smoke
    /// alias pins the seed so gates and docs agree on one artifact).
    pub fn smoke() -> Self {
        GrayfailParams::default()
    }
}

/// Latency summary of one (class, phase) window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    /// Tenant class label.
    pub class: String,
    /// Phase label (`healthy` / `gray` / `healed`).
    pub phase: String,
    /// Responses in the window.
    pub responses: u64,
    /// Responses carrying deployments.
    pub hits: u64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
}

/// One sampled suspicion level.
#[derive(Clone, Debug, PartialEq)]
pub struct SuspicionSample {
    /// Sample instant, seconds.
    pub t_secs: u64,
    /// Site label.
    pub site: String,
    /// Suspicion level (0 = trusted).
    pub level: f64,
}

/// One mode's run.
#[derive(Clone, Debug)]
pub struct ModeReport {
    /// Mode label.
    pub mode: GrayMode,
    /// Per-class, per-phase latency windows (class-major, phase order).
    pub windows: Vec<WindowRow>,
    /// Hedge probes fired across all client nodes.
    pub hedges_fired: u64,
    /// Hedges whose alternate answer concluded the stage.
    pub hedges_won: u64,
    /// Hedges that fired but lost to the original.
    pub hedges_wasted: u64,
    /// Super-peer takeovers over the run (must equal the group count).
    pub takeovers: u64,
    /// Confirmed failures of a site that never crashed
    /// ([`invariants::false_takeovers`]; must be 0: the peer is slow, not
    /// dead).
    pub false_takeovers: u64,
    /// Suspicion-level samples at the phase boundaries (client sites).
    pub suspicion: Vec<SuspicionSample>,
    /// Safety violations (must be empty).
    pub violations: Vec<String>,
    /// Event records emitted.
    pub events: u64,
    /// FNV-1a digest of the event log JSONL.
    pub event_digest: u64,
    /// Metric-name lint violations (must be 0).
    pub lint_errors: usize,
}

/// The assembled two-mode report.
#[derive(Clone, Debug)]
pub struct GrayfailReport {
    /// Parameters shared by all modes.
    pub params: GrayfailParams,
    /// Per-mode runs, enabled first.
    pub runs: Vec<ModeReport>,
    /// Gray-phase gold p99 ≤ 2x the healthy baseline with hedging on.
    pub enabled_within_2x: bool,
    /// Gray-phase gold p99 > 5x the healthy baseline with hedging off.
    pub disabled_exceeds_5x: bool,
    /// Enabled gray-phase gold p99 strictly beats disabled.
    pub hedged_beats_unhedged: bool,
}

/// Per-class latency slices bracketed at the phase boundaries.
struct ClassWindows {
    stats: Vec<Arc<Mutex<ClientStats>>>,
    marks: Vec<Vec<usize>>,
}

impl ClassWindows {
    fn mark(&mut self) {
        for (c, s) in self.stats.iter().enumerate() {
            self.marks[c].push(s.lock().latencies.len());
        }
    }

    /// `(responses, hits_estimate, sorted latencies ms)` of window `w`
    /// for class `c`. Hits are attributed per window by slicing the
    /// response log at the phase marks.
    fn window(&self, c: usize, w: usize) -> (u64, Vec<f64>) {
        let s = self.stats[c].lock();
        let lo = self.marks[c][w];
        let hi = self.marks[c][w + 1];
        let mut ms: Vec<f64> = s.latencies[lo..hi]
            .iter()
            .map(|d| d.as_nanos() as f64 / 1e6)
            .collect();
        ms.sort_by(f64::total_cmp);
        ((hi - lo) as u64, ms)
    }
}

/// Statically computed election outcome the coordinator will build.
pub(crate) struct SitePlan {
    /// Member sites of group 0, where the query clients live.
    client_sites: Vec<usize>,
    /// Group 0's super-peer site — the gray-failure victim.
    sp0: usize,
    /// Group 1's super-peer site, across the degraded trunk from `sp0`.
    trunk: usize,
    /// One replica of every activity per foreign group.
    deployments: Vec<(usize, ActivityDeployment)>,
}

pub(crate) fn plan_sites(p: &GrayfailParams) -> SitePlan {
    let topo = Topology::uniform(p.sites);
    let responders: Vec<(ActorId, u64)> = (0..p.sites as u32)
        .map(|i| (ActorId(i), topo.site(SiteId(i)).rank_hashcode()))
        .collect();
    let plan = glare_core::plan_tree(&responders, 4, 4, 2);
    let groups = &plan.levels[0];
    assert!(groups.len() >= 3, "the scenario needs three groups");
    let client_sites: Vec<usize> = groups[0].members.iter().map(|a| a.0 as usize).collect();
    let sp0 = groups[0].super_peer.0 as usize;
    let trunk = groups[1].super_peer.0 as usize;
    // Every activity is replicated once per foreign group, on a plain
    // member (round-robin within the group). Every lookup must leave
    // group 0, and any alternate super-peer can serve the read — the
    // precondition for a hedged probe to be useful at all.
    let mut deployments = Vec::new();
    for g in &groups[1..] {
        let mut members: Vec<usize> = g.members.iter().map(|a| a.0 as usize).collect();
        members.sort_unstable();
        for (a, name) in ACTIVITIES.iter().enumerate() {
            let site = members[a % members.len()];
            deployments.push(deployment(name, site, &name.to_lowercase(), "run"));
        }
    }
    SitePlan { client_sites, sp0, trunk, deployments }
}

/// One mode as a scenario: cache off and a single election, so every
/// query escalates through group 0's super-peer; the catalogue seeded per
/// `plan`; closed-loop clients with a Zipf-flavored activity skew (half on
/// the head entry) and classes round-robin, spread over group 0's plain
/// members, each class its own stats group. The gray phase slows the
/// clients' super-peer and degrades the trunk to the next super-peer (both
/// directions); a 1.0 slowdown is the healthy price, so no fault.
pub(crate) fn scenario(p: &GrayfailParams, mode: GrayMode, plan: &SitePlan) -> Scenario {
    let (suspicion, hedge) = match mode {
        GrayMode::Enabled => (SuspicionConfig::standard(), HedgeConfig::standard()),
        GrayMode::Disabled => (SuspicionConfig::disabled(), HedgeConfig::disabled()),
    };
    let client = |k: usize| Client {
        site: plan.client_sites[k % plan.client_sites.len()],
        activity: ACTIVITIES[[0, 0, 0, 1, 1, 2][k % 6]].to_owned(),
        think: SimDuration::from_millis(p.think_ms),
        count: u64::MAX / 2, // run until the horizon, not a fixed count
        class: TenantClass::ALL[k % TenantClass::ALL.len()],
        group: k % TenantClass::ALL.len(),
    };
    let from = SimTime::from_secs(p.healthy_secs);
    let until = SimTime::from_secs(p.healthy_secs + p.gray_secs);
    let (sp0, trunk) = (SiteId(plan.sp0 as u32), SiteId(plan.trunk as u32));
    let mut faults = FaultPlan::new();
    if p.slow_factor > 1.0 {
        faults = faults.slow_site(from, until, sp0, p.slow_factor);
    }
    Scenario {
        node: NodeConfig {
            use_cache: false,
            election_interval: None,
            suspicion,
            hedge,
            ..node_defaults()
        },
        registry: Registry::hierarchy(plan.deployments.clone()),
        events: Some(DEFAULT_MAX_EVENTS),
        faults: faults.degrade_link(from, until, sp0, trunk, p.link_factor),
        clients: (0..p.clients).map(client).collect(),
        ..Scenario::new(p.sites, p.seed)
    }
}

/// Per-class, per-phase latency rows. The first mark lands after the
/// settling prefix, so the three windows map 1:1 onto the phases. The
/// response log carries no timestamps, so misses (which only the slow-peer
/// deadline can produce) are attributed to the gray row. A class without
/// traffic is a violation.
fn window_rows(windows: &ClassWindows, violations: &mut Vec<String>) -> Vec<WindowRow> {
    let mut rows = Vec::new();
    for (c, label) in TenantClass::ALL.map(TenantClass::label).into_iter().enumerate() {
        let (responses_total, misses_total) = {
            let s = windows.stats[c].lock();
            (s.responses, s.responses - s.hits)
        };
        for (w, phase) in ["healthy", "gray", "healed"].into_iter().enumerate() {
            let (responses, ms) = windows.window(c, w);
            let hits = if phase == "gray" {
                responses.saturating_sub(misses_total)
            } else {
                responses
            };
            rows.push(WindowRow {
                class: label.to_owned(),
                phase: phase.to_owned(),
                responses,
                hits,
                p50_ms: percentile(&ms, 0.50).unwrap_or(0.0),
                p99_ms: percentile(&ms, 0.99).unwrap_or(0.0),
            });
        }
        if responses_total == 0 {
            violations.push(format!("class {label} saw no traffic"));
        }
    }
    rows
}

/// Run one mode: mark the phase boundaries (the degradations themselves
/// are in the scenario's fault plan), sample suspicion at each, and
/// distill.
pub fn run_mode(p: &GrayfailParams, mode: GrayMode) -> ModeReport {
    assert!(p.sites >= 12, "the scenario needs three groups of four");
    let plan = plan_sites(p);
    let expected_groups = p.sites.div_ceil(4) as u64;
    let Run { mut sim, ids, mut stats, .. } = scenario(p, mode, &plan).start();
    // A class no client belongs to still gets its (empty) window rows.
    stats.resize_with(TenantClass::ALL.len(), ClientStats::shared);
    let mut windows = ClassWindows { stats, marks: vec![Vec::new(); TenantClass::ALL.len()] };

    // Phase schedule. The election needs a couple of seconds; the healthy
    // baseline window starts after a short settling prefix.
    let mut suspicion = Vec::new();
    let sample_suspicion = |sim: &Simulation, t: u64, out: &mut Vec<SuspicionSample>| {
        let now = sim.now();
        for &site in &plan.client_sites {
            if let Some(node) = sim.actor_as::<GlareNode>(ids[site]) {
                out.push(SuspicionSample {
                    t_secs: t,
                    site: format!("site{site}"),
                    level: node.super_peer_suspicion(now),
                });
            }
        }
    };
    sim.run_until(SimTime::from_secs(10));
    windows.mark();
    let horizon = p.healthy_secs + p.gray_secs + p.healed_secs;
    for t in [p.healthy_secs, p.healthy_secs + p.gray_secs, horizon] {
        sim.run_until(SimTime::from_secs(t));
        windows.mark();
        sample_suspicion(&sim, t, &mut suspicion);
    }

    let mut violations = Vec::new();
    let rows = window_rows(&windows, &mut violations);
    let m = sim.metrics();
    let sites: Vec<Labels> =
        plan.client_sites.iter().map(|s| Labels::of(&[("site", &format!("site{s}"))])).collect();
    let hedges = ["glare_hedges_fired_total", "glare_hedges_won_total", "glare_hedges_wasted_total"]
        .map(|family| sites.iter().map(|l| m.counter_labeled_value(family, l)).sum::<u64>());
    let takeovers = m.counter_value("glare.superpeer_takeovers");
    let ev = sim.events().expect("events enabled");
    // No site crashes here, so every confirmed failure is a false one.
    let false_takeovers = invariants::false_takeovers(ev, &ids).len() as u64;
    if takeovers != expected_groups {
        violations.push(format!("takeovers {takeovers} != initial elections {expected_groups}"));
    }
    violations.extend(invariants::overlay(&sim, &ids, sim.now()));
    if mode == GrayMode::Disabled && hedges[0] != 0 {
        violations.push(format!("{} hedges fired while disabled", hedges[0]));
    }
    let lint = m.lint_metric_names();
    if !lint.is_empty() {
        violations.push(format!("metric lint: {lint:?}"));
    }
    let jsonl = ev.to_jsonl();
    let digest = fnv1a(jsonl.as_bytes());

    ModeReport {
        mode,
        windows: rows,
        hedges_fired: hedges[0],
        hedges_won: hedges[1],
        hedges_wasted: hedges[2],
        takeovers,
        false_takeovers,
        suspicion,
        violations,
        events: jsonl.lines().count() as u64,
        event_digest: digest,
        lint_errors: lint.len(),
    }
}

/// Gold-class p99 of one phase.
fn gold_p99(r: &ModeReport, phase: &str) -> f64 {
    r.windows
        .iter()
        .find(|w| w.class == "gold" && w.phase == phase)
        .map(|w| w.p99_ms)
        .unwrap_or(0.0)
}

/// Run both modes and compute the acceptance verdicts.
pub fn run(p: &GrayfailParams) -> GrayfailReport {
    let enabled = run_mode(p, GrayMode::Enabled);
    let disabled = run_mode(p, GrayMode::Disabled);

    let e_healthy = gold_p99(&enabled, "healthy");
    let e_gray = gold_p99(&enabled, "gray");
    let d_healthy = gold_p99(&disabled, "healthy");
    let d_gray = gold_p99(&disabled, "gray");
    let enabled_within_2x = e_healthy > 0.0 && e_gray <= 2.0 * e_healthy;
    let disabled_exceeds_5x = d_healthy > 0.0 && d_gray > 5.0 * d_healthy;
    let hedged_beats_unhedged = e_gray < d_gray;

    GrayfailReport {
        params: *p,
        runs: vec![enabled, disabled],
        enabled_within_2x,
        disabled_exceeds_5x,
        hedged_beats_unhedged,
    }
}

/// Render the human-readable summary.
pub fn render(r: &GrayfailReport) -> String {
    let mut s = format!(
        "Gray-failure resilience (seed {}, slow x{:.0}, trunk x{:.0})\n",
        r.params.seed, r.params.slow_factor, r.params.link_factor
    );
    for run in &r.runs {
        s.push_str(&format!(
            "\nmode {} — hedges fired/won/wasted {}/{}/{} — takeovers {} — false {}\n",
            run.mode.label(),
            run.hedges_fired,
            run.hedges_won,
            run.hedges_wasted,
            run.takeovers,
            run.false_takeovers,
        ));
        s.push_str("class       | phase   | responses |   p50 ms |   p99 ms\n");
        for w in &run.windows {
            s.push_str(&format!(
                "{:<12}| {:<8}| {:>9} | {:>8.1} | {:>8.1}\n",
                w.class, w.phase, w.responses, w.p50_ms, w.p99_ms
            ));
        }
        if !run.violations.is_empty() {
            s.push_str(&format!("violations: {:?}\n", run.violations));
        }
    }
    s.push_str(&format!(
        "\nacceptance: enabled_within_2x={} disabled_exceeds_5x={} hedged_beats_unhedged={}\n",
        r.enabled_within_2x, r.disabled_exceeds_5x, r.hedged_beats_unhedged
    ));
    s
}

impl ModeReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::from(self.mode.label())),
            (
                "windows",
                Json::arr(self.windows.iter().map(|w| {
                    Json::obj(fields!(w; class, phase, responses, hits, p50_ms, p99_ms))
                })),
            ),
            (
                "hedges",
                Json::obj([
                    ("fired", Json::from(self.hedges_fired)),
                    ("won", Json::from(self.hedges_won)),
                    ("wasted", Json::from(self.hedges_wasted)),
                ]),
            ),
            ("takeovers", Json::from(self.takeovers)),
            ("false_takeovers", Json::from(self.false_takeovers)),
            (
                "suspicion",
                Json::arr(self.suspicion.iter().map(|s| {
                    Json::obj(fields!(s; t_secs, site, level))
                })),
            ),
            (
                "violations",
                Json::arr(self.violations.iter().map(|v| Json::from(v.as_str()))),
            ),
            ("events", Json::from(self.events)),
            ("event_digest", Json::from(format!("{:016x}", self.event_digest))),
            ("lint_errors", Json::from(self.lint_errors)),
        ])
    }
}

impl GrayfailReport {
    /// The `BENCH_grayfail.json` document: everything derives from
    /// sim-time alone, so it is byte-identical for a given seed.
    pub fn to_json(&self) -> Json {
        let p = &self.params;
        let deterministic = Json::obj([
            (
                "params",
                Json::obj(fields!(
                    p;
                    sites, seed, clients, think_ms, healthy_secs, gray_secs, healed_secs,
                    slow_factor, link_factor,
                )),
            ),
            ("runs", Json::arr(self.runs.iter().map(|r| r.to_json()))),
            ("enabled_within_2x", Json::from(self.enabled_within_2x)),
            ("disabled_exceeds_5x", Json::from(self.disabled_exceeds_5x)),
            ("hedged_beats_unhedged", Json::from(self.hedged_beats_unhedged)),
        ]);
        Json::obj([
            ("schema", Json::from("glare.grayfail.v2")),
            ("experiment", Json::from("grayfail")),
            ("deterministic", deterministic),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glare_core::node::NodeConfig;

    #[test]
    fn hedging_holds_the_gray_phase_p99() {
        let r = run(&GrayfailParams::smoke());
        let modes: Vec<&str> = r.runs.iter().map(|m| m.mode.label()).collect();
        assert_eq!(modes, ["enabled", "disabled"]);
        // The disabled row runs the node's defaults: hold them off.
        let defaults = NodeConfig::new("x", 0);
        assert_eq!(defaults.suspicion, SuspicionConfig::disabled());
        assert_eq!(defaults.hedge, HedgeConfig::disabled());
        for m in &r.runs {
            assert!(m.violations.is_empty(), "{}: {:?}", m.mode.label(), m.violations);
            assert_eq!(m.lint_errors, 0, "{}: metric-name lint", m.mode.label());
            assert_eq!(m.false_takeovers, 0, "{}: a slow peer was declared dead", m.mode.label());
        }
        assert!(r.enabled_within_2x, "{}", render(&r));
        assert!(r.disabled_exceeds_5x, "{}", render(&r));
        assert!(r.hedged_beats_unhedged, "{}", render(&r));
        assert!(r.runs[0].hedges_fired > 0, "the gray phase must hedge");
        assert!(r.runs[0].hedges_won > 0, "hedges must win under the slow peer");
        assert_eq!(r.runs[1].hedges_fired, 0, "hedges fired with the stack disabled");
    }

    #[test]
    fn enabled_mode_holds_its_invariants_across_swept_seeds() {
        for seed in 1..=4 {
            let p = GrayfailParams { seed, ..GrayfailParams::smoke() };
            let m = run_mode(&p, GrayMode::Enabled);
            assert!(m.violations.is_empty(), "seed {seed}: {:?}", m.violations);
        }
    }

    #[test]
    fn deterministic_half_is_seed_stable() {
        let p = GrayfailParams::smoke();
        let a = run(&p).to_json().to_string_pretty();
        let b = run(&p).to_json().to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"glare.grayfail.v2\""));
    }
}
