//! Chaos soak harness: randomized fault schedules against the recovery
//! stack, with an invariant checker asserting post-heal convergence.
//!
//! Two phases share one parameter set:
//!
//! 1. **Overlay sweep** — for each message-loss rate in the sweep, a
//!    discrete-event overlay runs with retries enabled
//!    ([`glare_core::RetryPolicy::standard`]) and the gray-failure stack
//!    on (adaptive suspicion + hedged probes) under a seeded
//!    [`FaultPlan`]: random site outages *and* random gray slowdowns,
//!    a scripted partition and a flapping link, plus uniform message
//!    loss and a per-link loss override. All faults heal before the
//!    horizon; the network then runs clean for two election cycles,
//!    after which the invariant checker inspects every node through
//!    [`glare_fabric::Simulation::actor_as`].
//! 2. **Grid phase** — the synchronous harness under a seeded
//!    [`FaultInjector`]: a clean provision, a provision attempt under
//!    loss, and a lease workload with a mid-run crash/restart of the
//!    granting site exercising [`Grid::acquire_lease_retrying`], the
//!    per-site breakers and the restart-time lease sweep.
//!
//! Invariants, all from [`glare_core::invariants`] (each violation is one
//! human-readable string; the soak passes only when the list is empty):
//!
//! * the overlay phase checks [`invariants::overlay`] once the network
//!   heals — one super-peer per group, every cached deployment in its
//!   origin's registry, and no false-positive takeover (a merely *slow*
//!   site is never declared dead);
//! * the Grid phase checks [`invariants::provision_queryable`] on each
//!   provision that succeeds (a failure is an explicit error, by type)
//!   and [`invariants::lease_caps`] over every site's final ledger.
//!
//! Everything is deterministic: same params → byte-identical event JSONL,
//! `BENCH_chaos.json` and `BENCH_recovery.json`.

use glare_core::grid::{FaultInjector, Grid};
use glare_core::invariants;
use glare_core::lease::LeaseKind;
use glare_core::model::example_hierarchy;
use glare_core::node::NodeConfig;
use glare_core::rdm::{provision, ProvisionRequest};
use glare_core::suspicion::{HedgeConfig, SuspicionConfig};
use glare_core::RetryPolicy;
use glare_fabric::{
    percentile, FaultPlan, MetricsRegistry, SimDuration, SimRng, SimTime, SiteId,
    DEFAULT_MAX_EVENTS,
};
use glare_services::{ChannelKind, Transport};

use crate::json::fields;
use crate::scenario::{node_defaults, Client, Registry, Run, Scenario};

/// [`percentile`] of ascending millisecond samples; 0 when there are none.
fn pct(sorted_ms: &[f64], q: f64) -> f64 {
    percentile(sorted_ms, q).unwrap_or(0.0)
}

/// The fewest sites the scenario runs on: the scripted partition and
/// flapping link need sites 1–3 beside the coordinator, site 0.
pub const MIN_SITES: usize = 4;

/// Compute-cost multiplier each gray slowdown applies while active.
const SLOW_FACTOR: f64 = 8.0;

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct ChaosParams {
    /// Grid sites (overlay nodes and Grid-phase sites). Minimum [`MIN_SITES`].
    pub sites: usize,
    /// Clients spread round-robin over the sites.
    pub clients: usize,
    /// Queries per client.
    pub queries_per_client: u64,
    /// Distinct activity types with deployments in the overlay phase.
    pub types: usize,
    /// Master seed.
    pub seed: u64,
    /// Fault window, seconds of sim-time. All scripted faults heal by
    /// 60% of this; uniform loss stops at 100%, after which the overlay
    /// runs two clean election cycles before the invariant check.
    pub horizon_secs: u64,
    /// Message-loss rates to sweep (each ≥ 0; the soak requirement is
    /// at least one point ≥ 1%).
    pub losses: Vec<f64>,
    /// Random site outages scripted into each overlay run.
    pub outages: usize,
    /// Random gray slowdowns (compute-degraded but alive sites)
    /// scripted into each overlay run alongside the outages.
    pub slowdowns: usize,
    /// Lease workload rounds in the Grid phase.
    pub lease_rounds: u64,
}

impl Default for ChaosParams {
    fn default() -> Self {
        ChaosParams {
            sites: 6,
            clients: 12,
            queries_per_client: 10,
            types: 8,
            seed: 7331,
            horizon_secs: 900,
            losses: vec![0.01, 0.03, 0.05],
            outages: 3,
            slowdowns: 3,
            lease_rounds: 12,
        }
    }
}

impl ChaosParams {
    /// Small parameters for smoke tests and CI: one loss point ≥ 1%.
    pub fn smoke() -> Self {
        ChaosParams {
            sites: 4,
            clients: 6,
            queries_per_client: 6,
            types: 6,
            seed: 13,
            horizon_secs: 600,
            losses: vec![0.02],
            outages: 2,
            slowdowns: 2,
            lease_rounds: 8,
        }
    }
}

/// One loss-rate point of the overlay sweep.
#[derive(Clone, Debug)]
pub struct LossRow {
    /// Uniform message-loss probability for this run.
    pub loss: f64,
    /// Queries sent by all clients.
    pub sent: u64,
    /// Query responses received.
    pub responses: u64,
    /// Responses carrying a deployment.
    pub hits: u64,
    /// responses / sent (0 when nothing was sent).
    pub availability: f64,
    /// Retry attempts across all sites and ops (`glare_retries_total`).
    pub retries: u64,
    /// Backoff delays drawn (`glare_retry_backoff_ms` sample count).
    pub backoff_count: u64,
    /// Worst per-site 95th-percentile backoff (ms).
    pub backoff_p95_ms: f64,
    /// Breaker open transitions (`glare_breaker_transitions_total`).
    pub breaker_opens: u64,
    /// Calls refused by an open breaker.
    pub short_circuits: u64,
    /// Queries answered from stale cache (`glare_degraded_reads_total`).
    pub degraded_reads: u64,
    /// Messages dropped by the loss model.
    pub dropped_loss: u64,
    /// Messages dropped by partitions.
    pub dropped_partition: u64,
    /// Messages dropped at crashed sites.
    pub dropped_site_down: u64,
    /// Super-peer takeovers over the run.
    pub takeovers: u64,
    /// `failure.confirmed` events whose suspect never crashed — a slow
    /// or lossy-but-alive peer declared dead (must be 0).
    pub false_takeovers: u64,
    /// Worst per-site 95th-percentile failure-detection latency (ms).
    pub failure_detect_p95_ms: f64,
    /// Scripted site outages that completed (crash + restart pairs).
    pub site_restarts: u64,
    /// Gray slowdown windows that started (`site.degraded` events).
    pub slowdowns: u64,
    /// Hedged probes fired across all sites (`glare_hedges_fired_total`).
    pub hedges_fired: u64,
    /// Completed end-to-end recoveries (crash → replay → rejoin),
    /// i.e. samples of `glare_recovery_ms` across all sites.
    pub recoveries: u64,
    /// Journal records replayed across all recoveries.
    pub replayed_records: u64,
    /// End-to-end recovery times in milliseconds, sorted ascending
    /// (feeds the `BENCH_recovery.json` percentiles).
    pub recovery_ms: Vec<f64>,
    /// Invariant violations found after the heal window (must be empty).
    pub violations: Vec<String>,
    /// Structured event log, JSONL.
    pub events_jsonl: String,
    /// Event records dropped (0 = complete log).
    pub events_dropped: u64,
    /// Metric-name lint violations for this run's registry.
    pub lint: Vec<String>,
}

/// Outcome of the Grid phase.
#[derive(Clone, Debug)]
pub struct GridChaos {
    /// Provision attempts that succeeded.
    pub provisions_ok: u64,
    /// Provision attempts that failed explicitly.
    pub provisions_failed: u64,
    /// Leases granted (`glare_leases_total{outcome="granted"}`).
    pub leases_granted: u64,
    /// Leases rejected by the ledger (capacity/conflict).
    pub leases_rejected: u64,
    /// Lease calls that exhausted the retry budget or hit an open breaker.
    pub leases_unavailable: u64,
    /// Retry attempts (`glare_retries_total`).
    pub retries: u64,
    /// Breaker open transitions.
    pub breaker_opens: u64,
    /// Calls refused by an open breaker.
    pub short_circuits: u64,
    /// Expired tickets reclaimed by the restart-time sweep.
    pub leases_reclaimed: u64,
    /// Journal records replayed when the crashed site restarted.
    pub replayed_records: u64,
    /// Store replay time at the restarted site (ms, worst case).
    pub replay_ms: f64,
    /// Invariant violations over the final lease ledger and registries.
    pub violations: Vec<String>,
    /// Grid event log, JSONL.
    pub events_jsonl: String,
    /// Metric-name lint violations for the Grid registry.
    pub lint: Vec<String>,
}

/// The assembled soak report.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Parameters that produced the report.
    pub params: ChaosParams,
    /// One row per loss rate, sweep order.
    pub rows: Vec<LossRow>,
    /// Grid-phase outcome.
    pub grid: GridChaos,
    /// Every invariant violation across both phases, prefixed with its
    /// phase. The soak passes only when this is empty.
    pub invariant_violations: Vec<String>,
    /// Metric-name lint violations across every registry.
    pub lint: Vec<String>,
    /// Event records dropped across every run (0 = complete logs).
    pub events_dropped: u64,
}

fn worst_p95_ms(m: &MetricsRegistry, family: &str) -> f64 {
    let p95s = m.labeled_histograms_of(family).filter_map(|(_, h)| h.quantile(0.95));
    p95s.fold(0.0, |worst, q| f64::max(worst, q.as_millis_f64()))
}

fn histogram_count(m: &MetricsRegistry, family: &str) -> u64 {
    m.labeled_histograms_of(family).map(|(_, h)| h.count() as u64).sum()
}

/// Every sample of a labeled histogram family, merged across label sets,
/// as milliseconds sorted ascending. Under the nearest-rank rule,
/// `quantile(k/n)` for `k = 1..=n` enumerates each of the `n` sorted
/// samples exactly once.
fn sorted_samples_ms(m: &MetricsRegistry, family: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for (_, h) in m.labeled_histograms_of(family) {
        let n = h.count();
        for k in 1..=n {
            if let Some(d) = h.quantile(k as f64 / n as f64) {
                out.push(d.as_millis_f64());
            }
        }
    }
    out.sort_by(f64::total_cmp);
    out
}

/// One overlay soak at `loss`, stated as a scenario: the whole
/// resilience stack on, durable stores, one deliberately worse link, and
/// random outages, slowdowns, a partition and a flapping link, all healed
/// by 60% of the horizon. Site 0 hosts the community index (the election
/// coordinator), so outages spare it.
pub(crate) fn overlay_scenario(p: &ChaosParams, loss: f64) -> Scenario {
    assert!(p.sites >= MIN_SITES, "the scenario needs at least {MIN_SITES} sites");
    // Salt the seed per loss point so the sweep explores distinct fault
    // schedules while staying reproducible.
    let salt = (loss * 1000.0).round() as u64;
    let seed = p.seed.wrapping_add(salt.wrapping_mul(7919));
    let h = p.horizon_secs;
    let t = SimTime::from_secs;
    let d = SimDuration::from_secs;
    let mut frng = SimRng::from_seed(seed).fork("chaos.faults");
    let victims: Vec<SiteId> = (1..p.sites as u32).map(SiteId).collect();
    let (start, end) = (t(h / 6), t(h / 2));
    let faults = FaultPlan::new()
        .random_outages(&mut frng, p.outages, &victims, start, end, d(40))
        .random_slowdowns(&mut frng, p.slowdowns, &victims, start, end, d(40), SLOW_FACTOR)
        .partition(t(h / 4), t(h / 2), SiteId(1), SiteId(2))
        .flap(SiteId(2), SiteId(3), t(h / 3), d(20), 4);
    // Each client queries a type homed on a *different* site, so every
    // query has to cross the faulty network instead of hitting the local
    // registry.
    let client = |c| {
        let activity = format!("T{}", (c + 1) % p.types);
        Client::new(c % p.sites, &activity, SimDuration::from_millis(400), p.queries_per_client)
    };
    Scenario {
        node: NodeConfig {
            retry: RetryPolicy::standard(),
            // The gray-failure stack rides along: adaptive suspicion must
            // never declare a slowed (or merely lossy) peer dead, and hedged
            // probes must not disturb any post-heal invariant.
            suspicion: SuspicionConfig::standard(),
            hedge: HedgeConfig::standard(),
            ..node_defaults()
        },
        registry: Registry::round_robin(p.types, p.sites, "chaos"),
        // Durable per-site stores: the scripted outages become
        // amnesia-faithful crashes whose restarts replay the journal and
        // anti-entropy-rejoin, feeding the recovery-time percentiles.
        store: true,
        events: Some(DEFAULT_MAX_EVENTS),
        loss,
        // One deliberately worse link, exercising the per-link override.
        link_loss: vec![(SiteId(1), SiteId(2), (loss * 3.0).min(0.5))],
        faults,
        clients: (0..p.clients).map(client).collect(),
        ..Scenario::new(p.sites, seed)
    }
}

/// Run one overlay soak at `loss` and return its row.
fn run_overlay_point(p: &ChaosParams, loss: f64) -> LossRow {
    let Run { mut sim, ids, stats, .. } = overlay_scenario(p, loss).start();
    let t = SimTime::from_secs;
    sim.run_until(t(p.horizon_secs));

    // Heal: stop losing messages and let two clean election cycles run,
    // then check the convergence invariants.
    sim.set_drop_probability(0.0);
    sim.set_link_drop_probability(SiteId(1), SiteId(2), None);
    let end = t(p.horizon_secs) + SimDuration::from_secs(300);
    sim.run_until(end);

    let (sent, responses, hits) = {
        let s = stats[0].lock();
        (s.sent, s.responses, s.hits)
    };
    let m = sim.metrics();
    let dropped = |reason: &str| m.family_total("glare_net_dropped_total", &[("reason", reason)]);
    let events = sim.events().expect("events were enabled");
    LossRow {
        loss,
        sent,
        responses,
        hits,
        availability: responses as f64 / sent.max(1) as f64,
        retries: m.family_total("glare_retries_total", &[]),
        backoff_count: histogram_count(m, "glare_retry_backoff_ms"),
        backoff_p95_ms: worst_p95_ms(m, "glare_retry_backoff_ms"),
        breaker_opens: m.family_total("glare_breaker_transitions_total", &[]),
        short_circuits: m.family_total("glare_breaker_short_circuits_total", &[]),
        degraded_reads: m.family_total("glare_degraded_reads_total", &[]),
        dropped_loss: dropped("loss"),
        dropped_partition: dropped("partition"),
        dropped_site_down: dropped("site_down"),
        takeovers: m.counter_value("glare.superpeer_takeovers"),
        false_takeovers: invariants::false_takeovers(events, &ids).len() as u64,
        failure_detect_p95_ms: worst_p95_ms(m, "glare_failure_detection_ms"),
        site_restarts: events.of_kind("site.restarted").count() as u64,
        slowdowns: events.of_kind("site.degraded").count() as u64,
        hedges_fired: m.family_total("glare_hedges_fired_total", &[]),
        recoveries: histogram_count(m, "glare_recovery_ms"),
        replayed_records: m.family_total("glare_store_replayed_records_total", &[]),
        recovery_ms: sorted_samples_ms(m, "glare_recovery_ms"),
        violations: invariants::overlay(&sim, &ids, end),
        events_jsonl: events.to_jsonl(),
        events_dropped: events.dropped(),
        lint: m.lint_metric_names(),
    }
}

/// Run the Grid phase: provision and lease under a seeded injector with
/// a mid-run crash/restart of the granting site.
fn run_grid_phase(p: &ChaosParams) -> GridChaos {
    let loss = p.losses.iter().copied().fold(0.0f64, f64::max);
    let t = SimTime::from_secs;
    let mut g = Grid::new(p.sites, Transport::Http);
    // Every mutation is journaled, so the mid-run crash/restart of the
    // granting site is an amnesia-faithful wipe followed by a real
    // snapshot + journal replay.
    for ty in example_hierarchy(SimTime::ZERO) {
        g.register_type(0, ty, SimTime::ZERO).unwrap();
    }

    let wien2k = |from_site, preferred| ProvisionRequest {
        activity: "Wien2k".into(),
        client: "chaos".into(),
        channel: ChannelKind::Expect,
        from_site,
        preferred_site: Some(preferred),
    };
    // A clean provision first (injector still inert) so the lease
    // workload always has a deployment to reserve.
    let clean = provision(&mut g, &wien2k(1, 0), t(1))
        .expect("provisioning with the injector inert succeeds");

    // Now the weather turns: seeded loss for everything that follows.
    g.faults = FaultInjector::seeded(p.seed.wrapping_mul(0x9e37_79b9), loss.max(0.01));

    // A second provision under loss: success must leave a queryable
    // deployment, failure must be an explicit error (it is, by type).
    let lossy = provision(&mut g, &wien2k(2, 1), t(2));
    let (provisions_ok, provisions_failed) = if lossy.is_ok() { (2, 0) } else { (1, 1) };
    let mut violations = Vec::new();
    for out in std::iter::once(&clean).chain(lossy.as_ref().ok()) {
        violations.extend(invariants::provision_queryable(&g, out, t(3)));
    }

    let lease_key = {
        let mut keys = g.site(0).adr.keys(t(3));
        keys.sort();
        keys.first().expect("wien2k registered deployments").clone()
    };

    // Lease workload: shared bursts one past capacity each round, with
    // the granting site crashed for the middle third of the rounds (the
    // retry path and breakers take the strain) and swept on restart.
    let cap = g.site(0).leases.capacity(&lease_key) as u64;
    let crash_at = p.lease_rounds / 3;
    let restart_at = 2 * p.lease_rounds / 3;
    let mut leases_unavailable = 0u64;
    let mut leases_reclaimed = 0u64;
    for r in 0..p.lease_rounds {
        let now = t(10 + r * 100);
        if r == crash_at {
            g.crash_site(0, now);
        }
        if r == restart_at {
            leases_reclaimed += g.restart_site(0, now) as u64;
        }
        let window = t(10 + r * 100)..t(10 + r * 100 + 90);
        for j in 0..=cap {
            let client = format!("c{r}-{j}");
            let (res, _cost) = g.acquire_lease_retrying(
                0,
                &lease_key,
                &client,
                LeaseKind::Shared,
                window.clone(),
                now,
            );
            if matches!(res, Err(glare_core::GlareError::SiteUnavailable { .. })) {
                leases_unavailable += 1;
            }
        }
    }
    // One exclusive reservation in a quiet window after the bursts.
    let quiet = t(10 + p.lease_rounds * 100)..t(10 + p.lease_rounds * 100 + 50);
    let (res, _) = g.acquire_lease_retrying(
        0,
        &lease_key,
        "finalizer",
        LeaseKind::Exclusive,
        quiet,
        t(5 + p.lease_rounds * 100),
    );
    if matches!(res, Err(glare_core::GlareError::SiteUnavailable { .. })) {
        leases_unavailable += 1;
    }

    for i in 0..g.len() {
        violations.extend(invariants::lease_caps(i, &g.site(i).leases));
    }

    let m = &g.metrics;
    GridChaos {
        provisions_ok,
        provisions_failed,
        leases_granted: m.family_total("glare_leases_total", &[("outcome", "granted")]),
        leases_rejected: m.family_total("glare_leases_total", &[("outcome", "rejected")]),
        leases_unavailable,
        retries: m.family_total("glare_retries_total", &[]),
        breaker_opens: m.family_total("glare_breaker_transitions_total", &[]),
        short_circuits: m.family_total("glare_breaker_short_circuits_total", &[]),
        leases_reclaimed,
        replayed_records: m.family_total("glare_store_replayed_records_total", &[]),
        replay_ms: sorted_samples_ms(m, "glare_store_replay_ms").last().map_or(0.0, |&ms| ms),
        violations,
        events_jsonl: g.events.to_jsonl(),
        lint: m.lint_metric_names(),
    }
}

/// Run the soak and assemble the report.
pub fn run(p: ChaosParams) -> ChaosReport {
    let rows: Vec<LossRow> = p.losses.iter().map(|&l| run_overlay_point(&p, l)).collect();
    let grid = run_grid_phase(&p);

    let mut invariant_violations = Vec::new();
    for LossRow { loss, violations, .. } in &rows {
        invariant_violations.extend(violations.iter().map(|v| format!("loss={loss:.3}: {v}")));
    }
    invariant_violations.extend(grid.violations.iter().map(|v| format!("grid: {v}")));
    let mut lint: Vec<String> =
        rows.iter().flat_map(|r| &r.lint).chain(&grid.lint).cloned().collect();
    lint.sort();
    lint.dedup();
    let events_dropped = rows.iter().map(|r| r.events_dropped).sum();

    ChaosReport {
        params: p,
        rows,
        grid,
        invariant_violations,
        lint,
        events_dropped,
    }
}

impl ChaosReport {
    /// JSON-friendly view (written to `BENCH_chaos.json`).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("experiment", Json::from("chaos")),
            (
                "params",
                Json::obj([
                    ("sites", Json::from(self.params.sites)),
                    ("clients", Json::from(self.params.clients)),
                    (
                        "queries_per_client",
                        Json::from(self.params.queries_per_client),
                    ),
                    ("types", Json::from(self.params.types)),
                    ("seed", Json::from(self.params.seed)),
                    ("horizon_secs", Json::from(self.params.horizon_secs)),
                    (
                        "losses",
                        Json::arr(self.params.losses.iter().map(|&l| Json::from(l))),
                    ),
                    ("outages", Json::from(self.params.outages)),
                    ("slowdowns", Json::from(self.params.slowdowns)),
                    ("slow_factor", Json::from(SLOW_FACTOR)),
                    ("lease_rounds", Json::from(self.params.lease_rounds)),
                ]),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("loss", Json::from(r.loss)),
                        ("sent", Json::from(r.sent)),
                        ("responses", Json::from(r.responses)),
                        ("hits", Json::from(r.hits)),
                        ("availability", Json::from(r.availability)),
                        ("retries", Json::from(r.retries)),
                        ("backoff_count", Json::from(r.backoff_count)),
                        ("backoff_p95_ms", Json::from(r.backoff_p95_ms)),
                        ("breaker_opens", Json::from(r.breaker_opens)),
                        ("short_circuits", Json::from(r.short_circuits)),
                        ("degraded_reads", Json::from(r.degraded_reads)),
                        ("dropped_loss", Json::from(r.dropped_loss)),
                        ("dropped_partition", Json::from(r.dropped_partition)),
                        ("dropped_site_down", Json::from(r.dropped_site_down)),
                        ("takeovers", Json::from(r.takeovers)),
                        ("false_takeovers", Json::from(r.false_takeovers)),
                        (
                            "failure_detect_p95_ms",
                            Json::from(r.failure_detect_p95_ms),
                        ),
                        ("site_restarts", Json::from(r.site_restarts)),
                        ("slowdowns", Json::from(r.slowdowns)),
                        ("hedges_fired", Json::from(r.hedges_fired)),
                        ("recoveries", Json::from(r.recoveries)),
                        ("replayed_records", Json::from(r.replayed_records)),
                        ("recovery_p50_ms", Json::from(pct(&r.recovery_ms, 0.5))),
                        ("recovery_p95_ms", Json::from(pct(&r.recovery_ms, 0.95))),
                        (
                            "violations",
                            Json::arr(r.violations.iter().map(|v| Json::from(v.as_str()))),
                        ),
                    ])
                })),
            ),
            (
                "grid",
                Json::obj([
                    ("provisions_ok", Json::from(self.grid.provisions_ok)),
                    ("provisions_failed", Json::from(self.grid.provisions_failed)),
                    ("leases_granted", Json::from(self.grid.leases_granted)),
                    ("leases_rejected", Json::from(self.grid.leases_rejected)),
                    (
                        "leases_unavailable",
                        Json::from(self.grid.leases_unavailable),
                    ),
                    ("retries", Json::from(self.grid.retries)),
                    ("breaker_opens", Json::from(self.grid.breaker_opens)),
                    ("short_circuits", Json::from(self.grid.short_circuits)),
                    ("leases_reclaimed", Json::from(self.grid.leases_reclaimed)),
                    ("replayed_records", Json::from(self.grid.replayed_records)),
                    ("replay_ms", Json::from(self.grid.replay_ms)),
                    (
                        "violations",
                        Json::arr(self.grid.violations.iter().map(|v| Json::from(v.as_str()))),
                    ),
                ]),
            ),
            (
                "invariant_violations",
                Json::arr(
                    self.invariant_violations
                        .iter()
                        .map(|v| Json::from(v.as_str())),
                ),
            ),
            (
                "violations_total",
                Json::from(self.invariant_violations.len()),
            ),
            (
                "lint",
                Json::arr(self.lint.iter().map(|v| Json::from(v.as_str()))),
            ),
            ("events_dropped", Json::from(self.events_dropped)),
        ])
    }

    /// Every loss point's crash-to-rejoin samples, merged and sorted.
    fn merged_recovery_ms(&self) -> Vec<f64> {
        let mut merged: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| r.recovery_ms.iter().copied())
            .collect();
        merged.sort_by(f64::total_cmp);
        merged
    }

    /// Recovery-time summary (written to `BENCH_recovery.json`):
    /// crash-to-rejoin percentiles per loss point and merged over the
    /// whole sweep, plus the Grid phase's restart replay.
    pub fn to_recovery_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let merged = self.merged_recovery_ms();
        Json::obj([
            ("experiment", Json::from("recovery")),
            ("seed", Json::from(self.params.seed)),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("loss", Json::from(r.loss)),
                        ("site_restarts", Json::from(r.site_restarts)),
                        ("recoveries", Json::from(r.recoveries)),
                        ("replayed_records", Json::from(r.replayed_records)),
                        ("p50_ms", Json::from(pct(&r.recovery_ms, 0.5))),
                        ("p95_ms", Json::from(pct(&r.recovery_ms, 0.95))),
                        ("max_ms", Json::from(pct(&r.recovery_ms, 1.0))),
                    ])
                })),
            ),
            (
                "overall",
                Json::obj([
                    ("recoveries", Json::from(merged.len())),
                    ("p50_ms", Json::from(pct(&merged, 0.5))),
                    ("p95_ms", Json::from(pct(&merged, 0.95))),
                    ("max_ms", Json::from(pct(&merged, 1.0))),
                ]),
            ),
            (
                "grid",
                Json::obj(fields!(self.grid; replayed_records, replay_ms, leases_reclaimed)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_holds_every_invariant() {
        let r = run(ChaosParams::smoke());
        assert!(
            r.invariant_violations.is_empty(),
            "invariants violated: {:?}",
            r.invariant_violations
        );
        assert!(r.lint.is_empty(), "metric-name lint: {:?}", r.lint);
        assert_eq!(r.events_dropped, 0);
        let row = &r.rows[0];
        assert!(row.loss >= 0.01, "the soak point must lose ≥ 1% of messages");
        assert!(row.sent > 0 && row.responses > 0, "clients made progress");
        assert!(row.dropped_loss > 0, "the loss model actually dropped messages");
        assert!(
            row.dropped_partition > 0,
            "the partition schedule actually cut links"
        );
        assert!(row.site_restarts > 0, "outages crashed and healed sites");
        assert!(
            row.slowdowns > 0,
            "the gray slowdown schedule actually degraded sites"
        );
        assert_eq!(
            row.false_takeovers, 0,
            "a merely slow or lossy peer was declared dead"
        );
        assert!(
            row.recoveries > 0,
            "restarted sites completed store recovery + rejoin"
        );
        assert_eq!(
            row.recoveries as usize,
            row.recovery_ms.len(),
            "one recovery sample per completed rejoin"
        );
        assert!(
            row.recovery_ms.windows(2).all(|w| w[0] <= w[1]),
            "recovery samples are sorted"
        );
        assert!(pct(&row.recovery_ms, 0.95) > 0.0, "recovery took sim-time");
        let merged = r.merged_recovery_ms();
        assert!(
            !merged.is_empty() && pct(&merged, 0.95) > 0.0,
            "the merged (`overall`) recovery percentiles are populated"
        );
        // The mid-run crash of the granting site drives the Grid-phase
        // retry path hard enough to trip the breaker.
        assert!(r.grid.retries > 0, "the lease path retried");
        assert!(r.grid.breaker_opens > 0, "the site-0 breaker opened");
        assert!(r.grid.leases_granted > 0, "leases were still granted");
        assert!(
            r.grid.leases_reclaimed > 0 || r.grid.leases_unavailable > 0,
            "the outage was visible to the lease workload"
        );
        assert!(
            r.grid.replayed_records > 0,
            "the restarted granting site replayed its journal"
        );
        assert!(r.grid.replay_ms > 0.0, "replay charged modeled time");
    }

    /// The smoke seeds that violate an invariant today, with what they
    /// report. The list may only shrink. Seed 15 (seed 178 too, outside the
    /// sweep): the `Appointment` closing the election round at 0.9 s is lost
    /// to the 2 % loss, so actor1 never learns it won office and never
    /// beats; its group confirms it dead by majority at 20.01 s, before any
    /// fault is scheduled.
    const KNOWN: [(u64, &str); 1] = [(
        15,
        "loss=0.020: false-positive takeover: site 1 was declared dead but never crashed",
    )];

    #[test]
    fn invariants_hold_across_swept_seeds() {
        let mut found = Vec::new();
        for seed in 1..=64 {
            let r = run(ChaosParams { seed, ..ChaosParams::smoke() });
            found.extend(r.invariant_violations.into_iter().map(|v| (seed, v)));
        }
        let known: Vec<(u64, String)> = KNOWN.iter().map(|&(s, v)| (s, v.to_owned())).collect();
        assert_eq!(found, known, "replay one with `chaos --smoke --seed N`");
    }

    #[test]
    fn same_seed_chaos_reports_are_byte_identical() {
        let p = ChaosParams::smoke();
        let a = run(p.clone());
        let b = run(p);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.events_jsonl, rb.events_jsonl);
        }
        assert_eq!(a.grid.events_jsonl, b.grid.events_jsonl);
        let report = a.to_json().to_string_pretty();
        assert_eq!(report, b.to_json().to_string_pretty());
        assert!(report.contains("\"experiment\": \"chaos\""));
        assert!(a.to_recovery_json().to_string_pretty().contains("\"experiment\": \"recovery\""));
        assert_eq!(
            a.to_recovery_json().to_string_pretty(),
            b.to_recovery_json().to_string_pretty(),
            "BENCH_recovery.json must be byte-identical for the same seed"
        );
    }
}
