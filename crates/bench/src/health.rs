//! Grid health telemetry scenario: exercises the overlay *and* the RDM
//! monitors, then distills the labeled metrics and the structured event
//! log into a per-site / per-group health report.
//!
//! Two phases share one seed:
//!
//! 1. **Overlay phase** — a discrete-event overlay with a client
//!    population, load sampling and a mid-run super-peer crash. Produces
//!    cache hit/miss counters per `(site, peer_group)`, election and
//!    failure-detection telemetry, `glare_site_load1m` /
//!    `glare_cache_hit_ratio` windowed gauges, and election/failure
//!    events.
//! 2. **Grid phase** — a provisioned Grid driven through monitor ticks
//!    (Deployment Status Monitor, Cache Refresher, Index Monitor) with a
//!    mid-run uninstall + migration and a lease grant/reject pair.
//!    Produces probe-latency and LUT-staleness histograms, deployment
//!    availability gauges, refresh-outcome and lease counters, and the
//!    cache/deployment/index/lease event records.
//!
//! Everything is deterministic: same params → byte-identical expositions,
//! event JSONL and report JSON.

use glare_core::admission::{AdmissionConfig, TenantClass};
use glare_core::grid::Grid;
use glare_core::lease::LeaseKind;
use glare_core::model::example_hierarchy;
use glare_core::node::NodeConfig;
use glare_core::rdm::{
    provision, CacheRefresher, DeploymentStatusMonitor, IndexMonitor, ProvisionRequest,
};
use glare_core::suspicion::{HedgeConfig, SuspicionConfig};
use glare_fabric::{
    FaultPlan, Labels, MetricsRegistry, SimDuration, SimTime, Simulation, SiteId,
    DEFAULT_MAX_EVENTS,
};
use glare_services::{ChannelKind, Transport};
use glare_workload::{TenantSpec, WorkloadSpec};

pub use crate::scenario::TenantLane;
use crate::scenario::{node_defaults, ranked_sites, Client, Registry, Run, Scenario};

/// The fewest sites the scenario runs on: the scripted crashes take the
/// highest- and lowest-ranked sites other than site 0, the community index.
pub const MIN_SITES: usize = 3;

/// Scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct HealthParams {
    /// Grid sites (overlay nodes and Grid phase sites). Minimum [`MIN_SITES`].
    pub sites: usize,
    /// Clients spread round-robin over the sites.
    pub clients: usize,
    /// Queries per client.
    pub queries_per_client: u64,
    /// Distinct activity types with deployments in the overlay phase.
    pub types: usize,
    /// Master seed.
    pub seed: u64,
    /// Overlay-phase horizon, seconds of sim-time.
    pub horizon_secs: u64,
    /// Grid-phase monitor ticks (one DSM + refresher + index pass each).
    pub monitor_ticks: u64,
    /// Uniform overlay message-loss probability (0.0 = reliable network,
    /// the default; the drop columns in the site table then read zero).
    pub loss: f64,
    /// Multi-tenant load actors attached to site 0 (classes cycle
    /// gold/silver/best-effort) with a small bounded inbox, populating
    /// the per-tenant admission columns. 0 (the default) leaves the
    /// legacy scenario byte-identical.
    pub tenants: usize,
    /// Turn the gray-failure stack on (adaptive suspicion + hedged
    /// probes), populating the suspicion/hedge columns. `false` (the
    /// default) leaves the legacy scenario byte-identical and the
    /// columns zero-valued.
    pub gray: bool,
}

impl Default for HealthParams {
    fn default() -> Self {
        HealthParams {
            sites: 5,
            clients: 15,
            queries_per_client: 12,
            types: 12,
            seed: 4711,
            horizon_secs: 600,
            monitor_ticks: 12,
            loss: 0.0,
            tenants: 0,
            gray: false,
        }
    }
}

impl HealthParams {
    /// Small parameters for smoke tests and CI.
    pub fn smoke() -> Self {
        HealthParams {
            sites: 3,
            clients: 6,
            queries_per_client: 4,
            types: 6,
            seed: 11,
            horizon_secs: 300,
            monitor_ticks: 6,
            loss: 0.0,
            tenants: 0,
            gray: false,
        }
    }
}

/// One site's health row.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteHealth {
    /// Site label (`site0`, `site1`, ...).
    pub site: String,
    /// Overlay cache hits (summed over peer groups).
    pub cache_hits: u64,
    /// Overlay cache misses.
    pub cache_misses: u64,
    /// Hit ratio over the whole run (NaN-free: 0 when no lookups).
    pub hit_ratio: f64,
    /// Median cached-copy staleness observed by the Cache Refresher (ms).
    pub staleness_p50_ms: f64,
    /// 95th-percentile staleness (ms).
    pub staleness_p95_ms: f64,
    /// Latest deployment availability ratio (1.0 = all probes healthy).
    pub availability: f64,
    /// Election rounds this site initiated.
    pub election_rounds: u64,
    /// Elections this site won.
    pub elections_won: u64,
    /// 95th-percentile failure-detection latency (ms), 0 if none.
    pub failure_detect_p95_ms: f64,
    /// Overlay messages to this site dropped by the loss model.
    pub dropped_loss: u64,
    /// Overlay messages to this site dropped by partitions.
    pub dropped_partition: u64,
    /// Journal records replayed when this site recovered from a crash.
    pub replayed_records: u64,
    /// Worst store-replay time across this site's recoveries (ms).
    pub replay_ms: f64,
    /// Anti-entropy entries this site pulled from its super-peer on rejoin.
    pub ae_pulls: u64,
    /// Anti-entropy entries this super-peer absorbed from rejoining members.
    pub ae_pushes: u64,
    /// Peak adaptive suspicion level this site held against its
    /// super-peer over the run (0 = never suspected; zero-valued unless
    /// `--gray`).
    pub suspicion_level: f64,
    /// Hedged probes this site fired (zero-valued unless `--gray`).
    pub hedges_fired: u64,
    /// Hedged probes whose alternate answered first.
    pub hedges_won: u64,
    /// Hedged probes the original beat anyway (wasted duplicates).
    pub hedges_wasted: u64,
}

/// One peer group's health row (overlay cache traffic by group).
#[derive(Clone, Debug, PartialEq)]
pub struct GroupHealth {
    /// Peer-group label (`g{super_peer_actor}` or `ungrouped`).
    pub group: String,
    /// Cache hits across the group's members.
    pub hits: u64,
    /// Cache misses across the group's members.
    pub misses: u64,
    /// Group-wide hit ratio.
    pub hit_ratio: f64,
}

/// One tenant class's admission row (only populated with `--tenants`).
#[derive(Clone, Debug, PartialEq)]
pub struct TenantHealth {
    /// Tenant class label (`gold` / `silver` / `best_effort`).
    pub class: String,
    /// Arrivals the tenant actors offered to the entry site.
    pub offered: u64,
    /// Requests the entry site admitted (server-side counter).
    pub admitted: u64,
    /// Requests the entry site shed with a retry-after hint.
    pub shed: u64,
    /// Shed requests the clients re-offered after honoring retry-after.
    pub retry_after_honored: u64,
    /// Shed requests the clients gave up on (retry budget exhausted).
    pub dropped: u64,
    /// Responses that made it back to the tenant actors.
    pub responses: u64,
}

/// One windowed-gauge sample: a row of the report's `watch` table.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchRow {
    /// Metric family.
    pub family: String,
    /// Site label.
    pub site: String,
    /// Bucket start, seconds of sim-time.
    pub t_secs: f64,
    /// Mean value over the bucket.
    pub mean: f64,
    /// Bucket minimum.
    pub min: f64,
    /// Bucket maximum.
    pub max: f64,
}

/// The assembled health report.
#[derive(Clone, Debug)]
pub struct HealthReport {
    /// Parameters that produced the report.
    pub params: HealthParams,
    /// Per-site rows, site index order.
    pub sites: Vec<SiteHealth>,
    /// Per-peer-group rows, label order.
    pub groups: Vec<GroupHealth>,
    /// Per-tenant-class admission rows (empty unless `tenants > 0`).
    pub tenant_classes: Vec<TenantHealth>,
    /// Windowed-gauge samples (sim-time ordered within each family/site).
    pub watch: Vec<WatchRow>,
    /// Super-peer takeovers over the overlay run.
    pub takeovers: u64,
    /// Inbox tickets reclaimed by the admission TTL backstop instead of a
    /// reply release, summed over sites (leaked slots — nonzero means
    /// admitted requests died without answering).
    pub inbox_ttl_released: u64,
    /// Lease grants and rejections from the Grid phase.
    pub leases_granted: u64,
    /// Lease rejections.
    pub leases_rejected: u64,
    /// Total event records dropped across both phases (0 = complete log).
    pub events_dropped: u64,
    /// Metric-name lint violations across both registries (must be empty).
    pub lint: Vec<String>,
    /// Prometheus-style exposition of the overlay registry.
    pub overlay_exposition: String,
    /// Prometheus-style exposition of the Grid registry.
    pub grid_exposition: String,
    /// Overlay-phase event log, JSONL.
    pub overlay_events_jsonl: String,
    /// Grid-phase event log, JSONL.
    pub grid_events_jsonl: String,
}

fn ms(d: Option<SimDuration>) -> f64 {
    d.map(|d| d.as_millis_f64()).unwrap_or(0.0)
}

/// Externally observable outcome of the overlay phase — everything a
/// client or operator could measure *without* the telemetry subsystem.
/// Used to assert that instrumentation is observe-only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlayProbe {
    /// Query responses received by all clients.
    pub responses: u64,
    /// Queries answered with a deployment.
    pub hits: u64,
    /// Sum of client-observed latencies, nanoseconds.
    pub total_latency_ns: u128,
    /// Network messages sent over the run.
    pub net_msgs: u64,
    /// Super-peer takeovers.
    pub takeovers: u64,
}

/// The overlay phase as a scenario: clients round-robin over the sites,
/// load sampling over the horizon, and two scripted outages. Durable
/// stores are on for every site, so each crash is amnesia-faithful and
/// each restart exercises snapshot-load + journal replay + anti-entropy
/// rejoin; they are on for both `instrument` settings, so the observe-only
/// comparison stays apples-to-apples. With `instrument`, the structured
/// event log and kernel tracing are on too.
pub(crate) fn overlay_scenario(p: HealthParams, instrument: bool) -> Scenario {
    assert!(p.sites >= MIN_SITES, "the scenario needs at least {MIN_SITES} sites");
    let base = Scenario::new(p.sites, p.seed);
    // Crash the highest-ranked site (the most likely super-peer) a third of
    // the way in, to exercise failure detection and re-election, and bring
    // it back two thirds of the way in. Site 0 hosts the community index,
    // so fall back to the runner-up if ranking puts site 0 first.
    let ranked = ranked_sites(&base.topology);
    let sp = if ranked[0] == SiteId(0) { ranked[1] } else { ranked[0] };
    // Also bounce the lowest-ranked member. Unlike the ex super-peer (which
    // reclaims its office on rejoin and has nobody to sync with), a member
    // rejoin pulls/pushes registry state from its super-peer — the
    // anti-entropy columns of the report. It comes back after the
    // super-peer does, so its rejoin election finds a higher-ranked winner
    // (a member that rejoins an empty field just wins office instead).
    let member = ranked.iter().rev().copied().find(|&s| s != SiteId(0) && s != sp);
    let member = member.expect("at least 3 sites leave a spare member");
    let at = |num: u64, den: u64| SimTime::from_secs(num * p.horizon_secs / den);
    let client = |c| {
        let activity = format!("T{}", c % p.types);
        Client::new(c % p.sites, &activity, SimDuration::from_millis(400), p.queries_per_client)
    };
    let (suspicion, hedge) = if p.gray {
        // Gray-failure stack: adaptive latency-aware suspicion plus hedged
        // read probes. Observe-only with respect to liveness — a slow peer
        // is never declared dead by suspicion alone.
        (SuspicionConfig::standard(), HedgeConfig::standard())
    } else {
        (SuspicionConfig::disabled(), HedgeConfig::disabled())
    };
    Scenario {
        node: NodeConfig {
            // A deliberately tiny inbox so the modest tenant rates still
            // trip class-aware shedding and populate the report columns.
            admission: if p.tenants > 0 {
                AdmissionConfig::bounded(2)
            } else {
                AdmissionConfig::disabled()
            },
            suspicion,
            hedge,
            ..node_defaults()
        },
        registry: Registry::round_robin(p.types, p.sites, "health"),
        store: true,
        events: instrument.then_some(DEFAULT_MAX_EVENTS),
        tracing: instrument,
        load_sampling: Some(SimTime::from_secs(p.horizon_secs)),
        loss: p.loss,
        faults: FaultPlan::new()
            .crash(at(1, 3), sp)
            .restart(at(2, 3), sp)
            .crash(at(1, 2), member)
            .restart(at(7, 10), member),
        clients: (0..p.clients).map(client).collect(),
        tenants: (p.tenants > 0).then(|| tenant_spec(p)),
        ..base
    }
}

/// The tenant lanes: open-loop Poisson arrivals against site 0's node,
/// classes cycling gold → silver → best-effort, all querying the same
/// registered `T*` types. Site 0 is never one of the scripted outage
/// victims, so the admission counters read there cover the whole run.
fn tenant_spec(p: HealthParams) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(p.seed, SimDuration::from_secs(p.horizon_secs), 1);
    spec.activities = (0..p.types).map(|t| format!("T{t}")).collect();
    for i in 0..p.tenants {
        let class = TenantClass::ALL[i % TenantClass::ALL.len()];
        let name = format!("tenant{i}-{}", class.label());
        spec = spec.tenant(TenantSpec::open(&name, class, 15.0));
    }
    spec
}

/// Run the overlay phase to its horizon. With `instrument` the structured
/// event log and kernel tracing are on; the returned probe must be
/// identical either way (observe-only invariant). The tenant lanes are
/// empty when `p.tenants == 0`, which also leaves the legacy scenario
/// untouched: admission stays disabled and no extra actors are attached.
pub fn run_overlay(
    p: HealthParams,
    instrument: bool,
) -> (Simulation, OverlayProbe, Vec<TenantLane>) {
    let Run { mut sim, stats, lanes, .. } = overlay_scenario(p, instrument).start();
    sim.run_until(SimTime::from_secs(p.horizon_secs));
    let probe = {
        let s = stats[0].lock();
        OverlayProbe {
            responses: s.responses,
            hits: s.hits,
            total_latency_ns: s.latencies.iter().map(|d| d.as_nanos() as u128).sum(),
            net_msgs: sim.metrics().counter_value("net.msgs_sent"),
            takeovers: sim.metrics().counter_value("glare.superpeer_takeovers"),
        }
    };
    (sim, probe, lanes)
}

/// The Grid phase: a provisioned Grid with a lease workload, driven through
/// monitor ticks with a mid-run uninstall and migration.
fn run_grid_phase(p: HealthParams) -> Grid {
    let mut g = Grid::new(p.sites, Transport::Http);
    for ty in example_hierarchy(SimTime::ZERO) {
        g.register_type(0, ty, SimTime::ZERO).unwrap();
    }
    provision(
        &mut g,
        &ProvisionRequest {
            activity: "Wien2k".into(),
            client: "health".into(),
            channel: ChannelKind::Expect,
            from_site: 1,
            preferred_site: Some(0),
        },
        SimTime::from_secs(1),
    )
    .expect("provisioning the reference package succeeds");

    // Lease workload: an exclusive reservation, a conflicting request
    // (rejected), and a shared one after the window.
    let lease_key = {
        let mut keys = g.site(0).adr.keys(SimTime::from_secs(2));
        keys.sort();
        keys.first().expect("wien2k registered deployments").clone()
    };
    let t = SimTime::from_secs;
    g.acquire_lease(0, &lease_key, "alice", LeaseKind::Exclusive, t(10)..t(200), t(5))
        .expect("first exclusive lease is granted");
    let _ = g.acquire_lease(0, &lease_key, "bob", LeaseKind::Shared, t(50)..t(100), t(6));
    g.acquire_lease(0, &lease_key, "bob", LeaseKind::Shared, t(200)..t(300), t(7))
        .expect("post-window shared lease is granted");

    let tick = 60u64;
    let fail_tick = p.monitor_ticks / 2;
    for k in 0..p.monitor_ticks {
        let now = SimTime::from_secs((k + 2) * tick);
        for s in 0..g.len() {
            DeploymentStatusMonitor::run(&mut g, s, now);
            CacheRefresher::refresh(&mut g, s, now);
        }
        IndexMonitor::run(&mut g, 0, now);
        if k == fail_tick {
            // The installation vanishes behind the registry's back; the
            // next DSM pass degrades it and migration re-provisions it.
            g.site_mut(0).host.uninstall("wien2k").expect("wien2k was installed");
        }
        if k == fail_tick + 1 {
            DeploymentStatusMonitor::migrate_failed(&mut g, 0, ChannelKind::Expect, now)
                .expect("migration target exists");
        }
    }
    g
}

/// One row per site, from both phases' registries.
fn site_rows(om: &MetricsRegistry, gm: &MetricsRegistry, sites: usize) -> Vec<SiteHealth> {
    let mut rows = Vec::with_capacity(sites);
    for i in 0..sites {
        let site = Grid::site_label(i);
        let slabels = Labels::of(&[("site", &site)]);
        let at_site = |family: &str| om.family_total(family, &[("site", &site)]);
        let dropped = |reason: &str| {
            om.family_total("glare_net_dropped_total", &[("site", &site), ("reason", reason)])
        };
        let hits = at_site("glare_cache_hits_total");
        let misses = at_site("glare_cache_misses_total");
        let staleness = gm.histogram_labeled_ref("glare_cache_staleness_ms", &slabels);
        let failure = om.histogram_labeled_ref("glare_failure_detection_ms", &slabels);
        rows.push(SiteHealth {
            cache_hits: hits,
            cache_misses: misses,
            hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
            staleness_p50_ms: ms(staleness.and_then(|h| h.quantile(0.5))),
            staleness_p95_ms: ms(staleness.and_then(|h| h.quantile(0.95))),
            availability: gm
                .gauge_ref("glare_deployment_availability", &slabels)
                .and_then(|g| g.latest())
                .unwrap_or(1.0),
            election_rounds: om.counter_labeled_value("glare_election_rounds_total", &slabels),
            elections_won: om.counter_labeled_value(
                "glare_elections_total",
                &Labels::of(&[("site", &site), ("outcome", "won")]),
            ),
            failure_detect_p95_ms: ms(failure.and_then(|h| h.quantile(0.95))),
            dropped_loss: dropped("loss"),
            dropped_partition: dropped("partition"),
            replayed_records: at_site("glare_store_replayed_records_total"),
            replay_ms: ms(om
                .histogram_labeled_ref("glare_store_replay_ms", &slabels)
                .and_then(|h| h.max())),
            ae_pulls: at_site("glare_antientropy_pulls_total"),
            ae_pushes: at_site("glare_antientropy_pushes_total"),
            suspicion_level: om
                .gauge_ref("glare_suspicion_level", &slabels)
                .map(|g| g.buckets().iter().fold(0.0f64, |a, b| a.max(b.max)))
                .unwrap_or(0.0),
            hedges_fired: at_site("glare_hedges_fired_total"),
            hedges_won: at_site("glare_hedges_won_total"),
            hedges_wasted: at_site("glare_hedges_wasted_total"),
            site,
        });
    }
    rows
}

/// Per-group cache traffic: the labeled counters aggregated by the
/// `peer_group` label (BTreeMap keys keep the output ordered).
fn group_rows(om: &MetricsRegistry) -> Vec<GroupHealth> {
    let mut groups: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    for (l, v) in om.labeled_counters_of("glare_cache_hits_total") {
        if let Some(gl) = l.get("peer_group") {
            groups.entry(gl.to_owned()).or_default().0 += v;
        }
    }
    for (l, v) in om.labeled_counters_of("glare_cache_misses_total") {
        if let Some(gl) = l.get("peer_group") {
            groups.entry(gl.to_owned()).or_default().1 += v;
        }
    }
    groups
        .into_iter()
        .map(|(group, (hits, misses))| GroupHealth {
            group,
            hits,
            misses,
            hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        })
        .collect()
}

/// The windowed-gauge samples of the report's `watch` rows.
fn watch_rows(om: &MetricsRegistry) -> Vec<WatchRow> {
    let mut watch = Vec::new();
    for family in ["glare_site_load1m", "glare_cache_hit_ratio"] {
        for (l, gauge) in om.gauges_of(family) {
            let site = l.get("site").unwrap_or("?").to_owned();
            for b in gauge.buckets() {
                watch.push(WatchRow {
                    family: family.to_owned(),
                    site: site.clone(),
                    t_secs: b.start.as_nanos() as f64 / 1e9,
                    mean: b.mean(),
                    min: b.min,
                    max: b.max,
                });
            }
        }
    }
    watch
}

/// Tenant admission rows: server-side admitted/shed counters at the entry
/// site, client-side offered/retry/drop tallies, aggregated per class in
/// gold → silver → best-effort order.
fn tenant_rows(om: &MetricsRegistry, lanes: &[TenantLane]) -> Vec<TenantHealth> {
    let mut rows = Vec::new();
    for class in TenantClass::ALL {
        if !lanes.iter().any(|l| l.class == class) {
            continue;
        }
        let clabels = Labels::of(&[("class", class.label()), ("site", "site0")]);
        let (mut offered, mut responses, mut retries, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        for lane in lanes.iter().filter(|l| l.class == class) {
            let s = lane.stats.lock();
            offered += s.offered;
            responses += s.responses;
            retries += s.retries;
            dropped += s.dropped;
        }
        rows.push(TenantHealth {
            class: class.label().to_owned(),
            offered,
            admitted: om.counter_labeled_value("glare_admission_admitted_total", &clabels),
            shed: om.counter_labeled_value("glare_admission_shed_total", &clabels),
            retry_after_honored: retries,
            dropped,
            responses,
        });
    }
    rows
}

/// Run the scenario and assemble the report.
pub fn run(p: HealthParams) -> HealthReport {
    let (mut sim, _probe, lanes) = run_overlay(p, true);
    let overlay_events = sim.take_events().expect("events were enabled");
    let g = run_grid_phase(p);

    let (om, gm) = (sim.metrics(), &g.metrics);
    let mut lint = om.lint_metric_names();
    lint.extend(gm.lint_metric_names());
    let lease = |outcome| {
        let labels = Labels::of(&[("site", "site0"), ("outcome", outcome)]);
        gm.counter_labeled_value("glare_leases_total", &labels)
    };
    HealthReport {
        params: p,
        sites: site_rows(om, gm, p.sites),
        groups: group_rows(om),
        tenant_classes: tenant_rows(om, &lanes),
        watch: watch_rows(om),
        takeovers: om.counter_value("glare.superpeer_takeovers"),
        inbox_ttl_released: om
            .labeled_counters_of("glare_inbox_ttl_released_total")
            .map(|(_, v)| v)
            .sum(),
        leases_granted: lease("granted"),
        leases_rejected: lease("rejected"),
        events_dropped: overlay_events.dropped() + g.events.dropped(),
        lint,
        overlay_exposition: om.expose_prometheus(),
        grid_exposition: gm.expose_prometheus(),
        overlay_events_jsonl: overlay_events.to_jsonl(),
        grid_events_jsonl: g.events.to_jsonl(),
    }
}

impl HealthReport {
    /// JSON-friendly view (written to `BENCH_health.json`).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::{fields, Json};
        Json::obj([
            ("experiment", Json::from("healthreport")),
            (
                "params",
                Json::obj(fields!(
                    self.params;
                    sites, clients, queries_per_client, types, seed, horizon_secs, monitor_ticks,
                    loss, tenants, gray,
                )),
            ),
            (
                "sites",
                Json::arr(self.sites.iter().map(|s| {
                    Json::obj(fields!(
                        s;
                        site, cache_hits, cache_misses, hit_ratio, staleness_p50_ms,
                        staleness_p95_ms, availability, election_rounds, elections_won,
                        failure_detect_p95_ms, dropped_loss, dropped_partition, replayed_records,
                        replay_ms, ae_pulls, ae_pushes, suspicion_level, hedges_fired, hedges_won,
                        hedges_wasted,
                    ))
                })),
            ),
            (
                "groups",
                Json::arr(self.groups.iter().map(|g| {
                    Json::obj(fields!(g; group, hits, misses, hit_ratio))
                })),
            ),
            (
                "tenant_classes",
                Json::arr(self.tenant_classes.iter().map(|t| {
                    Json::obj(fields!(
                        t;
                        class, offered, admitted, shed, retry_after_honored, dropped, responses,
                    ))
                })),
            ),
            (
                "watch",
                Json::arr(self.watch.iter().map(|w| {
                    Json::obj(fields!(w; family, site, t_secs, mean, min, max))
                })),
            ),
            ("takeovers", Json::from(self.takeovers)),
            ("inbox_ttl_released", Json::from(self.inbox_ttl_released)),
            ("leases_granted", Json::from(self.leases_granted)),
            ("leases_rejected", Json::from(self.leases_rejected)),
            ("events_dropped", Json::from(self.events_dropped)),
            (
                "lint",
                Json::arr(self.lint.iter().map(|v| Json::from(v.as_str()))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glare_core::invariants;
    use glare_fabric::ActorId;

    #[test]
    fn smoke_scenario_produces_health_signals() {
        let r = run(HealthParams::smoke());
        assert_eq!(r.sites.len(), 3);
        assert!(r.lint.is_empty(), "metric-name lint: {:?}", r.lint);
        assert_eq!(r.events_dropped, 0);
        let hits: u64 = r.sites.iter().map(|s| s.cache_hits).sum();
        let misses: u64 = r.sites.iter().map(|s| s.cache_misses).sum();
        assert!(hits + misses > 0, "clients drove cache lookups");
        assert!(!r.groups.is_empty(), "peer groups attributed");
        assert!(r.sites.iter().any(|s| s.elections_won > 0), "someone won office");
        assert!(r.sites.iter().any(|s| s.staleness_p95_ms > 0.0));
        assert_eq!(r.leases_granted, 2);
        assert_eq!(r.leases_rejected, 1);
        assert!(!r.watch.is_empty(), "windowed gauges sampled");
        assert!(r.to_json().to_string_pretty().contains("\"experiment\": \"healthreport\""));
        assert!(!r.overlay_exposition.is_empty() && !r.grid_exposition.is_empty());
        // The mid-run uninstall shows up in the grid event log.
        assert!(r.grid_events_jsonl.contains("\"kind\":\"deployment.degraded\""));
        assert!(r.grid_events_jsonl.contains("\"kind\":\"deploy.retried\""));
        assert!(r.grid_events_jsonl.contains("\"kind\":\"lease.rejected\""));
        // The crashed super-peer shows up in the overlay event log.
        assert!(r.overlay_events_jsonl.contains("\"kind\":\"election.won\""));
        // The scripted restart recovered from the durable store and the
        // rejoin ran an anti-entropy exchange.
        assert!(
            r.sites.iter().any(|s| s.replay_ms > 0.0),
            "the restarted site replayed its store"
        );
        assert!(r.overlay_events_jsonl.contains("\"kind\":\"store.recovered\""));
        let ae: u64 = r.sites.iter().map(|s| s.ae_pulls + s.ae_pushes).sum();
        assert!(ae > 0, "rejoin exchanged anti-entropy state");
    }

    #[test]
    fn overlay_invariants_hold_at_the_end_of_the_run() {
        let smoke = HealthParams::smoke();
        let gray_tenants = HealthParams { tenants: 3, gray: true, ..smoke };
        let seeds = [1, 2, 3, 11].map(|seed| HealthParams { seed, ..smoke });
        for p in seeds.into_iter().chain([gray_tenants]) {
            let (sim, _, _) = run_overlay(p, true);
            // The builder adds the nodes first, one per site in site order.
            let ids: Vec<ActorId> = (0..p.sites as u32).map(ActorId).collect();
            let v = invariants::overlay(&sim, &ids, sim.now());
            assert!(v.is_empty(), "{p:?}: {v:?}");
        }
    }

    #[test]
    fn lossy_network_shows_up_in_the_drop_columns() {
        let mut p = HealthParams::smoke();
        p.loss = 0.05;
        let r = run(p);
        let dropped: u64 = r.sites.iter().map(|s| s.dropped_loss).sum();
        assert!(dropped > 0, "5% loss must drop some overlay messages");
    }

    #[test]
    fn tenant_lanes_populate_admission_columns() {
        let mut p = HealthParams::smoke();
        p.tenants = 3;
        let r = run(p);
        assert_eq!(r.tenant_classes.len(), 3, "one row per class");
        assert_eq!(r.tenant_classes[0].class, "gold");
        let offered: u64 = r.tenant_classes.iter().map(|t| t.offered).sum();
        let admitted: u64 = r.tenant_classes.iter().map(|t| t.admitted).sum();
        assert!(offered > 0, "tenant actors offered load");
        assert!(admitted > 0, "the entry site admitted tenant queries");
        // Class-aware shedding: gold never sheds more than best-effort.
        let gold = &r.tenant_classes[0];
        let be = r.tenant_classes.iter().find(|t| t.class == "best_effort").unwrap();
        assert!(gold.shed <= be.shed, "gold shed {} > best-effort {}", gold.shed, be.shed);
        assert!(r.lint.is_empty(), "metric-name lint: {:?}", r.lint);
        // The JSON view carries the rows.
        let json = r.to_json().to_string_pretty();
        assert!(json.contains("\"tenant_classes\""));
        assert!(json.contains("\"retry_after_honored\""));
    }

    #[test]
    fn tenant_free_runs_ignore_the_admission_path() {
        let r = run(HealthParams::smoke());
        assert!(r.tenant_classes.is_empty());
        assert!(!r.overlay_exposition.contains("glare_admission_"));
    }

    #[test]
    fn gray_free_runs_keep_the_gray_columns_zero() {
        let r = run(HealthParams::smoke());
        for s in &r.sites {
            assert_eq!(s.suspicion_level, 0.0, "{}: suspicion without --gray", s.site);
            assert_eq!(
                s.hedges_fired + s.hedges_won + s.hedges_wasted,
                0,
                "{}: hedge counters without --gray",
                s.site
            );
        }
        assert!(!r.overlay_exposition.contains("glare_suspicion_level"));
        assert!(!r.overlay_exposition.contains("glare_hedges_"));
    }

    #[test]
    fn gray_stack_populates_the_suspicion_columns() {
        let mut p = HealthParams::smoke();
        p.gray = true;
        let r = run(p);
        // Members export their adaptive suspicion gauge on every
        // heartbeat check once the stack is on.
        assert!(
            r.overlay_exposition.contains("glare_suspicion_level"),
            "suspicion gauge exported with --gray"
        );
        // The scripted super-peer crash drives suspicion up at the
        // surviving members before failure confirmation.
        assert!(
            r.sites.iter().any(|s| s.suspicion_level > 0.0),
            "some member suspected the crashed super-peer"
        );
        assert!(r.lint.is_empty(), "metric-name lint: {:?}", r.lint);
        let json = r.to_json().to_string_pretty();
        assert!(json.contains("\"suspicion_level\""));
        assert!(json.contains("\"hedges_fired\""));
    }
}
