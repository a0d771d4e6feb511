//! Load sweep — offered load vs. goodput past saturation.
//!
//! Each point builds a small overlay, turns on bounded-inbox admission
//! control at the entry site, and drives it with the `glare-workload`
//! engine's three-tier open-loop mix (gold 20% / silver 30% /
//! best-effort 50% of the offered rate). The sweep scales the offered
//! rate through `factors` of a baseline chosen near the entry site's
//! service capacity, so the top factors sit well past saturation.
//!
//! What the numbers must show (the PR's acceptance criterion): as the
//! offered load crosses saturation, *best-effort sheds first* and *gold
//! goodput holds* — the lease-based class tiers keep the premium tenant
//! within 10% of its pre-overload goodput at ≥2x saturation while the
//! best-effort tier absorbs the rejections.
//!
//! Output (`BENCH_load.json`, schema `glare.load.v1`): per-tenant
//! offered/sent/responses/shed/retry counts, goodput, latency
//! percentiles, per-class admission counters, invariant violations and
//! the structured-event digest. Same seed ⇒ byte-identical JSON.

use glare_core::admission::{AdmissionConfig, TenantClass};
use glare_core::model::{ActivityDeployment, ActivityType};
use glare_core::overlay::OverlayBuilder;
use glare_core::retry::RetryPolicy;
use glare_fabric::store::fnv1a;
use glare_fabric::{percentile, Labels, SimDuration, SimTime, SiteId};
use glare_workload::{TenantLoad, TenantStats, WorkloadSpec};

use crate::json::Json;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct LoadParams {
    /// Overlay size. All tenants enter through site 0.
    pub sites: usize,
    /// Offered-rate multipliers over `base_rate_hz`, ascending; the
    /// last should sit at ≥2x saturation.
    pub factors: Vec<f64>,
    /// Baseline total offered rate (factor 1.0), requests/sec. Pick it
    /// near the entry site's service capacity so factor 2 overloads.
    pub base_rate_hz: f64,
    /// Per-request CPU cost charged by every node, ms. With the default
    /// 4-core sites this fixes the entry site's service capacity at
    /// `4 / request_cost` req/s — 200/s at the default 20ms — so
    /// saturation is a parameter, not an accident of the topology.
    pub request_cost_ms: u64,
    /// Bounded-inbox capacity at every site (admitted concurrent
    /// requests; class thresholds tier inside it).
    pub capacity: u32,
    /// Arrival window per point, simulated seconds.
    pub duration_secs: u64,
    /// Extra horizon after arrivals stop, letting in-flight work drain.
    pub drain_secs: u64,
    /// Master seed (workload streams fork from it by tenant name).
    pub seed: u64,
    /// Admission control on/off. Off exists for the observe-only
    /// guarantee tests; the shipped bench runs with it on.
    pub backpressure: bool,
}

impl Default for LoadParams {
    fn default() -> Self {
        LoadParams {
            sites: 8,
            factors: vec![0.5, 1.0, 1.5, 2.0],
            base_rate_hz: 120.0,
            request_cost_ms: 20,
            capacity: 32,
            duration_secs: 30,
            drain_secs: 10,
            seed: 4207,
            backpressure: true,
        }
    }
}

impl LoadParams {
    /// A fast CI-sized sweep (used by `--smoke` and the tier-1 tests). Keeps
    /// the 1.0 and 2.0 factors so the goodput-protection criterion is
    /// still checkable.
    pub fn smoke() -> LoadParams {
        LoadParams {
            sites: 6,
            factors: vec![0.5, 1.0, 2.0],
            duration_secs: 15,
            drain_secs: 5,
            ..LoadParams::default()
        }
    }
}

/// One tenant's measured outcome at one sweep point.
#[derive(Clone, Debug)]
pub struct TenantRow {
    /// Tenant name from the spec.
    pub name: String,
    /// Admission class label.
    pub class: &'static str,
    /// Arrivals offered.
    pub offered: u64,
    /// Messages sent (offers + retries).
    pub sent: u64,
    /// Successful responses (the goodput numerator).
    pub responses: u64,
    /// Responses with at least one deployment.
    pub hits: u64,
    /// Rejections observed.
    pub shed: u64,
    /// Re-sends after honouring retry-after.
    pub retries: u64,
    /// Requests abandoned after the retry budget.
    pub dropped: u64,
    /// Responses per offered-window second.
    pub goodput_hz: f64,
    /// `responses / offered` (1.0 under light load).
    pub success_ratio: f64,
    /// Median offer-to-response latency, ms.
    pub p50_ms: f64,
    /// p95 latency, ms.
    pub p95_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
}

impl TenantRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("class", Json::from(self.class)),
            ("offered", Json::from(self.offered)),
            ("sent", Json::from(self.sent)),
            ("responses", Json::from(self.responses)),
            ("hits", Json::from(self.hits)),
            ("shed", Json::from(self.shed)),
            ("retries", Json::from(self.retries)),
            ("dropped", Json::from(self.dropped)),
            ("goodput_hz", Json::from(self.goodput_hz)),
            ("success_ratio", Json::from(self.success_ratio)),
            ("p50_ms", Json::from(self.p50_ms)),
            ("p95_ms", Json::from(self.p95_ms)),
            ("p99_ms", Json::from(self.p99_ms)),
        ])
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered-rate multiplier.
    pub factor: f64,
    /// Total offered rate, requests/sec.
    pub offered_hz: f64,
    /// Per-tenant rows, spec order (gold, silver, best-effort).
    pub tenants: Vec<TenantRow>,
    /// Server-side admitted counters per class (gold, silver,
    /// best-effort), from `glare_admission_admitted_total`.
    pub admitted: [u64; 3],
    /// Server-side shed counters per class.
    pub shed: [u64; 3],
    /// Admission-invariant violations at this point: a lower class
    /// out-performing a higher one on success ratio, or a higher class
    /// out-shedding a lower one. Zero is the acceptance bar.
    pub invariant_violations: u64,
    /// `lint_metric_names` findings in the run's registry — 0 means
    /// every labeled family (the admission counters included) obeys the
    /// `glare_*` naming contract.
    pub lint_errors: u64,
    /// Kernel events processed.
    pub events: u64,
    /// FNV-1a digest of the structured event log (the observe-only
    /// identity oracle).
    pub event_digest: u64,
}

impl LoadPoint {
    /// JSON view of the point.
    pub fn to_json(&self) -> Json {
        let classes = ["gold", "silver", "best_effort"];
        let by_class = |v: &[u64; 3]| {
            Json::obj(
                classes
                    .iter()
                    .zip(v.iter())
                    .map(|(c, n)| (*c, Json::from(*n))),
            )
        };
        Json::obj([
            ("factor", Json::from(self.factor)),
            ("offered_hz", Json::from(self.offered_hz)),
            (
                "tenants",
                Json::arr(self.tenants.iter().map(|t| t.to_json())),
            ),
            ("admitted", by_class(&self.admitted)),
            ("shed", by_class(&self.shed)),
            (
                "invariant_violations",
                Json::from(self.invariant_violations),
            ),
            ("lint_errors", Json::from(self.lint_errors)),
            ("events", Json::from(self.events)),
            ("event_digest", Json::from(self.event_digest)),
        ])
    }
}

/// Count admission-invariant violations over the spec-ordered rows
/// (gold, silver, best-effort): each higher class must succeed at least
/// as often as every lower one (small epsilon for open-loop noise) and
/// must never shed more.
pub fn invariant_violations(rows: &[TenantRow]) -> u64 {
    let mut v = 0;
    for hi in 0..rows.len() {
        for lo in hi + 1..rows.len() {
            if rows[hi].success_ratio + 0.02 < rows[lo].success_ratio {
                v += 1;
            }
            if rows[hi].shed > rows[lo].shed {
                v += 1;
            }
        }
    }
    v
}

/// Run one sweep point.
pub fn run_point(factor: f64, p: &LoadParams) -> LoadPoint {
    let duration = SimDuration::from_secs(p.duration_secs);
    let offered_hz = p.base_rate_hz * factor;
    let spec = WorkloadSpec::three_tier(p.seed, duration, offered_hz);

    let mut builder = OverlayBuilder::new(p.sites, p.seed);
    let (capacity, backpressure) = (p.capacity, p.backpressure);
    let request_cost = SimDuration::from_millis(p.request_cost_ms);
    builder.configure(move |_, cfg| {
        cfg.admission = if backpressure {
            AdmissionConfig::bounded(capacity)
        } else {
            AdmissionConfig::disabled()
        };
        cfg.request_cost = request_cost;
        cfg.election_interval = None;
    });
    let catalogue = spec.activities.clone();
    builder.seed(move |i, node| {
        for name in &catalogue {
            node.atr
                .register(
                    ActivityType::concrete_type(name, "bench", name),
                    SimTime::ZERO,
                )
                .unwrap();
            if i == 0 {
                let d = ActivityDeployment::executable(
                    name,
                    "site0",
                    &format!("/opt/deployments/{name}/bin/{name}"),
                    &format!("/opt/deployments/{name}"),
                );
                node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
            }
        }
    });
    let (mut sim, ids) = builder.build();
    sim.enable_events(200_000);

    let mut stats = Vec::new();
    for (i, _) in spec.tenants.iter().enumerate() {
        let s = TenantStats::shared();
        let load = TenantLoad::new(&spec, i, ids[0], RetryPolicy::standard(), s.clone());
        sim.add_actor(SiteId(0), Box::new(load));
        stats.push(s);
    }

    sim.start();
    let events = sim.run_until(SimTime::from_secs(p.duration_secs + p.drain_secs));

    let window_secs = p.duration_secs as f64;
    let tenants: Vec<TenantRow> = spec
        .tenants
        .iter()
        .zip(stats.iter())
        .map(|(t, s)| {
            let s = s.lock();
            let mut sorted = s.latencies.clone();
            sorted.sort_unstable();
            let pct = |q: f64| percentile(&sorted, q).map_or(0.0, |d| d.as_millis_f64());
            TenantRow {
                name: t.name.clone(),
                class: t.class.label(),
                offered: s.offered,
                sent: s.sent,
                responses: s.responses,
                hits: s.hits,
                shed: s.shed,
                retries: s.retries,
                dropped: s.dropped,
                goodput_hz: s.responses as f64 / window_secs,
                success_ratio: s.responses as f64 / s.offered.max(1) as f64,
                p50_ms: pct(0.50),
                p95_ms: pct(0.95),
                p99_ms: pct(0.99),
            }
        })
        .collect();

    let mut admitted = [0u64; 3];
    let mut shed = [0u64; 3];
    for class in TenantClass::ALL {
        let labels = Labels::of(&[("class", class.label()), ("site", "site0")]);
        admitted[class.index()] = sim
            .metrics()
            .counter_labeled_value("glare_admission_admitted_total", &labels);
        shed[class.index()] = sim
            .metrics()
            .counter_labeled_value("glare_admission_shed_total", &labels);
    }

    let jsonl = sim.events().map(|log| log.to_jsonl()).unwrap_or_default();
    let event_digest = fnv1a(jsonl.as_bytes());
    let lint_errors = sim.metrics().lint_metric_names().len() as u64;

    LoadPoint {
        factor,
        offered_hz,
        invariant_violations: invariant_violations(&tenants),
        tenants,
        admitted,
        shed,
        lint_errors,
        events,
        event_digest,
    }
}

/// The full sweep, ascending factor order.
pub fn run(p: &LoadParams) -> Vec<LoadPoint> {
    p.factors.iter().map(|&f| run_point(f, p)).collect()
}

/// Render the sweep as a table.
pub fn render(p: &LoadParams, points: &[LoadPoint]) -> String {
    let mut s = format!(
        "Load sweep ({} sites, capacity {}, base {:.0} req/s, backpressure {})\n\
         factor | tenant     | class       | offered | goodput/s | ok-ratio | shed  | p95 (ms)\n",
        p.sites,
        p.capacity,
        p.base_rate_hz,
        if p.backpressure { "on" } else { "off" },
    );
    for pt in points {
        for t in &pt.tenants {
            s.push_str(&format!(
                "{:>6.2} | {:<10} | {:<11} | {:>7} | {:>9.1} | {:>8.3} | {:>5} | {:>8.1}\n",
                pt.factor,
                t.name,
                t.class,
                t.offered,
                t.goodput_hz,
                t.success_ratio,
                t.shed,
                t.p95_ms,
            ));
        }
        if pt.invariant_violations > 0 {
            s.push_str(&format!(
                "       ! {} admission-invariant violation(s)\n",
                pt.invariant_violations
            ));
        }
    }
    s
}

/// The `BENCH_load.json` document: byte-identical for a given seed and
/// parameter set.
pub fn to_json(p: &LoadParams, points: &[LoadPoint]) -> Json {
    Json::obj([
        ("schema", Json::from("glare.load.v1")),
        ("seed", Json::from(p.seed)),
        ("sites", Json::from(p.sites)),
        ("capacity", Json::from(p.capacity as u64)),
        ("base_rate_hz", Json::from(p.base_rate_hz)),
        ("duration_secs", Json::from(p.duration_secs)),
        ("backpressure", Json::from(p.backpressure)),
        (
            "deterministic",
            Json::obj([(
                "points",
                Json::arr(points.iter().map(|pt| pt.to_json())),
            )]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_half_is_seed_stable() {
        let p = LoadParams::smoke();
        let a = to_json(&p, &run(&p)).to_string_pretty();
        let b = to_json(&p, &run(&p)).to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"glare.load.v1\""));
    }

    #[test]
    fn overload_sheds_best_effort_first_and_gold_holds() {
        let p = LoadParams::smoke();
        let points = run(&p);
        assert_eq!(points.len(), p.factors.len());
        for pt in &points {
            assert_eq!(pt.invariant_violations, 0, "factor {}", pt.factor);
            assert_eq!(pt.lint_errors, 0, "factor {}", pt.factor);
        }
        let pre = points.iter().find(|pt| pt.factor == 1.0).expect("1x point");
        let over = points.last().expect("top factor");
        assert!(over.factor >= 2.0, "the top factor sits past saturation");
        assert!(
            over.shed[2] > 0 && over.tenants[2].shed > 0,
            "2x saturation must shed best-effort traffic"
        );
        assert!(over.shed[0] <= over.shed[2], "gold never out-sheds BE");
        assert!(over.tenants[0].shed <= over.tenants[2].shed, "nor as the tenants see it");
        let gold_pre = pre.tenants[0].goodput_hz;
        let gold_over = over.tenants[0].goodput_hz;
        assert!(
            gold_over >= gold_pre * 0.9,
            "gold goodput at 2x ({gold_over:.1}/s) must stay within 10% of pre-overload ({gold_pre:.1}/s)"
        );
    }

    #[test]
    fn admission_headroom_is_event_identical() {
        // Enabled-but-never-shedding admission must not change a single
        // event: the controller draws no RNG and schedules no timers, so
        // the only trace it leaves is its own counters.
        let off = run_point(
            0.5,
            &LoadParams {
                backpressure: false,
                ..LoadParams::smoke()
            },
        );
        let headroom = run_point(
            0.5,
            &LoadParams {
                capacity: 1_000_000,
                ..LoadParams::smoke()
            },
        );
        assert_eq!(headroom.shed, [0, 0, 0], "huge capacity never sheds");
        assert_eq!(off.event_digest, headroom.event_digest);
        assert_eq!(off.events, headroom.events);
        for (a, b) in off.tenants.iter().zip(headroom.tenants.iter()) {
            assert_eq!(a.responses, b.responses, "{}", a.name);
            assert_eq!(a.p95_ms, b.p95_ms, "{}", a.name);
            assert_eq!(a.shed, 0);
            assert_eq!(b.shed, 0);
        }
    }

    #[test]
    fn metric_names_lint_clean_even_while_shedding() {
        // The new admission families obey the glare_* naming contract.
        let p = LoadParams {
            sites: 4,
            factors: vec![2.0],
            duration_secs: 5,
            drain_secs: 2,
            ..LoadParams::default()
        };
        let points = run(&p);
        assert!(points[0].shed.iter().sum::<u64>() > 0, "2x must shed");
        assert_eq!(points[0].lint_errors, 0);
    }
}
