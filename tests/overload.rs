//! Workspace integration: multi-tenant admission control under overload.
//!
//! Drives the three-tier workload (gold 20% / silver 30% / best-effort
//! 50%, open-loop Poisson) against a single entry site with a bounded
//! inbox, at 1x and 2x the site's service capacity, and asserts the
//! graceful-degradation contract: best-effort sheds first, silver sheds
//! before gold, and gold's goodput at 2x stays within 10% of its
//! pre-overload goodput.

use glare::core::admission::AdmissionConfig;
use glare::core::invariants::admission_ordering;
use glare::core::model::{ActivityDeployment, ActivityType};
use glare::core::overlay::OverlayBuilder;
use glare::core::retry::RetryPolicy;
use glare::fabric::{SimDuration, SimTime, SiteId};
use glare::workload::{TenantLoad, TenantStats, WorkloadSpec};

/// Per-tenant outcome of one run.
struct Outcome {
    class: &'static str,
    offered: u64,
    responses: u64,
    shed: u64,
    goodput_hz: f64,
    success_ratio: f64,
}

const SITES: usize = 6;
const SEED: u64 = 90125;
const CAPACITY: u32 = 32;
const REQUEST_COST_MS: u64 = 20;
const DURATION_SECS: u64 = 20;
const DRAIN_SECS: u64 = 8;
/// Entry-site service capacity: 4 cores / 20ms per request = 200 req/s.
/// 120 req/s offered at factor 1.0 leaves headroom; 240 req/s at 2.0
/// overloads the site by ~20%.
const BASE_RATE_HZ: f64 = 120.0;

fn run_at(factor: f64) -> Vec<Outcome> {
    let duration = SimDuration::from_secs(DURATION_SECS);
    let spec = WorkloadSpec::three_tier(SEED, duration, BASE_RATE_HZ * factor);

    let mut builder = OverlayBuilder::new(SITES, SEED);
    builder.configure(|_, cfg| {
        cfg.admission = AdmissionConfig::bounded(CAPACITY);
        cfg.request_cost = SimDuration::from_millis(REQUEST_COST_MS);
        cfg.election_interval = None;
    });
    let catalogue = spec.activities.clone();
    builder.seed(move |i, node| {
        for name in &catalogue {
            node.atr
                .register(ActivityType::concrete_type(name, "bench", name), SimTime::ZERO)
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

    let mut stats = Vec::new();
    for (i, _) in spec.tenants.iter().enumerate() {
        let s = TenantStats::shared();
        let load = TenantLoad::new(&spec, i, ids[0], RetryPolicy::standard(), s.clone());
        sim.add_actor(SiteId(0), Box::new(load));
        stats.push(s);
    }

    sim.start();
    sim.run_until(SimTime::from_secs(DURATION_SECS + DRAIN_SECS));

    spec.tenants
        .iter()
        .zip(stats.iter())
        .map(|(t, s)| {
            let s = s.lock();
            Outcome {
                class: t.class.label(),
                offered: s.offered,
                responses: s.responses,
                shed: s.shed,
                goodput_hz: s.responses as f64 / DURATION_SECS as f64,
                success_ratio: s.responses as f64 / s.offered.max(1) as f64,
            }
        })
        .collect()
}

fn by_class<'a>(outcomes: &'a [Outcome], class: &str) -> &'a Outcome {
    outcomes.iter().find(|o| o.class == class).expect("class present")
}

#[test]
fn gold_holds_goodput_while_best_effort_sheds_first() {
    let nominal = run_at(1.0);
    let overload = run_at(2.0);

    for o in nominal.iter().chain(overload.iter()) {
        assert!(o.offered > 0, "{} offered no load", o.class);
    }

    let gold_pre = by_class(&nominal, "gold");
    let gold = by_class(&overload, "gold");
    let silver = by_class(&overload, "silver");
    let be = by_class(&overload, "best_effort");

    // 2x saturation actually sheds; lower classes shed first and succeed
    // less often (the admission ordering, down-class).
    assert!(be.shed > 0, "2x saturation must shed best-effort traffic");
    let classes: Vec<(u64, f64, u64)> = [gold, silver, be]
        .iter()
        .map(|o| (o.offered, o.success_ratio, o.shed))
        .collect();
    assert_eq!(admission_ordering(&classes), Vec::<String>::new());

    // Gold's goodput at 2x stays within 10% of pre-overload — the rate
    // doubled, so the floor is the factor-1.0 goodput, not 2x of it.
    assert!(
        gold.goodput_hz >= 0.9 * gold_pre.goodput_hz,
        "gold goodput collapsed under overload: {:.1}/s at 2x vs {:.1}/s at 1x",
        gold.goodput_hz,
        gold_pre.goodput_hz
    );
}

#[test]
fn overload_outcomes_are_deterministic() {
    let a = run_at(2.0);
    let b = run_at(2.0);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.offered, y.offered, "{} offered diverged", x.class);
        assert_eq!(x.responses, y.responses, "{} responses diverged", x.class);
        assert_eq!(x.shed, y.shed, "{} shed diverged", x.class);
    }
}
