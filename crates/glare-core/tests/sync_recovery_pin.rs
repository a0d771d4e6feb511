//! Pins what the synchronous substrate (`Grid` + `rdm/`) does under
//! faults, end to end: the values below were captured before the three
//! copies of the lost-attempt loop (discovery probe, lease call, deploy
//! step) were folded onto one set of `Grid` bookkeeping methods and before
//! its metric records moved behind one telemetry door, and must never move.
//!
//! The invariant they hold is an *order*: every lost attempt books its
//! timeout, feeds the site's breaker (where one guards the call), and only
//! then — if the policy allows another attempt — draws its back-off from
//! the injector's RNG, the same stream the per-attempt loss draws come
//! from. A refactor that draws once more, once less or in another order
//! shifts every later loss draw and with it the rest of the run.
//!
//! When a value moves, the failure prints all of them: a change that is
//! *meant* to alter the recovery path replaces the table, anything else
//! has diverged.

use glare_core::grid::FaultInjector;
use glare_core::model::example_hierarchy;
use glare_core::rdm::{undeploy, CacheRefresher, DeploymentStatusMonitor, IndexMonitor};
use glare_core::{
    provision, Grid, LeaseKind, ProvisionRequest, RequestManager, SuspicionConfig,
    SuspicionTracker,
};
use glare_fabric::store::fnv1a;
use glare_fabric::{SimDuration, SimTime, StoreConfig};
use glare_services::{ChannelKind, Transport};

const SITES: usize = 8;
const ROUNDS: u64 = 9;
/// Holds the `Wien2k` deployment every lease names, and is down for the
/// middle third of the rounds.
const FLAKY: usize = 3;

/// Everything observable about a finished run.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    /// FNV of `metrics.expose_prometheus()`.
    metrics: u64,
    /// FNV of `events.to_jsonl()`.
    events: u64,
    /// FNV of the debug print of every recorded span.
    spans: u64,
    /// `trace.len()`.
    span_count: usize,
    /// Nanoseconds charged, summed over every call that reports a cost.
    cost_ns: u64,
    /// The injector's next draw: where the run left its RNG stream.
    next_draw: u64,
}

fn request(activity: &str, from_site: usize) -> ProvisionRequest {
    ProvisionRequest {
        activity: activity.into(),
        client: format!("client{from_site}"),
        channel: ChannelKind::Expect,
        from_site,
        preferred_site: Some(from_site),
    }
}

/// An 8-site durable VO with the per-site round-trip estimator on. After a
/// clean warm-up the injector loses 30 % of all cross-site attempts; for
/// nine rounds every site asks its Request Manager for `Wien2k` (cache on
/// and off), leases the one `Wien2k` deployment, and provisions a rotating
/// activity whose deploy steps hit the injector, while the deployment's
/// site is down for rounds 3–5 and the monitors run between rounds.
///
/// `max_attempts` decides how a retried call ends: at the standard 4 the
/// site's breaker (threshold 3) always trips first and the next attempt is
/// short-circuited; at 2 the policy refuses the third attempt before the
/// breaker has seen enough, which is the exit a stray back-off draw hides
/// behind.
fn storm(seed: u64, max_attempts: u32) -> Pins {
    let t = SimTime::from_secs;
    let mut g = Grid::new(SITES, Transport::Http);
    g.enable_durability(StoreConfig::standard());
    g.suspicion = SuspicionTracker::new(SuspicionConfig::standard());
    g.retry.max_attempts = max_attempts;
    for site in 0..SITES {
        for ty in example_hierarchy(SimTime::ZERO) {
            g.register_type(site, ty, SimTime::ZERO).unwrap();
        }
    }
    let mut cost = SimDuration::ZERO;

    // Injector still inert: one deployment to discover and lease, and two
    // full ladders from every site (nothing deploys `Invmod`, so each
    // walks all seven remotes) to warm the estimator past `min_samples`.
    let clean = provision(&mut g, &request("Wien2k", FLAKY), t(1)).expect("clean provision");
    cost += clean.total_cost;
    let lease_key = clean.deployments[0].1.key.clone();
    for round in 0..2 {
        for site in 0..SITES {
            let miss = RequestManager::new(false).list_deployments(&mut g, site, "Invmod", t(2 + round));
            assert!(miss.is_err(), "nothing deploys Invmod yet");
        }
    }
    assert!(g.suspicion.is_warm(FLAKY));

    g.faults = FaultInjector::seeded(seed, 0.3);
    let activities = ["Invmod", "Counter", "Imaging"];
    for r in 0..ROUNDS {
        let now = t(100 + r * 100);
        if r == ROUNDS / 3 {
            g.crash_site(FLAKY, now);
        }
        if r == 2 * ROUNDS / 3 {
            g.restart_site(FLAKY, now);
        }
        for site in 0..SITES {
            let rm = RequestManager::new((r + site as u64).is_multiple_of(2));
            if let Ok(found) = rm.list_deployments(&mut g, site, "Wien2k", now) {
                cost += found.cost;
            }
            let window = now..now + SimDuration::from_secs(90);
            let client = format!("c{r}-{site}");
            let (_, waited) =
                g.acquire_lease_retrying(FLAKY, &lease_key, &client, LeaseKind::Shared, window, now);
            cost += waited;
            let activity = activities[(r as usize + site) % activities.len()];
            if let Ok(out) = provision(&mut g, &request(activity, site), now) {
                cost += out.total_cost;
            }
        }
        // Between rounds: the monitors publish through the same telemetry
        // (the refresher only every third round and never during the
        // outage, so entries cached before it are neither revived nor
        // evicted but age past their limit and are served degraded), and
        // `Invmod` is undeployed so the next round installs it again.
        let after = now + SimDuration::from_secs(50);
        for site in 0..SITES {
            if r % 3 == 0 && g.site_is_up(FLAKY) {
                CacheRefresher::refresh(&mut g, site, after);
            }
            DeploymentStatusMonitor::run(&mut g, site, after);
        }
        IndexMonitor::run(&mut g, 0, after);
        let _ = undeploy(&mut g, "Invmod", None, false, after);
    }

    for kind in ["retry.attempt", "breaker.open", "deploy.step_retried", "query.degraded"] {
        assert!(g.events.of_kind(kind).count() > 0, "seed {seed}: no {kind} event");
    }
    assert_eq!(g.metrics.lint_metric_names(), Vec::<String>::new());
    g.trace.finish(t(100 + ROUNDS * 100));
    Pins {
        metrics: fnv1a(g.metrics.expose_prometheus().as_bytes()),
        events: fnv1a(g.events.to_jsonl().as_bytes()),
        spans: fnv1a(format!("{:?}", g.trace.spans()).as_bytes()),
        span_count: g.trace.len(),
        cost_ns: cost.as_nanos(),
        next_draw: g.faults.rng_mut().next_u64(),
    }
}

#[test]
fn faulty_synchronous_runs_behave_as_pinned() {
    let got = [storm(7, 4), storm(4212, 2)];
    let pinned = [
        Pins {
            metrics: 0xbdba49a3561a6dbe,
            events: 0x01edd1b56d1cf436,
            spans: 0xffceb338861f64de,
            span_count: 1002,
            cost_ns: 461253148384,
            next_draw: 0xc384573a2bc6afa8,
        },
        Pins {
            metrics: 0x4ef995c36c5fc570,
            events: 0xd1912ed00a0f213d,
            spans: 0xa931fa3092583fe3,
            span_count: 1059,
            cost_ns: 353173847696,
            next_draw: 0x6866302ca0f51c18,
        },
    ];
    assert_eq!(got, pinned, "the synchronous recovery path moved: {got:#x?}");
}
