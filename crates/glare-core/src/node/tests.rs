//! Simulation-level tests of the node: whole overlays, driven through
//! the kernel. They stay in one module (`node::tests`) so that the names
//! the suite prints stay what they were before the split; the overlay
//! view's routing choices, which need no simulation, are tested in
//! `view.rs`.

use std::any::Any;

use glare_fabric::{
    Actor, ActorId, Ctx, Envelope, FaultPlan, Labels, MetricsRegistry, SimDuration, SimTime,
    Simulation, SiteId,
};
use glare_services::mds::REQUEST_BASE_COST;

use super::labels::NodeLabels;
use super::ladder::lookup_names;
use super::{GlareNode, NodeMsg, QueryScope};
use crate::admission::{AdmissionConfig, TenantClass};
use crate::invariants;
use crate::model::{example_hierarchy, ActivityDeployment, ActivityType, DeploymentStatus};
use crate::overlay::{ClientStats, OverlayBuilder, QueryClient};
use crate::superpeer::{plan_tree, Role};

fn seeded_overlay(
    n: usize,
    deploy_on: &[usize],
    use_cache: bool,
) -> (Simulation, Vec<ActorId>) {
    seeded_overlay_admitting(n, deploy_on, use_cache, AdmissionConfig::disabled())
}

/// [`seeded_overlay`] with every node's front door set to `admission`.
fn seeded_overlay_admitting(
    n: usize,
    deploy_on: &[usize],
    use_cache: bool,
    admission: AdmissionConfig,
) -> (Simulation, Vec<ActorId>) {
    let mut b = OverlayBuilder::new(n, 42);
    b.configure(move |_, cfg| {
        cfg.use_cache = use_cache;
        cfg.max_group_size = 4;
        cfg.admission = admission;
    });
    let deploy_on = deploy_on.to_vec();
    b.seed(move |i, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).unwrap();
        }
        if deploy_on.contains(&i) {
            let d = ActivityDeployment::executable(
                "JPOVray",
                &format!("site{i}"),
                "/opt/deployments/jpovray/bin/jpovray",
                "/opt/deployments/jpovray",
            );
            node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
        }
    });
    b.build()
}

/// The interned names are, string for string, what each record used
/// to format: parts appear on first use, and only the peer-group set
/// follows the super-peer.
#[test]
fn node_labels_are_lazy_and_track_the_super_peer() {
    let mut slot = None;
    let labels = NodeLabels::of(&mut slot, SiteId(7));
    assert_eq!(labels.site, Labels::of(&[("site", "site7")]));
    assert!(labels.cache.is_none() && labels.tenant.is_none());
    assert_eq!(
        labels.site_and("op", "query"),
        Labels::of(&[("site", "site7"), ("op", "query")])
    );
    let names = labels.cache(None);
    assert_eq!(names.hits, "site7.cache.hits");
    assert_eq!(names.misses, "site7.cache.misses");
    assert_eq!(
        names.peer_group,
        Labels::of(&[("site", "site7"), ("peer_group", "ungrouped")])
    );
    // A hit is tallied under the group of the moment: the handles a
    // rebuilt set starts without are resolved again, by name, so the
    // flat counter carries on and each group gets its own.
    let mut m = MetricsRegistry::new();
    for sp in [ActorId(3), ActorId(3), ActorId(5)] {
        let names = labels.cache(Some(sp));
        assert_eq!(
            names.peer_group,
            Labels::of(&[("site", "site7"), ("peer_group", &format!("g{}", sp.0))])
        );
        names.tally(&mut m, 1, 0);
        assert!(names.group_hits_id.is_some() && names.misses_id.is_none());
    }
    assert_eq!(m.counter_value("site7.cache.hits"), 3);
    let per_group: Vec<u64> = m
        .labeled_counters_of("glare_cache_hits_total")
        .map(|(_, n)| n)
        .collect();
    assert_eq!(per_group, [2, 1]);
    let exposition = m.expose_prometheus();
    let families: Vec<&str> = exposition.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
    assert_eq!(
        families,
        ["glare_cache_hits_total counter", "site7_cache_hits counter"],
        "one flat counter and one labeled family: no miss was tallied"
    );
    assert_eq!(
        labels.admission("siteSeven").sets[TenantClass::Gold.index()],
        Labels::of(&[("class", "gold"), ("site", "siteSeven")])
    );
    // A second `of` finds what the first built.
    assert!(NodeLabels::of(&mut slot, SiteId(7)).cache.is_some());
}

/// One `{class, site}` set per tenant class, under the configured site
/// name and by the class's index, and each admission decision counts
/// under its class's set.
#[test]
fn admission_labels_cover_every_tenant_class() {
    let mut slot = None;
    let labels = NodeLabels::of(&mut slot, SiteId(7));
    let mut m = MetricsRegistry::new();
    for class in TenantClass::ALL {
        let set = Labels::of(&[("class", class.label()), ("site", "siteSeven")]);
        assert_eq!(labels.admission("siteSeven").sets[class.index()], set);
        for admitted in [true, false, false] {
            labels.count_admission(&mut m, "siteSeven", class, admitted);
        }
        assert_eq!(m.counter_labeled_value("glare_admission_admitted_total", &set), 1);
        assert_eq!(m.counter_labeled_value("glare_admission_shed_total", &set), 2);
    }
    assert_eq!(m.lint_metric_names(), Vec::<String>::new());
}

/// Seeded property: `resolve_local` answers a node whose ADR indexes
/// nothing without walking the type DAG, and must give what the walk
/// gives whatever ran before: type inserts and removals, deployment
/// registrations, uninstalls, peer tombstones, failed deployments (a
/// type whose last deployment went keeps an empty index entry: the slow
/// path, still right), and the amnesia of a crash, which swaps in
/// registries that index nothing again. A deployment of `T3` on `s1` is
/// keyed `t3@s1`, so the key-addressed edits find what was registered.
#[test]
fn resolve_local_equals_the_closure_walk_after_random_edits() {
    use glare_fabric::SimRng;

    const NAMES: u64 = 8;
    fn walk(node: &GlareNode, activity: &str, now: SimTime) -> Vec<ActivityDeployment> {
        let closure = node.atr.concrete_closure(activity);
        lookup_names(&closure, activity)
            .flat_map(|n| node.adr.deployments_of(n, now).value)
            .collect()
    }
    let mut rng = SimRng::from_seed(0x16_FA57);
    let (mut answered_empty_early, mut answered_something) = (0, 0);
    for round in 0..60 {
        let mut b = OverlayBuilder::new(1, round);
        b.configure(|_, cfg| cfg.use_cache = false);
        let (mut sim, ids) = b.build();
        sim.enable_store(glare_fabric::StoreConfig::standard());
        let crash_at = SimTime::from_secs(rng.range(5, 40));
        sim.schedule_crash(crash_at, SiteId(0));
        sim.schedule_restart(crash_at + SimDuration::from_secs(2), SiteId(0));
        sim.start();
        for step in 1..=40u64 {
            let now = SimTime::from_secs(step);
            sim.run_until(now);
            let node: &GlareNode = sim.actor_as(ids[0]).unwrap();
            let ty = format!("T{}", rng.range(0, NAMES));
            let key = format!("t{}@s{}", rng.range(0, NAMES), rng.range(0, 3));
            match rng.range(0, 10) {
                0..=2 => {
                    // Bases have smaller indices: the DAG stays acyclic.
                    let i: u64 = ty[1..].parse().unwrap();
                    let mut t = if rng.chance(0.6) {
                        ActivityType::concrete_type(&ty, "d", "x")
                    } else {
                        ActivityType::abstract_type(&ty, "d")
                    };
                    if i > 0 && rng.chance(0.7) {
                        t = t.extends(&format!("T{}", rng.range(0, i)));
                    }
                    let _ = node.atr.register(t, now);
                }
                3 => drop(node.atr.remove(&ty)),
                4..=6 => {
                    let site = format!("s{}", rng.range(0, 3));
                    let exe = format!("/x/bin/{}", ty.to_lowercase());
                    let d = ActivityDeployment::executable(&ty, &site, &exe, "/x");
                    let _ = node.adr.register(d, &node.atr, now);
                }
                7 => drop(node.adr.uninstall(&key, now)),
                8 => drop(node.adr.apply_tombstone(&key, now)),
                _ => drop(node.adr.set_status(&key, DeploymentStatus::Failed, now)),
            }
            for i in 0..NAMES + 1 {
                let name = format!("T{i}");
                let fast = node.resolve_local(&name, now);
                assert_eq!(fast, walk(node, &name, now), "round {round} step {step} {name}");
                answered_something += usize::from(!fast.is_empty());
            }
            answered_empty_early += usize::from(node.adr.indexes_nothing());
        }
    }
    assert!(answered_empty_early > 100 && answered_something > 100, "both paths ran");
}

/// Continuations ride their completion events, so a crash voids the
/// ones in flight with the events themselves, durable store or not: no
/// request of the old incarnation is resumed, and the node holds
/// nothing of them afterwards (without the store the node keeps its
/// volatile state across a crash, and used to keep a `deferred` entry
/// per voided completion, and an admitted request's inbox ticket under
/// its `(reply_to, req_id)`, for the rest of the run). A voided client
/// request's ticket rode the request too: its slot comes back through the
/// inbox's TTL sweep, or with the amnesia that rebuilds the inbox.
#[test]
fn a_crash_voids_the_continuations_in_flight_with_and_without_the_store() {
    struct Collector(Vec<u64>);
    impl Actor for Collector {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
            if let Ok((_, NodeMsg::QueryResponse { req_id, deployments })) = env.downcast() {
                assert_eq!(deployments.len(), 1, "site 1 hosts JPOVray");
                self.0.push(req_id);
            }
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
    }
    for store in [false, true] {
        let admission = AdmissionConfig::bounded(4);
        let (mut sim, ids) = seeded_overlay_admitting(2, &[1], false, admission);
        if store {
            sim.enable_store(glare_fabric::StoreConfig::standard());
        }
        let collector = sim.add_actor(SiteId(0), Box::new(Collector(Vec::new())));
        let ask = |sim: &mut Simulation, at: SimTime, req_id: u64, scope: QueryScope| {
            let msg = NodeMsg::QueryDeployments {
                activity: "Imaging".into(),
                req_id,
                reply_to: collector,
                scope,
                class: TenantClass::BestEffort,
            };
            sim.inject(at, collector, ids[1], msg);
        };
        // Request 1 is two thirds through its registry stage and probes 2
        // and client request 4 half through their request stage when site
        // 1 dies; request 4 holds an inbox ticket.
        let t0 = SimTime::from_secs(60);
        let (request, registry) = (REQUEST_BASE_COST, SimDuration::from_millis(4));
        ask(&mut sim, t0, 1, QueryScope::LocalOnly);
        ask(&mut sim, t0 + request + registry / 4, 2, QueryScope::LocalOnly);
        ask(&mut sim, t0 + request + registry / 4, 4, QueryScope::Full);
        let crash = t0 + request + registry * 3 / 4;
        sim.schedule_crash(crash, SiteId(1));
        sim.schedule_restart(crash + SimDuration::from_secs(20), SiteId(1));
        ask(&mut sim, crash + SimDuration::from_secs(40), 3, QueryScope::LocalOnly);
        ask(&mut sim, crash + SimDuration::from_secs(41), 5, QueryScope::Full);
        sim.start();
        sim.run_until(t0 + SimDuration::from_secs(120));
        assert_eq!(sim.metrics().counter_value("glare.requests"), 5, "store {store}");
        assert_eq!(
            sim.actor_as::<Collector>(collector).unwrap().0,
            [3, 5],
            "store {store}: only the new incarnation's requests are answered"
        );
        let node: &GlareNode = sim.actor_as(ids[1]).unwrap();
        // The voided completions took their payloads with them (fabric's
        // `compute_then_payload_rides_the_event_and_dies_with_a_crash`),
        // request 4's ticket included. Without the store the inbox outlives
        // the crash and its TTL sweep reclaims the slot when request 5
        // arrives; with it the amnesia rebuilt the inbox empty. Either way
        // request 5 was admitted and gave its ticket back with its reply.
        let total = |family| sim.metrics().labeled_counters_of(family).map(|(_, n)| n).sum::<u64>();
        assert_eq!(total("glare_inbox_ttl_released_total"), u64::from(!store), "store {store}");
        assert_eq!(total("glare_admission_admitted_total"), 2, "store {store}");
        assert_eq!(total("glare_admission_shed_total"), 0, "store {store}");
        assert_eq!(node.door.clone().occupancy(sim.now()), 0, "store {store}");
    }
}

#[test]
fn election_forms_groups_and_heartbeats() {
    let (mut sim, ids) = seeded_overlay(7, &[], true);
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    let _ = ids;
    // ceil(7/4) = 2 super-peers took office.
    assert_eq!(
        sim.metrics().counter_value("glare.superpeer_takeovers"),
        2,
        "two groups, two super-peers"
    );
}

#[test]
fn local_query_answers_fast() {
    let (mut sim, ids) = seeded_overlay(3, &[0], true);
    let stats = ClientStats::shared();
    let client = QueryClient::new(ids[0], "Imaging", SimDuration::from_secs(1), 5, stats.clone());
    let topo_site = SiteId(0);
    let cid = sim.add_actor(topo_site, Box::new(client));
    let _ = cid;
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    let s = stats.lock();
    assert_eq!(s.responses, 5);
    assert_eq!(s.hits, 5, "all answered with deployments");
    assert!(
        s.mean_latency().unwrap() < SimDuration::from_millis(50),
        "local answers are fast: {:?}",
        s.mean_latency()
    );
}

#[test]
fn remote_query_found_via_group_and_cached() {
    let (mut sim, ids) = seeded_overlay(3, &[2], true);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[0],
        "Imaging",
        SimDuration::from_secs(2),
        4,
        stats.clone(),
    );
    sim.add_actor(SiteId(0), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let s = stats.lock();
    assert_eq!(s.responses, 4);
    assert_eq!(s.hits, 4);
    // Later requests hit the cache and are faster than the first.
    assert!(
        *s.latencies.last().unwrap() < s.latencies[0],
        "cached {:?} vs first {:?}",
        s.latencies.last(),
        s.latencies[0]
    );
    assert!(sim.metrics().counter_value("glare.cache_answers") >= 1);
}

#[test]
fn cache_off_never_speeds_up() {
    let (mut sim, ids) = seeded_overlay(3, &[2], false);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[0],
        "Imaging",
        SimDuration::from_secs(2),
        4,
        stats.clone(),
    );
    sim.add_actor(SiteId(0), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let s = stats.lock();
    assert_eq!(s.responses, 4);
    assert_eq!(sim.metrics().counter_value("glare.cache_answers"), 0);
}

#[test]
fn query_across_groups_via_super_peers() {
    // 7 nodes -> 2 groups. Deployment lives on the last node; client
    // asks the first. If they land in different groups, resolution
    // must traverse super-peers.
    let (mut sim, ids) = seeded_overlay(7, &[6], true);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[0],
        "Imaging",
        SimDuration::from_secs(3),
        3,
        stats.clone(),
    );
    sim.add_actor(SiteId(0), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(120));
    let s = stats.lock();
    assert_eq!(s.responses, 3);
    assert_eq!(s.hits, 3, "deployment found across groups");
}

#[test]
fn coordinator_contention_smaller_community_wins() {
    // Two nodes both believe they hold a community index. §3.3: "A
    // message from a smaller community is acknowledged in case of
    // notifications from multiple indices." We model the second
    // coordinator claiming a smaller community by giving it a short
    // roster; every node must ack exactly one coordinator, and the
    // overlay still converges to one super-peer per group.
    let mut b = OverlayBuilder::new(4, 31);
    b.configure(|i, cfg| {
        if i == 1 {
            cfg.has_community_index = true; // second, contending index
        }
        cfg.election_interval = None;
    });
    let (mut sim, _ids) = b.build();
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    // Both coordinators have the same community size (full roster), so
    // the lower actor id (node 0) wins the tie; only its appointments
    // land. One group of 4 => exactly one super-peer.
    assert_eq!(
        sim.metrics().counter_value("glare.superpeer_takeovers"),
        1,
        "contending coordinators must not create extra super-peers"
    );
}

#[test]
fn super_peer_failure_triggers_reelection() {
    // One group of 4: super-peer crashes; a member takes over after
    // majority verification.
    let (mut sim, _ids) = seeded_overlay(4, &[], true);
    sim.start();
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.metrics().counter_value("glare.superpeer_takeovers"), 1);
    // Crash the highest-ranked site (the super-peer). Ranks come from
    // OverlayBuilder's topology; find it via the takeover counter by
    // crashing each site until the counter moves — instead, crash all
    // sites one at a time is overkill; the builder ranks by site spec,
    // so recompute which site won.
    let topo = sim.topology().clone();
    let mut ranked: Vec<(u32, u64)> = (0..4u32)
        .map(|i| {
            (
                i,
                topo.site(SiteId(i)).rank_hashcode(),
            )
        })
        .collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
    let sp_site = SiteId(ranked[0].0);
    sim.schedule_crash(SimTime::from_secs(20), sp_site);
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(
        sim.metrics().counter_value("glare.superpeer_takeovers"),
        2,
        "a member must take over after the crash"
    );
}

#[test]
fn probe_deadline_miss_without_retry_stays_legacy() {
    // Retries default to disabled: a crashed peer makes the probe
    // deadline fire, the stage concludes as a plain miss, and the
    // recovery layer leaves no trace — no retry metrics, no events.
    let (mut sim, ids) = seeded_overlay(3, &[2], true);
    sim.enable_events(100_000);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[0],
        "Imaging",
        SimDuration::from_secs(10),
        1,
        stats.clone(),
    );
    sim.add_actor(SiteId(0), Box::new(client));
    sim.schedule_crash(SimTime::from_secs(5), SiteId(2));
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let s = stats.lock();
    assert_eq!(s.responses, 1, "miss still answers");
    assert_eq!(s.hits, 0);
    let ev = sim.events().expect("events enabled");
    assert_eq!(ev.of_kind("retry.attempt").count(), 0);
    assert_eq!(ev.of_kind("breaker.open").count(), 0);
    assert_eq!(ev.of_kind("query.degraded").count(), 0);
    assert_eq!(
        sim.metrics().counter_labeled_value(
            "glare_retries_total",
            &Labels::of(&[("site", "site0"), ("op", "query")]),
        ),
        0
    );
}

#[test]
fn silent_peer_probes_retry_then_degrade_to_stale_cache() {
    // A deployment is cached from a healthy remote, the remote
    // crashes, the cache entry ages out — and the query still
    // answers: probes retry with backoff, the peer's breaker opens,
    // and the final miss falls back to the stale entry, marked
    // degraded.
    let topo = glare_fabric::Topology::uniform(4);
    let mut ranked: Vec<(u32, u64)> = (0..4u32)
        .map(|i| (i, topo.site(SiteId(i)).rank_hashcode()))
        .collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
    let sp_site = ranked[0].0 as usize;
    let client_site = (0..4).find(|&i| i != sp_site).unwrap();
    let deploy_site = (0..4)
        .find(|&i| i != sp_site && i != client_site)
        .unwrap();
    let mut b = OverlayBuilder::new(4, 42);
    b.configure(|_, cfg| {
        cfg.max_group_size = 4;
        cfg.retry = crate::retry::RetryPolicy::standard();
        // Keep the first election's groups: re-election would drop the
        // crashed member from the overlay and sidestep the probes this
        // test is about.
        cfg.election_interval = None;
    });
    b.seed(move |i, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).unwrap();
        }
        if i == deploy_site {
            let d = ActivityDeployment::executable(
                "JPOVray",
                &format!("site{i}"),
                "/opt/deployments/jpovray/bin/jpovray",
                "/opt/deployments/jpovray",
            );
            node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
        }
    });
    let (mut sim, ids) = b.build();
    sim.enable_events(100_000);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(200),
        3,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    // Crash after the second query (cache still warm), so the third
    // finds the entry expired and the owner unreachable.
    sim.schedule_crash(
        SimTime::from_secs(450),
        SiteId(deploy_site as u32),
    );
    sim.start();
    sim.run_until(SimTime::from_secs(900));
    let s = stats.lock();
    assert_eq!(s.responses, 3, "every query answered");
    assert_eq!(s.hits, 3, "the degraded read still carries deployments");
    let ev = sim.events().expect("events enabled");
    assert!(ev.of_kind("retry.attempt").count() >= 1, "probes retried");
    assert!(ev.of_kind("breaker.open").count() >= 1, "breaker opened");
    assert_eq!(ev.of_kind("query.degraded").count(), 1);
    let client_label = format!("site{client_site}");
    assert!(
        sim.metrics().counter_labeled_value(
            "glare_retries_total",
            &Labels::of(&[("site", &client_label), ("op", "query")]),
        ) >= 1
    );
    assert_eq!(
        sim.metrics().counter_labeled_value(
            "glare_degraded_reads_total",
            &Labels::of(&[("site", &client_label)]),
        ),
        1
    );
    assert_eq!(sim.metrics().lint_metric_names(), Vec::<String>::new());
}

#[test]
fn queries_survive_super_peer_failure() {
    // Compute which site will win the election up front, so the
    // deployment can be placed on a *surviving* member.
    let topo = glare_fabric::Topology::uniform(4);
    let mut ranked: Vec<(u32, u64)> = (0..4u32)
        .map(|i| (i, topo.site(SiteId(i)).rank_hashcode()))
        .collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
    let sp_site = ranked[0].0 as usize;
    let deploy_site = (0..4).find(|&i| i != sp_site).unwrap();
    let client_site = (0..4).find(|&i| i != sp_site && i != deploy_site).unwrap();
    let (mut sim, ids) = seeded_overlay(4, &[deploy_site], true);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(30),
        4,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    sim.schedule_crash(SimTime::from_secs(15), SiteId(sp_site as u32));
    sim.start();
    sim.run_until(SimTime::from_secs(300));
    let s = stats.lock();
    assert_eq!(s.responses, 4, "all queries answered despite SP crash");
    assert_eq!(s.hits, 4, "deployment on a surviving site stays findable");
}

#[test]
fn crash_with_store_recovers_and_digests_match() {
    // A crashed site forgets everything volatile, rebuilds from its
    // durable store, and ends the run with registries byte-identical
    // (digest-wise) to a never-crashed run of the same seed.
    let build = || {
        let mut b = OverlayBuilder::new(4, 42);
        b.configure(|_, cfg| {
            cfg.max_group_size = 4;
        });
        b.seed(|i, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).unwrap();
            }
            let d = ActivityDeployment::executable(
                "JPOVray",
                &format!("site{i}"),
                "/opt/deployments/jpovray/bin/jpovray",
                "/opt/deployments/jpovray",
            );
            node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
        });
        let (mut sim, ids) = b.build();
        sim.enable_store(glare_fabric::StoreConfig::standard());
        (sim, ids)
    };
    let horizon = SimTime::from_secs(300);
    let (mut reference, ref_ids) = build();
    reference.start();
    reference.run_until(horizon);
    let (mut sim, ids) = build();
    sim.enable_events(100_000);
    sim.schedule_crash(SimTime::from_secs(30), SiteId(1));
    sim.schedule_restart(SimTime::from_secs(50), SiteId(1));
    sim.start();
    sim.run_until(horizon);
    let ev = sim.events().expect("events enabled");
    assert!(ev.of_kind("site.amnesia").count() >= 1, "crash wiped volatile state");
    assert!(ev.of_kind("store.recovered").count() >= 1, "restart replayed the store");
    for i in 0..4 {
        let a: &GlareNode = sim.actor_as(ids[i]).unwrap();
        let b: &GlareNode = reference.actor_as(ref_ids[i]).unwrap();
        assert_eq!(
            a.registry_digest(horizon),
            b.registry_digest(horizon),
            "site{i} diverged from the never-crashed run"
        );
    }
    assert_eq!(sim.metrics().lint_metric_names(), Vec::<String>::new());
}

#[test]
fn torn_journal_truncates_at_last_valid_record() {
    let mut b = OverlayBuilder::new(2, 7);
    b.configure(|_, cfg| {
        cfg.max_group_size = 2;
    });
    b.seed(|_, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).unwrap();
        }
    });
    let (mut sim, ids) = b.build();
    sim.enable_store(glare_fabric::StoreConfig::standard());
    sim.enable_events(100_000);
    // Four registrations journal four records on site 1...
    for (k, name) in ["alpha", "beta", "gamma", "delta"].iter().enumerate() {
        let d = ActivityDeployment::executable(
            "JPOVray",
            "site1",
            &format!("/opt/{name}/bin/{name}"),
            &format!("/opt/{name}"),
        );
        sim.inject(
            SimTime::from_secs(5 + k as u64),
            ids[1],
            ids[1],
            NodeMsg::RegisterDeployment(Box::new(d)),
        );
    }
    // ...and the crash tears the last two off the tail: recovery must
    // truncate at the last valid record, not die on the corruption.
    FaultPlan::new()
        .crash_torn(SimTime::from_secs(30), SiteId(1), 2)
        .restart(SimTime::from_secs(45), SiteId(1))
        .apply(&mut sim);
    sim.start();
    sim.run_until(SimTime::from_secs(60));
    let node: &GlareNode = sim.actor_as(ids[1]).unwrap();
    let mut keys = node.adr.keys(SimTime::from_secs(60));
    keys.sort_unstable();
    assert_eq!(keys, vec!["alpha@site1".to_owned(), "beta@site1".to_owned()]);
    assert_eq!(
        sim.metrics().counter_labeled_value(
            "glare_store_truncated_records_total",
            &Labels::of(&[("site", "site1")]),
        ),
        2
    );
    let ev = sim.events().expect("events enabled");
    let rec = ev.of_kind("store.recovered").next().expect("recovery event");
    assert_eq!(
        rec.field("truncated_records").as_deref(),
        Some("2"),
        "recovery reports the torn tail: {rec:?}",
    );
    assert!(ev.of_kind("store.torn").count() >= 1, "kernel recorded the tear");
}

#[test]
fn monitors_keep_ticking_after_crash_restart() {
    // Regression: a restart used to re-arm only hb-check/election/
    // heartbeat/notify; the Deployment Status Monitor and Cache
    // Refresher loops died with the crash.
    let mut b = OverlayBuilder::new(2, 9);
    b.configure(|_, cfg| {
        cfg.monitor_interval = Some(SimDuration::from_secs(10));
        cfg.cache_refresh_interval = Some(SimDuration::from_secs(15));
    });
    b.seed(|_, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).unwrap();
        }
    });
    let (mut sim, _ids) = b.build();
    sim.schedule_crash(SimTime::from_secs(60), SiteId(1));
    sim.schedule_restart(SimTime::from_secs(80), SiteId(1));
    sim.start();
    sim.run_until(SimTime::from_secs(100));
    let labels = Labels::of(&[("site", "site1")]);
    let at_100 = sim
        .metrics()
        .counter_labeled_value("glare_monitor_ticks_total", &labels);
    sim.run_until(SimTime::from_secs(200));
    let at_200 = sim
        .metrics()
        .counter_labeled_value("glare_monitor_ticks_total", &labels);
    assert!(
        at_200 >= at_100 + 8,
        "status monitor must keep firing after restart: {at_100} -> {at_200}"
    );
}

/// Kernel timers outlive a crash, so an outage shorter than a loop's
/// period leaves the old incarnation's timer pending when the restart
/// arms the loop again — two loops for the rest of the run, unless `arm`
/// replaces the timer it remembers. The 20 s outage is the control: its
/// pending timers popped while the site was down and died there.
#[test]
fn short_outage_does_not_double_a_periodic_loop() {
    for outage in [20, 2] {
        let mut b = OverlayBuilder::new(2, 9);
        b.configure(|_, cfg| {
            cfg.monitor_interval = Some(SimDuration::from_secs(10));
            cfg.notify_interval = Some(SimDuration::from_secs(10));
        });
        let (mut sim, ids) = b.build();
        sim.schedule_crash(SimTime::from_secs(61), SiteId(1));
        sim.schedule_restart(SimTime::from_secs(61 + outage), SiteId(1));
        sim.start();
        // (status-monitor ticks, notify rounds) of site 1 so far.
        let progress = |sim: &Simulation| {
            let labels = Labels::of(&[("site", "site1")]);
            let ticks = sim.metrics().counter_labeled_value("glare_monitor_ticks_total", &labels);
            let node: &GlareNode = sim.actor_as(ids[1]).unwrap();
            (ticks, node.notifier.notify_seq)
        };
        sim.run_until(SimTime::from_secs(100));
        let at_100 = progress(&sim);
        sim.run_until(SimTime::from_secs(200));
        let at_200 = progress(&sim);
        assert_eq!(
            (at_200.0 - at_100.0, at_200.1 - at_100.1),
            (10, 10),
            "{outage} s outage: one 10 s loop fires ten times in 100 s"
        );
    }
}

/// Amnesia rebuilds every owner from its constructor; the ladder's
/// correlation counter is the one value carried across (a `QueryResponse`
/// of the previous incarnation still in flight must never alias a new
/// stage), and the one a reconstruction can silently drop.
#[test]
fn amnesia_keeps_the_correlation_counter() {
    let (mut sim, ids) = seeded_overlay(3, &[2], false);
    sim.enable_store(glare_fabric::StoreConfig::standard());
    sim.enable_events(10_000);
    // The client sits on another site, so only the node loses its memory.
    let stats = ClientStats::shared();
    let client = QueryClient::new(ids[0], "Imaging", SimDuration::from_secs(2), 8, stats);
    sim.add_actor(SiteId(1), Box::new(client));
    sim.schedule_crash(SimTime::from_secs(30), SiteId(0));
    sim.schedule_restart(SimTime::from_secs(40), SiteId(0));
    sim.start();
    sim.run_until(SimTime::from_secs(29));
    let before = sim.actor_as::<GlareNode>(ids[0]).unwrap().ladder.next_req;
    assert!(before > 0, "the node ran probe stages before the crash");
    sim.run_until(SimTime::from_secs(41));
    assert_eq!(sim.events().unwrap().of_kind("site.amnesia").count(), 1);
    let after = sim.actor_as::<GlareNode>(ids[0]).unwrap().ladder.next_req;
    assert!(after >= before, "correlation ids restarted: {before} -> {after}");
}

/// Whether `n` is the unique root of a converged multi-level tree:
/// super-peer of its topmost group with no fellow top-tier super-peers.
/// Never true on a one-tier plan, whose top tier is the leaf tier and
/// holds no placement above it.
fn is_tree_root(n: &GlareNode) -> bool {
    let top = n.view.parent_at(n.view.tree_tiers);
    n.view.tree_others.is_empty() && top.is_some_and(|t| t.super_peer == n.me)
}

#[test]
fn depth_three_election_converges_to_single_root() {
    // 121 sites, groups of 12: ceil(121/12) = 11 leaf groups, whose
    // 11 super-peers re-partition (branching = 12) into one level-2
    // group — exactly one root over two grouping tiers.
    let mut b = OverlayBuilder::new(121, 11);
    b.configure(|_, cfg| {
        cfg.max_group_size = 12;
        cfg.tree_depth = 3;
        cfg.election_interval = None;
    });
    let (mut sim, ids) = b.build();
    sim.start();
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(invariants::super_peers(&sim, &ids), Vec::<String>::new());
    let mut roots = Vec::new();
    let mut leaf_sps = std::collections::BTreeSet::new();
    for &id in &ids {
        let n = sim.actor_as::<GlareNode>(id).expect("GlareNode");
        assert_eq!(n.view.tree_tiers, 2, "node {} saw a two-tier plan", id.0);
        if n.role() == Role::SuperPeer {
            leaf_sps.insert(id);
            assert!(
                n.view.tree_parents.iter().any(|t| t.level == 2),
                "leaf super-peer {} knows its level-2 parent",
                id.0
            );
        } else {
            assert!(n.view.tree_parents.is_empty(), "plain member {} has no parents", id.0);
        }
        if is_tree_root(n) {
            roots.push(id);
        }
    }
    assert_eq!(leaf_sps.len(), 11, "one super-peer per leaf group");
    assert_eq!(roots.len(), 1, "exactly one tree root: {roots:?}");
    // The root leads its level-2 group, so every other leaf SP points
    // up at it.
    let root = roots[0];
    for &sp in &leaf_sps {
        let n = sim.actor_as::<GlareNode>(sp).expect("GlareNode");
        let parent = n.view.parent_at(2).expect("level-2 parent");
        assert_eq!(parent.super_peer, root, "leaf SP {} reports to the root", sp.0);
        assert!(n.view.tree_others.is_empty(), "single top group has no siblings");
    }
}

#[test]
fn depth_three_query_resolves_across_subtrees() {
    // 12 sites, groups of 3 with branching 3: 4 leaf groups whose
    // super-peers split into two level-2 subtrees. Deploy only on a
    // plain member under one top-level subtree and query from a plain
    // member under the other: with the cache off, a hit requires the
    // full ladder — up to the querier's top super-peer, sideways to
    // the other top super-peer, and down through its subtree.
    let n = 12usize;
    let topo = glare_fabric::Topology::uniform(n);
    let responders: Vec<(ActorId, u64)> = (0..n as u32)
        .map(|i| (ActorId(i), topo.site(SiteId(i)).rank_hashcode()))
        .collect();
    let plan = plan_tree(&responders, 3, 3, 3);
    assert_eq!(plan.levels.len(), 2, "two grouping tiers");
    assert!(plan.levels[1].len() >= 2, "need two top-level subtrees");
    let leaf_of = |sp: ActorId| {
        plan.levels[0]
            .iter()
            .find(|g| g.super_peer == sp)
            .expect("every level-2 member leads a leaf group")
    };
    let pick_member = |top: &crate::superpeer::Group| {
        // A plain (non-super-peer) member of a leaf group inside this
        // top-level subtree, so the query cannot short-circuit.
        top.all()
            .iter()
            .flat_map(|&sp| leaf_of(sp).members.clone())
            .next()
            .expect("subtree has a plain member")
    };
    let client_site = pick_member(&plan.levels[1][0]).0 as usize;
    let deploy_site = pick_member(&plan.levels[1][1]).0 as usize;
    assert_ne!(client_site, deploy_site);

    let mut b = OverlayBuilder::new(n, 17);
    b.configure(|_, cfg| {
        cfg.max_group_size = 3;
        cfg.tree_branching = Some(3);
        cfg.tree_depth = 3;
        cfg.use_cache = false;
        cfg.election_interval = None;
    });
    b.seed(move |i, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).unwrap();
        }
        if i == deploy_site {
            let d = ActivityDeployment::executable(
                "JPOVray",
                &format!("site{i}"),
                "/opt/deployments/jpovray/bin/jpovray",
                "/opt/deployments/jpovray",
            );
            node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
        }
    });
    let (mut sim, ids) = b.build();
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(5),
        3,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(120));
    let s = stats.lock();
    assert_eq!(s.responses, 3);
    assert_eq!(s.hits, 3, "deployment found across top-level subtrees");
}

#[test]
fn mid_level_super_peer_crash_heals_on_reelection() {
    // 25 sites, groups of 5: 5 leaf groups, their super-peers form one
    // level-2 group under a single root. Crash the root: its own leaf
    // group heals by heartbeat takeover, and the next periodic
    // election re-plans the whole tree around the survivors.
    let mut b = OverlayBuilder::new(25, 13);
    b.configure(|_, cfg| {
        cfg.max_group_size = 5;
        cfg.tree_depth = 3;
        cfg.election_interval = Some(SimDuration::from_secs(60));
    });
    let (mut sim, ids) = b.build();
    sim.start();
    sim.run_until(SimTime::from_secs(10));
    let root = ids
        .iter()
        .copied()
        .find(|&id| is_tree_root(sim.actor_as::<GlareNode>(id).expect("GlareNode")))
        .expect("depth-3 election produced a root");
    // The coordinator (node 0) must survive to run the re-election.
    assert_ne!(root, ActorId(0), "test setup: root is not the coordinator");
    sim.schedule_crash(SimTime::from_secs(20), SiteId(root.0));
    // Run past the next periodic election (re-opens every 60s).
    sim.run_until(SimTime::from_secs(200));
    let survivors: Vec<ActorId> = ids.iter().copied().filter(|&id| id != root).collect();
    // The crashed root's site is still down, so the check skips it.
    assert_eq!(invariants::super_peers(&sim, &ids), Vec::<String>::new());
    let mut roots = Vec::new();
    for &id in &survivors {
        let n = sim.actor_as::<GlareNode>(id).expect("GlareNode");
        assert_ne!(n.super_peer(), Some(root), "node {} still follows the dead root", id.0);
        assert!(
            n.view.tree_parents.iter().all(|t| t.super_peer != root),
            "node {} keeps the dead root as a parent",
            id.0
        );
        assert_eq!(n.view.tree_tiers, 2, "re-election restored the two-tier plan");
        if is_tree_root(n) {
            roots.push(id);
        }
    }
    assert_eq!(roots.len(), 1, "tree healed to exactly one new root: {roots:?}");
}

/// Two-group gray-failure fixture: 7 nodes, groups of 4, election
/// outcome computed statically (same flat plan the coordinator will
/// build). Returns `(client_site, own_sp_site, other_sp_site,
/// other_member_site)` — the client is a plain member of one group;
/// the alternate sites live in the other group.
fn two_group_sites(n: usize) -> (usize, usize, usize, usize) {
    let topo = glare_fabric::Topology::uniform(n);
    let responders: Vec<(ActorId, u64)> = (0..n as u32)
        .map(|i| (ActorId(i), topo.site(SiteId(i)).rank_hashcode()))
        .collect();
    let plan = plan_tree(&responders, 4, 4, 2);
    assert!(plan.levels[0].len() >= 2, "need two leaf groups");
    let g0 = &plan.levels[0][0];
    let g1 = &plan.levels[0][1];
    let client = g0.members.first().expect("group 0 has a plain member");
    let other_member = g1.members.first().expect("group 1 has a plain member");
    (
        client.0 as usize,
        g0.super_peer.0 as usize,
        g1.super_peer.0 as usize,
        other_member.0 as usize,
    )
}

/// Build the fixture overlay: deployment seeded on `deploy_site`,
/// cache off (every query walks the full ladder), retries off, one
/// election.
fn grayfail_overlay(
    deploy_site: usize,
    hedge: crate::suspicion::HedgeConfig,
) -> (Simulation, Vec<ActorId>) {
    let mut b = OverlayBuilder::new(7, 42);
    b.configure(move |_, cfg| {
        cfg.max_group_size = 4;
        cfg.use_cache = false;
        cfg.election_interval = None;
        cfg.hedge = hedge;
    });
    b.seed(move |i, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).unwrap();
        }
        if i == deploy_site {
            let d = ActivityDeployment::executable(
                "JPOVray",
                &format!("site{i}"),
                "/opt/deployments/jpovray/bin/jpovray",
                "/opt/deployments/jpovray",
            );
            node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
        }
    });
    b.build()
}

#[test]
fn hedged_probe_routes_around_gray_slow_super_peer() {
    // The client's super-peer is alive (heartbeats keep flowing — site
    // degradation scales compute, not sends) but 200x slow: its 4ms
    // request stage takes 800ms, past the 500ms probe deadline. With
    // hedging on, the cold hedge fires at 250ms into the *other*
    // group's super-peer, whose subtree holds the deployment — the
    // query still hits. The gray super-peer's late answer finds the
    // stage concluded and is dropped: exactly-once accounting.
    let (client_site, sp_site, _other_sp, other_member) = two_group_sites(7);
    let (mut sim, ids) =
        grayfail_overlay(other_member, crate::suspicion::HedgeConfig::standard());
    sim.enable_events(100_000);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(20),
        1,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(12));
    sim.set_site_degraded(SiteId(sp_site as u32), Some(200.0));
    sim.run_until(SimTime::from_secs(60));
    let s = stats.lock();
    assert_eq!(s.responses, 1, "exactly one answer despite two probes");
    assert_eq!(s.hits, 1, "hedge converted the deadline miss into a hit");
    let client_label = format!("site{client_site}");
    let labels = Labels::of(&[("site", &client_label)]);
    let m = sim.metrics();
    assert_eq!(m.counter_labeled_value("glare_hedges_fired_total", &labels), 1);
    assert_eq!(m.counter_labeled_value("glare_hedges_won_total", &labels), 1);
    assert_eq!(m.counter_labeled_value("glare_hedges_wasted_total", &labels), 0);
    let ev = sim.events().expect("events enabled");
    assert_eq!(ev.of_kind("query.hedged").count(), 1);
    assert_eq!(ev.of_kind("site.degraded").count(), 1);
    // The gray peer was never *declared* failed — no takeover churn.
    assert_eq!(ev.of_kind("failure.suspected").count(), 0);
    assert_eq!(m.lint_metric_names(), Vec::<String>::new());
}

#[test]
fn without_hedging_gray_slow_super_peer_turns_hits_into_misses() {
    // Same scenario, hedging disabled (the default): the escalation
    // times out against the slow super-peer and the query misses —
    // and the recovery layer leaves no trace.
    let (client_site, sp_site, _other_sp, other_member) = two_group_sites(7);
    let (mut sim, ids) =
        grayfail_overlay(other_member, crate::suspicion::HedgeConfig::disabled());
    sim.enable_events(100_000);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(20),
        1,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(12));
    sim.set_site_degraded(SiteId(sp_site as u32), Some(200.0));
    sim.run_until(SimTime::from_secs(60));
    let s = stats.lock();
    assert_eq!(s.responses, 1, "the deadline miss still answers");
    assert_eq!(s.hits, 0, "no hedge, no route around the slow peer");
    let client_label = format!("site{client_site}");
    let labels = Labels::of(&[("site", &client_label)]);
    let m = sim.metrics();
    assert_eq!(m.counter_labeled_value("glare_hedges_fired_total", &labels), 0);
    assert_eq!(m.counter_labeled_value("glare_hedges_won_total", &labels), 0);
    assert_eq!(m.counter_labeled_value("glare_hedges_wasted_total", &labels), 0);
    let ev = sim.events().expect("events enabled");
    assert_eq!(ev.of_kind("query.hedged").count(), 0);
    assert!(
        sim.metrics().gauge_ref(
            "glare_suspicion_level",
            &Labels::of(&[("site", &client_label)]),
        ).is_none(),
        "suspicion disabled exports no gauge"
    );
}

#[test]
fn hedge_into_dead_replica_original_still_wins() {
    // The alternate super-peer is crashed; the original is degraded
    // (45x: its ~8ms of request and lookup stages take ~360ms), slow
    // enough that the 250ms cold hedge fires first, yet inside the
    // 500ms probe deadline. The hedge probe vanishes into the dead site;
    // the original's non-empty answer concludes the stage — wasted,
    // not won — and the client still sees exactly one response.
    let (client_site, sp_site, other_sp, _other_member) = two_group_sites(7);
    // Deployment on the client's own super-peer: the original answers
    // non-empty from its registry after the group probe misses.
    let (mut sim, ids) = grayfail_overlay(sp_site, crate::suspicion::HedgeConfig::standard());
    sim.enable_events(100_000);
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(20),
        1,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    // Crash the alternate before the query; detection (16s legacy
    // threshold, 16s check cadence) lands after the 30s horizon, so
    // the client still believes in the dead super-peer when it hedges.
    sim.schedule_crash(SimTime::from_secs(15), SiteId(other_sp as u32));
    sim.start();
    sim.run_until(SimTime::from_secs(12));
    sim.set_site_degraded(SiteId(sp_site as u32), Some(45.0));
    sim.run_until(SimTime::from_secs(30));
    let s = stats.lock();
    assert_eq!(s.responses, 1, "dead hedge target cannot double-answer");
    assert_eq!(s.hits, 1, "the original authoritative answer wins");
    let client_label = format!("site{client_site}");
    let labels = Labels::of(&[("site", &client_label)]);
    let m = sim.metrics();
    assert_eq!(m.counter_labeled_value("glare_hedges_fired_total", &labels), 1);
    assert_eq!(m.counter_labeled_value("glare_hedges_won_total", &labels), 0);
    assert_eq!(m.counter_labeled_value("glare_hedges_wasted_total", &labels), 1);
}

#[test]
fn adaptive_suspicion_detects_crash_faster_with_no_false_positives() {
    // One group of 4 under the adaptive detector: 120s of healthy
    // heartbeats warm the estimator (zero suspicions — no false
    // positives), then the super-peer crashes and the learned
    // threshold (2x mean + 4 sigma ~ 12s, checked every heartbeat
    // period) confirms the failure sooner than the legacy fixed
    // 16s-threshold/16s-cadence detector of a same-seed run.
    let confirm_time = |suspicion: crate::suspicion::SuspicionConfig| {
        let mut b = OverlayBuilder::new(4, 42);
        b.configure(move |_, cfg| {
            cfg.max_group_size = 4;
            cfg.election_interval = None;
            cfg.suspicion = suspicion;
        });
        let (mut sim, _ids) = b.build();
        sim.enable_events(100_000);
        let topo = sim.topology().clone();
        let mut ranked: Vec<(u32, u64)> = (0..4u32)
            .map(|i| (i, topo.site(SiteId(i)).rank_hashcode()))
            .collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        let sp_site = SiteId(ranked[0].0);
        sim.schedule_crash(SimTime::from_secs(121), sp_site);
        sim.start();
        sim.run_until(SimTime::from_secs(200));
        let ev = sim.events().expect("events enabled");
        let pre_crash_suspected = ev
            .of_kind("failure.suspected")
            .filter(|r| r.time < SimTime::from_secs(121))
            .count();
        assert_eq!(pre_crash_suspected, 0, "healthy peers are never suspected");
        let confirmed = invariants::confirmed_failures(ev)
            .map(|r| r.time)
            .min()
            .expect("the crash is eventually confirmed");
        assert_eq!(
            sim.metrics().counter_value("glare.superpeer_takeovers"),
            2,
            "exactly the initial election plus the one real takeover"
        );
        (confirmed, sim)
    };
    let (adaptive_at, adaptive_sim) =
        confirm_time(crate::suspicion::SuspicionConfig::standard());
    let (legacy_at, _) = confirm_time(crate::suspicion::SuspicionConfig::disabled());
    assert!(
        adaptive_at < legacy_at,
        "adaptive {adaptive_at:?} must beat legacy {legacy_at:?}"
    );
    // The adaptive run exported the suspicion gauge for some member.
    let m = adaptive_sim.metrics();
    let exported = (0..4).any(|i| {
        m.gauge_ref(
            "glare_suspicion_level",
            &Labels::of(&[("site", &format!("site{i}"))]),
        )
        .is_some()
    });
    assert!(exported, "suspicion level gauge is published when enabled");
    assert_eq!(m.lint_metric_names(), Vec::<String>::new());
}
