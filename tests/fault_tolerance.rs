//! Workspace integration: distributed fault tolerance on the
//! discrete-event fabric — elections under scripted failures, query
//! continuity, and determinism of whole runs.

use glare::core::model::{example_hierarchy, ActivityDeployment};
use glare::core::node::{GlareNode, NodeMsg};
use glare::core::overlay::{ClientStats, OverlayBuilder, QueryClient};
use glare::fabric::{FaultPlan, Labels, SimDuration, SimTime, SiteId, StoreConfig, Topology};

fn seeded(n: usize, deploy_on: &[usize], seed: u64) -> (glare::fabric::Simulation, Vec<glare::fabric::ActorId>) {
    let mut b = OverlayBuilder::new(n, seed);
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

fn ranks(n: usize) -> Vec<(usize, u64)> {
    let topo = Topology::uniform(n);
    let mut r: Vec<(usize, u64)> = (0..n)
        .map(|i| (i, topo.site(SiteId(i as u32)).rank_hashcode()))
        .collect();
    r.sort_by_key(|x| std::cmp::Reverse(x.1));
    r
}

#[test]
fn election_is_deterministic_per_seed() {
    let run = |seed| {
        let (mut sim, _) = seeded(7, &[], seed);
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        (
            sim.metrics().counter_value("glare.superpeer_takeovers"),
            sim.metrics().counter_value("net.msgs_sent"),
        )
    };
    assert_eq!(run(11), run(11), "same seed, same trace");
    let (takeovers, _) = run(11);
    assert_eq!(takeovers, 2, "7 nodes, group size 4 => 2 super-peers");
}

#[test]
fn repeated_super_peer_crashes_keep_reelecting() {
    let ranked = ranks(4);
    let (mut sim, _) = seeded(4, &[], 3);
    // Crash the first and then the second super-peer in sequence.
    FaultPlan::new()
        .crash(SimTime::from_secs(30), SiteId(ranked[0].0 as u32))
        .crash(SimTime::from_secs(150), SiteId(ranked[1].0 as u32))
        .apply(&mut sim);
    sim.start();
    sim.run_until(SimTime::from_secs(400));
    let takeovers = sim.metrics().counter_value("glare.superpeer_takeovers");
    assert!(
        takeovers >= 3,
        "initial election + two re-elections, got {takeovers}"
    );
}

#[test]
fn transient_outage_of_member_does_not_reelect() {
    let ranked = ranks(4);
    let member = ranked[3].0; // lowest rank: never the super-peer
    let (mut sim, _) = seeded(4, &[], 5);
    FaultPlan::new()
        .outage(
            SimTime::from_secs(30),
            SiteId(member as u32),
            SimDuration::from_secs(40),
        )
        .apply(&mut sim);
    sim.start();
    sim.run_until(SimTime::from_secs(300));
    assert_eq!(
        sim.metrics().counter_value("glare.superpeer_takeovers"),
        1,
        "member outages must not trigger takeovers"
    );
}

#[test]
fn queries_continue_through_partition_heal() {
    let ranked = ranks(3);
    let deploy_site = ranked[2].0;
    let client_site = ranked[1].0;
    let (mut sim, ids) = seeded(3, &[deploy_site], 8);
    // Partition the client's site from the deployment's site for a while;
    // queries during the window can still route via the third node's
    // cache/probes or simply miss; after healing, everything resolves.
    sim.set_partitioned(
        SiteId(client_site as u32),
        SiteId(deploy_site as u32),
        true,
    );
    sim.schedule_call(SimTime::from_secs(120), move |s| {
        s.set_partitioned(
            SiteId(client_site as u32),
            SiteId(deploy_site as u32),
            false,
        );
    });
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(30),
        8,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(600));
    let s = stats.lock();
    assert_eq!(s.responses, 8, "every query eventually answered");
    assert!(
        s.hits >= 4,
        "post-heal queries must find the deployment, hits={}",
        s.hits
    );
}

#[test]
fn message_loss_degrades_but_does_not_wedge() {
    let (mut sim, ids) = seeded(3, &[0], 13);
    sim.set_drop_probability(0.05);
    let stats = ClientStats::shared();
    let client = QueryClient::new(ids[1], "Imaging", SimDuration::from_secs(10), 12, stats.clone());
    sim.add_actor(SiteId(1), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(1_200));
    let s = stats.lock();
    // Lost probe replies are absorbed by the probe deadline; lost client
    // requests/responses stall that one closed-loop client forever, so we
    // only demand progress, not perfection.
    assert!(s.responses >= 6, "responses={} of 12", s.responses);
    assert!(sim.metrics().counter_value("net.msgs_dropped.loss") > 0);
}

/// A storm of seeded random outages hitting the overlay mid-election is
/// replayable: same seed, byte-identical event log (including the
/// kernel's `site.crashed` / `site.restarted` records) and identical
/// takeover/message counts; a different seed draws a different schedule.
#[test]
fn random_outage_storm_replays_deterministically() {
    let run = |seed: u64| {
        let (mut sim, _) = seeded(6, &[], seed);
        sim.enable_events(glare::fabric::DEFAULT_MAX_EVENTS);
        // Outages land inside the first elections' heartbeat windows;
        // site 0 (the community index) is spared so rounds keep coming.
        let mut rng = glare::fabric::SimRng::from_seed(seed).fork("storm");
        let victims: Vec<SiteId> = (1..6).map(SiteId).collect();
        FaultPlan::new()
            .random_outages(
                &mut rng,
                4,
                &victims,
                SimTime::from_secs(20),
                SimTime::from_secs(300),
                SimDuration::from_secs(25),
            )
            .apply(&mut sim);
        sim.start();
        sim.run_until(SimTime::from_secs(400));
        (
            sim.metrics().counter_value("glare.superpeer_takeovers"),
            sim.metrics().counter_value("net.msgs_sent"),
            sim.take_events().expect("events enabled").to_jsonl(),
        )
    };
    let a = run(17);
    let b = run(17);
    assert_eq!(a.0, b.0, "takeovers replay");
    assert_eq!(a.1, b.1, "message counts replay");
    assert_eq!(a.2, b.2, "event logs are byte-identical per seed");
    assert!(a.0 >= 2, "the storm forced elections, takeovers={}", a.0);
    assert!(
        a.2.contains("\"kind\":\"site.crashed\"") && a.2.contains("\"kind\":\"site.restarted\""),
        "outages are visible in the structured event log"
    );
    let c = run(18);
    assert_ne!(a.2, c.2, "a different seed draws a different schedule");
}

/// Anti-entropy "deletes win": the super-peer misses an uninstall that
/// happens while the owning member is partitioned away from it. When the
/// member crashes and rejoins, its journaled tombstone flows to the
/// super-peer on the anti-entropy round; the stale cached copy is evicted
/// and never pushed back — the uninstalled deployment must not resurrect
/// on either side.
#[test]
fn missed_uninstall_tombstone_wins_on_rejoin() {
    let ranked = ranks(2);
    let sp = ranked[0].0; // higher rank: the stable super-peer
    let member = ranked[1].0;
    let (mut sim, ids) = seeded(2, &[member], 31);
    sim.enable_store(StoreConfig::standard());
    sim.enable_events(glare::fabric::DEFAULT_MAX_EVENTS);
    let key = format!("jpovray@site{member}");

    // Round 1: a member crash/restart triggers an anti-entropy round whose
    // summary hands the member's deployment to the super-peer's cache —
    // the stale copy a later rejoin could wrongly resurrect.
    sim.schedule_crash(SimTime::from_secs(20), SiteId(member as u32));
    sim.schedule_restart(SimTime::from_secs(30), SiteId(member as u32));

    // Partition the pair, uninstall at the member (the super-peer misses
    // it), then heal.
    sim.schedule_call(SimTime::from_secs(60), |s| {
        s.set_partitioned(SiteId(0), SiteId(1), true);
    });
    sim.inject(
        SimTime::from_secs(70),
        ids[member],
        ids[member],
        NodeMsg::UninstallDeployment { key: key.clone() },
    );
    sim.schedule_call(SimTime::from_secs(100), |s| {
        s.set_partitioned(SiteId(0), SiteId(1), false);
    });

    // Round 2: crash + rejoin. Recovery replays the journaled tombstone
    // and the anti-entropy round must propagate it.
    sim.schedule_crash(SimTime::from_secs(120), SiteId(member as u32));
    sim.schedule_restart(SimTime::from_secs(130), SiteId(member as u32));

    sim.start();
    sim.run_until(SimTime::from_secs(300));
    let horizon = SimTime::from_secs(300);

    let m: &GlareNode = sim.actor_as(ids[member]).expect("member alive");
    assert!(
        m.adr.lookup(&key, horizon).is_none(),
        "uninstalled deployment resurrected at the member"
    );
    assert_eq!(
        m.adr.tombstone_of(&key),
        Some(SimTime::from_secs(70)),
        "journaled tombstone survives the crash"
    );
    let s: &GlareNode = sim.actor_as(ids[sp]).expect("super-peer alive");
    assert!(
        s.cache.peek_deployment(&key).is_none(),
        "super-peer evicted its stale cached copy"
    );
    assert!(
        s.adr.tombstone_of(&key).is_some(),
        "tombstone propagated to the super-peer"
    );
    let ev = sim.events().expect("events enabled");
    assert!(
        ev.of_kind("antientropy.round").count() >= 2,
        "both rejoins ran anti-entropy"
    );
    let sp_label = format!("site{sp}");
    assert!(
        sim.metrics().counter_labeled_value(
            "glare_antientropy_tombstones_total",
            &Labels::of(&[("site", &sp_label)]),
        ) >= 1,
        "the super-peer counted the learned tombstone"
    );
    assert_eq!(sim.metrics().lint_metric_names(), Vec::<String>::new());
}

#[test]
fn crashed_deployment_site_yields_empty_answers_not_hangs() {
    let ranked = ranks(3);
    let deploy_site = ranked[2].0;
    let client_site = ranked[1].0;
    let (mut sim, ids) = seeded(3, &[deploy_site], 21);
    sim.schedule_crash(SimTime::from_secs(10), SiteId(deploy_site as u32));
    let stats = ClientStats::shared();
    let client = QueryClient::new(
        ids[client_site],
        "Imaging",
        SimDuration::from_secs(20),
        5,
        stats.clone(),
    );
    sim.add_actor(SiteId(client_site as u32), Box::new(client));
    sim.start();
    sim.run_until(SimTime::from_secs(400));
    let s = stats.lock();
    assert_eq!(s.responses, 5, "probe deadlines must conclude every query");
}
