//! Pins what a `tree_depth = 2` overlay does, end to end, across every
//! branch of the query ladder: the digests below were captured before the
//! flat two-level ladder was folded into the tree ladder and must never
//! move. Each scenario digests the events the kernel processed, every
//! client's hits and reply latencies, the structured event log, the metrics
//! snapshot and the recorded spans (so the `scope`/`source` strings count).
//!
//! When a digest moves, the failure prints all of them: a change that is
//! *meant* to alter depth-2 behaviour replaces the table, anything else
//! has diverged from the paper's two-level protocol.

use std::sync::Arc;

use glare_core::model::{example_hierarchy, ActivityDeployment};
use glare_core::{
    plan_tree, ClientStats, HedgeConfig, NodeConfig, OverlayBuilder, QueryClient, RetryPolicy,
};
use glare_fabric::store::fnv1a;
use glare_fabric::sync::Mutex;
use glare_fabric::{ActorId, SimDuration, SimTime, Simulation, SiteId, Topology};

/// Election outcome of an `n`-site uniform overlay with groups of 4,
/// computed the way the coordinator will: per leaf group, the super-peer's
/// site and its members' sites.
fn groups(n: usize) -> Vec<(usize, Vec<usize>)> {
    let topo = Topology::uniform(n);
    let responders: Vec<(ActorId, u64)> = (0..n as u32)
        .map(|i| (ActorId(i), topo.site(SiteId(i)).rank_hashcode()))
        .collect();
    plan_tree(&responders, 4, 4, 2).levels[0]
        .iter()
        .map(|g| {
            (
                g.super_peer.0 as usize,
                g.members.iter().map(|m| m.0 as usize).collect(),
            )
        })
        .collect()
}

/// An `n`-node overlay with the example type hierarchy everywhere and one
/// `JPOVray` deployment on `deploy_site`; events and tracing on.
fn overlay(
    n: usize,
    deploy_site: usize,
    configure: impl Fn(&mut NodeConfig) + 'static,
) -> (Simulation, Vec<ActorId>) {
    let mut b = OverlayBuilder::new(n, 42);
    b.configure(move |_, cfg| {
        cfg.max_group_size = 4;
        cfg.election_interval = None;
        configure(cfg);
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
    sim.enable_tracing(100_000);
    (sim, ids)
}

type Stats = Arc<Mutex<ClientStats>>;

/// Attach a closed-loop client to the node on `site`.
fn client(
    sim: &mut Simulation,
    ids: &[ActorId],
    site: usize,
    activity: &str,
    interval_s: u64,
    count: u64,
) -> Stats {
    let stats = ClientStats::shared();
    let c = QueryClient::new(
        ids[site],
        activity,
        SimDuration::from_secs(interval_s),
        count,
        stats.clone(),
    );
    sim.add_actor(SiteId(site as u32), Box::new(c));
    stats
}

/// Everything observable about a finished run, folded into one number.
fn digest(sim: &Simulation, events: u64, clients: &[Stats]) -> u64 {
    let mut text = format!("events={events}\n");
    for c in clients {
        let s = c.lock();
        text.push_str(&format!(
            "client sent={} responses={} hits={} latencies={:?}\n",
            s.sent, s.responses, s.hits, s.latencies
        ));
    }
    text.push_str(&sim.events().expect("events enabled").to_jsonl());
    text.push_str(&sim.metrics().snapshot_json());
    text.push_str(&format!(
        "{:?}",
        sim.trace().expect("tracing enabled").spans()
    ));
    fnv1a(text.as_bytes())
}

fn hits(c: &Stats) -> u64 {
    c.lock().hits
}

/// Two groups; the deployment sits on a plain member of the second. A
/// member and the super-peer of the first group both ask for it (the full
/// ladder, and a super-peer forwarding for its own client); a member of
/// the second group asks for a type nobody deploys (a miss at every rung).
fn two_groups(use_cache: bool) -> u64 {
    let g = groups(7);
    let (mut sim, ids) = overlay(7, g[1].1[0], move |cfg| cfg.use_cache = use_cache);
    let clients = [
        client(&mut sim, &ids, g[0].1[0], "Imaging", 3, 3),
        client(&mut sim, &ids, g[0].0, "Imaging", 4, 3),
        client(&mut sim, &ids, g[1].1[1], "Wien2k", 5, 2),
    ];
    sim.start();
    let events = sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        (hits(&clients[0]), hits(&clients[1]), hits(&clients[2])),
        (3, 3, 0)
    );
    digest(&sim, events, &clients)
}

/// `RetryPolicy::standard` everywhere; the deployment's site crashes after
/// two queries cached it, the entry ages out, and the third query retries
/// into silence at every rung before answering from the stale entry.
fn silent_peer_degrades() -> u64 {
    let g = groups(7);
    let deploy_site = g[1].1[0];
    let (mut sim, ids) = overlay(7, deploy_site, |cfg| cfg.retry = RetryPolicy::standard());
    let clients = [client(&mut sim, &ids, g[0].1[0], "Imaging", 200, 3)];
    sim.schedule_crash(SimTime::from_secs(450), SiteId(deploy_site as u32));
    sim.start();
    let events = sim.run_until(SimTime::from_secs(900));
    assert_eq!(hits(&clients[0]), 3);
    let log = sim.events().expect("events enabled");
    assert!(log.of_kind("retry.attempt").count() >= 1);
    assert!(log.of_kind("query.degraded").count() >= 1);
    digest(&sim, events, &clients)
}

/// Hedging on, cache off: the client's super-peer turns 200x slow, so the
/// escalation's hedge goes to the other group's super-peer, whose group
/// holds the deployment.
fn hedge_around_gray_super_peer() -> u64 {
    let g = groups(7);
    let (mut sim, ids) = overlay(7, g[1].1[0], |cfg| {
        cfg.use_cache = false;
        cfg.hedge = HedgeConfig::standard();
    });
    let clients = [client(&mut sim, &ids, g[0].1[0], "Imaging", 20, 2)];
    sim.start();
    let mut events = sim.run_until(SimTime::from_secs(12));
    sim.set_site_degraded(SiteId(g[0].0 as u32), Some(200.0));
    events += sim.run_until(SimTime::from_secs(60));
    assert_eq!(hits(&clients[0]), 2);
    assert!(
        sim.events()
            .expect("events enabled")
            .of_kind("query.hedged")
            .count()
            >= 1
    );
    digest(&sim, events, &clients)
}

/// The first group's super-peer crashes and is never re-elected around:
/// the majority-confirmed heir — a former plain member — must forward
/// across groups, for its own client and for its fellow member's.
fn heir_forwards_across_groups() -> u64 {
    let g = groups(7);
    let (mut sim, ids) = overlay(7, g[1].1[0], |cfg| cfg.use_cache = false);
    let clients: Vec<Stats> = g[0]
        .1
        .iter()
        .map(|&m| client(&mut sim, &ids, m, "Imaging", 30, 4))
        .collect();
    sim.schedule_crash(SimTime::from_secs(15), SiteId(g[0].0 as u32));
    sim.start();
    let events = sim.run_until(SimTime::from_secs(300));
    assert_eq!(sim.metrics().counter_value("glare.superpeer_takeovers"), 3);
    for c in &clients {
        assert!(hits(c) >= 2, "the heir kept forwarding");
    }
    digest(&sim, events, &clients)
}

/// One group is the whole VO: no other super-peers to forward to, from
/// the super-peer's own client or from a member's escalation.
fn single_group() -> u64 {
    let g = groups(3);
    let (mut sim, ids) = overlay(3, g[0].1[0], |_| {});
    let clients = [
        client(&mut sim, &ids, g[0].0, "Imaging", 3, 2),
        client(&mut sim, &ids, g[0].0, "Wien2k", 4, 2),
        client(&mut sim, &ids, g[0].1[1], "Wien2k", 5, 2),
    ];
    sim.start();
    let events = sim.run_until(SimTime::from_secs(60));
    assert_eq!(
        (hits(&clients[0]), hits(&clients[1]), hits(&clients[2])),
        (2, 0, 0)
    );
    digest(&sim, events, &clients)
}

/// A one-node VO: nothing to probe at any rung.
fn lone_node() -> u64 {
    let (mut sim, ids) = overlay(1, 0, |_| {});
    let clients = [
        client(&mut sim, &ids, 0, "Imaging", 3, 2),
        client(&mut sim, &ids, 0, "Wien2k", 4, 2),
    ];
    sim.start();
    let events = sim.run_until(SimTime::from_secs(30));
    assert_eq!((hits(&clients[0]), hits(&clients[1])), (2, 0));
    digest(&sim, events, &clients)
}

/// The flooding ablation: one probe stage over the whole roster.
fn flood() -> u64 {
    let (mut sim, ids) = overlay(7, 6, |cfg| {
        cfg.flood_mode = true;
        cfg.use_cache = false;
    });
    let clients = [
        client(&mut sim, &ids, 0, "Imaging", 3, 3),
        client(&mut sim, &ids, 1, "Wien2k", 4, 2),
    ];
    sim.start();
    let events = sim.run_until(SimTime::from_secs(60));
    assert_eq!((hits(&clients[0]), hits(&clients[1])), (3, 0));
    digest(&sim, events, &clients)
}

#[test]
fn depth_two_overlays_behave_as_pinned() {
    let got = [
        ("two_groups(cache on)", two_groups(true)),
        ("two_groups(cache off)", two_groups(false)),
        ("silent_peer_degrades", silent_peer_degrades()),
        (
            "hedge_around_gray_super_peer",
            hedge_around_gray_super_peer(),
        ),
        ("heir_forwards_across_groups", heir_forwards_across_groups()),
        ("single_group", single_group()),
        ("lone_node", lone_node()),
        ("flood", flood()),
    ];
    let pinned: [u64; 8] = [
        0x05c2c83d494abff3,
        0x6d683a658d770f13,
        0x4e2a77c74bbe8d9d,
        0x10a8f6116008ad1c,
        0x0a9a2a9d9dcbbc48,
        0xe28deaa700c688a2,
        0x038690ba5593be2c,
        0x64e2bfb4c2021885,
    ];
    let got_digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    assert_eq!(got_digests, pinned, "depth-2 behaviour moved: {got:#x?}");
}
