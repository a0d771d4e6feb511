//! `overlay_10k` — closed loop, 40 `QueryClient`s, 2 s simulated think time,
//! on `--bin scale`'s 10 000-site depth-3 tree point: branching 100, cache
//! off, a JPOVray deployment on every 100th site, the election inside the
//! measured window.
//!
//! Why it is here: the regime where `fabric.queue` holds ~10^5 pending
//! events and 10 000 `GlareNode`s overflow the CPU caches. The queue, kernel
//! dispatch and the query/probe/heartbeat handlers do nearly all the work;
//! admission, `workload`, XPath and the `Grid` substrate do none.

use std::cell::RefCell;
use std::rc::Rc;

use glare_core::model::{example_hierarchy, ActivityDeployment};
use glare_core::overlay::{ClientStats, QueryClient};
use glare_core::plan_tree;
use glare_fabric::{SimDuration, SimRng, SimTime, SiteId};

use crate::des::{self, ActorSpans, WINDOW_SPAN};
use crate::micro;
use crate::round::{Clock, Digest, Round};
use crate::span::Tracer;
use crate::stats;
use crate::trace_file;
use crate::workloads::{des_layers, RoundCtx};

const SITES: usize = 10_000;
const BRANCHING: usize = 100;
const TREE_DEPTH: usize = 3;
const THINK: SimDuration = SimDuration::from_secs(2);
/// The 40 clients by how far their answer is — the locality mix of the
/// paper's "local access" ladder — as (clients, queries each).
/// `LOCAL`: on a site that hosts a deployment; one hop.
/// `GROUP`: the site hosts none, but a member of its leaf group does.
/// `TREE`: nobody in the leaf group does, so every query climbs the tree
/// and fans out over the whole VO (~10 k node visits). The ten of them fire
/// together, which is what fills the event queue; their 30 queries cost
/// nearly all the host time and own the latency tail: of 1 020 answers the
/// slowest 30 are theirs, so p99 (rank 1 010) has ten samples beyond it.
const LOCAL: (usize, u64) = (24, 33);
const GROUP: (usize, u64) = (6, 33);
const TREE: (usize, u64) = (10, 3);
/// The horizon is extended by this step until every query is answered, so
/// the simulated length of the run (and with it `sim_goodput_hz`) is known
/// to a step; past the cap the round has failed.
const HORIZON_STEP: SimDuration = SimDuration::from_millis(100);
const HORIZON_CAP: SimTime = SimTime::from_secs(600);
/// Span the clients' callbacks are booked under.
const CLIENT_SPAN: &str = "glare_core.overlay.query_client";

fn hosts_deployment(site: usize) -> bool {
    site.is_multiple_of(BRANCHING)
}

/// Draw `count` distinct sites satisfying `pick`, in draw order.
fn draw_sites(rng: &mut SimRng, count: usize, pick: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let s = rng.index(SITES);
        if pick(s) && !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

pub fn run(ctx: &RoundCtx, clock: &mut Clock) -> Round {
    let tracer = Rc::new(RefCell::new(Tracer::new(ctx.traced)));
    let mut round = Round::default();

    // Inputs from the seed: the kernel's seed and where the clients sit.
    let mut rng = SimRng::from_seed(ctx.seed).fork("overlay_10k/clients");
    // Leaf groups as the election will form them (`plan_tree` is the
    // coordinator's own planner), to tell group-level from tree-level sites.
    let plan = plan_tree(&des::roster(SITES), BRANCHING, BRANCHING, TREE_DEPTH);
    let mut group_has_host = vec![false; SITES];
    for group in &plan.levels[0] {
        let members = group.all();
        let has_host = members.iter().any(|m| hosts_deployment(m.0 as usize));
        for m in members {
            group_has_host[m.0 as usize] = has_host;
        }
    }
    let local = draw_sites(&mut rng, LOCAL.0, hosts_deployment);
    let group = draw_sites(&mut rng, GROUP.0, |s| {
        !hosts_deployment(s) && group_has_host[s]
    });
    let tree = draw_sites(&mut rng, TREE.0, |s| !group_has_host[s]);

    let (mut sim, ids) = des::build_overlay(
        SITES,
        ctx.seed,
        &tracer,
        |_, cfg| {
            cfg.max_group_size = BRANCHING;
            cfg.tree_branching = Some(BRANCHING);
            cfg.tree_depth = TREE_DEPTH;
            cfg.use_cache = false;
            cfg.election_interval = None;
        },
        |i, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr
                    .register(t, SimTime::ZERO)
                    .expect("example type registers");
            }
            if hosts_deployment(i) {
                let d = ActivityDeployment::executable(
                    "JPOVray",
                    &format!("site{i}"),
                    "/opt/deployments/jpovray/bin/jpovray",
                    "/opt/deployments/jpovray",
                );
                node.adr
                    .register(d, &node.atr, SimTime::ZERO)
                    .expect("deployment registers");
            }
        },
    );
    let stats = ClientStats::shared();
    let client_spans = ActorSpans::single(&mut tracer.borrow_mut(), CLIENT_SPAN);
    for (sites, queries) in [(&local, LOCAL.1), (&group, GROUP.1), (&tree, TREE.1)] {
        for &site in sites {
            let client = QueryClient::new(ids[site], "Imaging", THINK, queries, stats.clone());
            des::add_timed(
                &mut sim,
                SiteId(site as u32),
                Box::new(client),
                client_spans,
                &tracer,
            );
        }
    }
    sim.start();
    let window = tracer.borrow_mut().name(WINDOW_SPAN);
    let expected: u64 = [LOCAL, GROUP, TREE]
        .iter()
        .map(|(clients, queries)| *clients as u64 * queries)
        .sum();

    clock.start_window();
    tracer.borrow_mut().enter(window);
    let mut events = 0u64;
    let mut horizon = SimTime::ZERO;
    while stats.lock().responses < expected && horizon < HORIZON_CAP {
        horizon += HORIZON_STEP;
        events += sim.run_until(horizon);
    }
    tracer.borrow_mut().exit();
    clock.end_window(&mut round);

    let s = stats.lock();
    let mut lat: Vec<SimDuration> = s.latencies.clone();
    lat.sort_unstable();
    let requests = sim.metrics().counter_value("glare.requests");
    let ms = |p: f64| stats::percentile(&lat, p).map_or(0.0, |d| d.as_millis_f64());
    round.attempted = expected;
    round.failed = expected - s.hits.min(expected);
    round.set("ops", s.responses as f64);
    round.set("refused", s.shed as f64);
    round.set("sim_p50_ms", ms(50.0));
    round.set("sim_p99_ms", ms(99.0));
    round.set("tail_samples", lat.len() as f64);
    round.set("sim_goodput_hz", s.hits as f64 / horizon.as_secs_f64());
    round.set(
        "sim_hops_per_query",
        requests as f64 / s.responses.max(1) as f64,
    );
    round.set("sim_events", events as f64);
    round.check(s.hits == expected, || {
        format!(
            "overlay_10k: {} of {expected} queries hit ({} answered) by simulated second {}",
            s.hits,
            s.responses,
            horizon.as_secs_f64()
        )
    });

    let mut d = Digest::default();
    for v in [
        events,
        horizon.as_nanos(),
        requests,
        s.sent,
        s.responses,
        s.hits,
        s.shed,
    ] {
        d.word(v);
    }
    for l in &s.latencies {
        d.word(l.as_nanos());
    }
    d.word(sim.peak_queue_occupancy() as u64);
    round.digest = d.value();
    drop(s);

    if ctx.traced {
        let trace = tracer.replace(Tracer::new(false)).finish();
        des_layers(&mut round, &trace, &sim, events, CLIENT_SPAN);
        // The cache is off, so the ratio is pinned at 0 here.
        round.set("glare_core.cache.hit_ratio", 0.0);
        if ctx.micro {
            micro::queue(&mut round, sim.peak_queue_occupancy());
            micro::pingpong(&mut round);
        }
        trace_file::write(ctx.workload, &trace, &mut round);
    }
    round
}
