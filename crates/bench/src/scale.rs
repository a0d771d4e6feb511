//! Scale sweep — how far the fabric stretches: kernel throughput, queue
//! occupancy, and per-query hop/latency curves as the overlay grows from
//! 1k to 10k sites.
//!
//! Each point builds a uniform topology of `n` sites, elects a depth-3
//! super-peer tree with branching `b = ceil(sqrt(n))` (so the leaf
//! super-peers collapse into a single root tier), spreads deployments on
//! every `b`-th site, and drives a fixed client population through the
//! query ladder with the cache off (every query pays the full routing
//! path, so hop counts are structural, not warm-up artifacts).
//!
//! Every reported number — events processed, peak event-queue occupancy,
//! hops per query, hit counts, simulated latencies — derives from
//! simulated time and event counts: same seed ⇒ byte-identical JSON,
//! whichever scheduler runs it (the calendar queue and the binary heap
//! are event-identical by construction). Host time is the perf ledger's
//! job (`fabric.sim.events_per_s`, `fabric.queue.*`).
//!
//! The `flood` rows re-run each point with `flood_mode` (flat broadcast
//! on a super-peer miss, depth 2) as the hop-count baseline the tree has
//! to beat.

use glare_core::model::{example_hierarchy, ActivityDeployment};
use glare_core::overlay::{ClientStats, OverlayBuilder, QueryClient};
use glare_fabric::{percentile, SchedulerKind, SimDuration, SimTime, SiteId};

use crate::json::Json;

/// One sweep point: a full overlay run at a given site count.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Number of Grid sites.
    pub sites: usize,
    /// Branching factor / leaf group size used (`ceil(sqrt(sites))`).
    pub branching: usize,
    /// Whether this is the flat-broadcast (`flood_mode`) baseline row.
    pub flood: bool,
    /// Kernel events processed over the horizon.
    pub events: u64,
    /// Peak event-queue occupancy.
    pub peak_queue: usize,
    /// Query responses received.
    pub queries: u64,
    /// Responses carrying at least one deployment.
    pub hits: u64,
    /// Mean node-visits per query — `glare.requests` / responses.
    pub hops_per_query: f64,
    /// Mean simulated response latency, ms.
    pub mean_ms: f64,
    /// p95 simulated response latency, ms.
    pub p95_ms: f64,
}

impl ScalePoint {
    /// JSON view of the point.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sites", Json::from(self.sites)),
            ("branching", Json::from(self.branching)),
            ("flood", Json::from(self.flood)),
            ("events", Json::from(self.events)),
            ("peak_queue", Json::from(self.peak_queue)),
            ("queries", Json::from(self.queries)),
            ("hits", Json::from(self.hits)),
            ("hops_per_query", Json::from(self.hops_per_query)),
            ("mean_ms", Json::from(self.mean_ms)),
            ("p95_ms", Json::from(self.p95_ms)),
        ])
    }
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// Site counts to sweep, ascending.
    pub sites: Vec<usize>,
    /// Total query clients per point, spread evenly over the sites.
    pub clients: usize,
    /// Queries per client.
    pub queries_per_client: u64,
    /// Client think time between queries.
    pub think: SimDuration,
    /// Super-peer tree depth for the tree rows (baseline rows use 2).
    pub tree_depth: usize,
    /// Kernel event-queue implementation (both yield the same report).
    pub scheduler: SchedulerKind,
    /// Also run the flat-broadcast (`flood_mode`) baseline per point.
    pub flood_baseline: bool,
    /// Simulated horizon per point, seconds.
    pub horizon_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ScaleParams {
    fn default() -> Self {
        ScaleParams {
            sites: vec![1_000, 2_500, 5_000, 10_000],
            clients: 24,
            queries_per_client: 5,
            think: SimDuration::from_secs(2),
            tree_depth: 3,
            scheduler: SchedulerKind::default(),
            flood_baseline: true,
            horizon_secs: 120,
            seed: 4205,
        }
    }
}

impl ScaleParams {
    /// A fast CI-sized sweep (used by `--smoke` and the tier-1 tests).
    pub fn smoke() -> ScaleParams {
        ScaleParams {
            sites: vec![100, 200],
            clients: 8,
            queries_per_client: 3,
            ..ScaleParams::default()
        }
    }
}

/// Human-readable scheduler label for reports and JSON.
pub fn scheduler_label(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Calendar => "calendar",
        SchedulerKind::BinaryHeap => "binary-heap",
    }
}

/// Run one sweep point. `flood` swaps the depth-3 tree for the flat
/// `flood_mode` broadcast baseline (everything else identical).
pub fn run_point(n: usize, flood: bool, p: &ScaleParams) -> ScalePoint {
    let b = (n as f64).sqrt().ceil() as usize;
    let depth = if flood { 2 } else { p.tree_depth };
    let mut builder = OverlayBuilder::new(n, p.seed).with_scheduler(p.scheduler);
    builder.configure(move |_, cfg| {
        cfg.max_group_size = b;
        cfg.tree_branching = Some(b);
        cfg.tree_depth = depth;
        cfg.flood_mode = flood;
        cfg.use_cache = false;
        cfg.election_interval = None;
    });
    builder.seed(move |i, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).unwrap();
        }
        if i % b == 0 {
            let d = ActivityDeployment::executable(
                "JPOVray",
                &format!("site{i}"),
                "/opt/deployments/jpovray/bin/jpovray",
                "/opt/deployments/jpovray",
            );
            node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
        }
    });
    let (mut sim, ids) = builder.build();
    let stats = ClientStats::shared();
    for c in 0..p.clients {
        let site = (c * n) / p.clients.max(1);
        let client = QueryClient::new(
            ids[site],
            "Imaging",
            p.think,
            p.queries_per_client,
            stats.clone(),
        );
        sim.add_actor(SiteId(site as u32), Box::new(client));
    }
    sim.start();
    let events = sim.run_until(SimTime::from_secs(p.horizon_secs));
    let requests = sim.metrics().counter_value("glare.requests");
    let s = stats.lock();
    let mut lat_ms: Vec<f64> = s.latencies.iter().map(|d| d.as_millis_f64()).collect();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mean_ms = lat_ms.iter().sum::<f64>() / lat_ms.len().max(1) as f64;
    let p95_ms = percentile(&lat_ms, 0.95).unwrap_or(0.0);
    ScalePoint {
        sites: n,
        branching: b,
        flood,
        events,
        peak_queue: sim.peak_queue_occupancy(),
        queries: s.responses,
        hits: s.hits,
        hops_per_query: requests as f64 / s.responses.max(1) as f64,
        mean_ms,
        p95_ms,
    }
}

/// The full sweep: a tree row per site count, plus (when enabled) a
/// flat-broadcast baseline row right after it.
pub fn run(p: &ScaleParams) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &n in &p.sites {
        points.push(run_point(n, false, p));
        if p.flood_baseline {
            points.push(run_point(n, true, p));
        }
    }
    points
}

/// Render the sweep as a table.
pub fn render(p: &ScaleParams, points: &[ScalePoint]) -> String {
    let mut s = format!(
        "Scale sweep ({} scheduler, depth {})\n\
         sites  | mode  | events     | peak q | hops/query | mean (ms) | p95 (ms) | hits\n",
        scheduler_label(p.scheduler),
        p.tree_depth,
    );
    for pt in points {
        s.push_str(&format!(
            "{:>6} | {:<5} | {:>10} | {:>6} | {:>10.1} | {:>9.1} | {:>8.1} | {}/{}\n",
            pt.sites,
            if pt.flood { "flood" } else { "tree" },
            pt.events,
            pt.peak_queue,
            pt.hops_per_query,
            pt.mean_ms,
            pt.p95_ms,
            pt.hits,
            pt.queries,
        ));
    }
    s
}

/// The `BENCH_scale.json` document: byte-identical for a given seed and
/// parameter set.
pub fn to_json(p: &ScaleParams, points: &[ScalePoint]) -> Json {
    Json::obj([
        ("schema", Json::from("glare.scale.v1")),
        ("seed", Json::from(p.seed)),
        ("tree_depth", Json::from(p.tree_depth)),
        ("scheduler", Json::from(scheduler_label(p.scheduler))),
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

    fn tiny() -> ScaleParams {
        ScaleParams {
            sites: vec![49],
            clients: 4,
            queries_per_client: 2,
            horizon_secs: 60,
            ..ScaleParams::default()
        }
    }

    /// The points alone (the document around them names the scheduler).
    fn points_json(points: &[ScalePoint]) -> String {
        Json::arr(points.iter().map(|pt| pt.to_json())).to_string_pretty()
    }

    #[test]
    fn deterministic_half_is_seed_stable() {
        let p = tiny();
        let a = to_json(&p, &run(&p)).to_string_pretty();
        let b = to_json(&p, &run(&p)).to_string_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"glare.scale.v1\""));
    }

    #[test]
    fn schedulers_are_event_identical() {
        let cal = run(&ScaleParams {
            scheduler: SchedulerKind::Calendar,
            ..tiny()
        });
        let heap = run(&ScaleParams {
            scheduler: SchedulerKind::BinaryHeap,
            ..tiny()
        });
        assert_eq!(
            points_json(&cal),
            points_json(&heap),
            "calendar queue must replay the binary heap's exact event history"
        );
    }

    #[test]
    fn tree_beats_flood_on_hops_and_both_hit() {
        let p = ScaleParams::smoke();
        let points = run(&p);
        assert_eq!(points.len(), 2 * p.sites.len(), "tree row plus flood baseline per size");
        for pair in points.chunks(2) {
            let (tree, flood) = (&pair[0], &pair[1]);
            assert!(!tree.flood && flood.flood && tree.sites == flood.sites);
            assert!(tree.queries > 0 && flood.queries > 0, "{} sites: no responses", tree.sites);
            assert_eq!(tree.hits, tree.queries, "tree resolves every query");
            assert_eq!(flood.hits, flood.queries, "flood resolves every query");
            assert!(
                tree.hops_per_query < flood.hops_per_query,
                "{} sites: depth-3 routing ({:.1} hops) must beat flat broadcast ({:.1} hops)",
                tree.sites,
                tree.hops_per_query,
                flood.hops_per_query
            );
        }
    }
}
