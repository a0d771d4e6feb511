//! Ablations of GLARE's design decisions (DESIGN.md §5).
//!
//! 1. **Super-peer routing vs flooding** — GLARE resolves misses through
//!    the group → super-peer ladder, and the super-peers *cache* what the
//!    forwarding discovers (§3.3). The ablation floods every node in the
//!    VO instead. For a single cold miss flooding can even be cheaper —
//!    the ladder's win is structural: once one request has climbed it,
//!    the caches along the path absorb every subsequent miss from any
//!    site, while flooding keeps blasting the whole VO.
//! 2. **Majority-acknowledged takeover vs naive takeover** — the paper's
//!    re-election verifies a dead super-peer with every member and
//!    requires a simple majority. The ablation lets any detecting member
//!    take over immediately; under a *partial* partition (the super-peer
//!    is alive but unreachable from one member) the naive protocol splits
//!    the brain.

use glare_core::invariants;
use glare_core::node::NodeConfig;
use glare_fabric::{FaultPlan, SimDuration, SimTime};

use crate::scenario::{deployment, node_defaults, ranked_sites, Client, Registry, Run, Scenario};

/// Result of the routing ablation.
#[derive(Clone, Debug)]
pub struct RoutingAblation {
    /// Mode label.
    pub mode: &'static str,
    /// Mean response latency (ms).
    pub mean_latency_ms: f64,
    /// Network messages per client query.
    pub msgs_per_query: f64,
    /// Queries answered with the deployment.
    pub hits: u64,
}

/// The routing ablation's overlay: 8 sites with caching on (the ladder's
/// advantage is that the super-peers cache what forwarding discovers,
/// §3.3), the one deployment on site 7, and a client on every other site
/// (the §3.2 "local access" pattern), each repeatedly discovering the same
/// remote activity.
pub(crate) fn routing(flood: bool, seed: u64) -> Scenario {
    const N: usize = 8;
    const QUERIES_PER_CLIENT: u64 = 6;
    let think = |i| SimDuration::from_secs(5 + i as u64);
    let client = |i| Client::new(i, "Imaging", think(i), QUERIES_PER_CLIENT);
    Scenario {
        node: NodeConfig { flood_mode: flood, ..node_defaults() },
        registry: Registry::hierarchy(vec![deployment("JPOVray", N - 1, "jpovray", "jpovray")]),
        clients: (0..N - 1).map(client).collect(),
        ..Scenario::new(N, seed)
    }
}

/// Run the routing ablation in one mode. Overlay background traffic
/// (heartbeats, elections) is measured by an identical client-less control
/// run and subtracted, leaving the per-query routing cost.
pub(crate) fn run_routing(flood: bool, seed: u64) -> RoutingAblation {
    let horizon = SimTime::from_secs(600);
    let mut control = Scenario { clients: Vec::new(), ..routing(flood, seed) }.start().sim;
    control.run_until(horizon);
    let background = control.metrics().counter_value("net.msgs_sent");

    let Run { mut sim, stats, .. } = routing(flood, seed).start();
    sim.run_until(horizon);
    let total = sim.metrics().counter_value("net.msgs_sent");
    let s = stats[0].lock();
    RoutingAblation {
        mode: if flood { "flood-all" } else { "super-peer" },
        mean_latency_ms: s
            .mean_latency()
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN),
        msgs_per_query: total.saturating_sub(background) as f64 / s.responses.max(1) as f64,
        hits: s.hits,
    }
}

/// Result of the takeover ablation.
#[derive(Clone, Debug)]
pub struct TakeoverAblation {
    /// Mode label.
    pub mode: &'static str,
    /// Super-peer offices assumed over the run (1 = stable).
    pub takeovers: u64,
    /// Whether the brain is split at the end of the run: more than one
    /// node claims the group ([`invariants::super_peers`] reports it).
    pub split_brain: bool,
}

/// The takeover ablation's overlay: a single election (re-elections would
/// heal the split and mask the difference under study), and the super-peer
/// stays alive but is partitioned from the lowest-ranked member between
/// t = 30 s and t = 120 s.
pub(crate) fn takeover(naive: bool, seed: u64) -> Scenario {
    let base = Scenario::new(4, seed);
    let ranked = ranked_sites(&base.topology);
    let (sp, isolated) = (ranked[0], ranked[ranked.len() - 1]);
    let (from, until) = (SimTime::from_secs(30), SimTime::from_secs(120));
    Scenario {
        node: NodeConfig { naive_takeover: naive, election_interval: None, ..node_defaults() },
        faults: FaultPlan::new().partition(from, until, sp, isolated),
        ..base
    }
}

/// Run the takeover ablation to t = 300 s.
pub(crate) fn run_takeover(naive: bool, seed: u64) -> TakeoverAblation {
    let Run { mut sim, ids, .. } = takeover(naive, seed).start();
    sim.run_until(SimTime::from_secs(300));
    TakeoverAblation {
        mode: if naive { "naive" } else { "majority-ack" },
        takeovers: sim.metrics().counter_value("glare.superpeer_takeovers"),
        split_brain: !invariants::super_peers(&sim, &ids).is_empty(),
    }
}

/// Render both ablations.
pub fn render() -> String {
    let mut s = String::from("Ablation 1: miss routing — super-peer ladder vs flood-all\n");
    s.push_str("mode       | mean latency (ms) | msgs/query | hits\n");
    for flood in [false, true] {
        let r = run_routing(flood, 77);
        s.push_str(&format!(
            "{:<11}| {:>17.1} | {:>10.1} | {:>4}\n",
            r.mode, r.mean_latency_ms, r.msgs_per_query, r.hits
        ));
    }
    s.push_str("\nAblation 2: takeover protocol under a partial partition\n");
    s.push_str("mode         | takeovers | split brain?\n");
    for naive in [false, true] {
        let r = run_takeover(naive, 78);
        s.push_str(&format!(
            "{:<13}| {:>9} | {}\n",
            r.mode,
            r.takeovers,
            if r.split_brain { "YES (rogue super-peer)" } else { "no" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flooding_costs_more_messages_for_same_answers() {
        let ladder = run_routing(false, 42);
        let flood = run_routing(true, 42);
        assert_eq!(ladder.hits, 42, "7 clients x 6 queries, all answered");
        assert_eq!(flood.hits, 42);
        assert!(
            flood.msgs_per_query > ladder.msgs_per_query * 1.3,
            "flood {:.1} msgs/q must exceed ladder {:.1}",
            flood.msgs_per_query,
            ladder.msgs_per_query
        );
    }

    /// The checker's negative case: the naive run splits the brain while
    /// the partition is up and stays split after it heals (a single
    /// election, nothing re-merges the group), and the majority run never
    /// does.
    #[test]
    fn super_peer_check_sees_the_naive_split_brain() {
        let split: Vec<String> = [3, 2, 0]
            .map(|m| format!("node {m}: in node 1's group but names a different super-peer"))
            .into();
        for (naive, expected) in [(false, Vec::new()), (true, split)] {
            let Run { mut sim, ids, .. } = takeover(naive, 9).start();
            for t in [110, 300] {
                sim.run_until(SimTime::from_secs(t));
                let found = invariants::super_peers(&sim, &ids);
                assert_eq!(found, expected, "naive {naive}, t = {t} s");
            }
        }
    }

    #[test]
    fn naive_takeover_splits_the_brain_majority_does_not() {
        let majority = run_takeover(false, 9);
        let naive = run_takeover(true, 9);
        assert_eq!(
            majority.takeovers, 1,
            "majority protocol must not seize office from a live super-peer"
        );
        assert!(!majority.split_brain);
        assert!(
            naive.takeovers >= 2,
            "naive detector must have grabbed office, got {}",
            naive.takeovers
        );
        assert!(naive.split_brain);
    }
}
