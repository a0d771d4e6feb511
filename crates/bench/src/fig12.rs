//! Fig. 12 — response time per activity-deployment request: cache enabled
//! on 1 Grid site, and cache disabled on 1, 3 and 7 sites.
//!
//! Discrete-event experiment. A fixed client population is spread across
//! the sites (clients only talk to their local GLARE node, §3.2), and the
//! deployment entries of the queried types are "equally distributed on
//! all involved sites" (§4). With one site, every request lands on one
//! saturated node; more sites spread both the data and the load; the
//! cache bypasses the registry-resolution stage entirely after warm-up.

use glare_core::node::NodeConfig;
use glare_fabric::{SimDuration, SimTime, SiteSpec, Topology, TraceSink};

use crate::json::fields;
use crate::scenario::{latency_ms, node_defaults, Client, Registry, Run, Scenario};

/// One Fig. 12 series point.
#[derive(Clone, Debug)]
pub struct Fig12Point {
    /// Number of Grid sites.
    pub sites: usize,
    /// Whether the cache was enabled.
    pub cache: bool,
    /// Mean response time per request, in milliseconds.
    pub mean_ms: f64,
    /// 95th percentile response time, in milliseconds.
    pub p95_ms: f64,
    /// Requests measured.
    pub requests: u64,
}

impl Fig12Point {
    /// The configuration's display name.
    pub fn label(&self) -> String {
        if self.cache {
            format!("{} site, cache on", self.sites)
        } else {
            format!("{} site(s), no cache", self.sites)
        }
    }

    /// JSON-friendly view of the point.
    pub fn to_json(&self) -> crate::json::Json {
        crate::json::Json::obj(fields!(self; sites, cache, mean_ms, p95_ms, requests))
    }
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Params {
    /// Total clients spread over the sites.
    pub clients: usize,
    /// Queries per client.
    pub queries_per_client: u64,
    /// Client think time between queries.
    pub think: SimDuration,
    /// Distinct activity types with deployments.
    pub types: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Fig12Params {
    fn default() -> Self {
        Fig12Params {
            clients: 28,
            queries_per_client: 20,
            think: SimDuration::from_millis(100),
            types: 50,
            seed: 1205,
        }
    }
}

/// One configuration as a scenario. Constrained sites (2 cores) so a
/// single site saturates under the full client population, as the paper's
/// single GT4 container did; the clients spread round-robin over the sites.
pub(crate) fn scenario(sites: usize, cache: bool, p: Fig12Params) -> Scenario {
    let mut topology = Topology::new();
    for i in 0..sites {
        let mut spec = SiteSpec::reference(&format!("site{i}.fig12"));
        spec.cores = 2;
        spec.cpu_mhz = 2000 + (i as u32 % 7) * 150;
        spec.uptime_secs = 50_000 + i as u64 * 997;
        topology.add_site(spec);
    }
    let activity = |c| format!("T{}", c % p.types);
    let client = |c| Client::new(c % sites, &activity(c), p.think, p.queries_per_client);
    Scenario {
        topology,
        node: NodeConfig {
            use_cache: cache,
            request_cost: SimDuration::from_millis(3),
            registry_cost: SimDuration::from_millis(15),
            ..node_defaults()
        },
        registry: Registry::round_robin(p.types, sites, "fig12"),
        clients: (0..p.clients).map(client).collect(),
        ..Scenario::new(sites, p.seed)
    }
}

/// Run one configuration. With `traced`, every request's causal span tree
/// is recorded and returned beside the point (an empty sink otherwise).
/// Tracing is observe-only, so the point is the same either way.
pub fn run_config(
    sites: usize,
    cache: bool,
    p: Fig12Params,
    traced: bool,
) -> (Fig12Point, TraceSink) {
    let scenario = Scenario { tracing: traced, ..scenario(sites, cache, p) };
    let Run { mut sim, stats, .. } = scenario.start();
    sim.run_until(SimTime::from_secs(3_600));
    let trace = sim.take_trace().unwrap_or_default();
    let s = stats[0].lock();
    let (mean_ms, p95_ms) = latency_ms(&s);
    (Fig12Point { sites, cache, mean_ms, p95_ms, requests: s.responses }, trace)
}

/// The series' configurations as `(sites, cache)`: cache on 1 site;
/// cache off on 1, 3, 7 sites.
pub const CONFIGS: [(usize, bool); 4] = [(1, true), (1, false), (3, false), (7, false)];

/// The full Fig. 12 series.
pub fn run(p: Fig12Params) -> Vec<Fig12Point> {
    CONFIGS.iter().map(|&(sites, cache)| run_config(sites, cache, p, false).0).collect()
}

/// Render the series.
pub fn render(points: &[Fig12Point]) -> String {
    let mut s = String::from(
        "Fig 12: Response time per deployment request\n\
         configuration      | mean (ms) | p95 (ms) | requests\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:<19}| {:>9.1} | {:>8.1} | {:>8}\n",
            p.label(),
            p.mean_ms,
            p.p95_ms,
            p.requests
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> Fig12Params {
        Fig12Params {
            clients: 12,
            queries_per_client: 8,
            think: SimDuration::from_millis(100),
            types: 12,
            seed: 7,
        }
    }

    #[test]
    fn whole_experiment_is_deterministic() {
        let p = quick_params();
        let a = run_config(3, false, p, false).0;
        let b = run_config(3, false, p, false).0;
        assert_eq!(a.mean_ms, b.mean_ms, "same seed, same simulation");
        assert_eq!(a.p95_ms, b.p95_ms);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn default_series_has_the_papers_shape() {
        // EXPERIMENTS.md Fig. 12, at the parameters `--bin fig12` runs.
        let pts = run(Fig12Params::default());
        let (cache1, nocache) = (&pts[0], &pts[1..]);
        assert!(cache1.cache && nocache.iter().all(|p| !p.cache));
        for p in nocache {
            assert!(
                cache1.mean_ms < p.mean_ms,
                "cache on one site ({:.1} ms) is the fastest configuration; {} took {:.1} ms",
                cache1.mean_ms,
                p.label(),
                p.mean_ms
            );
        }
        assert!(
            nocache.windows(2).all(|w| w[0].sites < w[1].sites && w[0].mean_ms > w[1].mean_ms),
            "mean falls monotonically 1 -> 3 -> 7 sites: {nocache:?}"
        );
        assert!(
            nocache[0].mean_ms > 5.0 * nocache[1].mean_ms,
            "the single saturated no-cache site is the worst case by far: {nocache:?}"
        );
    }

    #[test]
    fn more_sites_and_cache_both_help() {
        let p = quick_params();
        let cache1 = run_config(1, true, p, false).0;
        let nocache1 = run_config(1, false, p, false).0;
        let nocache3 = run_config(3, false, p, false).0;
        assert_eq!(cache1.requests, 12 * 8);
        assert!(
            cache1.mean_ms < nocache1.mean_ms,
            "cache {:.1}ms must beat no-cache {:.1}ms on one site",
            cache1.mean_ms,
            nocache1.mean_ms
        );
        assert!(
            nocache3.mean_ms < nocache1.mean_ms,
            "3 sites {:.1}ms must beat 1 site {:.1}ms",
            nocache3.mean_ms,
            nocache1.mean_ms
        );
    }
}
