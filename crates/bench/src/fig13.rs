//! Fig. 13 — 1-minute load average of the Activity Type Registry site
//! under (a) concurrent requesters and (b) notification sinks at varying
//! notification rates.
//!
//! Discrete-event experiment over the fabric's Unix-style load-average
//! model. Requesters are closed-loop clients with 1 s think time; sinks
//! subscribe once and the registry fans a notification round out to every
//! sink each period, one CPU-charged delivery per sink (§3.1 WS-Resources
//! provide "event registration and notification"; the paper drives up to
//! 210 sinks at a 1 s rate and sees the load peak slightly above 16,
//! while 250 requesters keep it just below 5).

use glare_core::node::NodeConfig;
use glare_fabric::{SimDuration, SimTime, Topology, TraceSink};

use crate::json::fields;
use crate::scenario::{node_defaults, Client, Registry, Run, Scenario};

/// One measured load point.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Which series (`requesters` or `sinks@<rate>s`).
    pub series: String,
    /// Number of concurrent clients/sinks.
    pub count: usize,
    /// Peak 1-minute load average observed.
    pub peak_load: f64,
    /// Mean 1-minute load average over the run.
    pub mean_load: f64,
}

impl LoadPoint {
    /// JSON-friendly view of the point.
    pub fn to_json(&self) -> crate::json::Json {
        crate::json::Json::obj(fields!(self; series, count, peak_load, mean_load))
    }
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Params {
    /// Simulated measurement window.
    pub window: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for Fig13Params {
    fn default() -> Self {
        Fig13Params {
            window: SimDuration::from_secs(480),
            seed: 1306,
        }
    }
}

fn registry_topology(cores: u32) -> Topology {
    let mut topo = Topology::new();
    let mut spec = glare_fabric::SiteSpec::reference("registry.fig13");
    spec.cores = cores;
    topo.add_site(spec);
    topo
}

/// Distinct activity types the registry holds for the requesters.
const TYPES: usize = 50;

/// `n` closed-loop requesters (1 s think time) against an 8-core registry
/// host, ~18 ms CPU per request; the cache is off, so every request pays
/// the registry stage.
pub(crate) fn requesters(n: usize, p: Fig13Params) -> Scenario {
    let activity = |c| format!("T{}", c % TYPES);
    let client = |c| Client::new(0, &activity(c), SimDuration::from_secs(1), u64::MAX);
    Scenario {
        topology: registry_topology(8),
        node: NodeConfig {
            request_cost: SimDuration::from_millis(6),
            registry_cost: SimDuration::from_millis(12),
            use_cache: false,
            ..node_defaults()
        },
        registry: Registry::round_robin(TYPES, 1, "fig13"),
        load_sampling: Some(SimTime::ZERO + p.window),
        clients: (0..n).map(client).collect(),
        ..Scenario::new(1, p.seed)
    }
}

/// `n` notification sinks at the given notification period, on a
/// single-core registry host (the notification worker), ~4.6 ms per
/// delivery: 210 sinks at 1 s drive utilization to ~0.99.
pub(crate) fn sinks(n: usize, rate: SimDuration, p: Fig13Params) -> Scenario {
    Scenario {
        topology: registry_topology(1),
        node: NodeConfig {
            notify_interval: Some(rate),
            notify_cost: SimDuration::from_micros(4_742),
            ..node_defaults()
        },
        load_sampling: Some(SimTime::ZERO + p.window),
        sinks: n,
        ..Scenario::new(1, p.seed)
    }
}

/// Run `scenario` over the window and read the registry site's load. With
/// `traced`, the recorded spans come back beside the point (an empty sink
/// otherwise); tracing is observe-only, so the point is the same either way.
fn measure(s: Scenario, traced: bool, series: String, count: usize) -> (LoadPoint, TraceSink) {
    let until = s.load_sampling.expect("fig13 samples the load");
    let Run { mut sim, .. } = Scenario { tracing: traced, ..s }.start();
    sim.run_until(until);
    let load = sim.metrics().time_series_ref("site0.load1m").expect("load sampling enabled");
    let peak_load = load.max_value().unwrap_or(0.0);
    let mean_load = load.mean_value().unwrap_or(0.0);
    (LoadPoint { series, count, peak_load, mean_load }, sim.take_trace().unwrap_or_default())
}

/// Load under `n` closed-loop requesters (1 s think time). With `traced`,
/// the recorded spans come back beside the point (an empty sink otherwise).
pub fn run_requesters(n: usize, p: Fig13Params, traced: bool) -> (LoadPoint, TraceSink) {
    measure(requesters(n, p), traced, "requesters".into(), n)
}

/// Load under `n` notification sinks at the given notification period,
/// with the spans as for [`run_requesters`].
pub fn run_sinks(
    n: usize,
    rate: SimDuration,
    p: Fig13Params,
    traced: bool,
) -> (LoadPoint, TraceSink) {
    let series = format!("sinks@{}s", rate.as_millis() / 1000);
    measure(sinks(n, rate, p), traced, series, n)
}

/// Requester counts of the requester series.
pub const REQUESTERS: [usize; 6] = [10, 50, 100, 150, 200, 250];
/// Notification periods of the sink series, seconds.
pub const SINK_RATES_S: [u64; 3] = [1, 5, 10];
/// Sink counts of every sink series.
pub const SINKS: [usize; 4] = [30, 70, 140, 210];

/// Render the series.
pub fn render(points: &[LoadPoint]) -> String {
    let mut s = String::from(
        "Fig 13: 1-minute load average of the registry site\n\
         series       | count | peak load | mean load\n",
    );
    for p in points {
        s.push_str(&format!(
            "{:<13}| {:>5} | {:>9.2} | {:>9.2}\n",
            p.series, p.count, p.peak_load, p.mean_load
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig13Params {
        Fig13Params {
            window: SimDuration::from_secs(240),
            seed: 99,
        }
    }

    #[test]
    fn load_experiment_is_deterministic() {
        let a = run_sinks(70, SimDuration::from_secs(1), quick(), false).0;
        let b = run_sinks(70, SimDuration::from_secs(1), quick(), false).0;
        assert_eq!(a.peak_load, b.peak_load, "same seed, same load trace");
        assert_eq!(a.mean_load, b.mean_load);
    }

    #[test]
    fn requester_load_grows_and_stays_moderate() {
        let small = run_requesters(20, quick(), false).0;
        let large = run_requesters(250, quick(), false).0;
        assert!(
            large.peak_load > small.peak_load,
            "more requesters, more load: {} !> {}",
            large.peak_load,
            small.peak_load
        );
        assert!(
            (2.0..8.0).contains(&large.peak_load),
            "250 requesters peak just below ~5 in the paper; got {}",
            large.peak_load
        );
    }

    #[test]
    fn default_sweep_has_the_papers_crests() {
        // EXPERIMENTS.md Fig. 13, at the parameters `--bin fig13` runs.
        let p = Fig13Params::default();
        let crest = run_requesters(250, p, false).0.peak_load;
        assert!(
            (4.0..=6.0).contains(&crest),
            "250 requesters crest at ~5 (paper: just below 5); got {crest}"
        );
        let (mut fast, mut slow) = (0.0, 0.0);
        for n in SINKS {
            fast = run_sinks(n, SimDuration::from_secs(1), p, false).0.peak_load;
            slow = run_sinks(n, SimDuration::from_secs(5), p, false).0.peak_load;
            assert!(fast > slow, "{n} sinks: 1 s rate {fast} must exceed 5 s rate {slow}");
        }
        assert!(
            (15.0..=18.5).contains(&fast),
            "210 sinks at 1 s crest near 16 (paper: slightly above 16); got {fast}"
        );
        let slowest = run_sinks(210, SimDuration::from_secs(10), p, false).0.peak_load;
        assert!(slow > slowest, "210 sinks: 5 s rate {slow} must exceed 10 s rate {slowest}");
    }

    #[test]
    fn sink_load_dominates_and_scales_with_rate() {
        let fast = run_sinks(210, SimDuration::from_secs(1), quick(), false).0;
        let slow = run_sinks(210, SimDuration::from_secs(10), quick(), false).0;
        assert!(
            fast.peak_load > slow.peak_load * 2.0,
            "1s rate {} must far exceed 10s rate {}",
            fast.peak_load,
            slow.peak_load
        );
        assert!(
            (8.0..40.0).contains(&fast.peak_load),
            "210 sinks at 1s peaks ~16 in the paper; got {}",
            fast.peak_load
        );
        let requesters = run_requesters(210, quick(), false).0;
        assert!(
            fast.peak_load > requesters.peak_load,
            "notification load must exceed requester load at equal count"
        );
    }
}
