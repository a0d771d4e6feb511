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

use glare_core::model::{ActivityDeployment, ActivityType};
use glare_core::overlay::{ClientStats, NotificationSink, OverlayBuilder, QueryClient};
use glare_fabric::{SimDuration, SimTime, SiteId, Topology, TraceSink};

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
        crate::json::Json::obj([
            ("series", crate::json::Json::from(self.series.clone())),
            ("count", crate::json::Json::from(self.count)),
            ("peak_load", crate::json::Json::from(self.peak_load)),
            ("mean_load", crate::json::Json::from(self.mean_load)),
        ])
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

fn load_stats(sim: &glare_fabric::Simulation) -> (f64, f64) {
    let series = sim
        .metrics()
        .time_series_ref("site0.load1m")
        .expect("load sampling enabled");
    (
        series.max_value().unwrap_or(0.0),
        series.mean_value().unwrap_or(0.0),
    )
}

/// Load under `n` closed-loop requesters (1 s think time).
pub fn run_requesters(n: usize, p: Fig13Params) -> LoadPoint {
    run_requesters_impl(n, p, false).0
}

/// Like [`run_requesters`], but with kernel tracing enabled; returns the
/// recorded spans alongside the point. Tracing is observe-only, so the
/// point is identical to the untraced run's.
pub fn run_requesters_traced(n: usize, p: Fig13Params) -> (LoadPoint, TraceSink) {
    let (pt, trace) = run_requesters_impl(n, p, true);
    (pt, trace.expect("tracing was enabled"))
}

fn run_requesters_impl(n: usize, p: Fig13Params, traced: bool) -> (LoadPoint, Option<TraceSink>) {
    // 8-core registry host; ~18 ms CPU per request.
    let mut builder = OverlayBuilder::new(1, p.seed).with_topology(registry_topology(8));
    builder.configure(|_, cfg| {
        cfg.request_cost = SimDuration::from_millis(6);
        cfg.registry_cost = SimDuration::from_millis(12);
        cfg.use_cache = false; // every request pays the registry stage
    });
    builder.seed(|_, node| {
        for t in 0..50 {
            let ty = ActivityType::concrete_type(&format!("T{t}"), "fig13", "wien2k");
            node.atr.register(ty, SimTime::ZERO).unwrap();
            let d = ActivityDeployment::executable(
                &format!("T{t}"),
                "registry",
                &format!("/opt/t{t}/bin/t{t}"),
                &format!("/opt/t{t}"),
            );
            node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
        }
    });
    let (mut sim, ids) = builder.build();
    if traced {
        sim.enable_tracing(glare_fabric::trace::DEFAULT_MAX_SPANS);
    }
    let stats = ClientStats::shared();
    for c in 0..n {
        let client = QueryClient::new(
            ids[0],
            &format!("T{}", c % 50),
            SimDuration::from_secs(1),
            u64::MAX,
            stats.clone(),
        );
        sim.add_actor(SiteId(0), Box::new(client));
    }
    sim.enable_load_sampling(SimTime::ZERO + p.window);
    sim.start();
    sim.run_until(SimTime::ZERO + p.window);
    let trace = sim.take_trace();
    let (peak, mean) = load_stats(&sim);
    (
        LoadPoint {
            series: "requesters".into(),
            count: n,
            peak_load: peak,
            mean_load: mean,
        },
        trace,
    )
}

/// Load under `n` notification sinks at the given notification period.
pub fn run_sinks(n: usize, rate: SimDuration, p: Fig13Params) -> LoadPoint {
    run_sinks_impl(n, rate, p, false).0
}

/// Like [`run_sinks`], but with kernel tracing enabled; returns the
/// recorded spans alongside the point.
pub fn run_sinks_traced(n: usize, rate: SimDuration, p: Fig13Params) -> (LoadPoint, TraceSink) {
    let (pt, trace) = run_sinks_impl(n, rate, p, true);
    (pt, trace.expect("tracing was enabled"))
}

fn run_sinks_impl(
    n: usize,
    rate: SimDuration,
    p: Fig13Params,
    traced: bool,
) -> (LoadPoint, Option<TraceSink>) {
    // Single-core registry host (the notification worker), ~4.6 ms per
    // delivery: 210 sinks at 1 s drives utilization to ~0.99.
    let mut builder = OverlayBuilder::new(1, p.seed).with_topology(registry_topology(1));
    builder.configure(move |_, cfg| {
        cfg.notify_interval = Some(rate);
        cfg.notify_cost = SimDuration::from_micros(4_742);
    });
    let (mut sim, ids) = builder.build();
    if traced {
        sim.enable_tracing(glare_fabric::trace::DEFAULT_MAX_SPANS);
    }
    for _ in 0..n {
        sim.add_actor(SiteId(0), Box::new(NotificationSink::new(ids[0])));
    }
    sim.enable_load_sampling(SimTime::ZERO + p.window);
    sim.start();
    sim.run_until(SimTime::ZERO + p.window);
    let trace = sim.take_trace();
    let (peak, mean) = load_stats(&sim);
    (
        LoadPoint {
            series: format!("sinks@{}s", rate.as_millis() / 1000),
            count: n,
            peak_load: peak,
            mean_load: mean,
        },
        trace,
    )
}

/// Requester counts of the requester series.
pub const REQUESTERS: [usize; 6] = [10, 50, 100, 150, 200, 250];
/// Notification periods of the sink series, seconds.
pub const SINK_RATES_S: [u64; 3] = [1, 5, 10];
/// Sink counts of every sink series.
pub const SINKS: [usize; 4] = [30, 70, 140, 210];

/// The full Fig. 13 sweep.
pub fn run(p: Fig13Params) -> Vec<LoadPoint> {
    let mut out = Vec::new();
    for n in REQUESTERS {
        out.push(run_requesters(n, p));
    }
    for rate_s in SINK_RATES_S {
        for n in SINKS {
            out.push(run_sinks(n, SimDuration::from_secs(rate_s), p));
        }
    }
    out
}

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
        let a = run_sinks(70, SimDuration::from_secs(1), quick());
        let b = run_sinks(70, SimDuration::from_secs(1), quick());
        assert_eq!(a.peak_load, b.peak_load, "same seed, same load trace");
        assert_eq!(a.mean_load, b.mean_load);
    }

    #[test]
    fn requester_load_grows_and_stays_moderate() {
        let small = run_requesters(20, quick());
        let large = run_requesters(250, quick());
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
        let crest = run_requesters(250, p).peak_load;
        assert!(
            (4.0..=6.0).contains(&crest),
            "250 requesters crest at ~5 (paper: just below 5); got {crest}"
        );
        let (mut fast, mut slow) = (0.0, 0.0);
        for n in SINKS {
            fast = run_sinks(n, SimDuration::from_secs(1), p).peak_load;
            slow = run_sinks(n, SimDuration::from_secs(5), p).peak_load;
            assert!(fast > slow, "{n} sinks: 1 s rate {fast} must exceed 5 s rate {slow}");
        }
        assert!(
            (15.0..=18.5).contains(&fast),
            "210 sinks at 1 s crest near 16 (paper: slightly above 16); got {fast}"
        );
        let slowest = run_sinks(210, SimDuration::from_secs(10), p).peak_load;
        assert!(slow > slowest, "210 sinks: 5 s rate {slow} must exceed 10 s rate {slowest}");
    }

    #[test]
    fn sink_load_dominates_and_scales_with_rate() {
        let fast = run_sinks(210, SimDuration::from_secs(1), quick());
        let slow = run_sinks(210, SimDuration::from_secs(10), quick());
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
        let requesters = run_requesters(210, quick());
        assert!(
            fast.peak_load > requesters.peak_load,
            "notification load must exceed requester load at equal count"
        );
    }
}
