//! The names the ledger is kept in: every end-to-end and per-layer metric
//! with its unit, direction and (end to end) regression bound. The run
//! prints these names, `BENCHMARK.json` is generated from them, and a test
//! holds the committed file to the generated one.

use glare_bench::json::Json;

use crate::des::NODE_SPANS;
use crate::workloads::WORKLOADS;

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit. `sim_*` units are simulated (modelled) time, not host time.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in reporting order. Every workload reports every
/// one, and none is ever 0 (see `README.md` for what each means on each
/// workload).
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_goodput_hz",
        unit: "1/sim_s",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_hops_per_query",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_events",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// The `sim_*` metrics: a function of the seed alone, so they must read
/// identically on every round of a run, traced or not.
pub fn is_seed_exact(name: &str) -> bool {
    name.starts_with("sim_") || name == "ok_share"
}

/// A per-layer metric: no bound, read on a traced run.
pub struct PerLayer {
    /// `<module>.<metric>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The per-layer metrics, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name: name.to_owned(),
            unit,
            better,
        })
    };
    add("fabric.queue.calendar_push_ns", "ns", Lower);
    add("fabric.queue.calendar_pop_ns", "ns", Lower);
    add("fabric.queue.heap_push_ns", "ns", Lower);
    add("fabric.queue.heap_pop_ns", "ns", Lower);
    add("fabric.queue.peak_len", "count", Lower);
    add("fabric.sim.events_per_s", "1/s", Higher);
    add("fabric.sim.dispatch_self_ns", "ns", Lower);
    add("fabric.sim.dispatch_self_share", "ratio", Lower);
    add("fabric.sim.pingpong_events_per_s", "1/s", Higher);
    add("fabric.sim.msgs_dropped", "count", Lower);
    for span in NODE_SPANS {
        add(&format!("{span}_calls"), "count", Lower);
        add(&format!("{span}_ns"), "ns", Lower);
    }
    add("glare_core.node.handler_share", "ratio", Lower);
    add("workload.engine.generate_arrivals_per_s", "1/s", Higher);
    add("workload.engine.handler_ns", "ns", Lower);
    add("workload.engine.handler_share", "ratio", Lower);
    add("glare_core.admission.shed_share_gold", "ratio", Lower);
    add("glare_core.admission.shed_share_silver", "ratio", Lower);
    add(
        "glare_core.admission.shed_share_best_effort",
        "ratio",
        Lower,
    );
    add("glare_core.admission.gold_goodput_hz", "1/sim_s", Higher);
    add("glare_core.admission.gold_p99_ms", "sim_ms", Lower);
    add("glare_core.admission.ttl_released", "count", Lower);
    add("glare_core.retry.retries_per_op", "ratio", Lower);
    add("glare_core.cache.hit_ratio", "ratio", Higher);
    add("fabric.metrics.counter_labeled_ns", "ns", Lower);
    add("fabric.metrics.histogram_quantile_us", "us", Lower);
    add("fabric.events.recorded", "count", Lower);
    add("fabric.events.dropped", "count", Lower);
    add("glare_core.atr.lookup_ns", "ns", Lower);
    add("glare_core.atr.register_ns", "ns", Lower);
    add("glare_core.atr.update_ns", "ns", Lower);
    add("glare_core.adr.deployments_of_ns", "ns", Lower);
    add("glare_core.adr.register_ns", "ns", Lower);
    add("glare_core.adr.uninstall_ns", "ns", Lower);
    add("wsrf.xml.parse_ns", "ns", Lower);
    add("wsrf.xml.serialize_ns", "ns", Lower);
    add("wsrf.xpath.compile_ns", "ns", Lower);
    add("wsrf.xpath.select_ns", "ns", Lower);
    add("wsrf.xpath.memo_hit_ratio", "ratio", Higher);
    add("services.mds.query_ns", "ns", Lower);
    add("services.mds.query_after_write_ns", "ns", Lower);
    add("services.mds.register_ns", "ns", Lower);
    add("wsrf.resource.read_p99_ns", "ns", Lower);
    add("glare_core.rdm.provision_install_us", "us", Lower);
    add("glare_core.rdm.provision_hit_us", "us", Lower);
    add("glare_core.rdm.list_deployments_us", "us", Lower);
    add("glare_core.rdm.installs", "count", Lower);
    add("glare_core.rdm.sim_communication_ms", "sim_ms", Lower);
    add("glare_core.rdm.sim_installation_ms", "sim_ms", Lower);
    add("glare_core.rdm.sim_channel_overhead_ms", "sim_ms", Lower);
    add("glare_core.lease.acquire_us", "us", Lower);
    add("glare_core.lease.release_us", "us", Lower);
    add("glare_core.lease.rejected_share", "ratio", Lower);
    add("glare_core.grid.restart_replay_us", "us", Lower);
    add("fabric.store.append_ns", "ns", Lower);
    add("fabric.store.recover_us_per_1k", "us", Lower);
    add("fabric.store.journal_records", "count", Lower);
    add("services.md5.mb_per_s", "MB/s", Higher);
    add("services.gridftp.get_us", "us", Lower);
    add("services.expect.run_us", "us", Lower);
    add("fabric.trace.spans_recorded", "count", Lower);
    add("fabric.trace.spans_dropped", "count", Lower);
    add("perf.trace_overhead_share", "ratio", Lower);
    v
}

/// How long one run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::arr(command.iter().map(|s| Json::from(*s)))),
        ("paths", Json::arr([Json::from("perf")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])),
            ),
        ),
        (
            "end_to_end",
            Json::arr(END_TO_END.iter().map(|m| {
                Json::obj([
                    ("name", Json::from(m.name)),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.label())),
                    ("bound", Json::from(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Json::arr(per_layer().iter().map(|m| {
                Json::obj([
                    ("name", Json::from(m.name.as_str())),
                    ("unit", Json::from(m.unit)),
                    ("better", Json::from(m.better.label())),
                ])
            })),
        ),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path perf/Cargo.toml -- benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for m in &layers {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(10.0, 9.0) < 0.0);
    }
}
