//! The parent side of a run: launch rounds of one workload as child
//! processes until `--seconds` of measured window is covered, check that
//! they agree with each other, and fold them into the named metrics.

use std::process::{Command, Stdio};

use glare_bench::json::Json;

use crate::ledger::{self, END_TO_END};
use crate::round::{self, Round};
use crate::stats;
use crate::workloads::Workload;

/// Percentile the `sim_p99_ms` metric reports; every workload must have
/// [`stats::MIN_SAMPLES_BEYOND`] samples beyond it.
const TAIL_PERCENTILE: f64 = 99.0;

/// One named metric of a report.
pub struct Metric {
    /// Name from the ledger.
    pub name: String,
    /// Unit from the ledger.
    pub unit: &'static str,
    /// One sample per contributing round.
    pub samples: Vec<f64>,
}

impl Metric {
    /// Median over the rounds (0 when no round reported the metric: the
    /// layer did no work on this workload).
    pub fn median(&self) -> f64 {
        stats::median(&self.samples).unwrap_or(0.0)
    }
}

/// What one run of one workload measured.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the workload's `sim_*` outputs are a function of the seed
    /// alone (see [`Workload::seed_exact`]).
    pub seed_exact: bool,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Whether this was a traced run (per-layer metrics) or not (end to end).
    pub traced: bool,
    /// End-to-end metrics (rounds with tracing off) on an untraced run,
    /// per-layer metrics on a traced one.
    pub metrics: Vec<Metric>,
    /// Operations attempted over the counted rounds.
    pub attempted: u64,
    /// Operations with a wrong or missing outcome over the counted rounds.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The table, then the result as the last line.
    pub fn print(&self) {
        let kind = if self.traced {
            "per layer, traced rounds"
        } else {
            "end to end, tracing off"
        };
        println!("== {}  seed {}  ({kind})", self.workload, self.seed);
        for m in &self.metrics {
            let (q1, q3) = stats::quartiles(&m.samples).unwrap_or((m.median(), m.median()));
            println!(
                "{:<46} {:>14.6} {:<8} q1 {:<14.6} q3 {:<14.6} n {}",
                m.name,
                m.median(),
                m.unit,
                q1,
                q3,
                m.samples.len()
            );
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        println!("{}", self.to_json().to_string_compact());
    }

    /// The result object the benchmark contract asks for.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.as_str(),
                        Json::obj([
                            ("value", Json::from(m.median())),
                            ("unit", Json::from(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Run one round of `workload` in a child process of this binary.
fn run_round(workload: &Workload, seed: u64, traced: bool, micro: bool) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let flag = |b: bool| if b { "1" } else { "0" };
    let out = Command::new(exe)
        .args([
            "round",
            "--workload",
            workload.name,
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", flag(traced), "--micro", flag(micro)])
        .args(["--spawned-at", &round::unix_nanos().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    if !out.status.success() {
        return Err(format!("round exited with {}", out.status));
    }
    Round::from_lines(&String::from_utf8_lossy(&out.stdout))
}

/// The end-to-end sample a round contributes to `name`.
fn end_to_end_sample(round: &Round, name: &str) -> f64 {
    match name {
        "ops_per_s" => round.get("ops") / round.get("wall_s"),
        "ok_share" => {
            let attempted = round.attempted.max(1) as f64;
            (attempted - round.failed as f64 - round.get("refused")) / attempted
        }
        _ => round.get(name),
    }
}

/// Measure `workload` for `seconds` of window time. With `trace`, rounds
/// alternate between tracing off and on and the per-layer metrics are
/// reported; without, every round has tracing off and the end-to-end
/// metrics are.
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while measured < seconds {
        let r = run_round(workload, seed, false, false)?;
        measured += r.get("wall_s");
        plain.push(r);
        if trace {
            let r = run_round(workload, seed, true, traced.is_empty())?;
            measured += r.get("wall_s");
            traced.push(r);
        }
    }

    let mut failures: Vec<String> = Vec::new();
    let first = &plain[0];
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        failures.extend(r.failures.iter().cloned());
        // Same seed, same outputs — on every round, traced or not.
        let mut differs: Vec<String> = Vec::new();
        if r.digest != first.digest {
            differs.push(format!("digest {:016x} != {:016x}", r.digest, first.digest));
        }
        if (r.attempted, r.failed) != (first.attempted, first.failed) {
            differs.push(format!(
                "attempted/failed {}/{} != {}/{}",
                r.attempted, r.failed, first.attempted, first.failed
            ));
        }
        for m in END_TO_END
            .iter()
            .filter(|m| workload.seed_exact && ledger::is_seed_exact(m.name))
        {
            let (a, b) = (
                end_to_end_sample(r, m.name),
                end_to_end_sample(first, m.name),
            );
            if a.to_bits() != b.to_bits() {
                differs.push(format!("{} {a} != {b}", m.name));
            }
        }
        if !differs.is_empty() {
            failures.push(format!(
                "{}: round {i} differs from round 0: {}",
                workload.name,
                differs.join(", ")
            ));
        }
    }
    let tail_samples = first.get("tail_samples") as usize;
    if !stats::tail_is_resolved(tail_samples, TAIL_PERCENTILE) {
        failures.push(format!(
            "{}: p{TAIL_PERCENTILE} of {tail_samples} samples has {} beyond it, fewer than {}",
            workload.name,
            stats::samples_beyond(tail_samples, TAIL_PERCENTILE),
            stats::MIN_SAMPLES_BEYOND
        ));
    }

    // Layer metrics are `<module>.<metric>`; one the ledger does not name
    // would be dropped silently, so it is an error instead.
    let layers = ledger::per_layer();
    for r in &traced {
        for name in r.values.keys().filter(|k| k.contains('.')) {
            if !layers.iter().any(|m| m.name == *name) {
                failures.push(format!(
                    "{}: round reported {name}, which the ledger does not name",
                    workload.name
                ));
            }
        }
    }
    failures.sort();
    failures.dedup();

    let metrics = if trace {
        per_layer_metrics(&plain, &traced)
    } else {
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name.to_owned(),
                unit: m.unit,
                samples: plain.iter().map(|r| end_to_end_sample(r, m.name)).collect(),
            })
            .collect()
    };
    for m in metrics.iter().filter(|m| !trace && m.median() == 0.0) {
        failures.push(format!(
            "{}: end-to-end metric {} is 0",
            workload.name, m.name
        ));
    }
    Ok(Report {
        workload: workload.name,
        seed_exact: workload.seed_exact,
        seed,
        traced: trace,
        metrics,
        attempted: plain.iter().map(|r| r.attempted).sum(),
        failed: plain.iter().map(|r| r.failed).sum(),
        failures,
    })
}

/// Per-layer metrics: what the traced rounds reported, plus the two that
/// need both kinds of round.
fn per_layer_metrics(plain: &[Round], traced: &[Round]) -> Vec<Metric> {
    let median_of = |rounds: &[Round], name: &str| {
        let v: Vec<f64> = rounds.iter().map(|r| r.get(name)).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let plain_wall = median_of(plain, "wall_s");
    ledger::per_layer()
        .into_iter()
        .map(|m| {
            let samples: Vec<f64> = match m.name.as_str() {
                // Kernel events of the simulator workloads over the
                // untraced wall; 0 where no kernel ran.
                "fabric.sim.events_per_s" => traced
                    .iter()
                    .filter_map(|r| r.values.get("kernel_events"))
                    .map(|events| events / plain_wall)
                    .collect(),
                "perf.trace_overhead_share" => traced
                    .iter()
                    .map(|r| (r.get("wall_s") - plain_wall) / plain_wall)
                    .collect(),
                name => traced
                    .iter()
                    .filter_map(|r| r.values.get(name).copied())
                    .collect(),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                samples,
            }
        })
        .collect()
}
