//! `perf agree`: does the benchmark agree with itself? Two full sets of runs
//! of the same build, back to back; for every (end-to-end metric, workload)
//! pair the second median may not be worse than the first by more than the
//! metric's bound, and the seed-exact metrics may not differ at all.
//!
//! Its output, `perf/out/agree.json`, is what `perf/baseline.json` is a
//! committed copy of.

use std::process::ExitCode;

use glare_bench::json::Json;

use crate::ledger::{self, END_TO_END};
use crate::measure::{measure, Report};
use crate::stats;
use crate::trace_file;
use crate::workloads::Workload;

fn set_of(workloads: &[&'static Workload], seed: u64, seconds: f64) -> Result<Vec<Report>, String> {
    workloads
        .iter()
        .map(|w| measure(w, seed, seconds, false).map_err(|e| format!("{}: {e}", w.name)))
        .collect()
}

fn summary(samples: &[f64]) -> Json {
    let median = stats::median(samples).unwrap_or(0.0);
    let (q1, q3) = stats::quartiles(samples).unwrap_or((median, median));
    Json::obj([
        ("median", Json::from(median)),
        ("q1", Json::from(q1)),
        ("q3", Json::from(q3)),
        ("n", Json::from(samples.len())),
    ])
}

pub fn agree(workloads: &[&'static Workload], seed: u64, seconds: f64) -> ExitCode {
    let (first, second) = match set_of(workloads, seed, seconds)
        .and_then(|a| Ok((a, set_of(workloads, seed, seconds)?)))
    {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("perf agree: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first median", "second median", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for r in [a, b] {
            for f in &r.failures {
                println!("CHECK FAILED: {f}");
                ok = false;
            }
        }
        for ((spec, ma), mb) in END_TO_END.iter().zip(&a.metrics).zip(&b.metrics) {
            let worse = spec.better.worsening(ma.median(), mb.median());
            let agrees = if a.seed_exact && ledger::is_seed_exact(spec.name) {
                ma.median().to_bits() == mb.median().to_bits()
            } else {
                worse <= spec.bound
            };
            ok &= agrees;
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {}",
                a.workload,
                spec.name,
                ma.median(),
                mb.median(),
                worse * 100.0,
                spec.bound * 100.0,
                if agrees { "" } else { "DISAGREES" }
            );
            rows.push(Json::obj([
                ("workload", Json::from(a.workload)),
                ("metric", Json::from(spec.name)),
                ("unit", Json::from(spec.unit)),
                ("bound", Json::from(spec.bound)),
                ("first", summary(&ma.samples)),
                ("second", summary(&mb.samples)),
                ("worse_by", Json::from(worse)),
                ("agrees", Json::from(agrees)),
            ]));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = Json::obj([
        ("schema", Json::from("glare.perf.baseline.v1")),
        ("seed", Json::from(seed)),
        ("seconds_per_run", Json::from(seconds)),
        ("nproc", Json::from(nproc)),
        (
            "note",
            Json::from("medians, quartiles and counts are over the rounds of one run; host-time values are this sandbox's"),
        ),
        ("agrees", Json::from(ok)),
        ("pairs", Json::arr(rows)),
    ]);
    match trace_file::write_out("agree.json", &doc.to_string_pretty()) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("perf agree: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
