//! Gray-failure resilience driver: a slow super-peer and a degraded
//! trunk link under closed-loop query load, run in both modes
//! (hedging+suspicion enabled / disabled). Prints the summary on stdout,
//! always writes `BENCH_grayfail.json`, and then exits 1 if either mode
//! lists a violation.
//!
//! Flags:
//!   --smoke       accepted for symmetry with the other harnesses: it
//!                 selects the default run, which is already CI-sized
//!   --seed N      master seed (default 2026)
//!   --slow F      gray-phase compute slowdown factor, 1..=1000 (default 150)
//!   --json        machine-readable output on stdout instead of the table

use glare_bench::args::{exit_on_violations, write_artifact, Args};
use glare_bench::grayfail::{render, run, GrayfailParams};

fn main() {
    let mut args = Args::from_env();
    args.flag("--smoke"); // the default run is the smoke run
    let mut p = GrayfailParams::default();
    let json_out = args.flag("--json");
    args.set(&mut p.seed, "--seed", "an integer", |_| true);
    args.set(&mut p.slow_factor, "--slow", "a factor in 1.0..=1000.0", |f| {
        (1.0..=1000.0).contains(f)
    });
    args.finish_or_exit();

    let report = run(&p);
    let doc = report.to_json().to_string_pretty();
    write_artifact("BENCH_grayfail.json", &doc);
    if json_out {
        print!("{doc}");
    } else {
        print!("{}", render(&report));
    }
    exit_on_violations(report.runs.iter().map(|m| m.violations.len()).sum());
}
