//! Gray-failure resilience driver: a slow super-peer and a degraded
//! trunk link under closed-loop query load, run in both modes
//! (hedging+suspicion enabled / disabled). Always writes
//! `BENCH_grayfail.json`, prints it on stdout (as text, or as that JSON
//! with `--json`), and then exits 1 if either mode lists a violation.
//!
//! Flags:
//!   --smoke       accepted for symmetry with the other harnesses: it
//!                 selects the default run, which is already CI-sized
//!   --seed N      master seed (default 2026)
//!   --slow F      gray-phase compute slowdown factor, 1..=1000 (default 150)
//!   --json        the document as JSON on stdout instead of as text

use glare_bench::args::{exit_on_violations, write_artifact, Args};
use glare_bench::grayfail::{run, GrayfailParams};

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
    let doc = report.to_json();
    let pretty = doc.to_string_pretty();
    write_artifact("BENCH_grayfail.json", &pretty);
    print!("{}", if json_out { pretty } else { doc.to_text() });
    exit_on_violations(report.runs.iter().map(|m| m.violations.len()).sum());
}
