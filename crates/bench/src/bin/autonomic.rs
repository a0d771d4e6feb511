//! Autonomic healing driver: flash crowd + site crashes with the
//! placement controller closing the telemetry loop (or not, with
//! `--disabled`). Prints the summary on stdout, always
//! writes `BENCH_autonomic.json`, and then exits 1 if the report lists a
//! violation.
//!
//! Flags:
//!   --smoke       accepted for symmetry with the other harnesses: it
//!                 selects the default run, which is already CI-sized
//!   --sites N     grid size (default 8, minimum 6)
//!   --seed N      master seed (default 4213)
//!   --disabled    build no controller: the same chaos and load with the
//!                 initial placement left as it is
//!   --json        machine-readable output on stdout instead of the table

use glare_bench::args::{exit_on_violations, write_artifact, Args};
use glare_bench::autonomic::{render, run, AutonomicParams, ControllerMode};

fn main() {
    let mut args = Args::from_env();
    args.flag("--smoke"); // the default run is the smoke run
    let mut p = AutonomicParams::default();
    if args.flag("--disabled") {
        p.mode = ControllerMode::Disabled;
    }
    let json_out = args.flag("--json");
    args.set(&mut p.sites, "--sites", "an integer >= 6", |&n| n >= 6);
    args.set(&mut p.seed, "--seed", "an integer", |_| true);
    args.finish_or_exit();

    let report = run(&p);
    let doc = report.to_json().to_string_pretty();
    write_artifact("BENCH_autonomic.json", &doc);
    if json_out {
        print!("{doc}");
    } else {
        print!("{}", render(&report));
    }
    exit_on_violations(report.violations.len());
}
