//! Autonomic healing driver: flash crowd + site crashes with the
//! placement controller closing the telemetry loop (or not, with
//! `--disabled` / `--absent`). Prints the summary on stdout and always
//! writes `BENCH_autonomic.json`.
//!
//! Flags:
//!   --smoke       CI-sized scenario (the default scenario, pinned seed)
//!   --sites N     grid size (default 8, minimum 6)
//!   --seed N      master seed (default 4213)
//!   --disabled    construct the controllers but keep them off
//!   --absent      never construct the controllers (baseline for the
//!                 observe-only identity check)
//!   --json        machine-readable output on stdout instead of the table

use glare_bench::args::{write_artifact, Args};
use glare_bench::autonomic::{render, run, AutonomicParams, ControllerMode};

fn main() {
    let mut args = Args::from_env();
    let mut p = if args.flag("--smoke") {
        AutonomicParams::smoke()
    } else {
        AutonomicParams::default()
    };
    if args.flag("--disabled") {
        p.mode = ControllerMode::Disabled;
    }
    if args.flag("--absent") {
        p.mode = ControllerMode::Absent;
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
}
