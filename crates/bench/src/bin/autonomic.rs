//! Autonomic healing driver: flash crowd + site crashes with the
//! placement controller closing the telemetry loop (or not, with
//! `--disabled`). Always writes `BENCH_autonomic.json`, prints it on
//! stdout (as text, or as that JSON with `--json`), and then exits 1 if
//! the report lists a violation.
//!
//! Flags:
//!   --smoke       accepted for symmetry with the other harnesses: it
//!                 selects the default run, which is already CI-sized
//!   --sites N     grid size (default 8, minimum 6)
//!   --seed N      master seed (default 4213)
//!   --disabled    build no controller: the same chaos and load with the
//!                 initial placement left as it is
//!   --json        the document as JSON on stdout instead of as text

use glare_bench::args::{exit_on_violations, write_artifact, Args};
use glare_bench::autonomic::{run, AutonomicParams, ControllerMode};

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
    let doc = report.to_json();
    let pretty = doc.to_string_pretty();
    write_artifact("BENCH_autonomic.json", &pretty);
    print!("{}", if json_out { pretty } else { doc.to_text() });
    exit_on_violations(report.violations.len());
}
