//! Load sweep driver: offered load vs. per-tenant goodput past
//! saturation (or `--smoke` for a CI-sized pass). Always writes
//! `BENCH_load.json`, prints it on stdout (as text, or as that JSON with
//! `--json`), and then exits 1 if any point counts an invariant violation.
//!
//! Flags:
//!   --smoke          CI-sized sweep (factors 0.5/1.0/2.0, short window)
//!   --sites N        overlay size (default 8)
//!   --seed N         master seed (default 4207)
//!   --capacity N     bounded-inbox capacity (default 32)
//!   --factors LIST   comma-separated rate multipliers (default 0.5,1,1.5,2)
//!   --no-backpressure  disable admission control (observe-only check)
//!   --json           the document as JSON on stdout instead of as text

use glare_bench::args::{exit_on_violations, write_artifact, Args};
use glare_bench::load::{run, to_json, LoadParams};

fn main() {
    let mut args = Args::from_env();
    let mut p = if args.flag("--smoke") {
        LoadParams::smoke()
    } else {
        LoadParams::default()
    };
    p.backpressure &= !args.flag("--no-backpressure");
    let json_out = args.flag("--json");
    args.set(&mut p.sites, "--sites", "a positive integer", |&n| n > 0);
    args.set(&mut p.seed, "--seed", "an integer", |_| true);
    args.set(&mut p.capacity, "--capacity", "a positive integer", |&c| c > 0);
    args.set_list(&mut p.factors, "--factors", "comma-separated positive numbers", |&f| f > 0.0);
    args.finish_or_exit();

    let points = run(&p);
    let doc = to_json(&p, &points);
    let pretty = doc.to_string_pretty();
    write_artifact("BENCH_load.json", &pretty);
    print!("{}", if json_out { pretty } else { doc.to_text() });
    exit_on_violations(points.iter().map(|pt| pt.invariant_violations as usize).sum());
}
