//! Load sweep driver: offered load vs. per-tenant goodput past
//! saturation (or `--smoke` for a CI-sized pass). Prints the table on
//! stdout and always writes `BENCH_load.json`.
//!
//! Flags:
//!   --smoke          CI-sized sweep (factors 0.5/1.0/2.0, short window)
//!   --sites N        overlay size (default 8)
//!   --seed N         master seed (default 4207)
//!   --capacity N     bounded-inbox capacity (default 32)
//!   --factors LIST   comma-separated rate multipliers (default 0.5,1,1.5,2)
//!   --no-backpressure  disable admission control (observe-only check)
//!   --json           machine-readable output on stdout instead of the table

use glare_bench::args::{write_artifact, Args};
use glare_bench::load::{render, run, to_json, LoadParams};

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
    let doc = to_json(&p, &points).to_string_pretty();
    write_artifact("BENCH_load.json", &doc);
    if json_out {
        print!("{doc}");
    } else {
        print!("{}", render(&p, &points));
    }
}
