//! Scale sweep driver: 1k → 10k sites (or `--smoke` for a CI-sized
//! 100/200-site pass). Prints the table on stdout and always writes
//! `BENCH_scale.json`.
//!
//! Flags:
//!   --smoke          CI-sized sweep (100 and 200 sites)
//!   --sites LIST     comma-separated site counts (default 1000,2500,5000,10000)
//!   --depth N        super-peer tree depth for the tree rows (default 3)
//!   --no-flood       skip the flat-broadcast baseline rows
//!   --json           machine-readable output on stdout instead of the table

use glare_bench::args::{write_artifact, Args};
use glare_bench::scale::{render, run, to_json, ScaleParams};

fn main() {
    let mut args = Args::from_env();
    let mut p = if args.flag("--smoke") {
        ScaleParams::smoke()
    } else {
        ScaleParams::default()
    };
    p.flood_baseline &= !args.flag("--no-flood");
    let json_out = args.flag("--json");
    args.set_list(&mut p.sites, "--sites", "comma-separated positive integers", |&n| n > 0);
    args.set(&mut p.tree_depth, "--depth", "an integer >= 2", |&d| d >= 2);
    args.finish_or_exit();

    let points = run(&p);
    let doc = to_json(&p, &points).to_string_pretty();
    write_artifact("BENCH_scale.json", &doc);
    if json_out {
        print!("{doc}");
    } else {
        print!("{}", render(&p, &points));
    }
}
