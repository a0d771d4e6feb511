//! Scale sweep driver: 1k → 10k sites (or `--smoke` for a CI-sized
//! 100/200-site pass). Always writes `BENCH_scale.json` and prints it on
//! stdout: as text, or as that JSON with `--json`.
//!
//! Flags:
//!   --smoke          CI-sized sweep (100 and 200 sites)
//!   --sites LIST     comma-separated site counts, each >= 2 (default 1000,2500,5000,10000)
//!   --depth N        super-peer tree depth for the tree rows (default 3)
//!   --no-flood       skip the flat-broadcast baseline rows
//!   --json           the document as JSON on stdout instead of as text

use glare_bench::args::{write_artifact, Args};
use glare_bench::scale::{run, to_json, ScaleParams, MIN_SITES};

fn main() {
    let mut args = Args::from_env();
    let mut p = if args.flag("--smoke") {
        ScaleParams::smoke()
    } else {
        ScaleParams::default()
    };
    p.flood_baseline &= !args.flag("--no-flood");
    let json_out = args.flag("--json");
    let at_least = format!("comma-separated integers >= {MIN_SITES}");
    args.set_list(&mut p.sites, "--sites", &at_least, |&n| n >= MIN_SITES);
    args.set(&mut p.tree_depth, "--depth", "an integer >= 2", |&d| d >= 2);
    args.finish_or_exit();

    let points = run(&p);
    let doc = to_json(&p, &points);
    let pretty = doc.to_string_pretty();
    write_artifact("BENCH_scale.json", &pretty);
    print!("{}", if json_out { pretty } else { doc.to_text() });
}
