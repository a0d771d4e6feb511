//! Regenerate Fig. 10: registry vs index throughput over concurrent
//! clients, http and https. Every run writes the result document to
//! `BENCH_registry.json` (clients → requests/s per service/transport) and
//! prints it on stdout: as text, or as that JSON with `--json`. Pass
//! `--quick` for a short run.

use std::time::Duration;

use glare_bench::args::{write_artifact, Args};

fn main() {
    let mut args = Args::from_env();
    let (quick, json_out) = (args.flag("--quick"), args.flag("--json"));
    args.finish_or_exit();
    let per_point = Duration::from_millis(if quick { 300 } else { 1500 });
    let clients = [1usize, 2, 4, 6, 8, 10, 12, 16];
    let resources = 60;
    let pts = glare_bench::fig10::run(&clients, resources, per_point);
    let doc = glare_bench::fig10::results_json(&pts);
    let pretty = doc.to_string_pretty();
    write_artifact("BENCH_registry.json", &pretty);
    print!("{}", if json_out { pretty } else { doc.to_text() });
}
