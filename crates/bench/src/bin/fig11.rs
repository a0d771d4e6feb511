//! Regenerate Fig. 11: throughput vs number of registered activity types.
//! Pass `--quick` for a short run and `--json` for machine-readable output.

use std::time::Duration;

use glare_bench::args::Args;
use glare_bench::json::Json;

fn main() {
    let mut args = Args::from_env();
    let (quick, json_out) = (args.flag("--quick"), args.flag("--json"));
    args.finish_or_exit();
    let per_point = Duration::from_millis(if quick { 250 } else { 1200 });
    let resources = [10usize, 30, 70, 110, 130, 170, 230, 300];
    let clients = 12; // >10, the regime where the paper's index stalled
    let pts = glare_bench::fig11::run(&resources, clients, per_point);
    if json_out {
        print!("{}", Json::arr(pts.iter().map(|p| p.to_json())).to_string_pretty());
    } else {
        print!("{}", glare_bench::fig11::render(&pts));
        println!("(fixed {clients} concurrent clients)");
    }
}
