//! Regenerate Fig. 12: response time per deployment request — cache on
//! 1 site vs no cache on 1, 3, 7 sites (discrete-event simulation).
//!
//! Prints the series points as a table on stdout, or as a JSON array
//! with `--json`. Pass `--trace` to additionally export the causal trace
//! of the richest configuration (7 sites, no cache) as Chrome
//! `trace_event` JSON in `TRACE_fig12.json` and print a critical-path
//! summary per configuration on stderr. Always writes `BENCH_overlay.json` with the series
//! points plus trace-derived critical-path statistics per run.

use glare_bench::args::{write_artifact, Args};
use glare_bench::fig12::{run_config, Fig12Params, CONFIGS};
use glare_bench::json::Json;
use glare_bench::trace::{chrome_trace_json, OverlayReport};

fn main() {
    let mut args = Args::from_env();
    let (json_out, export_trace) = (args.flag("--json"), args.flag("--trace"));
    args.finish_or_exit();

    let p = Fig12Params::default();
    let mut report = OverlayReport::new("fig12", export_trace);
    let mut pts = Vec::new();
    for (sites, cache) in CONFIGS {
        let (pt, sink) = run_config(sites, cache, p, true);
        report.record(&pt.label(), pt.to_json(), &sink, "client.query");
        if export_trace && sites == 7 {
            write_artifact("TRACE_fig12.json", &chrome_trace_json(&sink).to_string_pretty());
        }
        pts.push(pt.to_json());
    }
    write_artifact("BENCH_overlay.json", &report.into_json().to_string_pretty());
    let pts = Json::Arr(pts);
    print!("{}", if json_out { pts.to_string_pretty() } else { pts.to_text() });
}
