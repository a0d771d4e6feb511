//! Regenerate Fig. 13: 1-minute load average under concurrent requesters
//! and notification sinks (discrete-event simulation).
//!
//! Pass `--json` for machine-readable output on stdout. Pass `--trace`
//! to additionally export the causal trace of the heaviest requester run
//! (250 clients) as Chrome `trace_event` JSON in `TRACE_fig13.json` and
//! print critical-path summaries. Always writes `BENCH_overlay.json`
//! with the series points plus trace-derived critical-path statistics
//! per run — requester runs rooted at `client.query` request spans,
//! sink runs at `notify.round` fan-out spans.

use glare_bench::args::{write_artifact, Args};
use glare_bench::fig13::{
    render, run_requesters_traced, run_sinks_traced, Fig13Params, REQUESTERS, SINKS, SINK_RATES_S,
};
use glare_bench::json::Json;
use glare_bench::trace::{chrome_trace_json, OverlayReport};
use glare_fabric::SimDuration;

fn main() {
    let mut args = Args::from_env();
    let (json_out, export_trace) = (args.flag("--json"), args.flag("--trace"));
    args.finish_or_exit();

    let p = Fig13Params::default();
    let mut report = OverlayReport::new("fig13", export_trace);
    let mut pts = Vec::new();
    for n in REQUESTERS {
        let (pt, sink) = run_requesters_traced(n, p);
        report.record(&format!("requesters x{n}"), pt.to_json(), &sink, "client.query");
        if export_trace && n == 250 {
            write_artifact("TRACE_fig13.json", &chrome_trace_json(&sink).to_string_pretty());
        }
        pts.push(pt);
    }
    for rate_s in SINK_RATES_S {
        for n in SINKS {
            let (pt, sink) = run_sinks_traced(n, SimDuration::from_secs(rate_s), p);
            report.record(&format!("sinks x{n} @{rate_s}s"), pt.to_json(), &sink, "notify.round");
            pts.push(pt);
        }
    }
    write_artifact("BENCH_overlay.json", &report.into_json().to_string_pretty());
    if json_out {
        print!("{}", Json::arr(pts.iter().map(|p| p.to_json())).to_string_pretty());
    } else {
        print!("{}", render(&pts));
    }
}
