//! Acceptance tests for the causal tracing subsystem: tracing is
//! observe-only (points match untraced runs), and the exported Chrome
//! `trace_event` JSON is byte-identical across same-seed runs.

use glare_bench::fig12::{run_config, Fig12Params};
use glare_bench::fig13::{run_requesters, Fig13Params};
use glare_bench::trace::{chrome_trace_json, critical_paths, render_summary, CriticalPathStats};
use glare_fabric::SimDuration;

fn quick() -> Fig12Params {
    Fig12Params {
        clients: 10,
        queries_per_client: 6,
        think: SimDuration::from_millis(100),
        types: 10,
        seed: 42,
    }
}

#[test]
fn chrome_export_is_byte_identical_across_runs() {
    let (_, a) = run_config(3, false, quick(), true);
    let (_, b) = run_config(3, false, quick(), true);
    let ja = chrome_trace_json(&a).to_string_pretty();
    let jb = chrome_trace_json(&b).to_string_pretty();
    assert!(!a.is_empty(), "traced run must record spans");
    assert_eq!(a.dropped(), 0, "quick run fits the span bound");
    assert_eq!(ja, jb, "same seed must yield byte-identical trace output");
    // Shape of a valid Chrome trace_event file.
    assert!(ja.starts_with('{'));
    assert!(ja.contains("\"traceEvents\""));
    assert!(ja.contains("\"ph\": \"X\""));
    assert!(ja.contains("\"displayTimeUnit\": \"ms\""));
}

#[test]
fn tracing_is_observe_only() {
    let (plain, _) = run_config(3, false, quick(), false);
    let (traced, _) = run_config(3, false, quick(), true);
    assert_eq!(plain.mean_ms, traced.mean_ms, "tracing must not perturb timing");
    assert_eq!(plain.p95_ms, traced.p95_ms);
    assert_eq!(plain.requests, traced.requests);
}

#[test]
fn critical_paths_cover_every_request() {
    let p = quick();
    let (pt, sink) = run_config(3, false, p, true);
    let paths = critical_paths(&sink, Some("client.query"));
    assert_eq!(
        paths.len() as u64,
        pt.requests,
        "one client.query root span per measured request"
    );
    let stats = CriticalPathStats::of(&paths);
    assert!(stats.mean > SimDuration::ZERO);
    assert!(stats.max >= stats.mean);
    // Remote resolution involves the wire, the CPU and (under load) the
    // run queue; the breakdown must see at least network and compute.
    assert!(stats.mean_network > SimDuration::ZERO, "no-cache runs probe remote sites");
    assert!(stats.mean_compute > SimDuration::ZERO, "requests charge CPU");
    for path in &paths {
        let parts = path.network + path.compute + path.queueing + path.other;
        assert_eq!(
            parts, path.total,
            "per-hop exclusive times must partition the end-to-end latency"
        );
    }
    let summary = render_summary("3 site(s), no cache", &paths);
    assert!(summary.contains("Critical path"));
    assert!(summary.contains("network"));
}

#[test]
fn fig13_requester_traces_are_deterministic() {
    let p = Fig13Params {
        window: SimDuration::from_secs(60),
        seed: 7,
    };
    let (_, a) = run_requesters(25, p, true);
    let (_, b) = run_requesters(25, p, true);
    assert_eq!(
        chrome_trace_json(&a).to_string_pretty(),
        chrome_trace_json(&b).to_string_pretty()
    );
    assert!(!critical_paths(&a, Some("client.query")).is_empty());
}
