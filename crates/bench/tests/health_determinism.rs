//! Acceptance tests for the health-telemetry subsystem: instrumentation
//! is observe-only (an instrumented run is event-for-event identical to a
//! plain run), and every artifact `healthreport` writes — the two metrics
//! expositions, the two event logs, the report JSON — is byte-identical
//! across same-seed runs.

use glare_bench::health::{run, run_overlay, HealthParams};

#[test]
fn telemetry_is_observe_only() {
    let p = HealthParams::smoke();
    let (_, plain, _) = run_overlay(p, false);
    let (mut sim, instrumented, _) = run_overlay(p, true);
    assert_eq!(
        plain, instrumented,
        "event log + tracing must not change what the simulation computes"
    );
    let events = sim.take_events().expect("instrumented run records events");
    assert!(!events.is_empty(), "the run produced event records");
    assert_eq!(events.dropped(), 0, "smoke run fits the event bound");
    // The same sim-world happened; the instrumented run merely wrote it
    // down: every record is attributed and sim-time stamped.
    for r in events.records() {
        assert!(!r.kind.is_empty());
        assert!(!r.component.is_empty());
    }
}

#[test]
fn health_artifacts_are_byte_identical_across_same_seed_runs() {
    let p = HealthParams::smoke();
    let a = run(p);
    let b = run(p);
    assert_eq!(a.overlay_exposition, b.overlay_exposition);
    assert_eq!(a.grid_exposition, b.grid_exposition);
    assert_eq!(a.overlay_events_jsonl, b.overlay_events_jsonl);
    assert_eq!(a.grid_events_jsonl, b.grid_events_jsonl);
    assert_eq!(
        a.to_json().to_string_pretty(),
        b.to_json().to_string_pretty(),
        "BENCH_health.json must be byte-identical for the same seed"
    );
}

#[test]
fn event_jsonl_replays_in_order_with_contiguous_seqs() {
    let r = run(HealthParams::smoke());
    let mut last_seq = None;
    let mut last_t = 0i128;
    for line in r.overlay_events_jsonl.lines() {
        assert!(line.starts_with("{\"seq\":"), "JSONL record shape: {line}");
        let seq: u64 = line["{\"seq\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        if let Some(prev) = last_seq {
            assert_eq!(seq, prev + 1, "no gaps when nothing was dropped");
        }
        last_seq = Some(seq);
        let t_ns: i128 = line.split("\"t_ns\":").nth(1).unwrap()
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(t_ns >= last_t, "records are sim-time ordered");
        last_t = t_ns;
    }
    assert!(last_seq.is_some(), "overlay phase logged events");
}
