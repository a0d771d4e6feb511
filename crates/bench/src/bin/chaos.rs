//! Chaos soak driver: randomized fault schedules (outages, a partition,
//! a flapping link) swept over message-loss rates, plus the Grid-phase
//! lease workload under a crash/restart, with post-heal invariant checks.
//!
//! Flags:
//! * `--json`   — machine-readable report on stdout instead of tables.
//! * `--smoke`  — small fixed configuration for CI (one loss point ≥ 1%).
//! * `--sites N` / `--clients N` / `--queries N` / `--seed N` —
//!   scenario overrides (defaults: 6 sites, 12 clients, 10 queries,
//!   seed 7331).
//!
//! Always writes three artifacts to the working directory:
//! * `BENCH_chaos.json`    — the report (sweep rows, grid phase,
//!   invariant violations; byte-identical per seed).
//! * `BENCH_recovery.json` — crash-to-rejoin recovery-time percentiles
//!   per loss point and overall, plus the Grid restart's replay.
//! * `CHAOS_events.jsonl`  — every run's structured event log.
//!
//! Exits non-zero when any invariant is violated, so CI can gate on it.

use glare_bench::args::{warn_telemetry, write_artifact, Args};
use glare_bench::chaos::{render, run, ChaosParams};

fn main() {
    let mut args = Args::from_env();
    let json_out = args.flag("--json");
    let mut p = if args.flag("--smoke") {
        ChaosParams::smoke()
    } else {
        ChaosParams::default()
    };
    args.set(&mut p.sites, "--sites", "an integer", |_| true);
    args.set(&mut p.clients, "--clients", "an integer", |_| true);
    args.set(&mut p.queries_per_client, "--queries", "an integer", |_| true);
    args.set(&mut p.seed, "--seed", "an integer", |_| true);
    args.finish_or_exit();

    let r = run(p);
    let doc = r.to_json().to_string_pretty();
    write_artifact("BENCH_chaos.json", &doc);
    write_artifact("BENCH_recovery.json", &r.to_recovery_json().to_string_pretty());
    let mut events: String = r.rows.iter().map(|row| row.events_jsonl.as_str()).collect();
    events.push_str(&r.grid.events_jsonl);
    write_artifact("CHAOS_events.jsonl", &events);

    warn_telemetry(r.events_dropped, &r.lint);
    if json_out {
        print!("{doc}");
    } else {
        print!("{}", render(&r));
    }
    if !r.invariant_violations.is_empty() {
        eprintln!("FAIL: {} invariant violation(s)", r.invariant_violations.len());
        std::process::exit(1);
    }
}
