//! Chaos soak driver: randomized fault schedules (outages, a partition,
//! a flapping link) swept over message-loss rates, plus the Grid-phase
//! lease workload under a crash/restart, with post-heal invariant checks.
//!
//! Flags:
//! * `--json`   — `BENCH_chaos.json` on stdout instead of the text below.
//! * `--smoke`  — small fixed configuration for CI (one loss point ≥ 1%).
//! * `--sites N` / `--clients N` / `--queries N` / `--seed N` —
//!   scenario overrides (defaults: 6 sites, 12 clients, 10 queries,
//!   seed 7331; `--sites` below 4 exits 2).
//!
//! Always writes three artifacts to the working directory:
//! * `BENCH_chaos.json`    — the report (sweep rows, grid phase,
//!   invariant violations; byte-identical per seed).
//! * `BENCH_recovery.json` — crash-to-rejoin recovery-time percentiles
//!   per loss point and overall, plus the Grid restart's replay.
//! * `CHAOS_events.jsonl`  — every run's structured event log.
//!
//! Prints `BENCH_chaos.json` and then `BENCH_recovery.json` as text on
//! stdout. Exits non-zero when any invariant is violated, so CI can gate
//! on it.

use glare_bench::args::{exit_on_violations, warn_telemetry, write_artifact, Args};
use glare_bench::chaos::{run, ChaosParams, MIN_SITES};

fn main() {
    let mut args = Args::from_env();
    let json_out = args.flag("--json");
    let mut p = if args.flag("--smoke") {
        ChaosParams::smoke()
    } else {
        ChaosParams::default()
    };
    let at_least = format!("an integer >= {MIN_SITES}");
    args.set(&mut p.sites, "--sites", &at_least, |&n| n >= MIN_SITES);
    args.set(&mut p.clients, "--clients", "an integer", |_| true);
    args.set(&mut p.queries_per_client, "--queries", "an integer", |_| true);
    args.set(&mut p.seed, "--seed", "an integer", |_| true);
    args.finish_or_exit();

    let r = run(p);
    let (doc, recovery) = (r.to_json(), r.to_recovery_json());
    let pretty = doc.to_string_pretty();
    write_artifact("BENCH_chaos.json", &pretty);
    write_artifact("BENCH_recovery.json", &recovery.to_string_pretty());
    let mut events: String = r.rows.iter().map(|row| row.events_jsonl.as_str()).collect();
    events.push_str(&r.grid.events_jsonl);
    write_artifact("CHAOS_events.jsonl", &events);

    warn_telemetry(r.events_dropped, &r.lint);
    if json_out {
        print!("{pretty}");
    } else {
        print!("{}\n{}", doc.to_text(), recovery.to_text());
    }
    exit_on_violations(r.invariant_violations.len());
}
