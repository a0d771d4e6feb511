//! Live monitoring report for the RDM monitors: runs the health-telemetry
//! scenario (overlay under load with a super-peer crash, then a
//! provisioned Grid driven through monitor ticks) and renders per-site /
//! per-group health tables.
//!
//! Flags:
//! * `--json`    — machine-readable report on stdout instead of tables.
//! * `--watch`   — additionally print windowed-gauge samples over
//!   sim-time (the "live" view of `glare_site_load1m` and
//!   `glare_cache_hit_ratio`).
//! * `--sites N` / `--clients N` / `--queries N` / `--seed N` — scenario
//!   overrides (defaults: 5 sites, 15 clients, 12 queries, seed 4711).
//! * `--loss N`  — drop N per-mille of overlay messages (0..=1000,
//!   default 0), so the per-site dropped-by-loss column shows a degraded
//!   network.
//! * `--tenants N` — attach N multi-tenant load lanes (classes cycle
//!   gold/silver/best-effort) behind a tiny bounded inbox at site 0, so
//!   the report grows per-class admitted/shed/retry-after columns.
//! * `--gray`    — turn on the gray-failure stack (adaptive suspicion +
//!   hedged probes), populating the per-site suspicion-level and hedges
//!   fired/won/wasted columns. Off by default; the columns then read
//!   zero and the legacy scenario is byte-identical.
//! * `--smoke`   — small fixed configuration for CI.
//!
//! Always writes three artifacts to the working directory:
//! * `BENCH_health.json`    — the report (sites, groups, watch samples).
//! * `HEALTH_events.jsonl`  — both phases' structured event logs.
//! * `HEALTH_metrics.prom`  — both registries' text exposition.

use glare_bench::args::{warn_telemetry, write_artifact, Args};
use glare_bench::health::{render, render_watch, run, HealthParams};

fn main() {
    let mut args = Args::from_env();
    let (json_out, watch) = (args.flag("--json"), args.flag("--watch"));
    let mut p = if args.flag("--smoke") {
        HealthParams::smoke()
    } else {
        HealthParams::default()
    };
    args.set(&mut p.sites, "--sites", "an integer", |_| true);
    args.set(&mut p.clients, "--clients", "an integer", |_| true);
    args.set(&mut p.queries_per_client, "--queries", "an integer", |_| true);
    args.set(&mut p.seed, "--seed", "an integer", |_| true);
    if let Some(loss) = args.per_mille("--loss") {
        p.loss = loss;
    }
    args.set(&mut p.tenants, "--tenants", "an integer", |_| true);
    p.gray |= args.flag("--gray");
    args.finish_or_exit();

    let r = run(p);
    let doc = r.to_json().to_string_pretty();
    write_artifact("BENCH_health.json", &doc);
    let events = format!("{}{}", r.overlay_events_jsonl, r.grid_events_jsonl);
    write_artifact("HEALTH_events.jsonl", &events);
    let prom = format!(
        "# overlay registry\n{}# grid registry\n{}",
        r.overlay_exposition, r.grid_exposition
    );
    write_artifact("HEALTH_metrics.prom", &prom);

    warn_telemetry(r.events_dropped, &r.lint);
    if json_out {
        print!("{doc}");
    } else {
        print!("{}", render(&r));
        if watch {
            println!();
            print!("{}", render_watch(&r));
        }
    }
}
