//! `load_2x` — open loop, Poisson arrivals in simulated time: `--bin load`'s
//! factor-2.0 point (three-tier gold 20 / silver 30 / best-effort 50 mix,
//! Zipf popularity, `AdmissionConfig::bounded(32)`, `RetryPolicy::standard`,
//! 20 ms request cost, event log on) widened from one entry site to 8 entry
//! sites of a 32-site overlay, each offered 240 req/s against its 200 req/s
//! capacity.
//!
//! Why it is here: the same kernel as `overlay_10k` in the opposite shape.
//! In-flight work is capped by the 32-slot inboxes, so the event queue stays
//! tiny and the node's ladder, admission, retry, `workload::engine`, labeled
//! `fabric::metrics` counters and `fabric::events` do the work.
//!
//! Latency is timed from the scheduled arrival (`TenantStats::latencies` is
//! offer-to-response), so RetryAfter waits count. The generator runs in
//! simulated time, so it is never late: generator lateness is zero by
//! construction, not by measurement.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use glare_bench::load::{invariant_violations, TenantRow};
use glare_core::admission::{AdmissionConfig, TenantClass};
use glare_core::model::{ActivityDeployment, ActivityType};
use glare_core::retry::RetryPolicy;
use glare_fabric::{SimDuration, SimTime, SiteId};
use glare_workload::{ArrivalStream, TenantLoad, TenantStats, WorkloadSpec};

use crate::des::{self, ActorSpans, WINDOW_SPAN};
use crate::micro;
use crate::round::{Clock, Digest, Round};
use crate::span::Tracer;
use crate::stats;
use crate::trace_file;
use crate::workloads::{des_layers, RoundCtx};

const SITES: usize = 32;
const ENTRY_SITES: usize = 8;
/// Offered per entry site: factor 2.0 of `--bin load`'s 120 req/s base.
const OFFERED_HZ: f64 = 240.0;
const REQUEST_COST: SimDuration = SimDuration::from_millis(20);
const INBOX_CAPACITY: u32 = 32;
const ARRIVAL_SECS: u64 = 200;
/// Longer than `RetryPolicy::standard`'s 30 s deadline, so at the horizon
/// every request has been answered or given up on and none is in flight.
const DRAIN_SECS: u64 = 35;
const EVENT_LOG_CAPACITY: usize = 200_000;
/// Span the tenant actors' callbacks are booked under.
const ENGINE_SPAN: &str = "workload.engine.handler";

pub fn run(ctx: &RoundCtx, clock: &mut Clock) -> Round {
    let tracer = Rc::new(RefCell::new(Tracer::new(ctx.traced)));
    let mut round = Round::default();
    let duration = SimDuration::from_secs(ARRIVAL_SECS);
    // Inputs from the seed: one arrival-stream spec per entry site (the
    // streams fork from the spec seed by tenant name) and the kernel seed.
    let specs: Vec<WorkloadSpec> = (0..ENTRY_SITES as u64)
        .map(|e| {
            WorkloadSpec::three_tier(
                ctx.seed.wrapping_mul(1_000).wrapping_add(e),
                duration,
                OFFERED_HZ,
            )
        })
        .collect();
    let catalogue = specs[0].activities.clone();

    let (mut sim, ids) = des::build_overlay(
        SITES,
        ctx.seed,
        &tracer,
        |_, cfg| {
            cfg.admission = AdmissionConfig::bounded(INBOX_CAPACITY);
            cfg.request_cost = REQUEST_COST;
            cfg.election_interval = None;
        },
        |i, node| {
            for name in &catalogue {
                node.atr
                    .register(
                        ActivityType::concrete_type(name, "bench", name),
                        SimTime::ZERO,
                    )
                    .expect("catalogue type registers");
                if i < ENTRY_SITES {
                    let d = ActivityDeployment::executable(
                        name,
                        &format!("site{i}"),
                        &format!("/opt/deployments/{name}/bin/{name}"),
                        &format!("/opt/deployments/{name}"),
                    );
                    node.adr
                        .register(d, &node.atr, SimTime::ZERO)
                        .expect("deployment registers");
                }
            }
        },
    );
    sim.enable_events(EVENT_LOG_CAPACITY);
    let engine_spans = ActorSpans::single(&mut tracer.borrow_mut(), ENGINE_SPAN);
    // stats[class][entry site]
    let mut tenant_stats = vec![Vec::new(); TenantClass::ALL.len()];
    for (e, spec) in specs.iter().enumerate() {
        for (t, tenant) in spec.tenants.iter().enumerate() {
            let s = TenantStats::shared();
            let load = TenantLoad::new(spec, t, ids[e], RetryPolicy::standard(), s.clone());
            des::add_timed(
                &mut sim,
                SiteId(e as u32),
                Box::new(load),
                engine_spans,
                &tracer,
            );
            tenant_stats[tenant.class.index()].push(s);
        }
    }
    sim.start();
    let window = tracer.borrow_mut().name(WINDOW_SPAN);

    clock.start_window();
    tracer.borrow_mut().enter(window);
    let events = sim.run_until(SimTime::from_secs(ARRIVAL_SECS + DRAIN_SECS));
    tracer.borrow_mut().exit();
    clock.end_window(&mut round);

    // Fold the per-tenant sinks into one row per class.
    let mut digest = Digest::default();
    let mut all_latencies: Vec<SimDuration> = Vec::new();
    let mut gold_latencies: Vec<SimDuration> = Vec::new();
    let mut rows: Vec<TenantRow> = Vec::new();
    for class in TenantClass::ALL {
        let mut row = TenantRow {
            name: class.label().to_owned(),
            class: class.label(),
            offered: 0,
            sent: 0,
            responses: 0,
            hits: 0,
            shed: 0,
            retries: 0,
            dropped: 0,
            goodput_hz: 0.0,
            success_ratio: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
        };
        for s in &tenant_stats[class.index()] {
            let s = s.lock();
            row.offered += s.offered;
            row.sent += s.sent;
            row.responses += s.responses;
            row.hits += s.hits;
            row.shed += s.shed;
            row.retries += s.retries;
            row.dropped += s.dropped;
            for v in [
                s.offered,
                s.sent,
                s.responses,
                s.hits,
                s.shed,
                s.retries,
                s.dropped,
            ] {
                digest.word(v);
            }
            for l in &s.latencies {
                digest.word(l.as_nanos());
            }
            all_latencies.extend_from_slice(&s.latencies);
            if class == TenantClass::Gold {
                gold_latencies.extend_from_slice(&s.latencies);
            }
        }
        row.goodput_hz = row.responses as f64 / ARRIVAL_SECS as f64;
        row.success_ratio = row.responses as f64 / row.offered.max(1) as f64;
        rows.push(row);
    }
    all_latencies.sort_unstable();
    gold_latencies.sort_unstable();
    let ms = |v: &[SimDuration], p: f64| stats::percentile(v, p).map_or(0.0, |d| d.as_millis_f64());
    let total = |f: fn(&TenantRow) -> u64| rows.iter().map(f).sum::<u64>();
    let (offered, responses, hits, dropped) = (
        total(|r| r.offered),
        total(|r| r.responses),
        total(|r| r.hits),
        total(|r| r.dropped),
    );
    let requests = sim.metrics().counter_value("glare.requests");

    round.attempted = offered;
    // Refused by admission after the retry budget is an outcome this
    // workload is built to produce (`refused`, counted against `ok_share`);
    // `failed` is a request with no outcome at the horizon or an empty one.
    round.failed = offered - responses - dropped + (responses - hits);
    round.set("ops", responses as f64);
    round.set("refused", dropped as f64);
    round.set("sim_p50_ms", ms(&all_latencies, 50.0));
    round.set("sim_p99_ms", ms(&all_latencies, 99.0));
    round.set("tail_samples", all_latencies.len() as f64);
    round.set("sim_goodput_hz", hits as f64 / ARRIVAL_SECS as f64);
    round.set(
        "sim_hops_per_query",
        requests as f64 / responses.max(1) as f64,
    );
    round.set("sim_events", events as f64);

    let violations = invariant_violations(&rows);
    round.check(violations == 0, || {
        format!("load_2x: {violations} admission-accounting invariant violation(s)")
    });
    let gold = &rows[TenantClass::Gold.index()];
    round.check(gold.success_ratio >= 0.9, || {
        format!(
            "load_2x: gold goodput {} of {} offered, not within 10%",
            gold.responses, gold.offered
        )
    });
    let failed = round.failed;
    round.check(failed == 0, || {
        format!("load_2x: {failed} requests unanswered or answered empty at the horizon")
    });

    // Server-side admission counters, summed over the entry sites.
    let by_class = |family: &str| {
        let mut v = [0u64; 3];
        for (labels, n) in sim.metrics().labeled_counters_of(family) {
            if let Some(class) = TenantClass::ALL
                .iter()
                .find(|c| Some(c.label()) == labels.get("class"))
            {
                v[class.index()] += n;
            }
        }
        v
    };
    let admitted = by_class("glare_admission_admitted_total");
    let shed = by_class("glare_admission_shed_total");
    for v in admitted.iter().chain(&shed) {
        digest.word(*v);
    }
    digest.word(events);
    digest.word(requests);
    let log = sim.events().expect("event log enabled");
    digest.text(&log.to_jsonl());
    round.digest = digest.value();

    if ctx.traced {
        let trace = tracer.replace(Tracer::new(false)).finish();
        let split = des_layers(&mut round, &trace, &sim, events, ENGINE_SPAN);
        let engine = trace.agg(ENGINE_SPAN);
        round.set("workload.engine.handler_ns", engine.mean_ns());
        round.set(
            "workload.engine.handler_share",
            split.load_ns / split.window_ns.max(1.0),
        );
        for class in TenantClass::ALL {
            let (a, s) = (admitted[class.index()], shed[class.index()]);
            round.set(
                &format!("glare_core.admission.shed_share_{}", class.label()),
                s as f64 / (a + s).max(1) as f64,
            );
        }
        round.set("glare_core.admission.gold_goodput_hz", gold.goodput_hz);
        round.set(
            "glare_core.admission.gold_p99_ms",
            ms(&gold_latencies, 99.0),
        );
        let ttl_released: u64 = sim
            .metrics()
            .labeled_counters_of("glare_inbox_ttl_released_total")
            .map(|(_, n)| n)
            .sum();
        round.set("glare_core.admission.ttl_released", ttl_released as f64);
        round.set(
            "glare_core.retry.retries_per_op",
            total(|r| r.retries) as f64 / offered.max(1) as f64,
        );
        let cache = |what: &str| -> u64 {
            (0..SITES)
                .map(|i| {
                    sim.metrics()
                        .counter_value(&format!("site{i}.cache.{what}"))
                })
                .sum()
        };
        let (hits, misses) = (cache("hits"), cache("misses"));
        round.set(
            "glare_core.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        round.set("fabric.events.recorded", log.len() as f64);
        round.set("fabric.events.dropped", log.dropped() as f64);
        if ctx.micro {
            // One tenant's schedule, generated again outside the set-up.
            let t0 = Instant::now();
            let stream = ArrivalStream::generate(&specs[0], 2);
            round.set(
                "workload.engine.generate_arrivals_per_s",
                stream.arrivals.len() as f64 / t0.elapsed().as_secs_f64(),
            );
            micro::queue(&mut round, sim.peak_queue_occupancy());
            micro::pingpong(&mut round);
            micro::metrics(&mut round);
        }
        trace_file::write(ctx.workload, &trace, &mut round);
    }
    round
}
