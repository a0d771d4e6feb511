//! Isolated micro-measurements of single layers, run inside a traced round
//! at the sizes that round observed. Each one answers "how fast is this
//! layer alone", so a claim about a layer can be checked without the
//! workload around it. None feeds an end-to-end metric.

use std::hint::black_box;
use std::time::{Duration, Instant};

use glare_fabric::{
    Actor, Ctx, Envelope, EventKey, EventQueue, Histogram, Labels, MetricsRegistry, SchedulerKind,
    SimDuration, SimRng, SimTime, Simulation, SiteId, SiteStore, Topology,
};
use glare_services::{
    download, packages, run_expect, ExpectScript, Md5Digest, Repository, SiteHost, VPath,
};
use glare_wsrf::{XPath, XPathMemo, XmlNode};

use crate::round::Round;

/// Host time each micro-measurement may take.
const BUDGET: Duration = Duration::from_millis(120);

/// Call `f` in batches until [`BUDGET`] is spent; mean ns per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..16 {
        f();
    }
    let (mut calls, start) = (0u64, Instant::now());
    while start.elapsed() < BUDGET {
        for _ in 0..64 {
            f();
        }
        calls += 64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Delay mix of the overlay: mostly sub-millisecond wire hops, a slice of
/// ~100 ms probe deadlines, a tail of 10–30 s heartbeat timers (the mix of
/// the repo's `event_queue` bench).
fn draw_delay(rng: &mut SimRng) -> u64 {
    match rng.range(0, 100) {
        0..=69 => rng.range(10_000, 2_000_000),
        70..=89 => rng.range(1_000_000, 200_000_000),
        _ => rng.range(10_000_000_000, 30_000_000_000),
    }
}

/// Hold-model churn on one queue kind at `pending` occupancy: pops and
/// pushes timed apart, in batches so one clock read covers many calls.
/// Returns (push ns, pop ns).
fn queue_kind(kind: SchedulerKind, pending: usize) -> (f64, f64) {
    const BATCH: usize = 512;
    let mut q = EventQueue::new(kind, pending);
    let mut rng = SimRng::from_seed(99).fork("perf/queue");
    let mut seq = 0u64;
    let mut push = |q: &mut EventQueue, at: u64| {
        q.push(EventKey {
            at: SimTime::from_nanos(at),
            seq,
            slot: 0,
        });
        seq += 1;
    };
    for _ in 0..pending.max(BATCH) {
        let at = rng.range(0, 30_000_000_000);
        push(&mut q, at);
    }
    let mut due = [0u64; BATCH];
    let (mut push_ns, mut pop_ns, mut ops) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    let mut warm = pending / BATCH + 1;
    while start.elapsed() < BUDGET || warm > 0 {
        let t0 = Instant::now();
        for slot in &mut due {
            *slot = q.pop().expect("hold model never drains").at.as_nanos();
        }
        let t1 = Instant::now();
        for slot in &mut due {
            *slot += draw_delay(&mut rng);
        }
        let t2 = Instant::now();
        for &at in &due {
            push(&mut q, at);
        }
        let t3 = Instant::now();
        // The first lap over the initial population settles the calendar's
        // bucket width; it is not counted.
        if warm > 0 {
            warm -= 1;
            continue;
        }
        pop_ns += (t1 - t0).as_nanos();
        push_ns += (t3 - t2).as_nanos();
        ops += BATCH as u64;
    }
    let ops = ops.max(1) as f64;
    (push_ns as f64 / ops, pop_ns as f64 / ops)
}

/// `fabric.queue.*_ns` at the occupancy the workload reached.
pub fn queue(round: &mut Round, pending: usize) {
    let (push, pop) = queue_kind(SchedulerKind::Calendar, pending);
    round.set("fabric.queue.calendar_push_ns", push);
    round.set("fabric.queue.calendar_pop_ns", pop);
    let (push, pop) = queue_kind(SchedulerKind::BinaryHeap, pending);
    round.set("fabric.queue.heap_push_ns", push);
    round.set("fabric.queue.heap_pop_ns", pop);
}

/// Bounces every message straight back; the handler does nothing else.
struct Bouncer;

impl Actor for Bouncer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        ctx.send(env.from, ());
    }
}

/// `fabric.sim.pingpong_events_per_s`: two empty-handler actors on two
/// sites bouncing one message — the kernel's ceiling, comparable with a
/// generic engine's ping-pong figure.
pub fn pingpong(round: &mut Round) {
    let mut sim = Simulation::new(Topology::uniform(2), 7);
    let a = sim.add_actor(SiteId(0), Box::new(Bouncer));
    let b = sim.add_actor(SiteId(1), Box::new(Bouncer));
    sim.inject(SimTime::ZERO, a, b, ());
    sim.start();
    let (mut events, start) = (0u64, Instant::now());
    while start.elapsed() < BUDGET {
        events += sim.run_for(SimDuration::from_secs(60));
    }
    round.set(
        "fabric.sim.pingpong_events_per_s",
        events as f64 / start.elapsed().as_secs_f64(),
    );
}

/// `fabric.metrics.*`: a labeled-counter bump with the labels already
/// built, and a quantile read of a 10^5-sample histogram right after one
/// more sample was recorded (the read the health report does per tick).
pub fn metrics(round: &mut Round) {
    let mut reg = MetricsRegistry::new();
    let labels = Labels::of(&[("class", "gold"), ("site", "site0")]);
    round.set(
        "fabric.metrics.counter_labeled_ns",
        ns_per_call(|| {
            reg.counter_labeled("glare_admission_admitted_total", &labels)
                .inc()
        }),
    );
    let mut h = Histogram::default();
    let mut rng = SimRng::from_seed(5).fork("perf/histogram");
    for _ in 0..100_000 {
        h.record(SimDuration::from_nanos(rng.range(1, 1_000_000_000)));
    }
    let ns = ns_per_call(|| {
        h.record(SimDuration::from_nanos(rng.range(1, 1_000_000_000)));
        black_box(h.quantile(0.99));
    });
    round.set("fabric.metrics.histogram_quantile_us", ns / 1e3);
}

/// `wsrf.xpath.*` on the aggregate document the registries serve:
/// compiling a by-name query, evaluating it, and how often a memo like the
/// one the services keep spares the compile when fed `queries` in order.
pub fn xpath(round: &mut Round, aggregate: &XmlNode, queries: &[String]) {
    let mut i = 0usize;
    let mut next = || {
        i = (i + 1) % queries.len();
        queries[i].as_str()
    };
    round.set(
        "wsrf.xpath.compile_ns",
        ns_per_call(|| {
            black_box(XPath::compile(next()).expect("query compiles"));
        }),
    );
    let compiled: Vec<XPath> = queries
        .iter()
        .map(|q| XPath::compile(q).expect("query compiles"))
        .collect();
    let mut j = 0usize;
    round.set(
        "wsrf.xpath.select_ns",
        ns_per_call(|| {
            j = (j + 1) % compiled.len();
            black_box(compiled[j].select(aggregate).len());
        }),
    );
    let memo = XPathMemo::new();
    for q in queries {
        memo.get_or_compile(q).expect("query compiles");
    }
    let (hits, misses) = (memo.hits() as f64, memo.misses() as f64);
    round.set("wsrf.xpath.memo_hit_ratio", hits / (hits + misses).max(1.0));
}

/// `services.md5.mb_per_s`, `services.gridftp.get_us`,
/// `services.expect.run_us`: the service calls under a package install, at
/// the Wien2k archive's size.
pub fn services(round: &mut Round) {
    let wien2k = packages::wien2k();
    let archive = vec![0xA5u8; wien2k.archive_bytes as usize];
    let start = Instant::now();
    black_box(Md5Digest::of(&archive));
    let mb = archive.len() as f64 / 1e6;
    round.set("services.md5.mb_per_s", mb / start.elapsed().as_secs_f64());
    drop(archive);

    let repo = Repository::with_catalog();
    let link = glare_fabric::LinkSpec::wan_default();
    let md5 = repo.md5_of(&wien2k.archive_url);
    let mut host = SiteHost::new("perf.example", glare_fabric::Platform::intel_linux_32());
    let dst = VPath::new("/tmp/perf/wien2k.tgz");
    let ns = ns_per_call(|| {
        download(&repo, &wien2k.archive_url, &mut host, &dst, link, md5).expect("download");
    });
    round.set("services.gridftp.get_us", ns / 1e3);

    let mut session = host.open_session();
    let script = ExpectScript::new();
    let ns = ns_per_call(|| {
        run_expect(&mut host, &mut session, "mkdir -p /tmp/perf/x", &script).expect("mkdir");
    });
    round.set("services.expect.run_us", ns / 1e3);
}

/// `fabric.store.append_ns` and `.recover_us_per_1k`: the journal alone,
/// with records of the size the workload journaled.
pub fn store(round: &mut Round, payload_bytes: usize) {
    let payload = "x".repeat(payload_bytes.max(1));
    let mut store = SiteStore::new();
    round.set(
        "fabric.store.append_ns",
        ns_per_call(|| {
            store.append("adr.register", &payload);
        }),
    );
    let mut store = SiteStore::new();
    for _ in 0..1_000 {
        store.append("adr.register", &payload);
    }
    let ns = ns_per_call(|| {
        black_box(store.recover().records.len());
    });
    round.set("fabric.store.recover_us_per_1k", ns / 1e3);
}
