//! `registry_read` and `registry_churn` — closed loop, `nproc` real threads,
//! no simulator: Fig. 10/11's real-thread path at Fig. 11's worst population
//! (300 types, http transport).
//!
//! Each thread issues a fixed number of requests: parse the request
//! envelope, then 9 ATR `lookup` : 1 ADR `deployments_of` : 1 MDS
//! `query_by_name`, then serialise the reply. The registries are shared
//! through `Arc` with no outer lock. At this ratio the hash lookups and the
//! XPath scan take about equal host time, so the workload sees both sides of
//! the paper's headline asymmetry.
//!
//! `registry_churn` replaces one request in 16 by a write through the public
//! mutators, walking scratch entries through their life: ATR
//! `register`/`update`/`remove`, ADR `register`/`touch`/`uninstall`, MDS
//! `register`/`refresh`/`remove`. Every write takes `ResourceHome` shard
//! write locks, and every MDS write orphans the snapshot document the next
//! query must rebuild. A read-path gain that is paid for on writes shows
//! here and only here. (The MDS mutators take `&mut self`, so on this
//! workload the index sits behind a harness-side `RwLock`.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};

use glare_core::model::{ActivityDeployment, ActivityType};
use glare_core::{ActivityDeploymentRegistry, ActivityTypeRegistry};
use glare_fabric::{SimDuration, SimRng, SimTime};
use glare_services::{IndexKind, IndexService, Transport};
use glare_wsrf::{parse_xml, EntryId, XmlNode};

use crate::micro;
use crate::round::{Clock, Digest, Round};
use crate::span::{Name, Trace, Tracer};
use crate::stats;
use crate::trace_file;
use crate::workloads::{check_spans_close, RoundCtx};

const TYPES: usize = 300;
/// Requests per thread and round. A write costs ~200 reads (the next MDS
/// query rebuilds the 300-entry aggregate document), so the churn round
/// is sized apart to take the same couple of seconds.
const READ_REQUESTS_PER_THREAD: usize = 360_000;
const CHURN_REQUESTS_PER_THREAD: usize = 32_000;
/// 9 ATR lookups, 1 ADR `deployments_of`, 1 MDS `query_by_name`.
const READ_CYCLE: usize = 11;
/// On `registry_churn`, one request in this many is a write.
const WRITE_EVERY: usize = 16;
const NOW: SimTime = SimTime::ZERO;
const ROOT_SPAN: &str = "registry.request";
const ATR_LOOKUP_SPAN: &str = "glare_core.atr.lookup";

/// The index: shared bare for reads, behind a lock where writes need
/// `&mut`.
enum Mds {
    Shared(IndexService),
    Locked(RwLock<IndexService>),
}

impl Mds {
    fn read<R>(&self, f: impl FnOnce(&IndexService) -> R) -> R {
        match self {
            Mds::Shared(m) => f(m),
            Mds::Locked(m) => f(&m.read().expect("no writer panics")),
        }
    }

    fn write<R>(&self, f: impl FnOnce(&mut IndexService) -> R) -> R {
        match self {
            Mds::Shared(_) => unreachable!("registry_read never writes"),
            Mds::Locked(m) => f(&mut m.write().expect("no writer panics")),
        }
    }
}

struct Services {
    atr: ActivityTypeRegistry,
    adr: ActivityDeploymentRegistry,
    mds: Mds,
    /// MDS writes so far, and the count the last query saw: a query that
    /// finds them different is the first after a write.
    mds_writes: AtomicU64,
    mds_writes_seen: AtomicU64,
}

fn type_entry(name: &str) -> ActivityType {
    ActivityType::concrete_type(name, "bench", "wien2k").with_function(
        "run",
        &["in:data"],
        &["out:data"],
    )
}

fn deployment_of(name: &str) -> ActivityDeployment {
    ActivityDeployment::executable(
        name,
        "site0",
        &format!("/opt/deployments/{name}/bin/{name}"),
        &format!("/opt/deployments/{name}"),
    )
}

fn build_services(churn: bool) -> Services {
    let atr = ActivityTypeRegistry::new("https://bench/ATR", Transport::Http);
    let adr = ActivityDeploymentRegistry::new("https://bench/ADR", Transport::Http);
    let mut mds = IndexService::new("bench-index", IndexKind::Default, Transport::Http);
    for i in 0..TYPES {
        let name = format!("Type{i}");
        let entry = type_entry(&name);
        mds.register("bench", entry.to_xml(), NOW);
        atr.register(entry, NOW).expect("type registers");
        adr.register(deployment_of(&name), &atr, NOW)
            .expect("deployment registers");
    }
    // Materialise the aggregate document before the window opens.
    mds.query_by_name("ActivityTypeEntry", "Type0", NOW)
        .expect("warm-up query");
    Services {
        atr,
        adr,
        mds: if churn {
            Mds::Locked(RwLock::new(mds))
        } else {
            Mds::Shared(mds)
        },
        mds_writes: AtomicU64::new(0),
        mds_writes_seen: AtomicU64::new(0),
    }
}

/// One request of a thread's pre-drawn schedule.
#[derive(Clone, Copy)]
enum Op {
    AtrLookup(u16),
    AdrDeploymentsOf(u16),
    MdsQuery(u16),
    /// The next step in the life of the thread's current scratch entry.
    Write,
}

/// Draw a thread's schedule from the seed.
fn draw_schedule(seed: u64, thread: usize, churn: bool) -> Vec<Op> {
    let mut rng = SimRng::from_seed(seed).fork(&format!("registry/thread{thread}"));
    let requests = if churn {
        CHURN_REQUESTS_PER_THREAD
    } else {
        READ_REQUESTS_PER_THREAD
    };
    (0..requests)
        .map(|i| {
            let target = rng.index(TYPES) as u16;
            if churn && i % WRITE_EVERY == WRITE_EVERY - 1 {
                return Op::Write;
            }
            match i % READ_CYCLE {
                9 => Op::AdrDeploymentsOf(target),
                10 => Op::MdsQuery(target),
                _ => Op::AtrLookup(target),
            }
        })
        .collect()
}

/// Span names of one thread's tracer.
struct Spans {
    root: Name,
    parse: Name,
    serialize: Name,
    atr_lookup: Name,
    atr_register: Name,
    atr_update: Name,
    atr_remove: Name,
    adr_deployments_of: Name,
    adr_register: Name,
    adr_touch: Name,
    adr_uninstall: Name,
    mds_query: Name,
    mds_query_after_write: Name,
    mds_register: Name,
    mds_refresh: Name,
    mds_remove: Name,
}

impl Spans {
    fn new(t: &mut Tracer) -> Spans {
        Spans {
            root: t.name(ROOT_SPAN),
            parse: t.name("wsrf.xml.parse"),
            serialize: t.name("wsrf.xml.serialize"),
            atr_lookup: t.name(ATR_LOOKUP_SPAN),
            atr_register: t.name("glare_core.atr.register"),
            atr_update: t.name("glare_core.atr.update"),
            atr_remove: t.name("glare_core.atr.remove"),
            adr_deployments_of: t.name("glare_core.adr.deployments_of"),
            adr_register: t.name("glare_core.adr.register"),
            adr_touch: t.name("glare_core.adr.touch"),
            adr_uninstall: t.name("glare_core.adr.uninstall"),
            mds_query: t.name("services.mds.query"),
            mds_query_after_write: t.name("services.mds.query_after_write"),
            mds_register: t.name("services.mds.register"),
            mds_refresh: t.name("services.mds.refresh"),
            mds_remove: t.name("services.mds.remove"),
        }
    }
}

/// What one client thread hands back.
struct ThreadResult {
    trace: Trace,
    digest: u64,
    wrong: u64,
    /// Modelled service cost of every request that has one.
    costs: Vec<SimDuration>,
    /// Entries the services report having examined.
    examined: u64,
    /// Read requests sent to a service that counts its own calls.
    counted_reads: u64,
}

/// A scratch entry's life, one step per write request.
struct Scratch {
    thread: usize,
    generation: u64,
    step: u8,
    mds_entry: Option<EntryId>,
}

impl Scratch {
    fn name(&self) -> String {
        format!("Scratch{}x{}", self.thread, self.generation)
    }
}

/// Serve one thread's schedule. Returns after the last request.
fn client(thread: usize, schedule: &[Op], svc: &Services, traced: bool) -> ThreadResult {
    let mut tracer = Tracer::new(traced);
    let sp = Spans::new(&mut tracer);
    let mut digest = Digest::default();
    let mut costs = Vec::with_capacity(schedule.len());
    let (mut wrong, mut examined, mut counted_reads) = (0u64, 0u64, 0u64);
    let mut scratch = Scratch {
        thread,
        generation: 0,
        step: 0,
        mds_entry: None,
    };
    let type_names: Vec<String> = (0..TYPES).map(|i| format!("Type{i}")).collect();

    for &op in schedule {
        let name: &str = match op {
            Op::AtrLookup(i) | Op::AdrDeploymentsOf(i) | Op::MdsQuery(i) => &type_names[i as usize],
            Op::Write => "scratch",
        };
        // SOAP-ish request envelope, built and parsed per request on the
        // worker thread like the real stack (as `--bin fig10` does).
        let request = format!(
            "<Envelope><Body><GetResourceProperty dialect=\"hash\">\
             <ResourceName>{name}</ResourceName><Client>perf-{thread}</Client>\
             </GetResourceProperty></Body></Envelope>"
        );
        tracer.begin_op(sp.root);
        tracer.enter(sp.parse);
        let parsed = parse_xml(&request).expect("request envelope parses");
        std::hint::black_box(&parsed);
        let reply: XmlNode = match op {
            Op::AtrLookup(_) => {
                tracer.next(sp.atr_lookup);
                let resp = svc.atr.lookup(name, NOW);
                tracer.next(sp.serialize);
                counted_reads += 1;
                examined += 1;
                match resp {
                    Some(r) if r.value.name == name => {
                        costs.push(r.cost);
                        r.value.to_xml()
                    }
                    _ => {
                        wrong += 1;
                        XmlNode::new("Fault")
                    }
                }
            }
            Op::AdrDeploymentsOf(_) => {
                tracer.next(sp.adr_deployments_of);
                let resp = svc.adr.deployments_of(name, NOW);
                tracer.next(sp.serialize);
                examined += resp.value.len() as u64;
                costs.push(resp.cost);
                match resp.value.as_slice() {
                    [d] if d.type_name == name => d.to_xml(),
                    _ => {
                        wrong += 1;
                        XmlNode::new("Fault")
                    }
                }
            }
            Op::MdsQuery(_) => {
                let writes = svc.mds_writes.load(Ordering::Acquire);
                let after_write = svc.mds_writes_seen.swap(writes, Ordering::AcqRel) != writes;
                tracer.next(if after_write {
                    sp.mds_query_after_write
                } else {
                    sp.mds_query
                });
                let resp = svc
                    .mds
                    .read(|m| m.query_by_name("ActivityTypeEntry", name, NOW))
                    .expect("by-name query is valid XPath");
                tracer.next(sp.serialize);
                counted_reads += 1;
                examined += resp.scanned as u64;
                costs.push(resp.cost);
                match resp.matches.as_slice() {
                    [m] if m.attribute("name") == Some(name) => m.clone(),
                    _ => {
                        wrong += 1;
                        XmlNode::new("Fault")
                    }
                }
            }
            Op::Write => {
                let ok = write_step(&mut scratch, svc, &mut tracer, &sp, &mut costs);
                tracer.next(sp.serialize);
                if !ok {
                    wrong += 1;
                }
                XmlNode::new("Ack").attr("step", scratch.step.to_string())
            }
        };
        let body = reply.to_xml();
        tracer.exit_both();
        digest.word(body.len() as u64);
    }
    ThreadResult {
        trace: tracer.finish(),
        digest: digest.value(),
        wrong,
        costs,
        examined,
        counted_reads,
    }
}

/// Do the next step of the scratch entry's life; `false` if the registry
/// refused it. Leaves the tracer inside the step's span.
fn write_step(
    s: &mut Scratch,
    svc: &Services,
    tracer: &mut Tracer,
    sp: &Spans,
    costs: &mut Vec<SimDuration>,
) -> bool {
    let name = s.name();
    let key = deployment_of(&name).key;
    let mds_wrote = || svc.mds_writes.fetch_add(1, Ordering::AcqRel);
    let ok = match s.step {
        0 => {
            tracer.next(sp.atr_register);
            svc.atr
                .register(type_entry(&name), NOW)
                .map(|c| costs.push(c))
                .is_ok()
        }
        1 => {
            tracer.next(sp.adr_register);
            svc.adr
                .register(deployment_of(&name), &svc.atr, NOW)
                .map(|c| costs.push(c))
                .is_ok()
        }
        2 => {
            tracer.next(sp.mds_register);
            let (id, cost) = svc
                .mds
                .write(|m| m.register("bench", type_entry(&name).to_xml(), NOW));
            mds_wrote();
            costs.push(cost);
            s.mds_entry = Some(id);
            true
        }
        3 => {
            tracer.next(sp.atr_update);
            svc.atr
                .update(&name, NOW, |t| t.domain = "bench-updated".to_owned())
                .is_ok()
        }
        4 => {
            tracer.next(sp.adr_touch);
            svc.adr.touch(&key, NOW).is_ok()
        }
        5 => {
            tracer.next(sp.mds_refresh);
            let id = s.mds_entry.expect("registered at step 2");
            let r = svc.mds.write(|m| m.refresh(id, None, NOW));
            mds_wrote();
            r.map(|c| costs.push(c)).is_ok()
        }
        6 => {
            tracer.next(sp.adr_uninstall);
            svc.adr.uninstall(&key, NOW).is_ok()
        }
        7 => {
            tracer.next(sp.mds_remove);
            let id = s.mds_entry.take().expect("registered at step 2");
            let r = svc.mds.write(|m| m.remove(id));
            mds_wrote();
            r.is_ok()
        }
        _ => {
            tracer.next(sp.atr_remove);
            svc.atr.remove(&name).is_ok()
        }
    };
    if s.step == 8 {
        s.step = 0;
        s.generation += 1;
    } else {
        s.step += 1;
    }
    ok
}

pub fn run_read(ctx: &RoundCtx, clock: &mut Clock) -> Round {
    run(ctx, clock, false)
}

pub fn run_churn(ctx: &RoundCtx, clock: &mut Clock) -> Round {
    run(ctx, clock, true)
}

fn run(ctx: &RoundCtx, clock: &mut Clock, churn: bool) -> Round {
    let mut round = Round::default();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let svc = build_services(churn);
    let schedules: Vec<Vec<Op>> = (0..threads)
        .map(|t| draw_schedule(ctx.seed, t, churn))
        .collect();
    let (atr_served, mds_served) = (
        svc.atr.lookups_served(),
        svc.mds.read(IndexService::queries_served),
    );

    // The threads are started during set-up and released together when
    // the window opens.
    let barrier = Barrier::new(threads + 1);
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(t, schedule)| {
                let (svc, barrier) = (&svc, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    client(t, schedule, svc, ctx.traced)
                })
            })
            .collect();
        clock.start_window();
        barrier.wait();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect();
        clock.end_window(&mut round);
        results
    });

    let requests = schedules.iter().map(Vec::len).sum::<usize>() as u64;
    let wrong: u64 = results.iter().map(|r| r.wrong).sum();
    let counted_reads: u64 = results.iter().map(|r| r.counted_reads).sum();
    let examined: u64 = results.iter().map(|r| r.examined).sum();
    let mut costs: Vec<SimDuration> = results
        .iter()
        .flat_map(|r| r.costs.iter().copied())
        .collect();
    costs.sort_unstable();
    let cost_secs: f64 = costs.iter().map(|c| c.as_secs_f64()).sum();
    let ms = |p: f64| stats::percentile(&costs, p).map_or(0.0, |d| d.as_millis_f64());
    let served = (svc.atr.lookups_served() - atr_served)
        + (svc.mds.read(IndexService::queries_served) - mds_served);

    round.attempted = requests;
    round.failed = wrong;
    round.set("ops", (requests - wrong) as f64);
    round.set("refused", 0.0);
    round.set("sim_p50_ms", ms(50.0));
    round.set("sim_p99_ms", ms(99.0));
    round.set("tail_samples", costs.len() as f64);
    round.set("sim_goodput_hz", costs.len() as f64 / cost_secs);
    // Calls the ATR and the index counted themselves, per read request
    // sent to them (the ADR keeps no counter).
    round.set(
        "sim_hops_per_query",
        served as f64 / counted_reads.max(1) as f64,
    );
    round.set("sim_events", examined as f64);
    round.check(wrong == 0, || {
        format!(
            "{}: {wrong} of {requests} requests got a wrong or missing entry",
            ctx.workload
        )
    });

    let mut digest = Digest::default();
    for r in &results {
        digest.word(r.digest);
    }
    digest.word(svc.atr.len(NOW) as u64);
    digest.word(svc.adr.len(NOW) as u64);
    digest.word(svc.mds.read(|m| m.len(NOW)) as u64);
    round.digest = digest.value();

    if ctx.traced {
        let mut trace = Trace::default();
        for r in results {
            trace.merge(r.trace);
        }
        check_spans_close(&mut round, &trace, ROOT_SPAN, ctx.workload);
        // A layer's metric is its span's name plus the unit.
        for span in [
            ATR_LOOKUP_SPAN,
            "glare_core.atr.register",
            "glare_core.atr.update",
            "glare_core.adr.deployments_of",
            "glare_core.adr.register",
            "glare_core.adr.uninstall",
            "wsrf.xml.parse",
            "wsrf.xml.serialize",
            "services.mds.query",
            "services.mds.query_after_write",
            "services.mds.register",
        ] {
            round.set(&format!("{span}_ns"), trace.mean_ns(span));
        }
        round.set(
            "wsrf.resource.read_p99_ns",
            trace.agg(ATR_LOOKUP_SPAN).percentile_ns(99.0),
        );
        if ctx.micro {
            let aggregate = svc.mds.read(|m| m.aggregate(NOW));
            // The by-name queries thread 0 sent, in its order.
            let queries: Vec<String> = schedules[0]
                .iter()
                .filter_map(|op| match op {
                    Op::MdsQuery(i) => Some(format!("//ActivityTypeEntry[@name='Type{i}']")),
                    _ => None,
                })
                .collect();
            micro::xpath(&mut round, &aggregate, &queries);
        }
        trace_file::write(ctx.workload, &trace, &mut round);
    }
    round
}
