use std::collections::HashMap;

use super::*;
use crate::metrics::Labels;
use crate::rng::SimRng;
use crate::topology::LinkSpec;

/// Kernel state only the tests inspect, and the drain they run to.
impl Simulation {
    /// Events currently pending in the queue (tombstones included).
    pub(crate) fn queue_len(&self) -> usize {
        self.kernel.queue.len()
    }

    /// Live (pending, uncancelled) timers the kernel tracks.
    pub(crate) fn pending_timers(&self) -> usize {
        self.kernel.live_timers
    }

    /// A site's durable store, if durability is on and the site ever wrote
    /// to it.
    pub(crate) fn store(&self, site: SiteId) -> Option<&crate::store::SiteStore> {
        self.kernel.stores.get(&site)
    }

    /// Drain the queue completely, with an event-count safety valve.
    pub(crate) fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        assert!(self.started, "call start() before running");
        let mut n = 0;
        while self.kernel.queue.len() > 0 {
            self.step();
            n += 1;
            assert!(
                n <= max_events,
                "run_to_quiescence exceeded {max_events} events — livelock?"
            );
        }
        n
    }
}

struct Ping {
    peer: Option<ActorId>,
    remaining: u32,
    got: u32,
}

struct Tick;

impl Actor for Ping {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(peer) = self.peer {
            if self.remaining > 0 {
                ctx.send(peer, Tick);
                self.remaining -= 1;
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let (from, _tick) = env.downcast::<Tick>().ok().expect("only Tick flows here");
        self.got += 1;
        if self.remaining > 0 {
            ctx.send(from, Tick);
            self.remaining -= 1;
        }
    }
}

fn two_site_sim() -> (Simulation, ActorId, ActorId) {
    let mut topo = Topology::uniform(2);
    topo.set_default_link(LinkSpec {
        latency: SimDuration::from_millis(10),
        bandwidth_bps: 1_000_000_000,
        jitter: 0.0,
    });
    let mut sim = Simulation::new(topo, 1);
    let b = sim.add_actor(
        SiteId(1),
        Box::new(Ping {
            peer: None,
            remaining: 5,
            got: 0,
        }),
    );
    let a = sim.add_actor(
        SiteId(0),
        Box::new(Ping {
            peer: Some(b),
            remaining: 5,
            got: 0,
        }),
    );
    (sim, a, b)
}

#[test]
fn ping_pong_advances_time_by_latency() {
    let (mut sim, _a, _b) = two_site_sim();
    sim.start();
    let events = sim.run_to_quiescence(1_000);
    assert!(events >= 10, "expected at least 10 deliveries, got {events}");
    // 10 one-way hops at 10ms plus ~0.5KB serialization each.
    assert!(
        sim.now() >= SimTime::from_millis(100),
        "time should advance by >= 10 hops of latency, now={}",
        sim.now()
    );
    assert_eq!(sim.metrics().counter_value("net.msgs_sent"), 10);
}

/// The kernel holds a handle slot for every instrument it records
/// into, per site where labeled; an instrument still appears with its
/// first record and not before, and only for the site and reason that
/// recorded.
#[test]
fn kernel_instruments_appear_with_their_first_record() {
    let (mut sim, _a, _b) = two_site_sim();
    assert_eq!(sim.metrics().expose_prometheus(), "", "nothing sent yet");
    sim.set_partitioned(SiteId(0), SiteId(1), true);
    sim.start();
    sim.run_to_quiescence(1_000);
    assert_eq!(
        sim.metrics().expose_prometheus(),
        "# TYPE glare_net_dropped_total counter\n\
         glare_net_dropped_total{reason=\"partition\",site=\"site0\"} 1\n\
         # TYPE net_bytes_sent counter\n\
         net_bytes_sent 512\n\
         # TYPE net_msgs_dropped_partition counter\n\
         net_msgs_dropped_partition 1\n\
         # TYPE net_msgs_sent counter\n\
         net_msgs_sent 1\n"
    );
}

#[test]
fn run_until_respects_horizon() {
    let (mut sim, _a, _b) = two_site_sim();
    sim.start();
    sim.run_until(SimTime::from_millis(25));
    assert_eq!(sim.now(), SimTime::from_millis(25));
    // Remaining events still pending.
    assert!(sim.step());
}

#[test]
fn crashed_site_drops_deliveries() {
    let (mut sim, _a, b) = two_site_sim();
    sim.schedule_crash(SimTime::from_millis(1), SiteId(1));
    sim.start();
    sim.run_to_quiescence(1_000);
    let _ = b;
    assert!(sim.metrics().counter_value("net.msgs_dropped.site_down") >= 1);
}

#[test]
fn partition_blocks_messages() {
    let (mut sim, _a, _b) = two_site_sim();
    sim.set_partitioned(SiteId(0), SiteId(1), true);
    sim.start();
    sim.run_to_quiescence(1_000);
    assert!(sim.metrics().counter_value("net.msgs_dropped.partition") >= 1);
}

struct Sleeper {
    fired: Vec<String>,
    cancel_me: Option<TimerToken>,
}
impl Actor for Sleeper {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_after(SimDuration::from_millis(5), "five");
        let t = ctx.timer_after(SimDuration::from_millis(7), "seven");
        ctx.timer_after(SimDuration::from_millis(3), "three");
        self.cancel_me = Some(t);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
        self.fired.push(tag.to_owned());
        ctx.metrics().counter(&format!("timer.{tag}")).inc();
        if tag == "three" {
            let t = self.cancel_me.take().unwrap();
            ctx.cancel_timer(t);
        }
    }
}

#[test]
fn timers_fire_in_order_and_cancel() {
    let topo = Topology::uniform(1);
    let mut sim = Simulation::new(topo, 2);
    let id = sim.add_actor(
        SiteId(0),
        Box::new(Sleeper {
            fired: vec![],
            cancel_me: None,
        }),
    );
    sim.start();
    sim.run_to_quiescence(100);
    let _ = id;
    assert_eq!(sim.metrics().counter_value("timer.three"), 1);
    assert_eq!(sim.metrics().counter_value("timer.five"), 1);
    assert_eq!(
        sim.metrics().counter_value("timer.seven"),
        0,
        "cancelled timer must not fire"
    );
}

struct Cruncher {
    done: u32,
}
impl Actor for Cruncher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(SimDuration::from_millis(10), "a");
        ctx.compute(SimDuration::from_millis(10), "b");
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
    fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        self.done += 1;
        ctx.metrics().counter("test.compute_done").inc();
    }
}

#[test]
fn compute_uses_site_cores() {
    let mut topo = Topology::new();
    let mut spec = crate::topology::SiteSpec::reference("solo");
    spec.cores = 1;
    topo.add_site(spec);
    let mut sim = Simulation::new(topo, 3);
    sim.add_actor(SiteId(0), Box::new(Cruncher { done: 0 }));
    sim.start();
    sim.run_to_quiescence(100);
    // Two 10ms items on one core => finishes at 20ms.
    assert_eq!(sim.now(), SimTime::from_millis(20));
    assert_eq!(sim.metrics().counter_value("test.compute_done"), 2);
}

#[test]
fn load_sampling_records_series() {
    let topo = Topology::uniform(1);
    let mut sim = Simulation::new(topo, 4);
    sim.add_actor(SiteId(0), Box::new(Cruncher { done: 0 }));
    sim.enable_load_sampling(SimTime::from_secs(30));
    sim.start();
    sim.run_until(SimTime::from_secs(31));
    let site0 = Labels::of(&[("site", "site0")]);
    let gauge = sim.metrics().gauge_ref("glare_site_load1m", &site0).unwrap();
    let counts: Vec<u64> = gauge.buckets().iter().map(|b| b.count).collect();
    assert_eq!(counts, [6], "one sample per 5s for 30s, in one 60s bucket");
}

#[test]
fn inject_and_run_for() {
    let (mut sim, a, _b) = two_site_sim();
    sim.start();
    // Inject an external Tick to actor a at t=1s.
    sim.inject(SimTime::from_secs(1), ActorId(0), a, Tick);
    let before = sim.now();
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.now(), before + SimDuration::from_secs(2));
}

#[test]
fn envelope_downcast_and_is() {
    let env = Envelope {
        from: ActorId(3),
        msg: Box::new(Tick),
        trace: None,
    };
    let (from, _tick) = env.downcast::<Tick>().ok().unwrap();
    assert_eq!(from, ActorId(3));
    // Wrong-type downcast returns the envelope intact.
    let env = Envelope {
        from: ActorId(4),
        msg: Box::new(Tick),
        trace: None,
    };
    let env = env.downcast::<String>().unwrap_err();
    assert_eq!(env.from, ActorId(4));
    assert!(env.downcast::<Tick>().is_ok());
}

#[test]
fn jitter_links_stay_deterministic() {
    let run = || {
        let mut topo = Topology::uniform(2);
        topo.set_default_link(LinkSpec {
            latency: SimDuration::from_millis(10),
            bandwidth_bps: 1_000_000,
            jitter: 0.3,
        });
        let mut sim = Simulation::new(topo, 99);
        let b = sim.add_actor(
            SiteId(1),
            Box::new(Ping {
                peer: None,
                remaining: 10,
                got: 0,
            }),
        );
        sim.add_actor(
            SiteId(0),
            Box::new(Ping {
                peer: Some(b),
                remaining: 10,
                got: 0,
            }),
        );
        sim.start();
        sim.run_to_quiescence(1_000);
        sim.now()
    };
    let t1 = run();
    assert_eq!(t1, run(), "jittered delays replay identically per seed");
    assert!(t1 > SimTime::from_millis(100), "jitter around 10ms base");
}

#[test]
#[should_panic(expected = "livelock")]
fn run_to_quiescence_catches_livelock() {
    struct Forever;
    impl Actor for Forever {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.timer_after(SimDuration::from_millis(1), "again");
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken, _tag: &str) {
            ctx.timer_after(SimDuration::from_millis(1), "again");
        }
    }
    let mut sim = Simulation::new(Topology::uniform(1), 1);
    sim.add_actor(SiteId(0), Box::new(Forever));
    sim.start();
    sim.run_to_quiescence(100);
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed| {
        let (mut sim, _a, _b) = two_site_sim();
        let _ = seed;
        sim.start();
        sim.run_to_quiescence(1_000);
        sim.now()
    };
    assert_eq!(run(1), run(1));
}

#[test]
fn schedule_call_runs_closures() {
    let topo = Topology::uniform(1);
    let mut sim = Simulation::new(topo, 5);
    sim.add_actor(SiteId(0), Box::new(Cruncher { done: 0 }));
    sim.schedule_call(SimTime::from_millis(50), |sim| {
        sim.kernel.metrics.counter("called").inc();
    });
    sim.start();
    sim.run_to_quiescence(100);
    assert_eq!(sim.metrics().counter_value("called"), 1);
    assert!(sim.now() >= SimTime::from_millis(50));
}

#[test]
fn tracing_chains_network_and_compute_spans() {
    use crate::trace::SpanKind;

    struct Worker;
    impl Actor for Worker {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            assert!(env.trace.is_some(), "delivery carries the net context");
            let span = ctx.span("work", SpanKind::Request);
            ctx.span_attr(span, "k", "v");
            ctx.compute(SimDuration::from_millis(10), "crunch");
            ctx.compute(SimDuration::from_millis(10), "crunch");
            ctx.end_span(span);
        }
    }
    struct Starter {
        peer: ActorId,
    }
    impl Actor for Starter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, Tick);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
    }

    // One core per site so the second compute item waits in the queue.
    let mut topo = Topology::new();
    for name in ["starter", "worker"] {
        let mut spec = crate::topology::SiteSpec::reference(name);
        spec.cores = 1;
        topo.add_site(spec);
    }
    topo.set_default_link(LinkSpec {
        latency: SimDuration::from_millis(10),
        bandwidth_bps: 1_000_000_000,
        jitter: 0.0,
    });
    let mut sim = Simulation::new(topo, 11);
    let w = sim.add_actor(SiteId(1), Box::new(Worker));
    sim.add_actor(SiteId(0), Box::new(Starter { peer: w }));
    sim.enable_tracing(1024);
    sim.start();
    sim.run_to_quiescence(100);
    let sink = sim.take_trace().expect("tracing enabled");
    let find = |name: &str| {
        sink.spans()
            .iter()
            .filter(|s| s.name == name)
            .collect::<Vec<_>>()
    };
    let net = find("net.send");
    assert_eq!(net.len(), 1);
    assert_eq!(net[0].kind, SpanKind::Network);
    assert!(net[0].parent.is_none(), "net span roots the trace");
    let work = find("work");
    assert_eq!(work.len(), 1);
    assert_eq!(work[0].parent, Some(net[0].span_id));
    assert_eq!(work[0].attrs, vec![("k", "v".into())]);
    let cpu = find("cpu.crunch");
    assert_eq!(cpu.len(), 2);
    assert!(cpu.iter().all(|s| s.trace_id == net[0].trace_id));
    assert_eq!(cpu[0].parent, Some(work[0].span_id), "first runs at once");
    let queue = find("cpu.queue");
    assert_eq!(queue.len(), 1, "second compute item waited for the core");
    assert_eq!(queue[0].parent, Some(work[0].span_id));
    assert_eq!(
        cpu[1].parent,
        Some(queue[0].span_id),
        "queued compute chains under its wait"
    );
    assert_eq!(
        queue[0].end.saturating_since(queue[0].start),
        SimDuration::from_millis(10),
        "waited exactly one 10ms slot"
    );
}

#[test]
fn tracing_does_not_change_results_and_replays_identically() {
    let run = |traced: bool| {
        let (mut sim, _a, _b) = two_site_sim();
        if traced {
            sim.enable_tracing(1 << 12);
        }
        sim.start();
        sim.run_to_quiescence(1_000);
        let summary: Vec<(String, u64, u64, u64)> = sim
            .take_trace()
            .map(|t| {
                t.spans()
                    .iter()
                    .map(|s| {
                        (
                            s.name.to_string(),
                            s.span_id.0,
                            s.start.as_nanos(),
                            s.end.as_nanos(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        (sim.now(), sim.metrics().counter_value("net.msgs_sent"), summary)
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.0, traced.0, "tracing must not perturb timing");
    assert_eq!(plain.1, traced.1);
    assert!(!traced.2.is_empty());
    assert_eq!(traced.2, run(true).2, "same seed, same spans");
}

#[test]
fn per_link_drop_override_targets_one_pair() {
    // Three sites; a lossy override on (0,1) only. Traffic 0→1 drops,
    // traffic 0→2 sails through the (clean) global default.
    let mut topo = Topology::uniform(3);
    topo.set_default_link(LinkSpec {
        latency: SimDuration::from_millis(10),
        bandwidth_bps: 1_000_000_000,
        jitter: 0.0,
    });
    let mut sim = Simulation::new(topo, 7);
    let sink1 = sim.add_actor(
        SiteId(1),
        Box::new(Ping {
            peer: None,
            remaining: 0,
            got: 0,
        }),
    );
    let sink2 = sim.add_actor(
        SiteId(2),
        Box::new(Ping {
            peer: None,
            remaining: 0,
            got: 0,
        }),
    );
    struct Sprayer {
        to: Vec<ActorId>,
    }
    impl Actor for Sprayer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..200 {
                for &t in &self.to {
                    ctx.send(t, Tick);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
    }
    sim.add_actor(
        SiteId(0),
        Box::new(Sprayer {
            to: vec![sink1, sink2],
        }),
    );
    sim.set_link_drop_probability(SiteId(0), SiteId(1), Some(1.0));
    sim.start();
    sim.run_to_quiescence(10_000);
    let dropped = sim.metrics().counter_value("net.msgs_dropped.loss");
    assert_eq!(dropped, 200, "every 0→1 message lost, no 0→2 message lost");
    let labels = Labels::of(&[("reason", "loss"), ("site", "site0")]);
    assert_eq!(
        sim.metrics()
            .counter_labeled_value("glare_net_dropped_total", &labels),
        200
    );
    // Removing the override restores the global (lossless) default.
    sim.set_link_drop_probability(SiteId(0), SiteId(1), None);
    sim.inject(sim.now(), ActorId(2), sink1, Tick);
    sim.run_to_quiescence(10);
    assert_eq!(sim.metrics().counter_value("net.msgs_dropped.loss"), 200);
}

#[test]
#[should_panic(expected = "probability out of range")]
fn drop_probability_outside_unit_interval_is_rejected() {
    Simulation::new(Topology::uniform(2), 1).set_drop_probability(5.0);
}

#[test]
fn actor_as_downcasts_only_opted_in_actors() {
    struct Inspectable {
        answer: u32,
    }
    impl Actor for Inspectable {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
    }
    let mut sim = Simulation::new(Topology::uniform(1), 1);
    let a = sim.add_actor(SiteId(0), Box::new(Inspectable { answer: 42 }));
    let b = sim.add_actor(SiteId(0), Box::new(Sleeper { fired: vec![], cancel_me: None }));
    assert_eq!(sim.actor_as::<Inspectable>(a).map(|i| i.answer), Some(42));
    assert!(sim.actor_as::<Sleeper>(b).is_none(), "opaque by default");
    assert!(sim.actor_as::<Inspectable>(ActorId(99)).is_none());
}

#[test]
fn cancelled_timers_leave_no_residue() {
    // Satellite regression: cancelling — before or after the fire —
    // must not grow kernel state. The old design kept an unbounded
    // HashSet of tokens whose timers had already fired.
    struct Rearmer {
        rounds: u32,
        stale: Vec<TimerToken>,
    }
    impl Actor for Rearmer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.timer_after(SimDuration::from_millis(1), "tick");
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken, tag: &str) {
            if tag != "tick" {
                return;
            }
            // Cancel a token that already fired (the retry-layer
            // pattern): must be a clean no-op.
            for t in self.stale.drain(..) {
                ctx.cancel_timer(t);
            }
            self.stale.push(token);
            // Arm-and-cancel a decoy every round: its tombstone must
            // be reclaimed when the key pops.
            let decoy = ctx.timer_after(SimDuration::from_millis(5), "decoy");
            ctx.cancel_timer(decoy);
            if self.rounds > 0 {
                self.rounds -= 1;
                ctx.timer_after(SimDuration::from_millis(1), "tick");
            }
        }
    }
    let mut sim = Simulation::new(Topology::uniform(1), 8);
    sim.add_actor(
        SiteId(0),
        Box::new(Rearmer {
            rounds: 500,
            stale: Vec::new(),
        }),
    );
    sim.start();
    sim.run_to_quiescence(10_000);
    assert_eq!(sim.queue_len(), 0, "tombstones must drain with the queue");
    assert_eq!(sim.pending_timers(), 0, "timer map must not leak");
    assert_eq!(sim.metrics().counter_value("timer.decoy"), 0);
}

/// Seeded model test of the slot-plus-generation tokens: random arm,
/// cancel (of live, fired, already-cancelled and compute tokens, some
/// twice) against a reference map of live timers. The kernel must fire
/// exactly what the map says, in `(due, arm order)`, report the map's
/// size as `pending_timers()`, and pop one event per arm and compute.
/// Half the arms carry a payload, which must come back with its own
/// timer and no other.
/// Fired tokens are kept and cancelled again after their slot was
/// re-let, which cancels the new tenant if `cancel_timer` stops
/// comparing generations.
#[test]
fn timer_tokens_match_a_reference_map_under_random_arm_and_cancel() {
    use std::cell::RefCell;
    use std::rc::Rc;

    const TAGS: [&str; 3] = ["a", "b", "c"];

    #[derive(Default)]
    struct Model {
        /// Every arm: `(due, token, tag, payload, cancelled while live)`.
        arms: Vec<(SimTime, TimerToken, &'static str, Option<u64>, bool)>,
        /// Live timers → index into `arms`.
        live: HashMap<TimerToken, usize>,
        fired: Vec<(TimerToken, &'static str)>,
        /// Compute items submitted, by token → payload.
        computes: HashMap<TimerToken, u64>,
        computes_done: usize,
        /// No-op cancels whose slot a live timer held at the time.
        stale_cancels_of_relet_slots: u32,
    }

    struct Fuzz {
        rng: SimRng,
        model: Rc<RefCell<Model>>,
        issued: Vec<TimerToken>,
        ops_left: u32,
    }

    impl Fuzz {
        fn arm(&mut self, ctx: &mut Ctx<'_>) {
            let tag = TAGS[self.rng.range(0, 3) as usize];
            let delay = SimDuration::from_millis(self.rng.range(0, 20));
            let mut m = self.model.borrow_mut();
            let idx = m.arms.len();
            let payload = self.rng.chance(0.5).then_some(idx as u64);
            let token = match payload {
                Some(payload) => ctx.timer_after_then(delay, tag, payload),
                None => ctx.timer_after(delay, tag),
            };
            m.arms.push((ctx.now() + delay, token, tag, payload, false));
            assert!(m.live.insert(token, idx).is_none(), "token issued twice");
            self.issued.push(token);
        }

        fn cancel(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            ctx.cancel_timer(token);
            let mut m = self.model.borrow_mut();
            match m.live.remove(&token) {
                Some(idx) => m.arms[idx].4 = true,
                None if m.live.keys().any(|t| t.slot == token.slot) => {
                    m.stale_cancels_of_relet_slots += 1;
                }
                None => {}
            }
        }

        fn act(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.rng.range(1, 5) {
                if self.ops_left == 0 {
                    return;
                }
                self.ops_left -= 1;
                match self.rng.range(0, 10) {
                    0..=3 => self.arm(ctx),
                    4..=7 if !self.issued.is_empty() => {
                        let i = self.rng.range(0, self.issued.len() as u64) as usize;
                        let token = self.issued[i];
                        self.cancel(ctx, token);
                        if self.rng.chance(0.3) {
                            self.cancel(ctx, token);
                        }
                    }
                    _ => {
                        let payload = u64::from(self.ops_left);
                        let cost = SimDuration::from_millis(self.rng.range(1, 10));
                        let token = ctx.compute_then(cost, "work", payload).expect("site is up");
                        self.model.borrow_mut().computes.insert(token, payload);
                        self.issued.push(token);
                    }
                }
            }
            if self.model.borrow().live.is_empty() {
                self.arm(ctx); // keep the run going until the ops are spent
            }
        }
    }

    impl Actor for Fuzz {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.act(ctx);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken, tag: &str) {
            {
                let mut m = self.model.borrow_mut();
                let idx = m.live.remove(&token).expect("fired a timer the model holds dead");
                let (_, _, armed_tag, payload, _) = m.arms[idx];
                assert_eq!(tag, armed_tag);
                assert_eq!(ctx.take_continuation::<u64>(), payload);
                assert_eq!(ctx.take_continuation::<u64>(), None, "taken once");
                m.fired.push((token, armed_tag));
            }
            self.act(ctx);
        }
        fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, token: TimerToken, tag: &str) {
            assert_eq!(tag, "work");
            assert_eq!(ctx.take_continuation::<String>(), None, "not a String: stays put");
            let payload = ctx.take_continuation::<u64>();
            assert_eq!(payload, self.model.borrow_mut().computes.remove(&token));
            assert_eq!(ctx.take_continuation::<u64>(), None, "taken once");
            self.model.borrow_mut().computes_done += 1;
        }
    }

    let mut stale = 0;
    for seed in 0..16 {
        let model = Rc::new(RefCell::new(Model::default()));
        let mut sim = Simulation::new(Topology::uniform(1), seed);
        sim.add_actor(
            SiteId(0),
            Box::new(Fuzz {
                rng: SimRng::from_seed(seed).fork("timer-model"),
                model: model.clone(),
                issued: Vec::new(),
                ops_left: 600,
            }),
        );
        sim.start();
        let mut events = 0;
        while sim.step() {
            events += 1;
            assert_eq!(sim.pending_timers(), model.borrow().live.len(), "seed {seed}");
        }
        let m = model.borrow();
        assert_eq!(events, m.arms.len() + m.computes_done, "seed {seed}: one pop each");
        assert!(m.computes.is_empty(), "seed {seed}: every compute item completed");
        // Arm order breaks ties, as the kernel's sequence number does.
        let mut expected: Vec<_> = m.arms.iter().filter(|a| !a.4).collect();
        expected.sort_by_key(|a| a.0);
        let expected: Vec<_> = expected.iter().map(|a| (a.1, a.2)).collect();
        assert_eq!(m.fired, expected, "seed {seed}");
        assert_eq!((sim.pending_timers(), sim.queue_len()), (0, 0));
        stale += m.stale_cancels_of_relet_slots;
    }
    assert!(stale > 100, "the runs must cancel through re-let slots ({stale})");
}

/// A `compute_then` payload is handed back by its completion and by no
/// other; when the site crashes first, the completion is void and the
/// payload is dropped with the event.
#[test]
fn compute_then_payload_rides_the_event_and_dies_with_a_crash() {
    use std::sync::Arc;

    struct Worker {
        payload: Arc<()>,
        resumed: u32,
    }
    impl Actor for Worker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute_then(SimDuration::from_millis(10), "w", self.payload.clone());
            ctx.compute(SimDuration::from_millis(10), "plain");
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
            let got = ctx.take_continuation::<Arc<()>>();
            assert_eq!(got.is_some(), tag == "w");
            self.resumed += 1;
        }
        fn on_site_restart(&mut self, ctx: &mut Ctx<'_>) {
            self.on_start(ctx);
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
    }

    let payload = Arc::new(());
    let mut sim = Simulation::new(Topology::uniform(1), 1);
    let worker = Worker {
        payload: payload.clone(),
        resumed: 0,
    };
    let id = sim.add_actor(SiteId(0), Box::new(worker));
    sim.schedule_crash(SimTime::from_millis(5), SiteId(0));
    sim.schedule_restart(SimTime::from_millis(50), SiteId(0));
    sim.start();
    sim.run_until(SimTime::from_millis(5));
    assert_eq!(Arc::strong_count(&payload), 3, "worker, event, test");
    sim.run_until(SimTime::from_millis(40));
    assert_eq!(Arc::strong_count(&payload), 2, "the void completion dropped its copy");
    assert_eq!(sim.actor_as::<Worker>(id).unwrap().resumed, 0);
    sim.run_to_quiescence(100);
    assert_eq!(sim.actor_as::<Worker>(id).unwrap().resumed, 2, "the new incarnation's own");
    assert_eq!(Arc::strong_count(&payload), 2);
}

/// The timer twin of the test above: the payload is dropped when the
/// timer pops while the site is down and when `cancel_timer` tombstones
/// its slot, and is delivered exactly once when the timer is due after
/// the restart.
#[test]
fn timer_then_payload_rides_the_event_and_dies_with_a_crash() {
    use std::sync::Arc;

    struct Waiter {
        payload: Arc<()>,
        fired: Vec<String>,
    }
    impl Actor for Waiter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let ms = SimDuration::from_millis;
            ctx.timer_after_then(ms(10), "down", self.payload.clone());
            let cut = ctx.timer_after_then(ms(80), "cut", self.payload.clone());
            ctx.cancel_timer(cut);
            ctx.timer_after_then(ms(60), "up", self.payload.clone());
            ctx.timer_after(ms(70), "plain");
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
            let got = ctx.take_continuation::<Arc<()>>();
            assert_eq!(got.is_some(), tag == "up");
            assert!(ctx.take_continuation::<Arc<()>>().is_none(), "taken once");
            self.fired.push(tag.to_string());
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
    }

    let payload = Arc::new(());
    let mut sim = Simulation::new(Topology::uniform(1), 1);
    let waiter = Waiter {
        payload: payload.clone(),
        fired: Vec::new(),
    };
    let id = sim.add_actor(SiteId(0), Box::new(waiter));
    sim.schedule_crash(SimTime::from_millis(5), SiteId(0));
    sim.schedule_restart(SimTime::from_millis(50), SiteId(0));
    sim.start();
    assert_eq!(Arc::strong_count(&payload), 4, "waiter, two live timers, test: not the cancelled");
    sim.run_until(SimTime::from_millis(40));
    assert_eq!(Arc::strong_count(&payload), 3, "the pop while down dropped its copy");
    assert!(sim.actor_as::<Waiter>(id).unwrap().fired.is_empty());
    sim.run_to_quiescence(100);
    assert_eq!(sim.actor_as::<Waiter>(id).unwrap().fired, ["up", "plain"]);
    assert_eq!(Arc::strong_count(&payload), 2, "delivered once and dropped by the callback");
    assert_eq!((sim.pending_timers(), sim.queue_len()), (0, 0));
}

/// A pool slot is one cache line at most (it was 88 bytes with the
/// site, the whole ticket and a trace context in every variant).
#[test]
fn an_event_slot_fits_a_cache_line() {
    assert!(std::mem::size_of::<EventKind>() <= 64);
    assert_eq!(
        std::mem::size_of::<Option<EventKind>>(),
        std::mem::size_of::<EventKind>(),
        "the pool's vacancy marker costs nothing"
    );
}

#[test]
fn schedulers_are_event_identical() {
    // The ablation flag flips throughput, never results: same seed,
    // same final clock, same message counts, same event count.
    let run = |kind: crate::queue::SchedulerKind| {
        let mut topo = Topology::uniform(2);
        topo.set_default_link(LinkSpec {
            latency: SimDuration::from_millis(10),
            bandwidth_bps: 1_000_000,
            jitter: 0.3,
        });
        let mut sim = Simulation::with_scheduler(topo, 77, kind);
        let b = sim.add_actor(
            SiteId(1),
            Box::new(Ping {
                peer: None,
                remaining: 50,
                got: 0,
            }),
        );
        sim.add_actor(
            SiteId(0),
            Box::new(Ping {
                peer: Some(b),
                remaining: 50,
                got: 0,
            }),
        );
        sim.start();
        let events = sim.run_to_quiescence(10_000);
        (
            sim.now(),
            events,
            sim.metrics().counter_value("net.msgs_sent"),
            sim.metrics().counter_value("net.bytes_sent"),
        )
    };
    assert_eq!(
        run(crate::queue::SchedulerKind::Calendar),
        run(crate::queue::SchedulerKind::BinaryHeap)
    );
}

#[test]
fn peak_queue_occupancy_tracks_high_water() {
    let (mut sim, a, _b) = two_site_sim();
    sim.start();
    for i in 0..32 {
        sim.inject(SimTime::from_secs(1 + i), ActorId(0), a, Tick);
    }
    assert!(sim.peak_queue_occupancy() >= 32);
    sim.run_to_quiescence(10_000);
    assert_eq!(sim.queue_len(), 0);
}

#[test]
fn restart_reinvokes_hook() {
    struct Phoenix;
    impl Actor for Phoenix {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn on_site_restart(&mut self, ctx: &mut Ctx<'_>) {
            ctx.metrics().counter("phoenix.reborn").inc();
        }
    }
    let topo = Topology::uniform(1);
    let mut sim = Simulation::new(topo, 6);
    sim.add_actor(SiteId(0), Box::new(Phoenix));
    sim.schedule_crash(SimTime::from_millis(10), SiteId(0));
    sim.schedule_restart(SimTime::from_millis(20), SiteId(0));
    sim.start();
    sim.run_to_quiescence(100);
    assert_eq!(sim.metrics().counter_value("phoenix.reborn"), 1);
    assert_eq!(sim.metrics().counter_value("fabric.crashes"), 1);
}

/// A torn crash is one kernel event, as a plain crash is, and it tears the
/// journal's tail first: `store.torn` precedes `site.crashed` and the
/// actors' last gasp.
#[test]
fn a_torn_crash_is_one_event_that_tears_before_the_last_gasp() {
    struct Journaler;
    impl Actor for Journaler {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..3 {
                ctx.store_append("put", format!("record {i}"));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
        fn on_site_crash(&mut self, ctx: &mut Ctx<'_>) {
            ctx.emit_event("test.gasp", "test", crate::events::NO_FIELDS);
        }
    }
    let run = |torn: usize| {
        let mut sim = Simulation::new(Topology::uniform(1), 3);
        sim.enable_store(crate::store::StoreConfig::standard());
        sim.enable_events(64);
        sim.add_actor(SiteId(0), Box::new(Journaler));
        sim.schedule_crash_torn(SimTime::from_secs(1), SiteId(0), torn);
        sim.start();
        let events = sim.run_to_quiescence(100);
        let kinds: Vec<_> = sim.events().unwrap().records().map(|r| r.kind).collect();
        (events, kinds, sim.store(SiteId(0)).unwrap().stats().torn_records)
    };
    let (plain_events, plain_kinds, _) = run(0);
    let (torn_events, torn_kinds, torn) = run(2);
    assert_eq!(torn_events, plain_events, "a torn crash costs no extra event");
    assert_eq!(plain_kinds, ["site.crashed", "test.gasp"]);
    assert_eq!(torn_kinds, ["store.torn", "site.crashed", "test.gasp"]);
    assert_eq!(torn, 2);
}
