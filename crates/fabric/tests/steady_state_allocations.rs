//! Allocation regression test for the kernel's steady state.
//!
//! Once its queue, pool and instruments are warm, a timer that fires,
//! re-arms itself, cancels one decoy timer and arms the next, and records a
//! counter, a labeled counter and a gauge through their handles must not
//! touch the allocator; a `ctx.send` must allocate its boxed payload and
//! nothing else; a `ctx.compute_then` its boxed continuation, freed when
//! the completion hands it back. A per-event `String` tag, a cloned label
//! set, a name search that builds its key or a side table that grows would
//! show here as bytes. `crates/glare-core/tests/probe_visit_allocations.rs`
//! pins a whole request the same way.
//!
//! The test owns its binary because it installs a counting global
//! allocator (`support/counting_alloc.rs`, shared with the other
//! allocation pins); the tally is per thread, so the harness's own threads
//! do not disturb it.

use glare_fabric::{
    Actor, ActorId, CounterId, Ctx, Envelope, GaugeId, Labels, SimDuration, SimTime, Simulation,
    SiteId, TimerToken, Topology, DEFAULT_GAUGE_WINDOW,
};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;

/// `(allocations, bytes requested, bytes freed)` while `sim` runs to `until`.
fn spent(sim: &mut Simulation, until: SimTime) -> (u64, u64, u64) {
    let before = tally();
    sim.run_until(until);
    let after = tally();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

/// Tick `k` of a `PERIOD` ticker fires at `(k + 1) × PERIOD`; a phase
/// boundary sits half a period after the phase's last tick, so each phase
/// holds exactly `PHASE` ticks.
fn end_of_phase(p: u64) -> SimTime {
    SimTime::ZERO + PERIOD * (p * PHASE) + PERIOD / 2
}

const PERIOD: SimDuration = SimDuration::from_millis(1);
/// Ticks per phase: several turns of the calendar ring, so that every
/// bucket has been used before anything is measured.
const PHASE: u64 = 4096;

struct Ping(#[allow(dead_code)] u64);

/// Ticks every `PERIOD`: re-arms, cancels the decoy timer of the previous
/// tick while it is still pending and arms the next, records by handle, and
/// from tick `send_from` on also sends one `Ping` to `peer`.
struct Ticker {
    peer: ActorId,
    decoy: Option<TimerToken>,
    labels: Labels,
    ids: Option<(CounterId, CounterId, GaugeId)>,
    ticks: u64,
    send_from: u64,
}

impl Actor for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_after(PERIOD, "tick");
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
        assert_eq!(tag, "tick", "a cancelled decoy never fires");
        ctx.timer_after(PERIOD, "tick");
        if let Some(decoy) = self.decoy.replace(ctx.timer_after(PERIOD * 3, "decoy")) {
            ctx.cancel_timer(decoy);
        }
        let now = ctx.now();
        let m = ctx.metrics();
        let (flat, labeled, gauge) = *self.ids.get_or_insert_with(|| {
            (
                m.counter_id("ticker.ticks"),
                m.counter_labeled_id("glare_ticks_total", &self.labels),
                m.gauge_id("glare_tick_level", &self.labels),
            )
        });
        m.counter_at(flat).inc();
        m.counter_at(labeled).inc();
        m.gauge_at(gauge).set(now, self.ticks as f64);
        if self.ticks >= self.send_from {
            ctx.send(self.peer, Ping(self.ticks));
        }
        self.ticks += 1;
    }
}

/// Receives and drops.
struct Sink;

impl Actor for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
}

#[test]
fn warm_timer_rounds_allocate_nothing_and_a_send_only_its_box() {
    let mut sim = Simulation::new(Topology::uniform(2), 7);
    let sink = sim.add_actor(SiteId(1), Box::new(Sink));
    sim.add_actor(
        SiteId(0),
        Box::new(Ticker {
            peer: sink,
            decoy: None,
            labels: Labels::of(&[("site", "site0")]),
            ids: None,
            ticks: 0,
            send_from: 2 * PHASE,
        }),
    );
    sim.start();
    // All four phases end inside the gauge's first 60 s bucket.
    assert!(end_of_phase(4) < SimTime::ZERO + DEFAULT_GAUGE_WINDOW);

    sim.run_until(end_of_phase(1)); // warm-up, timers only
    let (allocations, bytes, _) = spent(&mut sim, end_of_phase(2));
    assert_eq!(
        (allocations, bytes),
        (0, 0),
        "(allocations, bytes) over {PHASE} warm fire, re-arm, cancel, arm rounds"
    );

    sim.run_until(end_of_phase(3)); // warm-up again, now with a send per tick
    let (allocations, bytes, _) = spent(&mut sim, end_of_phase(4));
    assert_eq!(
        (allocations, bytes),
        (PHASE, PHASE * std::mem::size_of::<Ping>() as u64),
        "(allocations, bytes) over {PHASE} rounds that each send one Ping"
    );

    assert_eq!(sim.metrics().counter_value("ticker.ticks"), 4 * PHASE);
    assert_eq!(sim.metrics().counter_value("net.msgs_sent"), 2 * PHASE);
}

/// What a `Cruncher` parks on each compute item.
struct Parked(#[allow(dead_code)] [u64; 5]);

/// Ticks every `PERIOD` and submits one compute item per tick whose
/// completion carries a `Parked`.
struct Cruncher {
    resumed: u64,
}

impl Actor for Cruncher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_after(PERIOD, "tick");
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        ctx.timer_after(PERIOD, "tick");
        ctx.compute_then(PERIOD / 4, "crunch", Parked([self.resumed; 5]));
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        assert!(ctx.take_continuation::<Parked>().is_some());
        self.resumed += 1;
    }
}

#[test]
fn a_compute_then_round_allocates_its_payload_and_frees_it_at_completion() {
    let mut sim = Simulation::new(Topology::uniform(1), 7);
    sim.add_actor(SiteId(0), Box::new(Cruncher { resumed: 0 }));
    sim.start();
    sim.run_until(end_of_phase(1));
    let parked = PHASE * std::mem::size_of::<Parked>() as u64;
    assert_eq!(
        spent(&mut sim, end_of_phase(2)),
        (PHASE, parked, parked),
        "(allocations, bytes, bytes freed) over {PHASE} compute_then rounds"
    );
}
