//! Allocation regression test for the kernel's steady state.
//!
//! Once its queue, pool and instruments are warm, a timer that fires,
//! re-arms itself and records a counter, a labeled counter and a gauge
//! through their handles must not touch the allocator, and a `ctx.send`
//! must allocate its boxed payload and nothing else. A per-event `String`
//! tag, a cloned label set or a name search that builds its key would
//! show here as bytes.
//!
//! The test owns its binary because it installs a counting global
//! allocator; the tally is per thread, so the harness's own threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use glare_fabric::{
    Actor, ActorId, CounterId, Ctx, Envelope, GaugeId, Labels, SimDuration, SimTime, Simulation,
    SiteId, TimerToken, Topology, DEFAULT_GAUGE_WINDOW,
};

thread_local! {
    /// `(allocations, bytes)` requested by this thread.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tally is a `Cell` of plain integers with no
// destructor, so touching it allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TALLY.try_with(|t| {
            let (n, bytes) = t.get();
            t.set((n + 1, bytes + layout.size() as u64));
        });
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn tally() -> (u64, u64) {
    TALLY.with(Cell::get)
}

const PERIOD: SimDuration = SimDuration::from_millis(1);
/// Ticks per phase: several turns of the calendar ring, so that every
/// bucket has been used before anything is measured.
const PHASE: u64 = 4096;

struct Ping(#[allow(dead_code)] u64);

/// Ticks every `PERIOD`: re-arms, records by handle, and from tick
/// `send_from` on also sends one `Ping` to `peer`.
struct Ticker {
    peer: ActorId,
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
        assert_eq!(tag, "tick");
        ctx.timer_after(PERIOD, "tick");
        let now = ctx.now();
        let m = ctx.metrics();
        let (flat, labeled, gauge) = *self.ids.get_or_insert_with(|| {
            (
                m.counter_id("ticker.ticks"),
                m.counter_labeled_id("glare_ticks_total", &self.labels),
                m.gauge_id("glare_tick_level", &self.labels, DEFAULT_GAUGE_WINDOW),
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
            labels: Labels::of(&[("site", "site0")]),
            ids: None,
            ticks: 0,
            send_from: 2 * PHASE,
        }),
    );
    sim.start();
    // Tick k fires at (k + 1) × PERIOD; a phase boundary sits half a period
    // after the phase's last tick, so each phase holds exactly PHASE ticks.
    // All four phases end inside the gauge's first 60 s bucket.
    let end_of_phase = |p: u64| SimTime::ZERO + PERIOD * (p * PHASE) + PERIOD / 2;
    assert!(end_of_phase(4) < SimTime::ZERO + DEFAULT_GAUGE_WINDOW);

    sim.run_until(end_of_phase(1)); // warm-up, timers only
    let before = tally();
    sim.run_until(end_of_phase(2));
    let after = tally();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, bytes) over {PHASE} warm timer rounds"
    );

    sim.run_until(end_of_phase(3)); // warm-up again, now with a send per tick
    let before = tally();
    sim.run_until(end_of_phase(4));
    let after = tally();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (PHASE, PHASE * std::mem::size_of::<Ping>() as u64),
        "(allocations, bytes) over {PHASE} rounds that each send one Ping"
    );

    assert_eq!(sim.metrics().counter_value("ticker.ticks"), 4 * PHASE);
    assert_eq!(sim.metrics().counter_value("net.msgs_sent"), 2 * PHASE);
}
