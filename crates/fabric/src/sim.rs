//! The discrete-event kernel.
//!
//! A [`Simulation`] owns a [`Topology`], one [`SiteRuntime`] per site, and a
//! set of [`Actor`]s placed on sites. Actors communicate exclusively by
//! message passing; the kernel prices every message with the link between
//! the two sites (latency + serialization + jitter) and refuses delivery
//! across partitions or to crashed sites. CPU-bound work is priced through
//! `Ctx::compute`, which feeds the per-site run-queue/load-average model.
//!
//! Everything is deterministic given the master seed: the event queue is
//! ordered by `(time, sequence-number)` and all randomness flows from
//! [`SimRng`](crate::rng::SimRng) forks.
//!
//! The module is cut where DSLab's core draws its lines: the simulation
//! owns clock, queue and RNG, each component reaches them through a
//! context, and one handler trait receives events.
//! - `kernel` — the state actors share (clock, event pool and queue, sites,
//!   RNG, sinks) and the dispatch loop, `Simulation::step`.
//! - `ctx` — [`Ctx`], an actor's view of the kernel during a callback:
//!   messaging, timers, compute, spans, store and events.
//! - `faults` — what the kernel does to a message or a site on a fault
//!   script's behalf: loss, partitions, gray degradation, crash and
//!   restart. The script itself is [`FaultPlan`](crate::fault::FaultPlan).
//! - this file — the façade: the public types and the calls that build,
//!   inspect and run a simulation.

use std::any::Any;

use crate::events::EventLog;
use crate::metrics::MetricsRegistry;
use crate::queue::SchedulerKind;
use crate::site::{SiteRuntime, LOAD_SAMPLE_INTERVAL};
use crate::store::StoreConfig;
use crate::time::{SimDuration, SimTime};
use crate::topology::{SiteId, Topology};
use crate::trace::{TraceContext, TraceSink};

mod ctx;
mod faults;
mod kernel;

pub use ctx::Ctx;
use kernel::{EventKind, Kernel, TraceState};

/// Identifier of an actor registered with the kernel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub u32);

impl ActorId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// Opaque message payload. Actors downcast with [`Envelope::downcast`].
pub type Msg = Box<dyn Any + Send>;

/// A delivered message with its provenance.
pub struct Envelope {
    /// Sender actor.
    pub from: ActorId,
    /// Payload.
    pub msg: Msg,
    /// Causal context the kernel attached when the message was sent
    /// (`None` when tracing is disabled or the message was injected).
    pub trace: Option<TraceContext>,
}

impl Envelope {
    /// Downcast the payload to a concrete message type.
    pub fn downcast<T: 'static>(self) -> Result<(ActorId, T), Envelope> {
        let from = self.from;
        let trace = self.trace;
        match self.msg.downcast::<T>() {
            Ok(b) => Ok((from, *b)),
            Err(msg) => Err(Envelope { from, msg, trace }),
        }
    }
}

/// Handle to a pending timer or compute item, usable for cancellation.
///
/// It names the pool slot its event waits in; `gen`, the kernel's issue
/// counter, tells the slot's tenants apart once the slot is reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken {
    gen: u64,
    slot: u32,
}

/// Behaviour of a simulated component.
///
/// All methods take a [`Ctx`] granting access to the kernel (time, sends,
/// timers, per-site CPU, RNG, metrics).
pub trait Actor {
    /// Invoked once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope);

    /// A timer armed with [`Ctx::timer_after`] or [`Ctx::timer_after_then`]
    /// fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {}

    /// A CPU work item submitted with `Ctx::compute` or
    /// [`Ctx::compute_then`] finished.
    fn on_compute_done(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {}

    /// The actor's site just crashed (in-flight work and timers survive in
    /// the queue but will be suppressed while down).
    fn on_site_crash(&mut self, _ctx: &mut Ctx<'_>) {}

    /// The actor's site came back up; re-arm heartbeats here.
    fn on_site_restart(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Expose the concrete actor for read-only inspection (e.g. invariant
    /// checkers walking overlay state after a chaos run). Implementations
    /// that want to be inspectable return `Some(self)`; the default keeps
    /// the actor opaque.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// The complete simulation: kernel plus actors.
pub struct Simulation {
    kernel: Kernel,
    actors: Vec<Option<Box<dyn Actor>>>,
    started: bool,
}

impl Simulation {
    /// Build a simulation over `topology` with the given master seed and
    /// the default (calendar) scheduler.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Simulation::with_scheduler(topology, seed, SchedulerKind::default())
    }

    /// Build a simulation with an explicit event-queue implementation
    /// (the scale bench's ablation flag; results are byte-identical
    /// either way, only throughput differs).
    pub fn with_scheduler(topology: Topology, seed: u64, scheduler: SchedulerKind) -> Self {
        Simulation {
            kernel: Kernel::new(topology, seed, scheduler),
            actors: Vec::new(),
            started: false,
        }
    }

    /// Inspect a registered actor as its concrete type, when the actor
    /// opted into inspection via [`Actor::as_any`]. Returns `None` for
    /// unknown ids, opaque actors, or type mismatches.
    pub fn actor_as<T: Any>(&self, id: ActorId) -> Option<&T> {
        self.actors
            .get(id.index())?
            .as_ref()?
            .as_any()?
            .downcast_ref::<T>()
    }

    /// Turn on causal tracing, buffering at most `max_spans` spans.
    ///
    /// Tracing is observe-only: it draws no randomness and changes no
    /// event timing, so results are identical with tracing on or off.
    pub fn enable_tracing(&mut self, max_spans: usize) {
        let sink = TraceSink::new(max_spans);
        let (stack, slot_ctx) = (Vec::new(), Vec::new());
        self.kernel.trace = Some(Box::new(TraceState { sink, stack, slot_ctx }));
    }

    /// The trace sink, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.kernel.trace.as_ref().map(|ts| &ts.sink)
    }

    /// Detach the trace sink (closing any still-open spans at the current
    /// time) and disable tracing. `None` when tracing was never enabled.
    ///
    /// Spans discarded at the sink bound are surfaced as the
    /// `"trace.spans_dropped"` counter so harnesses can warn instead of
    /// losing them silently.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        let mut sink = self.kernel.trace.take()?.sink;
        sink.finish(self.kernel.now);
        if sink.dropped() > 0 {
            let metrics = &mut self.kernel.metrics;
            metrics.counter("trace.spans_dropped").add(sink.dropped());
        }
        Some(sink)
    }

    /// Turn on the structured event log, retaining at most `max_events`
    /// records.
    ///
    /// Like tracing, the log is observe-only: emitting draws no
    /// randomness and changes no event timing.
    pub fn enable_events(&mut self, max_events: usize) {
        self.kernel.events = Some(EventLog::new(max_events));
    }

    /// The event log, when enabled.
    pub fn events(&self) -> Option<&EventLog> {
        self.kernel.events.as_ref()
    }

    /// Detach the event log and disable event emission. `None` when the
    /// log was never enabled.
    pub fn take_events(&mut self) -> Option<EventLog> {
        self.kernel.events.take()
    }

    /// Register an actor on a site, returning its id.
    ///
    /// # Panics
    /// Panics if called after [`Simulation::start`] or with an unknown site.
    pub fn add_actor(&mut self, site: SiteId, actor: Box<dyn Actor>) -> ActorId {
        assert!(!self.started, "add_actor after start");
        assert!(
            site.index() < self.kernel.sites.len(),
            "unknown site {site}"
        );
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        self.kernel.actor_sites.push(site);
        id
    }

    /// Run every actor's `on_start`.
    pub fn start(&mut self) {
        assert!(!self.started, "start called twice");
        self.started = true;
        for i in 0..self.actors.len() {
            self.with_actor(ActorId(i as u32), |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// High-water mark of concurrent pending events over the whole run —
    /// the "peak queue occupancy" column of the scale bench.
    pub fn peak_queue_occupancy(&self) -> usize {
        self.kernel.peak_queue
    }

    /// Immutable metrics access for the harness.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.kernel.metrics
    }

    /// The topology the simulation runs over.
    pub fn topology(&self) -> &Topology {
        &self.kernel.topology
    }

    /// Runtime state of a site.
    pub fn site(&self, id: SiteId) -> &SiteRuntime {
        &self.kernel.sites[id.index()]
    }

    /// Turn the durability layer on (or reconfigure it). Call before
    /// [`Simulation::start`] so initial snapshots land in the stores.
    pub fn enable_store(&mut self, cfg: StoreConfig) {
        self.kernel.store_cfg = cfg;
    }

    /// Run a closure against the whole simulation at time `at` (used by
    /// experiment drivers to inject load or flip configuration mid-run).
    pub fn schedule_call<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut Simulation) + Send + 'static,
    {
        self.kernel.schedule(at, EventKind::Call(Box::new(f)), None);
    }

    /// Inject a message from the outside world (priced as local delivery
    /// from a designated source actor).
    pub fn inject<T: Any + Send>(&mut self, at: SimTime, from: ActorId, to: ActorId, msg: T) {
        let msg = Box::new(msg);
        self.kernel.schedule(at, EventKind::Deliver { to, from, msg }, None);
    }

    /// Start sampling every site's load average each 5 s until `until`,
    /// into the `glare_site_load1m{site}` windowed gauge.
    pub fn enable_load_sampling(&mut self, until: SimTime) {
        let at = self.kernel.now + LOAD_SAMPLE_INTERVAL;
        self.kernel.schedule(at, EventKind::SampleLoads { until }, None);
    }

    /// Process events until the queue is drained or the horizon passes.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        assert!(self.started, "call start() before running");
        let mut n = 0;
        while self.kernel.queue.peek().is_some_and(|key| key.at <= horizon) {
            self.step();
            n += 1;
        }
        if self.kernel.now < horizon {
            self.kernel.now = horizon;
        }
        n
    }

    /// Convenience: run for a duration from now.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let horizon = self.kernel.now + d;
        self.run_until(horizon)
    }
}

#[cfg(test)]
mod tests;
