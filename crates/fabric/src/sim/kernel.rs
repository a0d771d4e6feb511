//! The state actors share and the loop that dispatches to them: clock,
//! event pool and queue, sites, RNG and sinks, and [`Simulation::step`].

use std::collections::BTreeMap;

use super::faults::{DropReason, Faults};
use super::{Actor, ActorId, Ctx, Envelope, Msg, Simulation, TimerToken};
use crate::events::{EventLog, FieldValue};
use crate::metrics::{CounterId, GaugeId, Labels, MetricsRegistry};
use crate::queue::{EventKey, EventPool, EventQueue, SchedulerKind};
use crate::rng::SimRng;
use crate::site::{SiteRuntime, TicketEpoch, LOAD_SAMPLE_INTERVAL};
use crate::store::{SiteStore, StoreConfig};
use crate::time::SimTime;
use crate::topology::{SiteId, Topology};
use crate::trace::{TraceContext, TraceSink};

/// What a pool slot holds. The slot's index is the other half of a
/// timer's or compute item's [`TimerToken`], and the event's trace context
/// lives beside the pool ([`TraceState::slot_ctx`]), so an untraced run
/// carries none.
pub(super) enum EventKind {
    Deliver {
        to: ActorId,
        from: ActorId,
        msg: Msg,
    },
    Timer {
        actor: ActorId,
        gen: u64,
        tag: &'static str,
        /// Payload of [`Ctx::timer_after_then`].
        then: Option<Msg>,
    },
    ComputeDone {
        actor: ActorId,
        /// Epoch of the actor's site at submission; a crash since voids
        /// the completion, and `then` dies with it.
        epoch: TicketEpoch,
        gen: u64,
        tag: &'static str,
        /// Payload of [`Ctx::compute_then`].
        then: Option<Msg>,
    },
    /// The site goes down, first tearing `torn` records off its journal.
    SiteCrash {
        site: SiteId,
        torn: usize,
    },
    SiteRestart(SiteId),
    SampleLoads {
        until: SimTime,
    },
    Call(Box<dyn FnOnce(&mut Simulation) + Send>),
    /// Tombstone left by a cancelled timer. The key still pops (advancing
    /// time and counting as a processed event, exactly like the old
    /// cancellation-set design) but dispatches nothing; its pool slot is
    /// reclaimed at pop like any other event's.
    Cancelled,
}

/// Handles of the instruments the kernel records into per message and per
/// load sample. Each is resolved at its first record, so an instrument
/// appears in exposition exactly when it first counts something, and from
/// then on recording is an index, with no name or label search.
pub(super) struct KernelIds {
    /// `net.msgs_sent`.
    pub(super) msgs_sent: Option<CounterId>,
    /// `net.bytes_sent`.
    pub(super) bytes_sent: Option<CounterId>,
    /// `net.msgs_dropped.{reason}`, by [`DropReason`].
    pub(super) dropped: [Option<CounterId>; 3],
    /// `glare_net_dropped_total{reason, site}`, by site then [`DropReason`].
    pub(super) dropped_at: Vec<[Option<CounterId>; 3]>,
    /// `glare_site_load1m{site}`, by site.
    site_load: Vec<Option<GaugeId>>,
}

/// Tracing state: the sink plus the ambient context stack of the event
/// currently being dispatched (index 0 = the event's own context; pushed
/// entries are spans the actor opened with `Ctx::span`).
pub(super) struct TraceState {
    pub(super) sink: TraceSink,
    pub(super) stack: Vec<TraceContext>,
    /// Context each pending event was scheduled under, by pool slot;
    /// rewritten at every schedule, so a reused slot never shows its
    /// previous tenant's.
    pub(super) slot_ctx: Vec<Option<TraceContext>>,
}

/// Kernel state shared with actors through [`Ctx`].
pub(super) struct Kernel {
    pub(super) now: SimTime,
    seq: u64,
    pub(super) queue: EventQueue,
    /// Payload slab; keys in `queue` index into it. Occupancy always
    /// equals `queue.len()` (asserted), so cancel-heavy workloads cannot
    /// grow it without bound.
    pub(super) pool: EventPool<EventKind>,
    /// Armed timers that have neither fired nor been cancelled.
    pub(super) live_timers: usize,
    /// Payload of the timer or compute completion being dispatched, until
    /// [`Ctx::take_continuation`] or the end of the callback.
    pub(super) continuation: Option<Msg>,
    /// Handles of the kernel's own hot instruments.
    pub(super) ids: KernelIds,
    /// High-water mark of concurrent pending events.
    pub(super) peak_queue: usize,
    pub(super) topology: Topology,
    pub(super) sites: Vec<SiteRuntime>,
    pub(super) actor_sites: Vec<SiteId>,
    next_gen: u64,
    pub(super) rng: SimRng,
    pub(super) metrics: MetricsRegistry,
    /// Loss, partitions and gray degradation currently in force.
    pub(super) faults: Faults,
    pub(super) trace: Option<Box<TraceState>>,
    pub(super) events: Option<EventLog>,
    pub(super) store_cfg: StoreConfig,
    pub(super) stores: BTreeMap<SiteId, SiteStore>,
}

impl Kernel {
    pub(super) fn new(topology: Topology, seed: u64, scheduler: SchedulerKind) -> Kernel {
        let sites: Vec<SiteRuntime> = topology
            .site_ids()
            .map(|s| SiteRuntime::new(topology.site(s)))
            .collect();
        let n = sites.len();
        // Pre-size for a handful of in-flight events per site; both the
        // pool and the queue grow transparently past this.
        let expected = (n * 4).max(256);
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(scheduler, expected),
            pool: EventPool::with_capacity(expected),
            live_timers: 0,
            continuation: None,
            ids: KernelIds {
                msgs_sent: None,
                bytes_sent: None,
                dropped: [None; 3],
                dropped_at: vec![[None; 3]; n],
                site_load: vec![None; n],
            },
            peak_queue: 0,
            topology,
            sites,
            actor_sites: Vec::new(),
            next_gen: 0,
            rng: SimRng::from_seed(seed).fork("kernel"),
            metrics: MetricsRegistry::new(),
            faults: Faults::default(),
            trace: None,
            events: None,
            store_cfg: StoreConfig::disabled(),
            stores: BTreeMap::new(),
        }
    }

    /// The site `actor` lives on.
    pub(super) fn site_of(&self, actor: ActorId) -> SiteId {
        self.actor_sites[actor.index()]
    }

    /// A fresh generation for a timer or compute token.
    pub(super) fn next_gen(&mut self) -> u64 {
        let gen = self.next_gen;
        self.next_gen += 1;
        gen
    }

    /// Innermost ambient trace context, if tracing is on and the current
    /// event carried (or opened) one.
    pub(super) fn ambient(&self) -> Option<TraceContext> {
        self.trace
            .as_ref()
            .and_then(|ts| ts.stack.last().copied())
    }

    /// Reset the ambient stack for a new event dispatch.
    fn set_ambient(&mut self, tctx: Option<TraceContext>) {
        if let Some(ts) = &mut self.trace {
            ts.stack.clear();
            if let Some(c) = tctx {
                ts.stack.push(c);
            }
        }
    }

    pub(super) fn schedule(&mut self, at: SimTime, kind: EventKind, tctx: Option<TraceContext>) -> u32 {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.pool.insert(kind);
        if let Some(ts) = &mut self.trace {
            if ts.slot_ctx.len() <= slot as usize {
                ts.slot_ctx.resize(slot as usize + 1, None);
            }
            ts.slot_ctx[slot as usize] = tctx;
        }
        self.queue.push(EventKey { at, seq, slot });
        let len = self.queue.len();
        if len > self.peak_queue {
            self.peak_queue = len;
        }
        debug_assert_eq!(self.pool.len(), len, "pool/queue occupancy diverged");
        slot
    }

    /// Record an event attributed to `site`, when the log is on; `fields`
    /// runs only when the log will keep the record.
    pub(super) fn emit_with<V: Into<FieldValue>, I: IntoIterator<Item = (&'static str, V)>>(
        &mut self,
        kind: &'static str,
        site: SiteId,
        component: &'static str,
        fields: impl FnOnce() -> I,
    ) {
        if let Some(log) = &mut self.events {
            log.emit_with(self.now, kind, Some(site), component, fields);
        }
    }

    /// Pop phase: take the earliest event out of the queue and its pool
    /// slot, fetch the trace context it was scheduled under, and advance
    /// the clock to it.
    fn pop(&mut self) -> Option<(u32, EventKind, Option<TraceContext>)> {
        let key = self.queue.pop()?;
        let kind = self.pool.take(key.slot);
        let slot_ctx = self.trace.as_ref().map(|ts| &ts.slot_ctx);
        let tctx = slot_ctx.and_then(|ctxs| *ctxs.get(key.slot as usize)?);
        debug_assert_eq!(self.pool.len(), self.queue.len(), "pool/queue occupancy diverged");
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        Some((key.slot, kind, tctx))
    }

    /// Fold a 5 s sample into every site's load average, record it in the
    /// `glare_site_load1m{site}` gauge, and schedule the next sample while
    /// it is due by `until`.
    fn sample_loads(&mut self, until: SimTime) {
        let now = self.now;
        let metrics = &mut self.metrics;
        for (i, site) in self.sites.iter_mut().enumerate() {
            site.sample_load();
            let load = site.load_average_1m();
            let gauge = *self.ids.site_load[i].get_or_insert_with(|| {
                let labels = Labels::of(&[("site", &format!("site{i}"))]);
                metrics.gauge_id("glare_site_load1m", &labels)
            });
            metrics.gauge_at(gauge).set(now, load);
        }
        let next = now + LOAD_SAMPLE_INTERVAL;
        if next <= until {
            self.schedule(next, EventKind::SampleLoads { until }, None);
        }
    }
}

impl Simulation {
    /// Execute exactly one event. Returns `false` when the queue is empty.
    ///
    /// Four phases: `Kernel::pop` the next event; drop it or deliver it
    /// (a message or timer whose site is down, and a completion whose site
    /// crashed since submission, is dropped here with its payload);
    /// `dispatch` the actor's callback; and account, at the end of
    /// `with_actor`, where the kernel forgets the event's continuation and
    /// ambient context.
    pub(crate) fn step(&mut self) -> bool {
        let Some((slot, kind, tctx)) = self.kernel.pop() else {
            return false;
        };
        match kind {
            EventKind::Deliver { to, from, msg } => {
                let site = self.kernel.site_of(to);
                if self.kernel.sites[site.index()].is_up() {
                    let env = Envelope { from, msg, trace: tctx };
                    self.dispatch(to, tctx, None, |a, ctx| a.on_message(ctx, env));
                } else {
                    self.kernel.count_drop(site, DropReason::SiteDown);
                }
            }
            EventKind::Timer { actor, gen, tag, then } => {
                self.kernel.live_timers -= 1;
                let site = self.kernel.site_of(actor);
                if self.kernel.sites[site.index()].is_up() {
                    let token = TimerToken { gen, slot };
                    self.dispatch(actor, tctx, then, |a, ctx| a.on_timer(ctx, token, tag));
                }
            }
            EventKind::ComputeDone { actor, epoch, gen, tag, then } => {
                let site = self.kernel.site_of(actor);
                if self.kernel.sites[site.index()].complete(epoch) {
                    let token = TimerToken { gen, slot };
                    self.dispatch(actor, tctx, then, |a, ctx| a.on_compute_done(ctx, token, tag));
                }
            }
            EventKind::SiteCrash { site, torn } => self.crash_site(site, torn),
            EventKind::SiteRestart(site) => self.restart_site(site),
            EventKind::SampleLoads { until } => self.kernel.sample_loads(until),
            EventKind::Call(f) => f(self),
            // A tombstoned timer: the pop advanced time and freed the slot.
            EventKind::Cancelled => {}
        }
        true
    }

    /// Dispatch phase: run `f` on `actor` under the event's trace context,
    /// with `then` as the continuation [`Ctx::take_continuation`] hands out.
    fn dispatch<F>(&mut self, actor: ActorId, tctx: Option<TraceContext>, then: Option<Msg>, f: F)
    where
        F: FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    {
        self.kernel.set_ambient(tctx);
        self.kernel.continuation = then;
        self.with_actor(actor, f);
    }

    /// Run `f` on every actor placed on `site`, in registration order.
    pub(super) fn for_actors_on(&mut self, site: SiteId, f: fn(&mut dyn Actor, &mut Ctx<'_>)) {
        for i in 0..self.actors.len() {
            if self.kernel.actor_sites[i] == site {
                self.with_actor(ActorId(i as u32), f);
            }
        }
    }

    pub(super) fn with_actor<F>(&mut self, id: ActorId, f: F)
    where
        F: FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    {
        let mut actor = self.actors[id.index()]
            .take()
            .unwrap_or_else(|| panic!("actor {id} re-entered"));
        let mut ctx = Ctx {
            self_site: self.kernel.site_of(id),
            kernel: &mut self.kernel,
            self_id: id,
        };
        f(actor.as_mut(), &mut ctx);
        self.actors[id.index()] = Some(actor);
        // Account: an untaken continuation dies with its event, and no
        // ambient context leaks into the next one.
        self.kernel.continuation = None;
        self.kernel.set_ambient(None);
    }
}
