//! The discrete-event kernel.
//!
//! A [`Simulation`] owns a [`Topology`], one [`SiteRuntime`] per site, and a
//! set of [`Actor`]s placed on sites. Actors communicate exclusively by
//! message passing; the kernel prices every message with the link between
//! the two sites (latency + serialization + jitter) and refuses delivery
//! across partitions or to crashed sites. CPU-bound work is priced through
//! [`Ctx::compute`], which feeds the per-site run-queue/load-average model.
//!
//! Everything is deterministic given the master seed: the event queue is
//! ordered by `(time, sequence-number)` and all randomness flows from
//! [`SimRng`] forks.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};

use crate::events::EventLog;
use crate::metrics::{CounterId, GaugeId, Labels, MetricsRegistry};
use crate::queue::{EventKey, EventPool, EventQueue, SchedulerKind};
use crate::rng::SimRng;
use crate::site::{SiteRuntime, TicketEpoch, LOAD_SAMPLE_INTERVAL};
use crate::store::{replay_cost, RecoveredState, SiteStore, StoreConfig, FSYNC_COST};
use crate::time::{SimDuration, SimTime};
use crate::topology::{SiteId, Topology};
use crate::trace::{SpanHandle, SpanKind, TraceContext, TraceSink};

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

    /// Peek whether the payload is of type `T` without consuming.
    pub fn is<T: 'static>(&self) -> bool {
        self.msg.is::<T>()
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

    /// A CPU work item submitted with [`Ctx::compute`] or
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

/// What a pool slot holds. The slot's index is the other half of a
/// timer's or compute item's [`TimerToken`], and the event's trace context
/// lives beside the pool ([`TraceState::slot_ctx`]), so an untraced run
/// carries none.
enum EventKind {
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
    SiteCrash(SiteId),
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

/// Why the kernel dropped a message.
#[derive(Clone, Copy)]
enum DropReason {
    Partition,
    Loss,
    SiteDown,
}

impl DropReason {
    /// The `reason` label value.
    fn label(self) -> &'static str {
        match self {
            DropReason::Partition => "partition",
            DropReason::Loss => "loss",
            DropReason::SiteDown => "site_down",
        }
    }

    /// The flat counter of all drops for this reason.
    fn counter_name(self) -> &'static str {
        match self {
            DropReason::Partition => "net.msgs_dropped.partition",
            DropReason::Loss => "net.msgs_dropped.loss",
            DropReason::SiteDown => "net.msgs_dropped.site_down",
        }
    }
}

/// Handles of the instruments the kernel records into per message and per
/// load sample. Each is resolved at its first record, so an instrument
/// appears in exposition exactly when it first counts something, and from
/// then on recording is an index, with no name or label search.
struct KernelIds {
    /// `net.msgs_sent`.
    msgs_sent: Option<CounterId>,
    /// `net.bytes_sent`.
    bytes_sent: Option<CounterId>,
    /// `net.msgs_dropped.{reason}`, by [`DropReason`].
    dropped: [Option<CounterId>; 3],
    /// `glare_net_dropped_total{reason, site}`, by site then [`DropReason`].
    dropped_at: Vec<[Option<CounterId>; 3]>,
    /// `glare_site_load1m{site}`, by site.
    site_load: Vec<Option<GaugeId>>,
}

impl KernelIds {
    fn for_sites(n: usize) -> KernelIds {
        KernelIds {
            msgs_sent: None,
            bytes_sent: None,
            dropped: [None; 3],
            dropped_at: vec![[None; 3]; n],
            site_load: vec![None; n],
        }
    }
}

/// Tracing state: the sink plus the ambient context stack of the event
/// currently being dispatched (index 0 = the event's own context; pushed
/// entries are spans the actor opened with `Ctx::span`).
struct TraceState {
    sink: TraceSink,
    stack: Vec<TraceContext>,
    /// Context each pending event was scheduled under, by pool slot;
    /// rewritten at every schedule, so a reused slot never shows its
    /// previous tenant's.
    slot_ctx: Vec<Option<TraceContext>>,
}

/// Kernel state shared with actors through [`Ctx`].
pub struct Kernel {
    now: SimTime,
    seq: u64,
    queue: EventQueue,
    /// Payload slab; keys in `queue` index into it. Occupancy always
    /// equals `queue.len()` (asserted), so cancel-heavy workloads cannot
    /// grow it without bound.
    pool: EventPool<EventKind>,
    /// Armed timers that have neither fired nor been cancelled.
    live_timers: usize,
    /// Payload of the timer or compute completion being dispatched, until
    /// [`Ctx::take_continuation`] or the end of the callback.
    continuation: Option<Msg>,
    /// Handles of the kernel's own hot instruments.
    ids: KernelIds,
    /// High-water mark of concurrent pending events.
    peak_queue: usize,
    topology: Topology,
    sites: Vec<SiteRuntime>,
    actor_sites: Vec<SiteId>,
    next_token: u64,
    rng: SimRng,
    metrics: MetricsRegistry,
    /// Probability that any inter-site message is silently lost, unless
    /// the pair has an entry in `link_drop`.
    drop_probability: f64,
    link_drop: HashMap<(SiteId, SiteId), f64>,
    /// Gray-failure latency multipliers per *directed* site pair. Consulted
    /// after the base+jitter delay is computed and consuming no randomness,
    /// so runs without any degradation are event-identical to a kernel
    /// without the feature.
    link_degrade: HashMap<(SiteId, SiteId), f64>,
    partitions: HashSet<(SiteId, SiteId)>,
    stopped: bool,
    trace: Option<Box<TraceState>>,
    events: Option<EventLog>,
    store_cfg: StoreConfig,
    stores: BTreeMap<SiteId, SiteStore>,
    /// Torn-tail requests armed by `schedule_crash_torn`, consumed by the
    /// next crash of the site.
    pending_tear: BTreeMap<SiteId, usize>,
}

impl Kernel {
    /// Innermost ambient trace context, if tracing is on and the current
    /// event carried (or opened) one.
    fn ambient(&self) -> Option<TraceContext> {
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

    fn schedule(&mut self, at: SimTime, kind: EventKind, tctx: Option<TraceContext>) -> u32 {
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

    fn partition_key(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn is_partitioned(&self, a: SiteId, b: SiteId) -> bool {
        a != b && self.partitions.contains(&Self::partition_key(a, b))
    }

    /// Count one dropped message: the flat per-reason counter and the
    /// per-site labeled one, so the health report can show which links
    /// degrade. Only the first drop of a `(site, reason)` builds its label
    /// set and searches the registry.
    fn count_drop(&mut self, site: SiteId, reason: DropReason) {
        let metrics = &mut self.metrics;
        let flat = *self.ids.dropped[reason as usize]
            .get_or_insert_with(|| metrics.counter_id(reason.counter_name()));
        metrics.counter_at(flat).inc();
        let labeled =
            *self.ids.dropped_at[site.index()][reason as usize].get_or_insert_with(|| {
                let labels = Labels::of(&[("reason", reason.label()), ("site", &site.to_string())]);
                metrics.counter_labeled_id("glare_net_dropped_total", &labels)
            });
        metrics.counter_at(labeled).inc();
    }

    fn send_from(&mut self, from: ActorId, from_site: SiteId, to: ActorId, msg: Msg, bytes: u64) {
        let to_site = self.actor_sites[to.index()];
        let metrics = &mut self.metrics;
        let sent = *self
            .ids
            .msgs_sent
            .get_or_insert_with(|| metrics.counter_id("net.msgs_sent"));
        metrics.counter_at(sent).inc();
        let sent_bytes = *self
            .ids
            .bytes_sent
            .get_or_insert_with(|| metrics.counter_id("net.bytes_sent"));
        metrics.counter_at(sent_bytes).add(bytes);
        if self.is_partitioned(from_site, to_site) {
            self.count_drop(from_site, DropReason::Partition);
            return;
        }
        let drop_p = self
            .link_drop
            .get(&Self::partition_key(from_site, to_site))
            .copied()
            .unwrap_or(self.drop_probability);
        if from_site != to_site && self.rng.chance(drop_p) {
            self.count_drop(from_site, DropReason::Loss);
            return;
        }
        let link = self.topology.link(from_site, to_site);
        let base = link.transfer_time(bytes);
        let mut delay = if link.jitter > 0.0 {
            let j = self.rng.jitter(link.jitter);
            base.mul_f64((1.0 + j).max(0.01))
        } else {
            base
        };
        // Gray-failure inflation last, after base+jitter, drawing no
        // randomness: a degraded trunk stretches every traversal by the
        // same factor while untouched pairs keep the exact RNG pattern.
        if let Some(&f) = self.link_degrade.get(&(from_site, to_site)) {
            delay = delay.mul_f64(f);
        }
        let at = self.now + delay;
        // Record the wire time as a Network span; its context rides on the
        // delivery so the receiver's spans chain under it.
        let tctx = if let Some(ts) = &mut self.trace {
            let parent = ts.stack.last().copied();
            let ctx = ts.sink.open(
                parent,
                "net.send",
                SpanKind::Network,
                Some(from_site),
                Some(from),
                self.now,
            );
            ts.sink.attr(ctx.span_id, "bytes", bytes.to_string());
            ts.sink.attr(ctx.span_id, "to", to.to_string());
            ts.sink.close(ctx.span_id, at);
            Some(ctx)
        } else {
            None
        };
        self.schedule(at, EventKind::Deliver { to, from, msg }, tctx);
    }
}

/// Actor-facing view of the kernel during a callback.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    /// Identity of the actor being invoked.
    pub self_id: ActorId,
    /// Site the actor lives on.
    pub self_site: SiteId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Send a small control message (priced at 512 bytes).
    pub fn send<T: Any + Send>(&mut self, to: ActorId, msg: T) {
        self.send_sized(to, msg, 512);
    }

    /// Send a message priced at an explicit payload size.
    pub fn send_sized<T: Any + Send>(&mut self, to: ActorId, msg: T, bytes: u64) {
        let from = self.self_id;
        let from_site = self.self_site;
        self.kernel.send_from(from, from_site, to, Box::new(msg), bytes);
    }

    /// Arm a one-shot timer; `tag` is echoed to [`Actor::on_timer`].
    ///
    /// The ambient trace context (if any) is captured and restored when
    /// the timer fires, so causality survives self-scheduled delays.
    pub fn timer_after(&mut self, after: SimDuration, tag: &'static str) -> TimerToken {
        self.arm(after, tag, None)
    }

    /// [`Ctx::timer_after`] whose event carries `payload`:
    /// [`Ctx::take_continuation`] hands it back inside [`Actor::on_timer`],
    /// so the actor keeps no table of what each token was for. The payload
    /// is dropped with the event when the timer is cancelled or pops while
    /// the site is down.
    pub fn timer_after_then<T: Any + Send>(
        &mut self,
        after: SimDuration,
        tag: &'static str,
        payload: T,
    ) -> TimerToken {
        self.arm(after, tag, Some(Box::new(payload)))
    }

    fn arm(&mut self, after: SimDuration, tag: &'static str, then: Option<Msg>) -> TimerToken {
        let gen = self.kernel.next_token;
        self.kernel.next_token += 1;
        let at = self.kernel.now + after;
        let actor = self.self_id;
        let tctx = self.kernel.ambient();
        let slot = self.kernel.schedule(at, EventKind::Timer { actor, gen, tag, then }, tctx);
        self.kernel.live_timers += 1;
        TimerToken { gen, slot }
    }

    /// Cancel a pending timer (no-op if it already fired or was cancelled,
    /// whoever holds its slot now, and for a compute token).
    ///
    /// Cancellation tombstones the timer's pool slot in place: the key
    /// still pops at its due time (counting as a processed event, exactly
    /// as before), and the slot is reclaimed at that pop — so repeated
    /// arm/cancel cycles hold zero residual state.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        let held = self.kernel.pool.get(token.slot);
        if matches!(held, Some(EventKind::Timer { gen, .. }) if *gen == token.gen) {
            self.kernel.pool.replace(token.slot, EventKind::Cancelled);
            self.kernel.live_timers -= 1;
        }
    }

    /// Submit CPU-bound work costing `cost` reference-CPU time on the
    /// actor's own site. Completion arrives via [`Actor::on_compute_done`].
    /// Returns `None` when the site is down.
    pub fn compute(&mut self, cost: SimDuration, tag: &'static str) -> Option<TimerToken> {
        self.submit(cost, tag, None)
    }

    /// [`Ctx::compute`] whose completion event carries `payload`:
    /// [`Ctx::take_continuation`] hands it back inside
    /// [`Actor::on_compute_done`], so the actor keeps no table of what each
    /// token was for. If the site crashes first the completion is void and
    /// the payload is dropped with it.
    pub fn compute_then<T: Any + Send>(
        &mut self,
        cost: SimDuration,
        tag: &'static str,
        payload: T,
    ) -> Option<TimerToken> {
        self.submit(cost, tag, Some(Box::new(payload)))
    }

    /// Inside [`Actor::on_timer`] or [`Actor::on_compute_done`]: the payload
    /// the firing timer or completing item was submitted with. `None` for a
    /// plain [`Ctx::timer_after`] or [`Ctx::compute`], when already taken,
    /// or when the payload is not a `T` (it stays put).
    pub fn take_continuation<T: Any>(&mut self) -> Option<T> {
        let payload = self.kernel.continuation.take_if(|held| held.is::<T>())?;
        payload.downcast().ok().map(|payload| *payload)
    }

    fn submit(&mut self, cost: SimDuration, tag: &'static str, then: Option<Msg>) -> Option<TimerToken> {
        let site = self.self_site;
        let now = self.kernel.now;
        let ticket = self.kernel.sites[site.index()].submit(now, cost)?;
        let gen = self.kernel.next_token;
        self.kernel.next_token += 1;
        let actor = self.self_id;
        // Record run-queue wait (Queue) and execution (Compute) as chained
        // spans; the Compute context rides on the completion event so work
        // done in `on_compute_done` chains under it.
        let tctx = if let Some(ts) = &mut self.kernel.trace {
            let ambient = ts.stack.last().copied();
            let parent = if ticket.started_at > now {
                let q = ts.sink.open(
                    ambient,
                    "cpu.queue",
                    SpanKind::Queue,
                    Some(site),
                    Some(actor),
                    now,
                );
                ts.sink.close(q.span_id, ticket.started_at);
                Some(q)
            } else {
                ambient
            };
            let c = ts.sink.open(
                parent,
                format!("cpu.{tag}"),
                SpanKind::Compute,
                Some(site),
                Some(actor),
                ticket.started_at,
            );
            ts.sink.close(c.span_id, ticket.completes_at);
            Some(c)
        } else {
            None
        };
        let slot = self.kernel.schedule(
            ticket.completes_at,
            EventKind::ComputeDone {
                actor,
                epoch: ticket.epoch,
                gen,
                tag,
                then,
            },
            tctx,
        );
        Some(TimerToken { gen, slot })
    }

    /// Deterministic RNG stream of the simulation.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.kernel.rng
    }

    /// Mutable metrics registry.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.kernel.metrics
    }

    /// Static spec of any site.
    pub fn topology(&self) -> &Topology {
        &self.kernel.topology
    }

    /// Liveness of any site.
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.kernel.sites[site.index()].is_up()
    }

    /// Ask the kernel to stop after the current event.
    pub fn stop(&mut self) {
        self.kernel.stopped = true;
    }

    /// Whether tracing is enabled on this simulation.
    pub fn trace_enabled(&self) -> bool {
        self.kernel.trace.is_some()
    }

    /// Open a span under the ambient context. With tracing disabled this
    /// returns the inert [`SpanHandle::NONE`] and records nothing.
    ///
    /// The span becomes the ambient context until [`Ctx::end_span`]: sends,
    /// timers and compute submitted meanwhile chain under it. Spans left
    /// open across events are closed by whoever holds the handle (or at
    /// `Simulation::take_trace` time).
    pub fn span(&mut self, name: &'static str, kind: SpanKind) -> SpanHandle {
        let (site, actor, now) = (self.self_site, self.self_id, self.kernel.now);
        let Some(ts) = &mut self.kernel.trace else {
            return SpanHandle::NONE;
        };
        let parent = ts.stack.last().copied();
        let ctx = ts
            .sink
            .open(parent, name, kind, Some(site), Some(actor), now);
        ts.stack.push(ctx);
        SpanHandle::from_context(ctx)
    }

    /// Open a *root* span: parentless, starting a fresh trace regardless
    /// of the ambient context. Use this for the first span of a logical
    /// request — e.g. a client firing a new query from inside the handler
    /// of the previous response, where [`Ctx::span`] would wrongly chain
    /// the new request into the old trace. The root becomes the ambient
    /// context until [`Ctx::end_span`], exactly like [`Ctx::span`].
    pub fn root_span(&mut self, name: &'static str, kind: SpanKind) -> SpanHandle {
        let (site, actor, now) = (self.self_site, self.self_id, self.kernel.now);
        let Some(ts) = &mut self.kernel.trace else {
            return SpanHandle::NONE;
        };
        let ctx = ts.sink.open(None, name, kind, Some(site), Some(actor), now);
        ts.stack.push(ctx);
        SpanHandle::from_context(ctx)
    }

    /// Attach a key/value attribute to a span opened with [`Ctx::span`].
    pub fn span_attr(&mut self, span: SpanHandle, key: &'static str, value: &str) {
        if let (Some(c), Some(ts)) = (span.context(), &mut self.kernel.trace) {
            ts.sink.attr(c.span_id, key, value.to_owned());
        }
    }

    /// Close a span at the current simulated time. Inert handles and
    /// double closes are no-ops, so this is always safe to call.
    pub fn end_span(&mut self, span: SpanHandle) {
        let now = self.kernel.now;
        let (Some(c), Some(ts)) = (span.context(), &mut self.kernel.trace) else {
            return;
        };
        ts.sink.close(c.span_id, now);
        if let Some(pos) = ts.stack.iter().position(|s| s.span_id == c.span_id) {
            ts.stack.truncate(pos);
        }
    }

    /// Whether the durability layer is on (sites have simulated persistent
    /// stores). Off by default; when off every `store_*` call is an inert
    /// no-op, so unconverted runs stay event-identical.
    pub fn store_enabled(&self) -> bool {
        self.kernel.store_cfg.enabled
    }

    /// Append one mutation record to this site's write-ahead journal.
    ///
    /// [`FSYNC_COST`] is charged through the site's CPU run
    /// queue; completion surfaces as an `on_compute_done` with tag
    /// `"store-fsync"` (fire-and-forget for most actors). Returns the
    /// record's sequence number, or `None` when durability is disabled.
    pub fn store_append(&mut self, kind: &str, payload: &str) -> Option<u64> {
        if !self.kernel.store_cfg.enabled {
            return None;
        }
        let site = self.self_site;
        let seq = self
            .kernel
            .stores
            .entry(site)
            .or_default()
            .append(kind, payload);
        self.kernel.metrics.counter("fabric.store.appends").inc();
        self.compute(FSYNC_COST, "store-fsync");
        Some(seq)
    }

    /// Install a full-state snapshot for this site, compacting the journal
    /// it covers. Charges one fsync. Returns the number of compacted
    /// records, or `None` when durability is disabled.
    pub fn store_snapshot(&mut self, blob: &str) -> Option<usize> {
        if !self.kernel.store_cfg.enabled {
            return None;
        }
        let site = self.self_site;
        let compacted = self
            .kernel
            .stores
            .entry(site)
            .or_default()
            .install_snapshot(blob);
        self.kernel.metrics.counter("fabric.store.snapshots").inc();
        self.compute(FSYNC_COST, "store-fsync");
        Some(compacted)
    }

    /// Recover this site's store: validate the journal (truncating any
    /// torn tail), and return snapshot + surviving records for replay.
    ///
    /// Charges the snapshot-load cost plus the per-record replay cost
    /// through the site CPU; completion surfaces as an `on_compute_done`
    /// with tag `"store-replay"`. `None` when durability is disabled.
    pub fn store_recover(&mut self) -> Option<RecoveredState> {
        if !self.kernel.store_cfg.enabled {
            return None;
        }
        let site = self.self_site;
        let rec = self.kernel.stores.entry(site).or_default().recover();
        let cost = replay_cost(rec.replayed_records(), rec.snapshot.is_some());
        if cost > SimDuration::ZERO {
            self.compute(cost, "store-replay");
        }
        Some(rec)
    }

    /// Current journal length of this site's store (0 when disabled) —
    /// what compaction policies key off.
    pub fn store_journal_len(&self) -> usize {
        self.kernel
            .stores
            .get(&self.self_site)
            .map(|s| s.journal_len())
            .unwrap_or(0)
    }

    /// Emit a structured event attributed to this actor and its site.
    ///
    /// No-op when the event log is disabled; like tracing, emission is
    /// observe-only (no RNG draw, no scheduled work), so instrumented and
    /// plain runs stay event-for-event identical.
    pub fn emit_event(&mut self, kind: &str, component: &str, fields: &[(&str, &str)]) {
        self.emit_event_with(kind, component, || fields.iter().map(|&(k, v)| (k, v.to_owned())));
    }

    /// [`Ctx::emit_event`] for per-request call sites: `fields` runs only
    /// when the record will be retained, so a log that is off or past its
    /// bound costs no formatting (the bound still counts the drop).
    pub fn emit_event_with<K: Into<String>, I: IntoIterator<Item = (K, String)>>(
        &mut self,
        kind: &str,
        component: &str,
        fields: impl FnOnce() -> I,
    ) {
        let (site, now) = (self.self_site, self.kernel.now);
        if let Some(log) = &mut self.kernel.events {
            log.emit_with(now, kind, Some(site), component, fields);
        }
    }

    /// Run `f` inside a span: open, call, close. The span covers whatever
    /// simulated cost `f` schedules synchronously (sends/timers chain
    /// under it) but, being same-event, has zero own duration.
    pub fn with_span<R>(
        &mut self,
        name: &'static str,
        kind: SpanKind,
        f: impl FnOnce(&mut Ctx<'_>) -> R,
    ) -> R {
        let span = self.span(name, kind);
        let r = f(self);
        self.end_span(span);
        r
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
        let sites: Vec<SiteRuntime> = topology
            .site_ids()
            .map(|s| SiteRuntime::new(topology.site(s)))
            .collect();
        let ids = KernelIds::for_sites(sites.len());
        // Pre-size for a handful of in-flight events per site; both the
        // pool and the queue grow transparently past this.
        let expected = (sites.len() * 4).max(256);
        Simulation {
            kernel: Kernel {
                now: SimTime::ZERO,
                seq: 0,
                queue: EventQueue::new(scheduler, expected),
                pool: EventPool::with_capacity(expected),
                live_timers: 0,
                continuation: None,
                ids,
                peak_queue: 0,
                topology,
                sites,
                actor_sites: Vec::new(),
                next_token: 0,
                rng: SimRng::from_seed(seed).fork("kernel"),
                metrics: MetricsRegistry::new(),
                drop_probability: 0.0,
                link_drop: HashMap::new(),
                link_degrade: HashMap::new(),
                partitions: HashSet::new(),
                stopped: false,
                trace: None,
                events: None,
                store_cfg: StoreConfig::disabled(),
                stores: BTreeMap::new(),
                pending_tear: BTreeMap::new(),
            },
            actors: Vec::new(),
            started: false,
        }
    }

    /// Probability that any inter-site message is silently lost (0.0 until
    /// set): the global default, which individual site pairs override with
    /// [`Simulation::set_link_drop_probability`] so chaos sweeps can target
    /// WAN links while loopback-adjacent pairs stay clean.
    pub fn set_drop_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.kernel.drop_probability = p;
    }

    /// Override the loss probability for one site pair (both directions),
    /// taking precedence over [`Simulation::set_drop_probability`]. Pass
    /// `None` to remove the override and fall back to the global value.
    ///
    /// With no overrides installed the kernel's RNG stream is untouched:
    /// the per-link lookup falls through to the global probability and the
    /// draw pattern matches a pre-override kernel exactly.
    pub fn set_link_drop_probability(&mut self, a: SiteId, b: SiteId, p: Option<f64>) {
        let key = Kernel::partition_key(a, b);
        match p {
            Some(p) => {
                assert!((0.0..=1.0).contains(&p), "probability out of range");
                self.kernel.link_drop.insert(key, p);
            }
            None => {
                self.kernel.link_drop.remove(&key);
            }
        }
    }

    /// Install (or clear, with `None`) a gray-failure compute slowdown on a
    /// site: subsequent CPU work costs `factor ×` its healthy price. Emits
    /// `site.degraded` / `site.recovered` and keeps the
    /// `glare_degraded_sites` gauge current. Draws no randomness.
    pub fn set_site_degraded(&mut self, site: SiteId, factor: Option<f64>) {
        let f = factor.unwrap_or(1.0);
        let was = self.kernel.sites[site.index()].is_degraded();
        self.kernel.sites[site.index()].set_degrade_factor(f);
        let is = self.kernel.sites[site.index()].is_degraded();
        let now = self.kernel.now;
        if let Some(log) = &mut self.kernel.events {
            let kind = if is { "site.degraded" } else { "site.recovered" };
            if was != is || is {
                log.emit(
                    now,
                    kind,
                    Some(site),
                    "fault",
                    &[
                        ("site", &format!("site{}", site.index())),
                        ("factor_permille", &((f * 1000.0).round() as u64).to_string()),
                    ],
                );
            }
        }
        self.publish_degraded_gauges();
    }

    /// Install (or clear, with `None`) a gray-failure latency multiplier on
    /// the *directed* link `from → to`: every message traversing it takes
    /// `factor ×` its base+jitter delay. Call once per direction for a
    /// symmetric degradation (see [`Fault::DegradeLink`](crate::fault::Fault)).
    /// Emits `link.degraded` / `link.recovered`. Draws no randomness.
    pub fn set_link_degraded(&mut self, from: SiteId, to: SiteId, factor: Option<f64>) {
        let now = self.kernel.now;
        let (kind, f) = match factor {
            Some(f) => {
                assert!(f >= 1.0, "link degrade factor must be ≥ 1.0");
                self.kernel.link_degrade.insert((from, to), f);
                ("link.degraded", f)
            }
            None => {
                self.kernel.link_degrade.remove(&(from, to));
                ("link.recovered", 1.0)
            }
        };
        if let Some(log) = &mut self.kernel.events {
            log.emit(
                now,
                kind,
                Some(from),
                "fault",
                &[
                    ("from", &format!("site{}", from.index())),
                    ("to", &format!("site{}", to.index())),
                    ("factor_permille", &((f * 1000.0).round() as u64).to_string()),
                ],
            );
        }
        self.publish_degraded_gauges();
    }

    /// Refresh the `glare_degraded_sites` gauge family: currently degraded
    /// site count (`scope="sites"`) and degraded directed-link count
    /// (`scope="links"`).
    fn publish_degraded_gauges(&mut self) {
        let now = self.kernel.now;
        let sites = self.kernel.sites.iter().filter(|s| s.is_degraded()).count();
        let links = self.kernel.link_degrade.len();
        for (scope, value) in [("sites", sites), ("links", links)] {
            let labels = Labels::of(&[("scope", scope)]);
            self.kernel
                .metrics
                .gauge("glare_degraded_sites", &labels)
                .set(now, value as f64);
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
        self.kernel.trace = Some(Box::new(TraceState {
            sink: TraceSink::new(max_spans),
            stack: Vec::new(),
            slot_ctx: Vec::new(),
        }));
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
        let now = self.kernel.now;
        let sink = self.kernel.trace.take().map(|mut ts| {
            ts.sink.finish(now);
            ts.sink
        });
        if let Some(s) = &sink {
            if s.dropped() > 0 {
                self.kernel
                    .metrics
                    .counter("trace.spans_dropped")
                    .add(s.dropped());
            }
        }
        sink
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

    /// Events currently pending in the queue (tombstones included).
    pub fn queue_len(&self) -> usize {
        self.kernel.queue.len()
    }

    /// High-water mark of concurrent pending events over the whole run —
    /// the "peak queue occupancy" column of the scale bench.
    pub fn peak_queue_occupancy(&self) -> usize {
        self.kernel.peak_queue
    }

    /// Live (pending, uncancelled) timers the kernel tracks. Bounded by
    /// queue occupancy; cancel-heavy workloads cannot grow it.
    pub fn pending_timers(&self) -> usize {
        self.kernel.live_timers
    }

    /// Immutable metrics access for the harness.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.kernel.metrics
    }

    /// Mutable metrics access for the harness.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.kernel.metrics
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

    /// A site's durable store, if durability is on and the site ever wrote
    /// to it (digest/stat inspection for harnesses and tests).
    pub fn store(&self, site: SiteId) -> Option<&SiteStore> {
        self.kernel.stores.get(&site)
    }

    /// Schedule a site crash at `at`.
    pub fn schedule_crash(&mut self, at: SimTime, site: SiteId) {
        self.kernel.schedule(at, EventKind::SiteCrash(site), None);
    }

    /// Schedule a site crash at `at` that additionally tears the last
    /// `torn_records` records off the site's journal — the partial write a
    /// real crash leaves behind. Recovery truncates at the last valid
    /// record. With durability disabled this is an ordinary crash.
    pub fn schedule_crash_torn(&mut self, at: SimTime, site: SiteId, torn_records: usize) {
        self.kernel.schedule(
            at,
            EventKind::Call(Box::new(move |s: &mut Simulation| {
                s.kernel.pending_tear.insert(site, torn_records);
            })),
            None,
        );
        self.kernel.schedule(at, EventKind::SiteCrash(site), None);
    }

    /// Schedule a site restart at `at`.
    pub fn schedule_restart(&mut self, at: SimTime, site: SiteId) {
        self.kernel.schedule(at, EventKind::SiteRestart(site), None);
    }

    /// Partition (or heal) the pair of sites.
    pub fn set_partitioned(&mut self, a: SiteId, b: SiteId, partitioned: bool) {
        let key = Kernel::partition_key(a, b);
        if partitioned {
            self.kernel.partitions.insert(key);
        } else {
            self.kernel.partitions.remove(&key);
        }
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
        self.kernel.schedule(
            at,
            EventKind::Deliver {
                to,
                from,
                msg: Box::new(msg),
            },
            None,
        );
    }

    /// Start sampling every site's load average each 5 s until `until`,
    /// recording `"{site}.load1m"` time series.
    pub fn enable_load_sampling(&mut self, until: SimTime) {
        let at = self.kernel.now + LOAD_SAMPLE_INTERVAL;
        self.kernel.schedule(at, EventKind::SampleLoads { until }, None);
    }

    /// Process events until the queue is drained, the horizon passes, or an
    /// actor called [`Ctx::stop`]. Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        assert!(self.started, "call start() before running");
        let mut n = 0;
        while !self.kernel.stopped {
            match self.kernel.queue.peek() {
                Some(key) if key.at <= horizon => {}
                _ => break,
            }
            self.step();
            n += 1;
        }
        if self.kernel.now < horizon && !self.kernel.stopped {
            self.kernel.now = horizon;
        }
        n
    }

    /// Convenience: run for a duration from now.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let horizon = self.kernel.now + d;
        self.run_until(horizon)
    }

    /// Drain the queue completely (or until stop), with an event-count
    /// safety valve.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        assert!(self.started, "call start() before running");
        let mut n = 0;
        while !self.kernel.stopped && !self.kernel.queue.is_empty() {
            self.step();
            n += 1;
            assert!(
                n <= max_events,
                "run_to_quiescence exceeded {max_events} events — livelock?"
            );
        }
        n
    }

    /// Execute exactly one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(key) = self.kernel.queue.pop() else {
            return false;
        };
        let kind = self.kernel.pool.take(key.slot);
        let slot_ctx = self.kernel.trace.as_ref().map(|ts| &ts.slot_ctx);
        let tctx = slot_ctx.and_then(|ctxs| *ctxs.get(key.slot as usize)?);
        debug_assert_eq!(
            self.kernel.pool.len(),
            self.kernel.queue.len(),
            "pool/queue occupancy diverged"
        );
        debug_assert!(key.at >= self.kernel.now, "time went backwards");
        self.kernel.now = key.at;
        match kind {
            EventKind::Deliver { to, from, msg } => {
                let site = self.kernel.actor_sites[to.index()];
                if !self.kernel.sites[site.index()].is_up() {
                    self.kernel.count_drop(site, DropReason::SiteDown);
                    return true;
                }
                self.kernel.set_ambient(tctx);
                self.with_actor(to, |actor, ctx| {
                    actor.on_message(
                        ctx,
                        Envelope {
                            from,
                            msg,
                            trace: tctx,
                        },
                    );
                });
            }
            EventKind::Cancelled => {
                // Tombstoned timer: the pop above already advanced time
                // and reclaimed the slot; nothing dispatches.
                return true;
            }
            EventKind::Timer { actor, gen, tag, then } => {
                self.kernel.live_timers -= 1;
                let site = self.kernel.actor_sites[actor.index()];
                if !self.kernel.sites[site.index()].is_up() {
                    return true; // `then` dies with the event
                }
                self.kernel.set_ambient(tctx);
                self.kernel.continuation = then;
                let token = TimerToken { gen, slot: key.slot };
                self.with_actor(actor, |a, ctx| a.on_timer(ctx, token, tag));
                self.kernel.continuation = None;
            }
            EventKind::ComputeDone {
                actor,
                epoch,
                gen,
                tag,
                then,
            } => {
                let site = self.kernel.actor_sites[actor.index()];
                if !self.kernel.sites[site.index()].complete(epoch) {
                    return true; // site crashed since submission
                }
                self.kernel.set_ambient(tctx);
                self.kernel.continuation = then;
                let token = TimerToken { gen, slot: key.slot };
                self.with_actor(actor, |a, ctx| a.on_compute_done(ctx, token, tag));
                self.kernel.continuation = None;
            }
            EventKind::SiteCrash(site) => {
                let now = self.kernel.now;
                self.kernel.sites[site.index()].crash(now);
                self.kernel.metrics.counter("fabric.crashes").inc();
                // Apply any armed torn-tail damage before the actors' last
                // gasp, so on_site_crash observes the post-crash disk.
                if let Some(n) = self.kernel.pending_tear.remove(&site) {
                    if let Some(store) = self.kernel.stores.get_mut(&site) {
                        let torn = store.tear_tail(n);
                        if torn > 0 {
                            self.kernel
                                .metrics
                                .counter("fabric.store.torn_records")
                                .add(torn as u64);
                            if let Some(log) = &mut self.kernel.events {
                                log.emit(
                                    now,
                                    "store.torn",
                                    Some(site),
                                    "store",
                                    &[
                                        ("site", &format!("site{}", site.index())),
                                        ("records", &torn.to_string()),
                                    ],
                                );
                            }
                        }
                    }
                }
                if let Some(log) = &mut self.kernel.events {
                    log.emit(
                        now,
                        "site.crashed",
                        Some(site),
                        "fault",
                        &[("site", &format!("site{}", site.index()))],
                    );
                }
                for i in 0..self.actors.len() {
                    if self.kernel.actor_sites[i] == site {
                        // on_site_crash runs even though the site is down —
                        // it models the actor's last gasp / local cleanup.
                        self.with_actor(ActorId(i as u32), |a, ctx| a.on_site_crash(ctx));
                    }
                }
            }
            EventKind::SiteRestart(site) => {
                self.kernel.sites[site.index()].restart();
                self.kernel.metrics.counter("fabric.restarts").inc();
                if let Some(log) = &mut self.kernel.events {
                    log.emit(
                        self.kernel.now,
                        "site.restarted",
                        Some(site),
                        "fault",
                        &[("site", &format!("site{}", site.index()))],
                    );
                }
                for i in 0..self.actors.len() {
                    if self.kernel.actor_sites[i] == site {
                        self.with_actor(ActorId(i as u32), |a, ctx| a.on_site_restart(ctx));
                    }
                }
            }
            EventKind::SampleLoads { until } => {
                let now = self.kernel.now;
                let metrics = &mut self.kernel.metrics;
                for (i, site) in self.kernel.sites.iter_mut().enumerate() {
                    site.sample_load();
                    let load = site.load_average_1m();
                    metrics
                        .time_series(&format!("site{i}.load1m"))
                        .push(now, load);
                    let gauge = *self.kernel.ids.site_load[i].get_or_insert_with(|| {
                        let labels = Labels::of(&[("site", &format!("site{i}"))]);
                        metrics.gauge_id("glare_site_load1m", &labels)
                    });
                    metrics.gauge_at(gauge).set(now, load);
                }
                if now + LOAD_SAMPLE_INTERVAL <= until {
                    let next = now + LOAD_SAMPLE_INTERVAL;
                    self.kernel.schedule(next, EventKind::SampleLoads { until }, None);
                }
            }
            EventKind::Call(f) => f(self),
        }
        true
    }

    fn with_actor<F>(&mut self, id: ActorId, f: F)
    where
        F: FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    {
        let mut actor = self.actors[id.index()]
            .take()
            .unwrap_or_else(|| panic!("actor {id} re-entered"));
        let site = self.kernel.actor_sites[id.index()];
        {
            let mut ctx = Ctx {
                kernel: &mut self.kernel,
                self_id: id,
                self_site: site,
            };
            f(actor.as_mut(), &mut ctx);
        }
        self.actors[id.index()] = Some(actor);
        // Drop any ambient context so it cannot leak into the next event.
        self.kernel.set_ambient(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

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
        let series = sim.metrics().time_series_ref("site0.load1m").unwrap();
        assert_eq!(series.points().len(), 6, "one sample per 5s for 30s");
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
        assert!(env.is::<Tick>());
        assert!(!env.is::<String>());
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
        assert!(env.is::<Tick>());
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
    fn stop_halts_the_run() {
        struct Stopper {
            count: u32,
        }
        impl Actor for Stopper {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.timer_after(SimDuration::from_millis(1), "t");
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken, _tag: &str) {
                self.count += 1;
                if self.count >= 3 {
                    ctx.stop();
                } else {
                    ctx.timer_after(SimDuration::from_millis(1), "t");
                }
            }
        }
        let mut sim = Simulation::new(Topology::uniform(1), 1);
        sim.add_actor(SiteId(0), Box::new(Stopper { count: 0 }));
        sim.start();
        let n = sim.run_until(SimTime::from_secs(10));
        assert_eq!(n, 3, "stopped after three timer events");
        assert!(sim.now() < SimTime::from_secs(1));
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
            sim.metrics_mut().counter("called").inc();
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
            queue[0].duration(),
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
}
