//! [`Ctx`]: an actor's view of the kernel during a callback — messaging,
//! timers, compute, RNG and metrics, spans, the site's store and the
//! event log.

use std::any::Any;

use super::kernel::{EventKind, Kernel};
use super::{ActorId, Msg, TimerToken};
use crate::events::FieldValue;
use crate::metrics::MetricsRegistry;
use crate::rng::SimRng;
use crate::store::{replay_cost, RecoveredState, SiteStore, FSYNC_COST};
use crate::time::{SimDuration, SimTime};
use crate::topology::SiteId;
use crate::trace::{SpanHandle, SpanKind, TraceContext};

/// Actor-facing view of the kernel during a callback.
pub struct Ctx<'a> {
    pub(super) kernel: &'a mut Kernel,
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
        self.send_boxed(to, Box::new(msg), bytes);
    }

    /// Every send past boxing its payload: one function compiled here
    /// rather than once per payload type in each calling crate.
    fn send_boxed(&mut self, to: ActorId, msg: Msg, bytes: u64) {
        let (from, from_site) = (self.self_id, self.self_site);
        let k = &mut *self.kernel;
        let metrics = &mut k.metrics;
        let sent = *k.ids.msgs_sent.get_or_insert_with(|| metrics.counter_id("net.msgs_sent"));
        metrics.counter_at(sent).inc();
        let sent_bytes = *k.ids.bytes_sent.get_or_insert_with(|| metrics.counter_id("net.bytes_sent"));
        metrics.counter_at(sent_bytes).add(bytes);
        let Some(delay) = k.transit(from_site, k.site_of(to), bytes) else {
            return;
        };
        let (now, at) = (k.now, k.now + delay);
        // Record the wire time as a Network span; its context rides on the
        // delivery so the receiver's spans chain under it.
        let tctx = k.trace.as_mut().map(|ts| {
            let parent = ts.stack.last().copied();
            let net = SpanKind::Network;
            let ctx = ts.sink.open(parent, "net.send", net, Some(from_site), Some(from), now);
            ts.sink.attr(ctx.span_id, "bytes", bytes.to_string());
            ts.sink.attr(ctx.span_id, "to", to.to_string());
            ts.sink.close(ctx.span_id, at);
            ctx
        });
        k.schedule(at, EventKind::Deliver { to, from, msg }, tctx);
    }

    /// Arm a one-shot timer; `tag` is echoed to
    /// [`Actor::on_timer`](super::Actor::on_timer).
    ///
    /// The ambient trace context (if any) is captured and restored when
    /// the timer fires, so causality survives self-scheduled delays.
    pub fn timer_after(&mut self, after: SimDuration, tag: &'static str) -> TimerToken {
        self.arm(after, tag, None)
    }

    /// [`Ctx::timer_after`] whose event carries `payload`:
    /// [`Ctx::take_continuation`] hands it back inside
    /// [`Actor::on_timer`](super::Actor::on_timer), so the actor keeps no
    /// table of what each token was for. The payload is dropped with the
    /// event when the timer is cancelled or pops while the site is down.
    pub fn timer_after_then<T: Any + Send>(
        &mut self,
        after: SimDuration,
        tag: &'static str,
        payload: T,
    ) -> TimerToken {
        self.arm(after, tag, Some(Box::new(payload)))
    }

    fn arm(&mut self, after: SimDuration, tag: &'static str, then: Option<Msg>) -> TimerToken {
        let gen = self.kernel.next_gen();
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
    /// actor's own site. Completion arrives via
    /// [`Actor::on_compute_done`](super::Actor::on_compute_done). Returns
    /// `None` when the site is down.
    pub(crate) fn compute(&mut self, cost: SimDuration, tag: &'static str) -> Option<TimerToken> {
        self.submit(cost, tag, None)
    }

    /// `Ctx::compute` whose completion event carries `payload`:
    /// [`Ctx::take_continuation`] hands it back inside
    /// [`Actor::on_compute_done`](super::Actor::on_compute_done), so the
    /// actor keeps no table of what each token was for. If the site crashes
    /// first the completion is void and the payload is dropped with it.
    pub fn compute_then<T: Any + Send>(
        &mut self,
        cost: SimDuration,
        tag: &'static str,
        payload: T,
    ) -> Option<TimerToken> {
        self.submit(cost, tag, Some(Box::new(payload)))
    }

    /// Inside [`Actor::on_timer`](super::Actor::on_timer) or
    /// [`Actor::on_compute_done`](super::Actor::on_compute_done): the payload
    /// the firing timer or completing item was submitted with. `None` for a
    /// plain [`Ctx::timer_after`] or `Ctx::compute`, when already taken,
    /// or when the payload is not a `T` (it stays put).
    pub fn take_continuation<T: Any>(&mut self) -> Option<T> {
        let payload = self.kernel.continuation.take_if(|held| held.is::<T>())?;
        payload.downcast().ok().map(|payload| *payload)
    }

    fn submit(&mut self, cost: SimDuration, tag: &'static str, then: Option<Msg>) -> Option<TimerToken> {
        let (site, actor, now) = (self.self_site, self.self_id, self.kernel.now);
        let ticket = self.kernel.sites[site.index()].submit(now, cost)?;
        let gen = self.kernel.next_gen();
        // Record run-queue wait (Queue) and execution (Compute) as chained
        // spans; the Compute context rides on the completion event so work
        // done in `on_compute_done` chains under it.
        let tctx = self.kernel.trace.as_mut().map(|ts| {
            let ambient = ts.stack.last().copied();
            let parent = if ticket.started_at > now {
                let q = ts.sink.open(ambient, "cpu.queue", SpanKind::Queue, Some(site), Some(actor), now);
                ts.sink.close(q.span_id, ticket.started_at);
                Some(q)
            } else {
                ambient
            };
            let (name, compute) = (format!("cpu.{tag}"), SpanKind::Compute);
            let c = ts.sink.open(parent, name, compute, Some(site), Some(actor), ticket.started_at);
            ts.sink.close(c.span_id, ticket.completes_at);
            c
        });
        let epoch = ticket.epoch;
        let done = EventKind::ComputeDone { actor, epoch, gen, tag, then };
        let slot = self.kernel.schedule(ticket.completes_at, done, tctx);
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
        let parent = self.kernel.ambient();
        self.open_span(parent, name, kind)
    }

    /// Open a *root* span: parentless, starting a fresh trace regardless
    /// of the ambient context. Use this for the first span of a logical
    /// request — e.g. a client firing a new query from inside the handler
    /// of the previous response, where [`Ctx::span`] would wrongly chain
    /// the new request into the old trace. The root becomes the ambient
    /// context until [`Ctx::end_span`], exactly like [`Ctx::span`].
    pub fn root_span(&mut self, name: &'static str, kind: SpanKind) -> SpanHandle {
        self.open_span(None, name, kind)
    }

    fn open_span(
        &mut self,
        parent: Option<TraceContext>,
        name: &'static str,
        kind: SpanKind,
    ) -> SpanHandle {
        let (site, actor, now) = (self.self_site, self.self_id, self.kernel.now);
        let Some(ts) = &mut self.kernel.trace else {
            return SpanHandle::NONE;
        };
        let ctx = ts.sink.open(parent, name, kind, Some(site), Some(actor), now);
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

    /// Whether the durability layer is on (sites have simulated persistent
    /// stores). Off by default; when off every `store_*` call is an inert
    /// no-op, so unconverted runs stay event-identical.
    pub fn store_enabled(&self) -> bool {
        self.kernel.store_cfg.enabled
    }

    /// This site's store, created at its first use; `None` while
    /// durability is off.
    fn own_store(&mut self) -> Option<&mut SiteStore> {
        let kernel = &mut *self.kernel;
        let enabled = kernel.store_cfg.enabled;
        enabled.then(|| kernel.stores.entry(self.self_site).or_default())
    }

    /// Charge one fsync through the site's CPU and count it under `counter`.
    fn fsync(&mut self, counter: &str) {
        self.kernel.metrics.counter(counter).inc();
        self.compute(FSYNC_COST, "store-fsync");
    }

    /// Append one mutation record to this site's write-ahead journal.
    ///
    /// A fixed 2 ms fsync is charged through the site's CPU run
    /// queue; completion surfaces as an `on_compute_done` with tag
    /// `"store-fsync"` (fire-and-forget for most actors). Returns the
    /// record's sequence number, or `None` when durability is disabled.
    pub fn store_append(&mut self, kind: &str, payload: impl Into<String>) -> Option<u64> {
        let seq = self.own_store()?.append(kind, payload);
        self.fsync("fabric.store.appends");
        Some(seq)
    }

    /// Install a full-state snapshot for this site, compacting the journal
    /// it covers. Charges one fsync. Returns the number of compacted
    /// records, or `None` when durability is disabled.
    pub fn store_snapshot(&mut self, blob: &str) -> Option<usize> {
        let compacted = self.own_store()?.install_snapshot(blob);
        self.fsync("fabric.store.snapshots");
        Some(compacted)
    }

    /// Recover this site's store: validate the journal (truncating any
    /// torn tail), and return snapshot + surviving records for replay.
    ///
    /// Charges the snapshot-load cost plus the per-record replay cost
    /// through the site CPU; completion surfaces as an `on_compute_done`
    /// with tag `"store-replay"`. `None` when durability is disabled.
    pub fn store_recover(&mut self) -> Option<RecoveredState> {
        let rec = self.own_store()?.recover();
        let cost = replay_cost(rec.replayed_records(), rec.snapshot.is_some());
        if cost > SimDuration::ZERO {
            self.compute(cost, "store-replay");
        }
        Some(rec)
    }

    /// Current journal length of this site's store (0 when disabled) —
    /// what compaction policies key off.
    pub fn store_journal_len(&self) -> usize {
        self.kernel.stores.get(&self.self_site).map_or(0, SiteStore::journal_len)
    }

    /// Emit a structured event attributed to this actor and its site.
    ///
    /// No-op when the event log is disabled; like tracing, emission is
    /// observe-only (no RNG draw, no scheduled work), so instrumented and
    /// plain runs stay event-for-event identical.
    pub fn emit_event<V: Into<FieldValue>>(
        &mut self,
        kind: &'static str,
        component: &'static str,
        fields: impl IntoIterator<Item = (&'static str, V)>,
    ) {
        self.emit_event_with(kind, component, || fields);
    }

    /// [`Ctx::emit_event`] for per-request call sites: `fields` runs only
    /// when the record will be retained, so a log that is off or past its
    /// bound builds nothing (the bound still counts the drop).
    pub fn emit_event_with<V: Into<FieldValue>, I: IntoIterator<Item = (&'static str, V)>>(
        &mut self,
        kind: &'static str,
        component: &'static str,
        fields: impl FnOnce() -> I,
    ) {
        self.kernel.emit_with(kind, self.self_site, component, fields);
    }
}
