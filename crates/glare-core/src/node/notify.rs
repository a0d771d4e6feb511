//! Type-update notifications to subscribed sinks ([`Notifier`]) — Fig. 13's
//! load driver.

use glare_fabric::{ActorId, Ctx, SimDuration, SpanKind};

use super::msg::{NodeConfig, NodeMsg};
use super::{Deferred, GlareNode, Loop};

/// CPU cost per delivered notification: Fig. 13's calibration, under which
/// 210 sinks notified every second hold a one-core host at ρ ≈ 0.996.
const NOTIFY_COST: SimDuration = SimDuration::from_micros(4_742);

/// The sinks subscribed to this node and the notification sequence.
#[derive(Default)]
pub(super) struct Notifier {
    sinks: Vec<ActorId>,
    pub(super) notify_seq: u64,
}

impl Notifier {
    pub(super) fn subscribe(&mut self, sink: ActorId) {
        if !self.sinks.contains(&sink) {
            self.sinks.push(sink);
        }
    }

    /// Fan one notification round out to every sink. Each delivery is
    /// staggered to a random offset within the interval (the container
    /// worker pool drains the sink list over the period), charging CPU per
    /// delivery.
    pub(super) fn round(&mut self, ctx: &mut Ctx<'_>, cfg: &NodeConfig) {
        self.notify_seq += 1;
        let seq = self.notify_seq;
        let interval = cfg.notify_interval.unwrap_or(SimDuration::from_secs(1));
        let span = ctx.span("notify.round", SpanKind::Internal);
        if ctx.trace_enabled() {
            ctx.span_attr(span, "sinks", &self.sinks.len().to_string());
            ctx.span_attr(span, "seq", &seq.to_string());
        }
        for &sink in &self.sinks {
            let offset_ns = ctx.rng().range(0, interval.as_nanos().max(1));
            let offset = SimDuration::from_nanos(offset_ns);
            ctx.timer_after_then(offset, "notify-stagger", (sink, seq));
        }
        ctx.end_span(span);
    }

    /// A delivery's offset elapsed: charge its CPU cost.
    pub(super) fn stagger_elapsed(&self, ctx: &mut Ctx<'_>) {
        let Some((sink, seq)) = ctx.take_continuation::<(ActorId, u64)>() else {
            return;
        };
        // Amnesia drops the subscriptions, and an offset armed by the
        // previous incarnation can be due after the restart.
        if self.sinks.contains(&sink) {
            let then = Deferred::DeliverNotification { sink, seq };
            ctx.compute_then(NOTIFY_COST, "notify-one", then);
        }
    }
}

impl GlareNode {
    /// The notification period elapsed: run a round and schedule the next.
    pub(super) fn notify_round(&mut self, ctx: &mut Ctx<'_>) {
        self.notifier.round(ctx, &self.cfg);
        self.arm(ctx, Loop::Notify);
    }
}

/// A delivery's CPU stage completed: send it.
pub(super) fn deliver(ctx: &mut Ctx<'_>, sink: ActorId, seq: u64) {
    ctx.send(sink, NodeMsg::Notification { seq });
    ctx.metrics().counter("glare.notifications_sent").inc();
}
