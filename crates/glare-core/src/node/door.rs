//! Backpressure at the front door: client-facing arrivals pass the node's
//! bounded inbox ([`AdmissionController`], the `door` field) before any CPU
//! is charged. An admitted request carries its ticket in its ladder
//! `Request`, and the reply gives it back.

use std::num::NonZeroU64;
use std::sync::Arc;

use glare_fabric::{ActorId, Ctx, FieldValue};

use super::msg::{NodeMsg, QueryScope};
use super::GlareNode;
use crate::admission::{AdmissionDecision, TenantClass};

impl GlareNode {
    /// Whether the arriving request may proceed, and under which inbox
    /// ticket. Client-facing arrivals (scope `Full`) pass the bounded-inbox
    /// admission check; internal probes were already admitted at their
    /// entry site and flow freely, holding no ticket. A shed request is
    /// answered with [`NodeMsg::QueryRejected`] here and yields `None`.
    pub(super) fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        activity: &Arc<str>,
        req_id: u64,
        reply_to: ActorId,
        scope: QueryScope,
        class: TenantClass,
    ) -> Option<Option<NonZeroU64>> {
        if !self.door.is_enabled() || scope != QueryScope::Full {
            return Some(None);
        }
        let now = ctx.now();
        let decision = self.door.decide(class, now);
        // The decide() occupancy refresh sweeps TTL-expired tickets; any it
        // reclaimed are leaked slots (their request died without a reply) —
        // make them visible instead of letting them drain silently.
        let leaked = self.door.take_ttl_released();
        if leaked > 0 {
            self.tele.count(ctx, "glare_inbox_ttl_released_total", leaked);
            ctx.emit_event_with("inbox.ttl_release", "admission", || [("count", leaked)]);
        }
        let labels = self.tele.labels(ctx.self_site);
        match decision {
            AdmissionDecision::Admit { ticket } => {
                labels.count_admission(ctx.metrics(), &self.cfg.site_name, class, true);
                labels.set_inbox_occupancy(ctx.metrics(), now, self.door.occupancy(now));
                Some(Some(ticket))
            }
            AdmissionDecision::Shed { retry_after } => {
                labels.count_admission(ctx.metrics(), &self.cfg.site_name, class, false);
                ctx.emit_event_with("query.shed", "admission", || {
                    [
                        ("class", FieldValue::from(class.label())),
                        ("activity", Arc::clone(activity).into()),
                        ("retry_after_ms", retry_after.as_millis_f64().into()),
                    ]
                });
                ctx.send_sized(reply_to, NodeMsg::QueryRejected { req_id, retry_after }, 512);
                None
            }
        }
    }

    /// Give back the inbox ticket a request holds, if it holds one.
    pub(super) fn release_ticket(&mut self, ticket: Option<NonZeroU64>) {
        if let Some(ticket) = ticket {
            self.door.release(ticket);
        }
    }
}
