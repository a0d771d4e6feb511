//! Backpressure at the front door ([`FrontDoor`]): client-facing arrivals
//! pass a bounded, lease-accounted inbox before any CPU is charged, and
//! give their ticket back when the reply goes out.

use std::collections::HashMap;

use glare_fabric::{ActorId, Ctx};

use super::msg::{NodeConfig, NodeMsg, QueryScope};
use super::GlareNode;
use crate::admission::{AdmissionController, AdmissionDecision, TenantClass};

/// The admission state of one node.
pub(super) struct FrontDoor {
    /// Bounded-inbox admission controller (inert unless `cfg.admission`
    /// is enabled).
    admission: AdmissionController,
    /// Ticket of each admitted, still-unanswered client request, keyed by
    /// `(reply_to, req_id)`; released when the reply goes out.
    pub(super) admitted: HashMap<(ActorId, u64), u64>,
}

impl FrontDoor {
    pub(super) fn new(cfg: &NodeConfig) -> FrontDoor {
        FrontDoor {
            admission: AdmissionController::new(cfg.admission),
            admitted: HashMap::new(),
        }
    }

    /// Give back the inbox ticket of the request `reply_to` knows as
    /// `req_id`, if it holds one. Probe replies were never admitted and
    /// miss the map; only the original client request holds a ticket.
    pub(super) fn release(&mut self, reply_to: ActorId, req_id: u64) {
        if !self.admission.is_enabled() {
            return;
        }
        if let Some(ticket) = self.admitted.remove(&(reply_to, req_id)) {
            self.admission.release(ticket);
        }
    }
}

impl GlareNode {
    /// Whether the arriving request may proceed. Client-facing arrivals
    /// (scope `Full`) pass the bounded-inbox admission check; internal
    /// probes were already admitted at their entry site and flow freely.
    /// A shed request is answered with [`NodeMsg::QueryRejected`] here.
    pub(super) fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        activity: &str,
        req_id: u64,
        reply_to: ActorId,
        scope: QueryScope,
        class: TenantClass,
    ) -> bool {
        if !self.door.admission.is_enabled() || scope != QueryScope::Full {
            return true;
        }
        let now = ctx.now();
        let decision = self.door.admission.decide(class, now);
        // The decide() occupancy refresh sweeps TTL-expired tickets; any it
        // reclaimed are leaked slots (their request died without a reply) —
        // make them visible instead of letting them drain silently.
        let leaked = self.door.admission.take_ttl_released();
        if leaked > 0 {
            self.tele.count(ctx, "glare_inbox_ttl_released_total", leaked);
            ctx.emit_event_with("inbox.ttl_release", "admission", || {
                [("count", leaked.to_string())]
            });
        }
        let labels = self.tele.labels(ctx.self_site);
        match decision {
            AdmissionDecision::Admit { ticket } => {
                self.door.admitted.insert((reply_to, req_id), ticket);
                labels.count_admission(ctx.metrics(), &self.cfg.site_name, class, true);
                labels.set_inbox_occupancy(ctx.metrics(), now, self.door.admission.occupancy(now));
                true
            }
            AdmissionDecision::Shed { retry_after } => {
                labels.count_admission(ctx.metrics(), &self.cfg.site_name, class, false);
                ctx.emit_event_with("query.shed", "admission", || {
                    [
                        ("class", class.label().to_owned()),
                        ("activity", activity.to_owned()),
                        ("retry_after_ms", retry_after.as_millis_f64().to_string()),
                    ]
                });
                ctx.send_sized(reply_to, NodeMsg::QueryRejected { req_id, retry_after }, 512);
                false
            }
        }
    }
}
