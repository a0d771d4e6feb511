//! Allocation pin for a whole request: a `LocalOnly` probe's visit to a
//! `GlareNode` that hosts nothing, the visit the 10k-site overlay makes
//! ~325 k times. The kernel's own steady state is pinned the same way in
//! `crates/fabric/tests/steady_state_allocations.rs`; a table entry the
//! node started keeping per request, a name cloned once more or a record
//! formatted for a log that is off would show here as bytes.
//!
//! The test owns its binary because it installs a counting global
//! allocator (`crates/fabric/tests/support/counting_alloc.rs`, shared with
//! the other allocation pins); the tally is per thread, so the harness's own
//! threads do not disturb it.

use glare_core::admission::TenantClass;
use glare_core::model::example_hierarchy;
use glare_core::{NodeMsg, OverlayBuilder, QueryScope};
use glare_fabric::{
    Actor, ActorId, Ctx, Envelope, SimDuration, SimTime, Simulation, SiteId, TimerToken,
};

#[path = "../../fabric/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;

/// `(allocations, bytes requested, bytes freed)` while `sim` runs to `until`.
fn spent(sim: &mut Simulation, until: SimTime) -> (u64, u64, u64) {
    let before = tally();
    sim.run_until(until);
    let after = tally();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

const PERIOD: SimDuration = SimDuration::from_millis(1);
/// Probes per phase: several turns of the calendar ring, so that every
/// bucket has been used before anything is measured.
const PHASE: u64 = 4096;

/// Probe `k` is sent at `(k + 1) × PERIOD`; a phase boundary sits half a
/// period after the phase's last send, so each phase holds exactly `PHASE`.
fn end_of_phase(p: u64) -> SimTime {
    SimTime::ZERO + PERIOD * (p * PHASE) + PERIOD / 2
}

const PROBED: &str = "Imaging";
/// `size_of` the node's private continuation (`node::Deferred`): the
/// request record plus the answer of the registry stage.
const CONTINUATION: u64 = 96;

/// Sends its node one `LocalOnly` probe per `PERIOD`, as a super-peer does
/// to every member of its group, and counts the answers.
struct Prober {
    node: ActorId,
    answers: u64,
}

impl Actor for Prober {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_after(PERIOD, "tick");
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
        match env.downcast::<NodeMsg>() {
            Ok((_, NodeMsg::QueryResponse { deployments, .. })) => {
                assert!(deployments.is_empty());
                self.answers += 1;
            }
            _ => panic!("a probe is answered with a QueryResponse"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        ctx.timer_after(PERIOD, "tick");
        ctx.send(
            self.node,
            NodeMsg::QueryDeployments {
                activity: PROBED.to_owned(),
                req_id: self.answers,
                reply_to: ctx.self_id,
                scope: QueryScope::LocalOnly,
                class: TenantClass::BestEffort,
            },
        );
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A whole request, pinned: message in → request CPU stage → completion →
/// reply out, on a node that knows the type hierarchy and hosts nothing
/// (cache off, as on the 10k-site overlay). It allocates the probe's name
/// and box, the continuation that rides the completion event, and the
/// reply's box; the node keeps no table entry for it.
#[test]
fn a_probe_visit_to_a_node_that_hosts_nothing_allocates_its_messages_and_continuation() {
    let mut overlay = OverlayBuilder::new(1, 7);
    overlay.configure(|_, cfg| cfg.use_cache = false);
    overlay.seed(|_, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).expect("fresh registry");
        }
    });
    let (mut sim, ids) = overlay.build();
    let prober = sim.add_actor(SiteId(0), Box::new(Prober { node: ids[0], answers: 0 }));
    sim.start();
    sim.run_until(end_of_phase(1)); // the election, and the ring's first turns
    let (allocations, bytes, freed) = spent(&mut sim, end_of_phase(2));
    let per_visit = 2 * std::mem::size_of::<NodeMsg>() as u64 + PROBED.len() as u64 + CONTINUATION;
    assert_eq!(
        (allocations, bytes, freed),
        (4 * PHASE, PHASE * per_visit, PHASE * per_visit),
        "(allocations, bytes, bytes freed) over {PHASE} probe visits"
    );
    let answered = sim.actor_as::<Prober>(prober).expect("inspectable").answers;
    assert!(2 * PHASE - answered < 8, "all but the probes in flight were answered ({answered})");
}
