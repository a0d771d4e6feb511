//! Allocation pins for a whole request, in the two shapes the simulator
//! workloads repeat: a `LocalOnly` probe's visit to a `GlareNode` that
//! hosts nothing, the visit the 10k-site overlay makes ~325 k times, and a
//! client's `Full` query admitted through a bounded door and answered from
//! a warm cache, the request `load_2x` makes ~725 k times. The kernel's own
//! steady state is pinned the same way in
//! `crates/fabric/tests/steady_state_allocations.rs`; a table entry the
//! node started keeping per request, a name cloned once more, an answer
//! copied out of the cache or a record formatted for a log that is off
//! would show here as bytes.
//!
//! The test owns its binary because it installs a counting global
//! allocator (`crates/fabric/tests/support/counting_alloc.rs`, shared with
//! the other allocation pins); the tally is per thread, so the harness's own
//! threads do not disturb it.

use std::sync::Arc;

use glare_core::admission::{AdmissionConfig, TenantClass};
use glare_core::model::{example_hierarchy, ActivityDeployment};
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

/// Sends its node `per_tick` queries for `activity` every `PERIOD` — a
/// `LocalOnly` probe, as a super-peer does to every member of its group,
/// or a client's `Full` request — and counts the answers and rejections.
struct Prober {
    node: ActorId,
    /// The name asked for, shared by every query as a ladder stage shares
    /// its request's.
    activity: Arc<str>,
    scope: QueryScope,
    per_tick: u64,
    sent: u64,
    answers: u64,
    /// Deployments in the answers.
    found: u64,
    /// Queries the node's door shed.
    rejected: u64,
}

impl Prober {
    fn new(node: ActorId, scope: QueryScope) -> Prober {
        Prober {
            node,
            activity: PROBED.into(),
            scope,
            per_tick: 1,
            sent: 0,
            answers: 0,
            found: 0,
            rejected: 0,
        }
    }
}

impl Actor for Prober {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_after(PERIOD, "tick");
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
        match env.downcast::<NodeMsg>() {
            Ok((_, NodeMsg::QueryResponse { deployments, .. })) => {
                self.answers += 1;
                self.found += deployments.len() as u64;
            }
            Ok((_, NodeMsg::QueryRejected { .. })) => self.rejected += 1,
            _ => panic!("a query is answered with a QueryResponse or a QueryRejected"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        ctx.timer_after(PERIOD, "tick");
        for _ in 0..self.per_tick {
            ctx.send(
                self.node,
                NodeMsg::QueryDeployments {
                    activity: Arc::clone(&self.activity),
                    req_id: self.sent,
                    reply_to: ctx.self_id,
                    scope: self.scope,
                    class: TenantClass::Gold,
                },
            );
            self.sent += 1;
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Run `overlay` with a prober asking in `scope`: the first phase warms
/// up (the election, the ring's first turns), the second is measured.
/// Returns the second phase's `(allocations, bytes, bytes freed)` and the
/// prober's `(answers, deployments found)`.
fn probe(overlay: OverlayBuilder, scope: QueryScope) -> ((u64, u64, u64), (u64, u64)) {
    let (mut sim, ids) = overlay.build();
    let prober = sim.add_actor(SiteId(0), Box::new(Prober::new(ids[0], scope)));
    sim.start();
    sim.run_until(end_of_phase(1));
    let spent = spent(&mut sim, end_of_phase(2));
    let p = sim.actor_as::<Prober>(prober).expect("inspectable");
    assert!(2 * PHASE - p.answers < 8, "all but the queries in flight were answered ({})", p.answers);
    (spent, (p.answers, p.found))
}

/// A whole request, pinned: message in → request CPU stage → completion →
/// reply out, on a node that knows the type hierarchy and hosts nothing
/// (cache off, as on the 10k-site overlay). It allocates the probe's box,
/// the continuation that rides the completion event, and the reply's box;
/// the name is the prober's, shared, and the node keeps no table entry for
/// the request.
#[test]
fn a_probe_visit_to_a_node_that_hosts_nothing_allocates_its_messages_and_continuation() {
    let mut overlay = OverlayBuilder::new(1, 7);
    overlay.configure(|_, cfg| cfg.use_cache = false);
    overlay.seed(|_, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).expect("fresh registry");
        }
    });
    let (spent, (_, found)) = probe(overlay, QueryScope::LocalOnly);
    let per_visit = 2 * std::mem::size_of::<NodeMsg>() as u64 + CONTINUATION;
    assert_eq!(
        spent,
        (3 * PHASE, PHASE * per_visit, PHASE * per_visit),
        "(allocations, bytes, bytes freed) over {PHASE} probe visits"
    );
    assert_eq!(found, 0, "the node hosts nothing");
}

/// A client's request through a bounded door, answered from a warm cache:
/// admission, the request CPU stage, the cache hit and the reply. It
/// allocates the query's box, the continuation, the answer's one-entry
/// vector (an `Arc` the cache shares) and the reply's box. The inbox ticket
/// rides the request and the inbox is a ring that stays at its size.
#[test]
fn a_warm_cache_hit_through_a_bounded_door_allocates_its_messages_continuation_and_answer() {
    let mut overlay = OverlayBuilder::new(1, 7);
    overlay.configure(|_, cfg| cfg.admission = AdmissionConfig::bounded(32));
    overlay.seed(|_, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).expect("fresh registry");
        }
        let d = ActivityDeployment::executable("JPOVray", "site1", "/opt/jpovray/bin/jpovray", "/opt/jpovray");
        let epr = d.epr(&node.adr.address, SimTime::ZERO);
        node.cache.put_deployment(d, "site1", epr, SimTime::ZERO);
    });
    let (spent, (answers, found)) = probe(overlay, QueryScope::Full);
    assert_eq!(found, answers, "every answer is the cached deployment");
    // One `Arc` the cache shares, in the four slots a collected vector
    // starts with.
    let answer = 4 * std::mem::size_of::<Arc<ActivityDeployment>>() as u64;
    let per_visit = 2 * std::mem::size_of::<NodeMsg>() as u64 + CONTINUATION + answer;
    assert_eq!(
        spent,
        (4 * PHASE, PHASE * per_visit, PHASE * per_visit),
        "(allocations, bytes, bytes freed) over {PHASE} cache-hit visits"
    );
}

/// The door of the test above at capacity 1, with the event log on and
/// two queries a period: a request holds the one slot for a few periods,
/// and every query that arrives meanwhile is shed. An answered query costs
/// what it does above. A shed one costs its query's box and the
/// rejection's box; the `query.shed` record the log keeps costs none: its
/// kind, component, keys and class label are names the log already holds,
/// its activity the prober's shared name, which the log holds once, and
/// its retry-after hint a float, all in columns already grown. Before
/// records kept typed fields the same shed cost 11 blocks (the record's
/// kind, component, field vector, three keys and three values were each a
/// heap block); before the log kept its records in columns it cost 3, the
/// third the record's own field vector.
#[test]
fn a_query_shed_at_a_full_door_allocates_only_its_messages() {
    let mut overlay = OverlayBuilder::new(1, 7);
    overlay.configure(|_, cfg| cfg.admission = AdmissionConfig::bounded(1));
    overlay.seed(|_, node| {
        for t in example_hierarchy(SimTime::ZERO) {
            node.atr.register(t, SimTime::ZERO).expect("fresh registry");
        }
        let d = ActivityDeployment::executable("JPOVray", "site1", "/opt/jpovray/bin/jpovray", "/opt/jpovray");
        let epr = d.epr(&node.adr.address, SimTime::ZERO);
        node.cache.put_deployment(d, "site1", epr, SimTime::ZERO);
    });
    let (mut sim, ids) = overlay.build();
    sim.enable_events(4 * PHASE as usize);
    let mut prober = Prober::new(ids[0], QueryScope::Full);
    prober.per_tick = 2;
    let prober = sim.add_actor(SiteId(0), Box::new(prober));
    sim.start();
    sim.run_until(end_of_phase(1));
    let replies = |sim: &Simulation| {
        let p = sim.actor_as::<Prober>(prober).expect("inspectable");
        (p.answers, p.rejected)
    };
    let before = replies(&sim);
    // An eighth of a phase: the log's columns, grown past the first
    // phase's records, have room for these without reallocating.
    let ticks = PHASE / 8;
    let spent = spent(&mut sim, end_of_phase(1) + PERIOD * ticks);
    let after = replies(&sim);
    let (answered, shed) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(answered + shed, 2 * ticks, "the door is in its steady cycle");
    assert!(shed > answered, "most queries are shed ({shed} of {})", 2 * ticks);
    let log = sim.events().expect("events enabled");
    assert_eq!(log.of_kind("query.shed").count() as u64, after.1);
    let answer = 4 * std::mem::size_of::<Arc<ActivityDeployment>>() as u64;
    let per_answer = 2 * std::mem::size_of::<NodeMsg>() as u64 + CONTINUATION + answer;
    let per_shed = 2 * std::mem::size_of::<NodeMsg>() as u64;
    assert_eq!(
        spent,
        (
            4 * answered + 2 * shed,
            answered * per_answer + shed * per_shed,
            answered * per_answer + shed * per_shed,
        ),
        "(allocations, bytes, bytes freed) over {answered} answered and {shed} shed queries"
    );
}
