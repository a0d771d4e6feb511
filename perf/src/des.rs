//! What the two simulator workloads share: the overlay built actor by actor
//! so each one can be wrapped in a [`TimedActor`], and the per-family
//! handler split read back from the trace.
//!
//! `OverlayBuilder::build` boxes its `GlareNode`s itself, so the harness
//! repeats its loop here from the same public pieces (`rank_hashcode`,
//! `NodeConfig::new`, `GlareNode::new`). Traced and untraced runs both go
//! through this code, the untraced one with a tracer that is switched off.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use glare_core::node::{GlareNode, NodeConfig, NodeMsg, QueryScope};
use glare_fabric::{Actor, ActorId, Ctx, Envelope, Simulation, SiteId, TimerToken, Topology};

use crate::span::{Name, Trace, Tracer};

/// Tracer shared by every actor of one simulation (single-threaded).
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Span of the whole measured `run_until` window; its self time is the
/// kernel's (queue, dispatch, network model, site CPU model).
pub const WINDOW_SPAN: &str = "fabric.sim.run_until";

/// Span of each family of `GlareNode` callbacks, in reporting order; the
/// family's metrics are `<span>_calls` and `<span>_ns`.
pub const NODE_SPANS: [&str; 8] = [
    "glare_core.node.query",
    "glare_core.node.probe",
    "glare_core.node.heartbeat",
    "glare_core.node.election",
    "glare_core.node.antientropy",
    "glare_core.node.timer",
    "glare_core.node.compute_done",
    NODE_OTHER_SPAN,
];

/// The family of everything the others do not claim; it must stay small.
pub const NODE_OTHER_SPAN: &str = "glare_core.node.other";

/// Span names a [`TimedActor`] books its callbacks under.
#[derive(Clone, Copy)]
pub struct ActorSpans {
    query: Name,
    probe: Name,
    heartbeat: Name,
    election: Name,
    antientropy: Name,
    timer: Name,
    compute_done: Name,
    other: Name,
}

impl ActorSpans {
    /// Per-family names for a `GlareNode`.
    pub fn node(tracer: &mut Tracer) -> ActorSpans {
        let [query, probe, heartbeat, election, antientropy, timer, compute_done, other] =
            NODE_SPANS.map(|span| tracer.name(span));
        ActorSpans {
            query,
            probe,
            heartbeat,
            election,
            antientropy,
            timer,
            compute_done,
            other,
        }
    }

    /// One name for every callback of a load-generating actor.
    pub fn single(tracer: &mut Tracer, name: &'static str) -> ActorSpans {
        let n = tracer.name(name);
        ActorSpans {
            query: n,
            probe: n,
            heartbeat: n,
            election: n,
            antientropy: n,
            timer: n,
            compute_done: n,
            other: n,
        }
    }

    fn of_message(&self, env: &Envelope) -> Name {
        match env.msg.downcast_ref::<NodeMsg>() {
            Some(NodeMsg::QueryDeployments {
                scope: QueryScope::Full,
                ..
            }) => self.query,
            // Every other scope is one node asking another, and a node only
            // ever receives responses to such probes.
            Some(
                NodeMsg::QueryDeployments { .. }
                | NodeMsg::QueryResponse { .. }
                | NodeMsg::QueryRejected { .. },
            ) => self.probe,
            Some(
                NodeMsg::Heartbeat
                | NodeMsg::SuspectNotice { .. }
                | NodeMsg::VerifyRequest { .. }
                | NodeMsg::VerifyAck { .. }
                | NodeMsg::Takeover,
            ) => self.heartbeat,
            Some(
                NodeMsg::ElectionNotice { .. }
                | NodeMsg::ElectionAck { .. }
                | NodeMsg::Appointment { .. },
            ) => self.election,
            Some(NodeMsg::AntiEntropySummary { .. } | NodeMsg::AntiEntropyResponse { .. }) => {
                self.antientropy
            }
            _ => self.other,
        }
    }
}

/// Decorates an actor: forwards every callback unchanged and records one
/// span per callback. It draws no randomness and schedules nothing, so the
/// simulation cannot tell it is there.
pub struct TimedActor {
    inner: Box<dyn Actor>,
    spans: ActorSpans,
    tracer: SharedTracer,
}

impl TimedActor {
    /// Wrap `inner`.
    pub fn wrap(inner: Box<dyn Actor>, spans: ActorSpans, tracer: &SharedTracer) -> Box<dyn Actor> {
        Box::new(TimedActor {
            inner,
            spans,
            tracer: tracer.clone(),
        })
    }

    #[inline]
    fn timed(&mut self, name: Name, f: impl FnOnce(&mut dyn Actor)) {
        self.tracer.borrow_mut().begin_op(name);
        f(self.inner.as_mut());
        self.tracer.borrow_mut().exit();
    }
}

impl Actor for TimedActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Runs inside `sim.start()`, before the measured window opens, so
        // no span: the tracer's window root is not open yet.
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let name = self.spans.of_message(&env);
        self.timed(name, |a| a.on_message(ctx, env));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken, tag: &str) {
        self.timed(self.spans.timer, |a| a.on_timer(ctx, token, tag));
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, token: TimerToken, tag: &str) {
        self.timed(self.spans.compute_done, |a| {
            a.on_compute_done(ctx, token, tag)
        });
    }

    fn on_site_crash(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(self.spans.other, |a| a.on_site_crash(ctx));
    }

    fn on_site_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(self.spans.other, |a| a.on_site_restart(ctx));
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}

/// Election roster of an `n`-site uniform topology: `(actor id, rank)` per
/// node, rank being the paper's hashcode over static site attributes.
pub fn roster(n: usize) -> Vec<(ActorId, u64)> {
    let topology = Topology::uniform(n);
    (0..n)
        .map(|i| {
            (
                ActorId(i as u32),
                topology.site(SiteId(i as u32)).rank_hashcode(),
            )
        })
        .collect()
}

/// Build an `n`-node overlay on a uniform topology: node `i` on site `i`
/// with actor id `i`, node 0 hosting the community index — what
/// `OverlayBuilder::build` does, plus the [`TimedActor`] wrapper when the
/// tracer is on.
pub fn build_overlay(
    n: usize,
    sim_seed: u64,
    tracer: &SharedTracer,
    mut configure: impl FnMut(usize, &mut NodeConfig),
    mut seed_node: impl FnMut(usize, &mut GlareNode),
) -> (Simulation, Vec<ActorId>) {
    let roster = Arc::new(roster(n));
    let spans = ActorSpans::node(&mut tracer.borrow_mut());
    let mut sim = Simulation::new(Topology::uniform(n), sim_seed);
    let mut ids = Vec::with_capacity(n);
    for (i, &(_, rank)) in roster.iter().enumerate() {
        let mut cfg = NodeConfig::new(&format!("site{i}"), rank);
        cfg.has_community_index = i == 0;
        configure(i, &mut cfg);
        let mut node = GlareNode::new(cfg, ActorId(i as u32), roster.clone());
        seed_node(i, &mut node);
        let id = add_timed(&mut sim, SiteId(i as u32), Box::new(node), spans, tracer);
        assert_eq!(id, ActorId(i as u32), "nodes take actor ids in site order");
        ids.push(id);
    }
    (sim, ids)
}

/// Add an actor, wrapped when the tracer is on.
pub fn add_timed(
    sim: &mut Simulation,
    site: SiteId,
    actor: Box<dyn Actor>,
    spans: ActorSpans,
    tracer: &SharedTracer,
) -> ActorId {
    let actor = if tracer.borrow().is_on() {
        TimedActor::wrap(actor, spans, tracer)
    } else {
        actor
    };
    sim.add_actor(site, actor)
}

/// Where the traced window's host time went.
pub struct HandlerSplit {
    /// Traced `run_until` wall, ns.
    pub window_ns: f64,
    /// Window minus every callback: the kernel's own time, ns.
    pub kernel_self_ns: f64,
    /// Sum over the node families, ns.
    pub node_ns: f64,
    /// Callbacks of the load-generating actors, ns.
    pub load_ns: f64,
}

/// Read the split back from a finished trace. `load_span` is the name the
/// load generators' callbacks were booked under.
pub fn handler_split(trace: &Trace, load_span: &str) -> HandlerSplit {
    let window = trace.agg(WINDOW_SPAN);
    let node_ns: u64 = NODE_SPANS.iter().map(|span| trace.sum_ns(span)).sum();
    HandlerSplit {
        window_ns: window.sum_ns as f64,
        kernel_self_ns: window.self_ns as f64,
        node_ns: node_ns as f64,
        load_ns: trace.sum_ns(load_span) as f64,
    }
}
