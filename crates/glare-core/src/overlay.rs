//! Overlay construction and experiment client actors.
//!
//! [`OverlayBuilder`] wires `n` [`GlareNode`]s onto a simulated topology
//! (node 0 hosts the community index and coordinates the first election);
//! [`QueryClient`] and [`NotificationSink`] are the load generators the
//! Fig. 12/13 experiments and the fault-tolerance tests attach.

use std::sync::Arc;

use glare_fabric::sync::Mutex;
use glare_fabric::{
    Actor, ActorId, Ctx, Envelope, SchedulerKind, SimDuration, SimTime, Simulation, SiteId,
    SpanHandle, SpanKind, TimerToken, Topology,
};

use crate::admission::TenantClass;
use crate::node::{GlareNode, NodeConfig, NodeMsg, QueryScope};

/// Per-node configuration hook.
type ConfigureFn = Box<dyn FnMut(usize, &mut NodeConfig)>;
/// Per-node registry seeding hook.
type SeedFn = Box<dyn FnMut(usize, &mut GlareNode)>;

/// Builds a simulation hosting one GLARE node per site.
pub struct OverlayBuilder {
    n: usize,
    seed: u64,
    topology: Topology,
    scheduler: SchedulerKind,
    configure: Option<ConfigureFn>,
    seed_fn: Option<SeedFn>,
}

impl OverlayBuilder {
    /// `n` nodes over a uniform topology, deterministic under `seed`.
    pub fn new(n: usize, seed: u64) -> OverlayBuilder {
        assert!(n > 0, "overlay needs at least one node");
        OverlayBuilder {
            n,
            seed,
            topology: Topology::uniform(n),
            scheduler: SchedulerKind::default(),
            configure: None,
            seed_fn: None,
        }
    }

    /// Replace the topology (must have at least `n` sites).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert!(topology.len() >= self.n, "topology smaller than overlay");
        self.topology = topology;
        self
    }

    /// Pick the kernel's event-queue implementation (the scale bench's
    /// calendar-vs-binary-heap ablation; results are event-identical,
    /// only wall-clock throughput differs).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Adjust each node's config before construction.
    pub fn configure<F>(&mut self, f: F)
    where
        F: FnMut(usize, &mut NodeConfig) + 'static,
    {
        self.configure = Some(Box::new(f));
    }

    /// Seed each node's registries before the simulation starts.
    pub fn seed<F>(&mut self, f: F)
    where
        F: FnMut(usize, &mut GlareNode) + 'static,
    {
        self.seed_fn = Some(Box::new(f));
    }

    /// Build the simulation. Node `i` lives on site `i` and receives
    /// actor id `i` (nodes are registered first, in order).
    pub fn build(mut self) -> (Simulation, Vec<ActorId>) {
        let ranks: Vec<u64> = (0..self.n)
            .map(|i| self.topology.site(SiteId(i as u32)).rank_hashcode())
            .collect();
        let roster: Arc<Vec<(ActorId, u64)>> = Arc::new(
            (0..self.n)
                .map(|i| (ActorId(i as u32), ranks[i]))
                .collect(),
        );
        let mut sim = Simulation::with_scheduler(self.topology, self.seed, self.scheduler);
        let mut ids = Vec::with_capacity(self.n);
        for (i, &rank) in ranks.iter().enumerate() {
            let site_name = format!("site{i}");
            let mut cfg = NodeConfig::new(&site_name, rank);
            cfg.has_community_index = i == 0;
            if let Some(f) = &mut self.configure {
                f(i, &mut cfg);
            }
            let mut node = GlareNode::new(cfg, ActorId(i as u32), roster.clone());
            if let Some(f) = &mut self.seed_fn {
                f(i, &mut node);
            }
            let id = sim.add_actor(SiteId(i as u32), Box::new(node));
            assert_eq!(id, ActorId(i as u32), "id order invariant");
            ids.push(id);
        }
        (sim, ids)
    }
}

/// Shared measurement sink for [`QueryClient`]s.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Queries sent.
    pub sent: u64,
    /// Responses received.
    pub responses: u64,
    /// Responses carrying at least one deployment.
    pub hits: u64,
    /// Requests shed by admission control (a `QueryRejected` came back).
    pub shed: u64,
    /// Per-response latencies in send order.
    pub latencies: Vec<SimDuration>,
}

impl ClientStats {
    /// New shared handle.
    pub fn shared() -> Arc<Mutex<ClientStats>> {
        Arc::new(Mutex::new(ClientStats::default()))
    }

    /// Mean response latency, `None` before any response.
    pub fn mean_latency(&self) -> Option<SimDuration> {
        if self.latencies.is_empty() {
            return None;
        }
        let total: u128 = self.latencies.iter().map(|d| d.as_nanos() as u128).sum();
        Some(SimDuration::from_nanos(
            (total / self.latencies.len() as u128) as u64,
        ))
    }
}

/// Closed-loop query generator: sends a deployment-list request to its
/// local node, waits for the answer, thinks for `interval`, repeats.
pub struct QueryClient {
    node: ActorId,
    activity: String,
    interval: SimDuration,
    remaining: u64,
    stats: Arc<Mutex<ClientStats>>,
    in_flight: Option<(u64, SimTime, SpanHandle)>,
    next_req: u64,
    class: TenantClass,
}

impl QueryClient {
    /// New client issuing `count` queries for `activity` against `node`.
    pub fn new(
        node: ActorId,
        activity: &str,
        interval: SimDuration,
        count: u64,
        stats: Arc<Mutex<ClientStats>>,
    ) -> QueryClient {
        QueryClient {
            node,
            activity: activity.to_owned(),
            interval,
            remaining: count,
            stats,
            in_flight: None,
            next_req: 0,
            class: TenantClass::BestEffort,
        }
    }

    /// Tag this client's requests with a tenant class (admission control
    /// tiers by it; irrelevant while backpressure is disabled).
    pub fn with_class(mut self, class: TenantClass) -> QueryClient {
        self.class = class;
        self
    }

    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining == 0 || self.in_flight.is_some() {
            return;
        }
        self.remaining -= 1;
        let req_id = self.next_req;
        self.next_req += 1;
        // Root span of the whole request's trace: everything downstream
        // (wire time, CPU stages, probes) chains under it causally.
        let span = ctx.root_span("client.query", SpanKind::Request);
        if ctx.trace_enabled() {
            ctx.span_attr(span, "activity", &self.activity);
            ctx.span_attr(span, "req_id", &req_id.to_string());
        }
        self.in_flight = Some((req_id, ctx.now(), span));
        self.stats.lock().sent += 1;
        ctx.send(
            self.node,
            NodeMsg::QueryDeployments {
                activity: self.activity.clone(),
                req_id,
                reply_to: ctx.self_id,
                scope: QueryScope::Full,
                class: self.class,
            },
        );
    }
}

impl Actor for QueryClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.timer_after(self.interval, "next-query");
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.downcast::<NodeMsg>() {
            Ok((_, NodeMsg::QueryResponse { req_id, deployments })) => {
                if let Some((expected, sent_at, span)) = self.in_flight {
                    if expected == req_id {
                        self.in_flight = None;
                        ctx.span_attr(span, "hit", if deployments.is_empty() { "0" } else { "1" });
                        ctx.end_span(span);
                        let mut s = self.stats.lock();
                        s.responses += 1;
                        if !deployments.is_empty() {
                            s.hits += 1;
                        }
                        s.latencies.push(ctx.now().since(sent_at));
                        drop(s);
                        if self.remaining > 0 {
                            ctx.timer_after(self.interval, "next-query");
                        }
                    }
                }
            }
            Ok((_, NodeMsg::QueryRejected { req_id, retry_after })) => {
                // Shed at the front door. The request is over (the
                // closed-loop client doesn't re-send it); honor the
                // retry-after hint before offering the next one.
                if let Some((expected, _, span)) = self.in_flight {
                    if expected == req_id {
                        self.in_flight = None;
                        ctx.span_attr(span, "shed", "1");
                        ctx.end_span(span);
                        self.stats.lock().shed += 1;
                        if self.remaining > 0 {
                            ctx.timer_after(self.interval.max(retry_after), "next-query");
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
        if tag == "next-query" {
            self.fire(ctx);
        }
    }
}

/// A WS-Notification consumer: subscribes to its node and counts
/// deliveries into the metrics registry (`"sink.notifications"`).
pub struct NotificationSink {
    node: ActorId,
}

impl NotificationSink {
    /// New sink attached to `node`.
    pub fn new(node: ActorId) -> NotificationSink {
        NotificationSink { node }
    }
}

impl Actor for NotificationSink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.node, NodeMsg::Subscribe);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        if let Ok((_, NodeMsg::Notification { .. })) = env.downcast::<NodeMsg>() {
            ctx.metrics().counter("sink.notifications").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let (mut sim, ids) = OverlayBuilder::new(3, 7).build();
        assert_eq!(ids, vec![ActorId(0), ActorId(1), ActorId(2)]);
        sim.start();
        sim.run_until(SimTime::from_secs(5));
        // Exactly one group for 3 nodes => one super-peer.
        assert_eq!(sim.metrics().counter_value("glare.superpeer_takeovers"), 1);
    }

    #[test]
    fn sinks_receive_notifications() {
        let mut b = OverlayBuilder::new(1, 9);
        b.configure(|_, cfg| {
            cfg.notify_interval = Some(SimDuration::from_secs(1));
        });
        let (mut sim, ids) = b.build();
        for _ in 0..5 {
            sim.add_actor(SiteId(0), Box::new(NotificationSink::new(ids[0])));
        }
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let delivered = sim.metrics().counter_value("sink.notifications");
        // ~10 rounds x 5 sinks, minus edge effects.
        assert!(delivered >= 40, "delivered {delivered}");
        assert_eq!(
            sim.metrics().counter_value("glare.notifications_sent"),
            delivered
        );
    }

    /// With the store on a crash is amnesia: the subscriptions are gone, so
    /// the send offsets the previous incarnation armed, due after the
    /// restart, deliver nothing.
    #[test]
    fn amnesia_silences_the_previous_incarnations_notifications() {
        let mut b = OverlayBuilder::new(2, 9);
        b.configure(|_, cfg| {
            cfg.notify_interval = Some(SimDuration::from_secs(10));
        });
        let (mut sim, ids) = b.build();
        sim.enable_store(glare_fabric::StoreConfig::standard());
        for _ in 0..5 {
            sim.add_actor(SiteId(1), Box::new(NotificationSink::new(ids[0])));
        }
        // The first round, at 10 s, arms one offset per sink within the
        // next 10 s; the node is down for a millisecond right after it.
        sim.schedule_crash(SimTime::from_millis(10_001), SiteId(0));
        sim.schedule_restart(SimTime::from_millis(10_002), SiteId(0));
        sim.start();
        sim.run_until(SimTime::from_secs(25));
        assert_eq!(sim.metrics().counter_value("glare.notifications_sent"), 0);
    }

    #[test]
    fn client_stats_mean() {
        let mut s = ClientStats::default();
        assert_eq!(s.mean_latency(), None);
        s.latencies.push(SimDuration::from_millis(10));
        s.latencies.push(SimDuration::from_millis(30));
        assert_eq!(s.mean_latency(), Some(SimDuration::from_millis(20)));
    }
}
