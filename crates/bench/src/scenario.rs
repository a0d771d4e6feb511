//! Overlay experiments as data. A [`Scenario`] states what one
//! discrete-event run holds and [`Scenario::start`] builds and starts it.
//! Time stays with the harness: the returned [`Run`] is started but not
//! advanced, so a harness that marks phases, heals the network or runs a
//! control calls [`Simulation::run_until`] itself; a scenario has no
//! callbacks and no hooks. Actors take ids in one order: the nodes `0..n`
//! (node `i` on site `i`), then the clients, the tenant lanes and the
//! sinks, each in the order listed.

use std::cmp::Reverse;
use std::sync::Arc;

use glare_core::admission::TenantClass;
use glare_core::model::{example_hierarchy, ActivityDeployment, ActivityType};
use glare_core::node::NodeConfig;
use glare_core::overlay::{ClientStats, NotificationSink, OverlayBuilder, QueryClient};
use glare_core::retry::RetryPolicy;
use glare_fabric::sync::Mutex;
use glare_fabric::trace::DEFAULT_MAX_SPANS;
use glare_fabric::{
    percentile, ActorId, FaultPlan, SchedulerKind, SimDuration, SimTime, Simulation, SiteId,
    StoreConfig, Topology,
};
use glare_workload::{TenantLoad, TenantStats, WorkloadSpec};

/// What the nodes' registries hold before the run starts.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Activity types every node registers, in order: one shared value
    /// per type, whatever the number of nodes.
    pub types: Vec<Arc<ActivityType>>,
    /// `(site, deployment)`: registered on that site's node only, in order,
    /// after every type.
    pub deployments: Vec<(usize, ActivityDeployment)>,
}

impl Registry {
    /// Every node knows the concrete types `T0..T{types}` (of `domain`),
    /// and the deployment of `T{t}` lives on site `t % sites`.
    pub(crate) fn round_robin(types: usize, sites: usize, domain: &str) -> Registry {
        let ty = |t| Arc::new(ActivityType::concrete_type(&format!("T{t}"), domain, "wien2k"));
        let dir = |t| format!("t{t}");
        let deployed = |t| deployment(&format!("T{t}"), t % sites, &dir(t), &dir(t));
        let deployments = (0..types).map(deployed).collect();
        Registry { types: (0..types).map(ty).collect(), deployments }
    }

    /// Every node knows the example type hierarchy, plus `deployments`.
    pub(crate) fn hierarchy(deployments: Vec<(usize, ActivityDeployment)>) -> Registry {
        let types = example_hierarchy(SimTime::ZERO).into_iter().map(Arc::new).collect();
        Registry { types, deployments }
    }
}

/// An executable deployment of activity type `ty` on site `site` (named
/// `site{site}`), installed at `/opt/deployments/{dir}/bin/{bin}`.
pub(crate) fn deployment(ty: &str, site: usize, dir: &str, bin: &str) -> (usize, ActivityDeployment) {
    let (home, name) = (format!("/opt/deployments/{dir}"), format!("site{site}"));
    (site, ActivityDeployment::executable(ty, &name, &format!("{home}/bin/{bin}"), &home))
}

/// [`NodeConfig::new`]'s policy, the base a scenario edits: the site name,
/// rank and community-index flag it carries are each node's own.
pub(crate) fn node_defaults() -> NodeConfig {
    NodeConfig::new("", 0)
}

/// The topology's sites by election rank, highest first: the likeliest
/// super-peer leads, the likeliest plain member trails.
pub(crate) fn ranked_sites(topology: &Topology) -> Vec<SiteId> {
    let mut sites: Vec<SiteId> = (0..topology.len() as u32).map(SiteId).collect();
    sites.sort_by_key(|&s| Reverse(topology.site(s).rank_hashcode()));
    sites
}

/// One closed-loop [`QueryClient`] on `site`, asking that site's node.
#[derive(Clone, Debug)]
pub struct Client {
    /// Site the client and the node it asks live on.
    pub site: usize,
    /// Activity every query names.
    pub activity: String,
    /// Think time between an answer and the next query.
    pub think: SimDuration,
    /// Queries to send.
    pub count: u64,
    /// Tenant class its requests carry.
    pub class: TenantClass,
    /// Index of the shared [`ClientStats`] it reports into.
    pub group: usize,
}

impl Client {
    /// A best-effort client reporting into stats group 0.
    pub(crate) fn new(site: usize, activity: &str, think: SimDuration, count: u64) -> Client {
        let (activity, class) = (activity.to_owned(), TenantClass::BestEffort);
        Client { site, activity, think, count, class, group: 0 }
    }
}

/// The mean and 95th percentile of a stats group's latencies, in ms (0 when
/// nothing was answered).
pub(crate) fn latency_ms(stats: &ClientStats) -> (f64, f64) {
    let mut lat_ms: Vec<f64> = stats.latencies.iter().map(|d| d.as_millis_f64()).collect();
    lat_ms.sort_by(f64::total_cmp);
    let mean = lat_ms.iter().sum::<f64>() / lat_ms.len().max(1) as f64;
    (mean, percentile(&lat_ms, 0.95).unwrap_or(0.0))
}

/// One overlay experiment, stated as data.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The sites; one node runs on each.
    pub topology: Topology,
    /// Master seed.
    pub seed: u64,
    /// The kernel's event-queue implementation.
    pub scheduler: SchedulerKind,
    /// The node policy: every node starts from this config, keeping only
    /// its own site name, rank and community-index flag.
    pub node: NodeConfig,
    /// What the registries hold at start.
    pub registry: Registry,
    /// Durable per-site stores ([`StoreConfig::standard`]).
    pub store: bool,
    /// The structured event log and its bound; `None` leaves it off.
    pub events: Option<usize>,
    /// Causal tracing, at the default span bound.
    pub tracing: bool,
    /// Sample every site's load average into its `glare_site_load1m` gauge
    /// until this instant.
    pub load_sampling: Option<SimTime>,
    /// Uniform message-loss probability.
    pub loss: f64,
    /// Per-pair loss overrides `(a, b, probability)`.
    pub link_loss: Vec<(SiteId, SiteId, f64)>,
    /// Crashes, partitions and gray degradations.
    pub faults: FaultPlan,
    /// Query clients.
    pub clients: Vec<Client>,
    /// Tenant lanes: one [`TenantLoad`] per tenant of the spec, on site 0
    /// asking node 0, retrying shed requests under
    /// [`RetryPolicy::standard`].
    pub tenants: Option<WorkloadSpec>,
    /// Notification sinks subscribed to node 0.
    pub sinks: usize,
}

/// One tenant lane of a started scenario.
pub struct TenantLane {
    /// Tenant name from the workload spec.
    pub name: String,
    /// Tenant class.
    pub class: TenantClass,
    /// Client-observed stats (offered/responses/shed/retries/dropped).
    pub stats: Arc<Mutex<TenantStats>>,
}

/// A started scenario: the simulation at time zero and who is in it.
pub struct Run {
    /// The started, not yet advanced, simulation.
    pub sim: Simulation,
    /// Node ids, site order (`ids[i]` is `ActorId(i)`).
    pub ids: Vec<ActorId>,
    /// One shared stats block per client group, group order.
    pub stats: Vec<Arc<Mutex<ClientStats>>>,
    /// Tenant lanes, spec order.
    pub lanes: Vec<TenantLane>,
}

impl Scenario {
    /// `n` nodes over a uniform topology at the node defaults, with nothing
    /// registered, no telemetry, a reliable network, no faults and no load.
    pub(crate) fn new(n: usize, seed: u64) -> Scenario {
        Scenario {
            topology: Topology::uniform(n),
            seed,
            scheduler: SchedulerKind::default(),
            node: node_defaults(),
            registry: Registry::default(),
            store: false,
            events: None,
            tracing: false,
            load_sampling: None,
            loss: 0.0,
            link_loss: Vec::new(),
            faults: FaultPlan::new(),
            clients: Vec::new(),
            tenants: None,
            sinks: 0,
        }
    }

    /// Build the overlay, switch on what the scenario asks for, schedule
    /// its faults, attach its actors and start it.
    pub(crate) fn start(self) -> Run {
        let mut builder = OverlayBuilder::new(self.topology.len(), self.seed)
            .with_topology(self.topology)
            .with_scheduler(self.scheduler);
        let policy = self.node;
        builder.configure(move |_, cfg| {
            *cfg = NodeConfig {
                site_name: std::mem::take(&mut cfg.site_name),
                rank: cfg.rank,
                has_community_index: cfg.has_community_index,
                ..policy.clone()
            };
        });
        let registry = self.registry;
        builder.seed(move |i, node| {
            for ty in &registry.types {
                node.atr.register(Arc::clone(ty), SimTime::ZERO).expect("a well-formed type");
            }
            for (_, d) in registry.deployments.iter().filter(|(site, _)| *site == i) {
                let registered = node.adr.register(d.clone(), &node.atr, SimTime::ZERO);
                registered.expect("a deployment of a registered type");
            }
        });
        let (mut sim, ids) = builder.build();
        if self.store {
            sim.enable_store(StoreConfig::standard());
        }
        if let Some(max) = self.events {
            sim.enable_events(max);
        }
        if self.tracing {
            sim.enable_tracing(DEFAULT_MAX_SPANS);
        }
        sim.set_drop_probability(self.loss);
        for &(a, b, p) in &self.link_loss {
            sim.set_link_drop_probability(a, b, Some(p));
        }
        if let Some(until) = self.load_sampling {
            sim.enable_load_sampling(until);
        }
        self.faults.apply(&mut sim);

        let groups = self.clients.iter().map(|c| c.group + 1).max().unwrap_or(1);
        let stats: Vec<_> = (0..groups).map(|_| ClientStats::shared()).collect();
        for c in &self.clients {
            let stats = stats[c.group].clone();
            let client = QueryClient::new(ids[c.site], &c.activity, c.think, c.count, stats);
            sim.add_actor(SiteId(c.site as u32), Box::new(client.with_class(c.class)));
        }
        let mut lanes = Vec::new();
        if let Some(spec) = &self.tenants {
            for (i, t) in spec.tenants.iter().enumerate() {
                let stats = TenantStats::shared();
                let load = TenantLoad::new(spec, i, ids[0], RetryPolicy::standard(), stats.clone());
                sim.add_actor(SiteId(0), Box::new(load));
                lanes.push(TenantLane { name: t.name.clone(), class: t.class, stats });
            }
        }
        for _ in 0..self.sinks {
            sim.add_actor(SiteId(0), Box::new(NotificationSink::new(ids[0])));
        }
        sim.start();
        Run { sim, ids, stats, lanes }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::chaos::ChaosParams;
    use crate::fig12::Fig12Params;
    use crate::fig13::Fig13Params;
    use crate::grayfail::{GrayMode, GrayfailParams};
    use crate::health::HealthParams;
    use crate::load::LoadParams;
    use crate::scale::ScaleParams;
    use crate::{ablation, chaos, fig12, fig13, grayfail, health, load, scale};
    use glare_core::GlareNode;
    use glare_fabric::DEFAULT_MAX_EVENTS;

    #[test]
    fn actors_take_ids_in_the_documented_order() {
        let client = |site| Client::new(site, "T1", SimDuration::from_secs(1), 1);
        let scenario = Scenario {
            registry: Registry::round_robin(4, 3, "ids"),
            tracing: true,
            clients: vec![client(2), client(1)],
            tenants: Some(WorkloadSpec::three_tier(1, SimDuration::from_secs(5), 10.0)),
            sinks: 2,
            ..Scenario::new(3, 5)
        };
        let Run { mut sim, ids, lanes, .. } = scenario.start();
        sim.run_until(SimTime::from_secs(5));
        let actors = |r: std::ops::Range<u32>| r.map(ActorId).collect::<BTreeSet<_>>();
        assert_eq!(ids, Vec::from_iter(actors(0..3)), "nodes first, one per site in site order");
        let trace = sim.take_trace().expect("tracing was on");
        let authors = |name: &str| -> BTreeSet<ActorId> {
            trace.spans().iter().filter(|s| s.name == name).filter_map(|s| s.actor).collect()
        };
        assert_eq!(authors("client.query"), actors(3..5), "then the clients");
        assert_eq!(authors("tenant.query"), actors(5..8), "then the tenant lanes");
        let lanes: Vec<&str> = lanes.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(lanes, ["gold", "silver", "besteffort"], "lanes in spec order");
        // The sinks are the last actors: each subscribed by a message of its own.
        assert_eq!(authors("net.send"), actors(0..10));
        for id in actors(3..10) {
            assert!(sim.actor_as::<GlareNode>(id).is_none(), "{id:?} is not a node");
        }
        // Each node holds every type but only its own site's deployments.
        let keys: Vec<Vec<String>> = ids
            .iter()
            .map(|&id| {
                let node = sim.actor_as::<GlareNode>(id).expect("a node");
                assert!(node.atr.contains("T3"));
                let mut keys = node.adr.keys(SimTime::ZERO);
                keys.sort();
                keys
            })
            .collect();
        assert_eq!(keys, [vec!["t0@site0", "t3@site0"], vec!["t1@site1"], vec!["t2@site2"]]);
    }

    /// Every harness's overlay scenario at small parameters, with the
    /// horizon to run it to.
    fn every_harness() -> Vec<(&'static str, Scenario, u64)> {
        let f12 = Fig12Params { clients: 6, queries_per_client: 4, types: 6, ..Default::default() };
        let f13 = Fig13Params { window: SimDuration::from_secs(60), seed: 7 };
        let gray = GrayfailParams::default();
        let plan = grayfail::plan_sites();
        let h = HealthParams { tenants: 3, gray: true, loss: 0.02, ..HealthParams::smoke() };
        vec![
            ("fig12", fig12::scenario(3, false, f12), 600),
            ("fig13 requesters", fig13::requesters(20, f13), 60),
            ("fig13 sinks", fig13::sinks(30, SimDuration::from_secs(1), f13), 60),
            ("ablation routing", ablation::routing(false, 42), 600),
            ("ablation takeover", ablation::takeover(true, 9), 300),
            ("chaos", chaos::overlay_scenario(&ChaosParams::smoke(), 0.02), 600),
            ("grayfail", grayfail::scenario(&gray, GrayMode::Enabled, &plan), 300),
            ("health", health::overlay_scenario(h, false), 300),
            ("load", load::scenario(2.0, &LoadParams::smoke()), 20),
            ("scale", scale::scenario(64, false, &ScaleParams::smoke()), 120),
        ]
    }

    #[test]
    fn telemetry_switches_are_observe_only_for_every_harness() {
        for (name, scenario, horizon) in every_harness() {
            let observe = |events, tracing| {
                let mut run = Scenario { events, tracing, ..scenario.clone() }.start();
                run.sim.run_until(SimTime::from_secs(horizon));
                let clients = run.stats.iter().map(|s| format!("{:?}", *s.lock()));
                let lanes = run.lanes.iter().map(|l| format!("{:?}", *l.stats.lock()));
                let mut seen: Vec<String> = clients.chain(lanes).collect();
                let sent = run.sim.metrics().counter_value("net.msgs_sent");
                seen.push(format!("net.msgs_sent {sent}"));
                seen
            };
            let bare = observe(None, false);
            assert_eq!(bare, observe(Some(DEFAULT_MAX_EVENTS), true), "{name}");
            let answered = !bare[0].contains("responses: 0,");
            assert!(answered || scenario.clients.is_empty(), "{name}: {bare:?}");
        }
    }
}
