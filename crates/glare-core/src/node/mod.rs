//! The distributed GLARE node: a discrete-event actor hosting one site's
//! registries, cache and super-peer protocol endpoint.
//!
//! This is the form of GLARE the paper's distributed experiments exercise:
//! Fig. 12 (multi-site response time with/without cache), Fig. 13 (load
//! average under requesters and notification sinks) and the §3.3 fault
//! tolerance story (super-peer election, failure detection, majority-
//! acknowledged re-election) all run on networks of [`GlareNode`]s inside
//! a [`glare_fabric::Simulation`].
//!
//! ## Query path
//!
//! A client's request reaches its *local* node only (§3.2 "Local
//! Access"). The node charges the request's CPU cost to its site (feeding
//! the run-queue/load-average model), then resolves: own registry → cache
//! → group peers → super-peer, which forwards to the other super-peers
//! and caches results (§3.3). The super-peers may themselves be grouped
//! (`NodeConfig::tree_depth`); one ladder walks every depth, climbing a
//! tier at a time and forwarding across the top one — the paper's
//! two-level overlay is the case where the leaf tier *is* the top tier.
//!
//! ## Election
//!
//! The node holding the GT4 *community index* acts as election
//! coordinator: it notifies all sites twice (the second notification is
//! acknowledged with the site's rank hashcode), partitions responders
//! into groups and appoints the highest-ranked member of each group as
//! super-peer. Members detect a dead super-peer by heartbeat silence,
//! notify the highest-ranked member, which verifies with every member and
//! takes over on a simple-majority acknowledgement.
//!
//! ## Layout
//!
//! Each protocol keeps its state in one struct and its code in one file
//! beside it; [`GlareNode`] holds the structs side by side and its
//! [`Actor`] callbacks only route. A handler that crosses into another
//! protocol's state says so as `self.<other>.…` (DESIGN.md §9c).

mod door;
mod election;
mod labels;
mod ladder;
mod liveness;
mod msg;
mod notify;
mod registry;
mod view;

use std::any::Any;
use std::sync::Arc;

use glare_fabric::{Actor, ActorId, Ctx, Envelope, SimDuration, TimerToken};
use glare_services::Transport;

pub use msg::{NodeConfig, NodeMsg, QueryScope};

use crate::adr::ActivityDeploymentRegistry;
use crate::atr::ActivityTypeRegistry;
use crate::cache::RegistryCache;
use crate::model::ActivityDeployment;
use crate::superpeer::Role;
use door::FrontDoor;
use election::Coordinator;
use labels::Telemetry;
use ladder::{Ladder, Request};
use liveness::Liveness;
use msg::HEARTBEAT_INTERVAL;
use notify::Notifier;
use registry::Rejoin;
use view::Membership;

/// What a node does when a CPU stage completes. It rides the completion
/// event ([`Ctx::compute_then`]), so a crash voids it with the event.
enum Deferred {
    HandleQuery(Request),
    ReplyAfterRegistry {
        req: Request,
        deployments: Vec<ActivityDeployment>,
    },
    DeliverNotification {
        sink: ActorId,
        seq: u64,
    },
}

/// The node's periodic loops, each a chain of one-shot timers that re-arms
/// itself when it fires.
#[derive(Clone, Copy)]
enum Loop {
    HbCheck,
    Heartbeat,
    Notify,
    StatusMonitor,
    CacheRefresh,
    ElectionReopen,
}

impl Loop {
    /// The tag the loop's timer is armed with, which routes it in
    /// [`Actor::on_timer`].
    fn tag(self) -> &'static str {
        match self {
            Loop::HbCheck => "hb-check",
            Loop::Heartbeat => "heartbeat",
            Loop::Notify => "notify",
            Loop::StatusMonitor => "status-monitor",
            Loop::CacheRefresh => "cache-refresh",
            Loop::ElectionReopen => "election-reopen",
        }
    }
}

/// One distributed GLARE node.
pub struct GlareNode {
    cfg: NodeConfig,
    /// Full roster of overlay nodes `(id, rank)` — what the MDS community
    /// index would provide. Shared: at thousands of sites a per-node copy
    /// would cost O(n²) memory.
    roster: Arc<Vec<(ActorId, u64)>>,
    /// The node's own actor id (fixed at overlay build time).
    me: ActorId,
    /// The node's type registry.
    pub atr: ActivityTypeRegistry,
    /// The node's deployment registry.
    pub adr: ActivityDeploymentRegistry,
    /// The node's cache.
    pub cache: RegistryCache,
    /// The overlay as this node sees it.
    view: Membership,
    coord: Coordinator,
    liveness: Liveness,
    ladder: Ladder,
    door: FrontDoor,
    notifier: Notifier,
    rejoin: Rejoin,
    tele: Telemetry,
    /// The pending timer of each [`Loop`], by discriminant. Kernel timers
    /// outlive a crash, so this survives amnesia with them: the restart
    /// must find the old incarnation's timers to replace them.
    loops: [Option<TimerToken>; 6],
}

impl GlareNode {
    /// Create a node. `me` must equal the actor id this node will receive
    /// from the simulation (the [`crate::overlay::OverlayBuilder`] guarantees this).
    pub fn new(cfg: NodeConfig, me: ActorId, roster: Arc<Vec<(ActorId, u64)>>) -> GlareNode {
        let atr = ActivityTypeRegistry::new(
            &format!("https://{}:8084/wsrf/services/ActivityTypeRegistry", cfg.site_name),
            Transport::Http,
        );
        let adr = ActivityDeploymentRegistry::new(
            &format!(
                "https://{}:8084/wsrf/services/ActivityDeploymentRegistry",
                cfg.site_name
            ),
            Transport::Http,
        );
        GlareNode {
            roster,
            me,
            atr,
            adr,
            cache: RegistryCache::new(crate::grid::DEFAULT_CACHE_AGE),
            view: Membership::new(),
            coord: Coordinator::default(),
            liveness: Liveness::new(&cfg),
            ladder: Ladder::new(&cfg),
            door: FrontDoor::new(&cfg),
            notifier: Notifier::default(),
            rejoin: Rejoin::default(),
            tele: Telemetry::default(),
            loops: [None; 6],
            cfg,
        }
    }

    /// Current overlay role.
    pub fn role(&self) -> Role {
        self.view.role
    }

    /// The node's current super-peer (itself when it is one).
    pub fn super_peer(&self) -> Option<ActorId> {
        self.view.super_peer
    }

    /// The node's group (empty before the first election).
    pub fn group(&self) -> &[ActorId] {
        &self.view.group
    }

    /// The period `which` runs at on this node; `None` when it does not.
    fn period(&self, which: Loop) -> Option<SimDuration> {
        match which {
            // Everyone monitors super-peer liveness.
            Loop::HbCheck => Some(self.liveness.hb_check_period()),
            Loop::Heartbeat => (self.view.role == Role::SuperPeer).then_some(HEARTBEAT_INTERVAL),
            Loop::Notify => self.cfg.notify_interval,
            Loop::StatusMonitor => self.cfg.monitor_interval,
            Loop::CacheRefresh => self.cfg.cache_refresh_interval,
            Loop::ElectionReopen => self.cfg.election_interval,
        }
    }

    /// Arm `which` to fire one period from now — the only place a loop's
    /// timer is armed. It replaces the loop's pending timer rather than
    /// adding to it: a restart (or a re-appointment) that finds the
    /// previous timer still pending would otherwise run the loop twice
    /// for the rest of the run. On the steady re-arm from the loop's own
    /// handler the remembered timer has just fired and the cancel is a
    /// no-op.
    fn arm(&mut self, ctx: &mut Ctx<'_>, which: Loop) {
        let Some(period) = self.period(which) else {
            return;
        };
        if let Some(replaced) = self.loops[which as usize].take() {
            ctx.cancel_timer(replaced);
        }
        self.loops[which as usize] = Some(ctx.timer_after(period, which.tag()));
    }

    /// Arm the loops an incarnation runs besides the liveness check, at
    /// start and at restart alike.
    fn arm_loops(&mut self, ctx: &mut Ctx<'_>) {
        for which in [Loop::Heartbeat, Loop::Notify, Loop::StatusMonitor, Loop::CacheRefresh] {
            self.arm(ctx, which);
        }
    }
}

impl Actor for GlareNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(
            ctx.self_id, self.me,
            "OverlayBuilder must register nodes in id order"
        );
        self.liveness.last_heartbeat = ctx.now();
        if self.cfg.has_community_index {
            self.start_election(ctx);
        }
        self.arm(ctx, Loop::HbCheck);
        self.arm_loops(ctx);
        if ctx.store_enabled() {
            // Capture seed-hook registrations that never passed through
            // the journal, so a crash before the first mutation still
            // recovers the seeded state.
            self.write_snapshot(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let from = env.from;
        let Ok((_, msg)) = env.downcast::<NodeMsg>() else {
            return;
        };
        match msg {
            NodeMsg::ElectionNotice {
                coordinator,
                second,
                community_size,
            } => self
                .coord
                .on_notice(ctx, self.cfg.rank, coordinator, second, community_size),
            NodeMsg::ElectionAck { rank } => self.coord.on_ack(from, rank),
            NodeMsg::Appointment {
                group,
                super_peer,
                other_super_peers,
                parents,
                tree_others,
                tree_tiers,
            } => self.on_appointment(
                ctx,
                super_peer,
                Membership {
                    // In office or not until the handler settles it.
                    role: self.view.role,
                    group,
                    super_peer: Some(super_peer),
                    other_super_peers,
                    tree_parents: parents,
                    tree_others,
                    tree_tiers,
                },
            ),
            NodeMsg::Heartbeat => self.on_heartbeat(ctx, from),
            NodeMsg::SuspectNotice { suspect } => self.on_suspect_notice(ctx, suspect),
            NodeMsg::VerifyRequest { suspect } => self.on_verify_request(ctx, from, suspect),
            NodeMsg::VerifyAck { suspect, missing } => {
                self.on_verify_ack(ctx, from, suspect, missing)
            }
            NodeMsg::Takeover => self.on_takeover(ctx, from),
            NodeMsg::RegisterType(t) => self.register_type(ctx, t),
            NodeMsg::RegisterDeployment(d) => {
                self.register_deployment(ctx, d);
            }
            NodeMsg::UninstallDeployment { key } => self.uninstall_deployment(ctx, key),
            NodeMsg::AntiEntropySummary { entries, tombstones } => {
                self.on_antientropy_summary(ctx, from, entries, tombstones)
            }
            NodeMsg::AntiEntropyResponse { push, tombstones } => {
                self.on_antientropy_response(ctx, push, tombstones)
            }
            NodeMsg::QueryDeployments {
                activity,
                req_id,
                reply_to,
                scope,
                class,
            } => self.on_query(ctx, activity, req_id, reply_to, scope, class),
            NodeMsg::QueryResponse {
                req_id,
                deployments,
            } => self.on_probe_answer(ctx, from, req_id, Some(deployments)),
            // A probe we forwarded was shed downstream.
            NodeMsg::QueryRejected { req_id, .. } => self.on_probe_answer(ctx, from, req_id, None),
            NodeMsg::Subscribe => self.notifier.subscribe(from),
            NodeMsg::Notification { .. } => { /* nodes don't consume these */ }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
        // A probe timer carries the id of its pending query.
        if let Some(local_id) = ctx.take_continuation::<u64>() {
            self.on_probe_timer(ctx, tag, local_id);
            return;
        }
        match tag {
            "notify-stagger" => self.notifier.stagger_elapsed(ctx, &self.cfg),
            "election-second" => election::broadcast_notice(ctx, &self.roster, true),
            "election-close" => self.close_election(ctx),
            "election-reopen" if self.cfg.has_community_index => self.start_election(ctx),
            "heartbeat" if self.view.role == Role::SuperPeer => self.beat(ctx),
            "hb-check" => self.check_super_peer(ctx),
            "notify" => self.notify_round(ctx),
            "status-monitor" => self.monitor_tick(ctx),
            "cache-refresh" => self.refresh_cache(ctx),
            _ => {}
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        match ctx.take_continuation::<Deferred>() {
            Some(Deferred::HandleQuery(req)) => self.handle_query(ctx, req),
            Some(Deferred::ReplyAfterRegistry { req, deployments }) => {
                self.reply(ctx, req, deployments, "registry")
            }
            Some(Deferred::DeliverNotification { sink, seq }) => notify::deliver(ctx, sink, seq),
            // Store fsyncs and replays are fire-and-forget.
            None => {}
        }
    }

    fn as_any(&self) -> Option<&dyn Any> {
        // Opt into harness inspection: the chaos invariant checker reads
        // roles, groups and registries through `Simulation::actor_as`.
        Some(self)
    }

    fn on_site_crash(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.store_enabled() {
            // Legacy behaviour: volatile state survives the crash (the
            // pre-durability model every existing seed reproduces).
            return;
        }
        // Amnesia: everything volatile dies with the process — every owner
        // is rebuilt by the constructor `new` calls; only the durable
        // store (snapshot + journal) survives, and `on_site_restart`
        // rebuilds from it. Three things are deliberately not rebuilt:
        // `tele` and `loops` (see their fields), and the ladder's
        // correlation counter.
        let cfg = &self.cfg;
        self.atr = ActivityTypeRegistry::new(&self.atr.address, self.atr.transport);
        self.adr = ActivityDeploymentRegistry::new(&self.adr.address, self.adr.transport);
        self.cache = RegistryCache::new(crate::grid::DEFAULT_CACHE_AGE);
        self.view = Membership::new();
        self.coord = Coordinator::default();
        self.liveness = Liveness::new(cfg);
        self.ladder = self.ladder.after_amnesia(cfg);
        self.door = FrontDoor::new(cfg);
        self.notifier = Notifier::default();
        self.rejoin = Rejoin::default();
        ctx.emit_event("site.amnesia", "node", &[]);
    }

    fn on_site_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Re-arm the loops lost in the crash.
        self.liveness.last_heartbeat = ctx.now();
        self.arm(ctx, Loop::HbCheck);
        if self.cfg.has_community_index {
            self.start_election(ctx);
        }
        self.arm_loops(ctx);
        if ctx.store_enabled() {
            self.recover_from_store(ctx);
        }
    }
}

#[cfg(test)]
mod tests;
