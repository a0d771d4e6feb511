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

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use glare_fabric::{
    Actor, ActorId, CounterId, Ctx, Envelope, GaugeId, Labels, MetricsRegistry, SimDuration,
    SimTime, SiteId, SpanHandle, SpanKind, TenantLabels, TimerToken, DEFAULT_GAUGE_WINDOW,
};
use glare_services::mds::REQUEST_BASE_COST;
use glare_services::Transport;

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, TenantClass};
use crate::adr::{ActivityDeploymentRegistry, DEPLOYMENT_WIRE_BYTES};
use crate::atr::ActivityTypeRegistry;
use crate::cache::RegistryCache;
use crate::durable::{self, RegistryMutation};
use crate::model::{ActivityDeployment, ActivityType};
use crate::retry::{BreakerBank, RetryPolicy};
use crate::superpeer::{highest_ranked, plan_tree, MajorityTally, Role, TreeParent};
use crate::suspicion::{HedgeConfig, SuspicionConfig, SuspicionTracker};

/// How far a query may travel from the handling node.
///
/// One routing rule serves every tree depth: the paper's two-level
/// overlay (`tree_depth = 2`) is the tree with a single grouping tier,
/// where level 1 is the only level there is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryScope {
    /// Answer from local state only (a probe).
    LocalOnly,
    /// The full ladder: local → cache → group → super-peer → up the tree
    /// → across the top tier (a client request).
    Full,
    /// Tree descent: the receiving super-peer resolves against everything
    /// *beneath* it down to the leaves — its leaf group plus, for every
    /// tier up to `level` it leads, the subtrees of that tier's members —
    /// and never forwards up or sideways (loop prevention).
    Subtree {
        /// Tree level whose subtree the receiver must cover (1 = its
        /// leaf group only: what one leaf super-peer forwards to another).
        level: u8,
    },
    /// Tree ascent: a miss escalated to the level-`level` super-peer
    /// above. It covers its own subtree and, on a miss, keeps climbing
    /// (or forwards across the top tier, terminally).
    TreeUp {
        /// Tree level handling the escalation (1 = a member's miss at
        /// its own leaf super-peer).
        level: u8,
    },
}

/// Stable label of a [`QueryScope`] for span attributes. Level 1 keeps
/// the names the two-level protocol's spans have always carried.
fn scope_label(scope: QueryScope) -> &'static str {
    match scope {
        QueryScope::LocalOnly => "local-only",
        QueryScope::Full => "full",
        QueryScope::TreeUp { level: 1 } => "group-probe",
        QueryScope::Subtree { level: 1 } => "sp-forwarded",
        QueryScope::Subtree { .. } => "subtree",
        QueryScope::TreeUp { .. } => "tree-up",
    }
}

/// Messages exchanged between nodes, clients and sinks.
pub enum NodeMsg {
    // --- election ---
    /// Coordinator's broadcast; the second notice requests an ack.
    ElectionNotice {
        /// The coordinator to ack to.
        coordinator: ActorId,
        /// Whether this is the acknowledged (second) notice.
        second: bool,
        /// Size of the coordinator's community (smaller wins contention).
        community_size: u32,
    },
    /// Responder's rank (paper: the site-attribute hashcode).
    ElectionAck {
        /// Responder's rank.
        rank: u64,
    },
    /// Coordinator → every node of a formed group.
    Appointment {
        /// All nodes of the group (super-peer included).
        group: Vec<ActorId>,
        /// The elected super-peer.
        super_peer: ActorId,
        /// The leaf super-peer's fellows one tier up, told to every node
        /// of the group. On a one-tier plan (tree depth 2) the next tier
        /// up is the top tier: every other leaf super-peer, the paper's
        /// super group, which is what lets a takeover heir keep forwarding
        /// across groups. At depth ≥ 3 it is the leaf super-peer's
        /// *siblings* in its level-2 group, the nearby peers a member
        /// hedges to.
        other_super_peers: Vec<ActorId>,
        /// Higher-level tree placement of the receiving node (empty for
        /// plain members and for the flat `depth = 2` overlay).
        parents: Vec<TreeParent>,
        /// Fellow top-tier super-peers (nonempty only for top-tier
        /// super-peers of a depth ≥ 3 tree).
        tree_others: Vec<ActorId>,
        /// Grouping tiers realized by the election (1 = flat two-level).
        tree_tiers: u8,
    },
    /// Super-peer liveness beacon.
    Heartbeat,
    /// Member → highest-ranked member: the super-peer looks dead.
    SuspectNotice {
        /// The suspected super-peer.
        suspect: ActorId,
    },
    /// Highest-ranked member → every member: confirm the suspicion.
    VerifyRequest {
        /// The suspected super-peer.
        suspect: ActorId,
    },
    /// Member's verdict on the suspect.
    VerifyAck {
        /// The suspected super-peer.
        suspect: ActorId,
        /// Whether this member also finds it unreachable.
        missing: bool,
    },
    /// New super-peer announcement after a majority-confirmed takeover.
    Takeover,
    // --- data path ---
    /// Register a type at this node (provider update).
    RegisterType(Box<ActivityType>),
    /// Register a deployment at this node.
    RegisterDeployment(Box<ActivityDeployment>),
    /// Deployment-list query.
    QueryDeployments {
        /// Requested activity (type name).
        activity: String,
        /// Correlation id chosen by the requester.
        req_id: u64,
        /// Where the answer goes.
        reply_to: ActorId,
        /// How far this request may travel.
        scope: QueryScope,
        /// Originating tenant's request class. Internal probes inherit the
        /// class of the request they serve; admission only gates the
        /// client-facing entry ([`QueryScope::Full`]).
        class: TenantClass,
    },
    /// Answer to a query.
    QueryResponse {
        /// Correlation id echoed back.
        req_id: u64,
        /// Deployments found (empty = miss).
        deployments: Vec<ActivityDeployment>,
    },
    /// The handling node's admission controller shed the request before
    /// any work was charged. Clients feed the hint to
    /// [`RetryPolicy::next_backoff_after`]; a node receiving one for a
    /// pending probe treats it like an empty answer.
    QueryRejected {
        /// Correlation id echoed back.
        req_id: u64,
        /// Server-suggested minimum wait before retrying.
        retry_after: SimDuration,
    },
    /// Uninstall a deployment at this node: the entry is removed and a
    /// tombstone recorded so anti-entropy can never resurrect it.
    UninstallDeployment {
        /// Deployment key.
        key: String,
    },
    /// Member → super-peer: the member's durable ADR state for an
    /// anti-entropy round. Entries carry their LUT in nanoseconds.
    AntiEntropySummary {
        /// Live deployments with their last-update times.
        entries: Vec<(ActivityDeployment, u64)>,
        /// Uninstall tombstones `(key, nanos)`.
        tombstones: Vec<(String, u64)>,
    },
    /// Super-peer → member: entries of the member's origin the group
    /// still holds but the member lost, plus the group's tombstones.
    AntiEntropyResponse {
        /// Entries to restore (origin == the member's site).
        push: Vec<ActivityDeployment>,
        /// Group tombstones `(key, nanos)`.
        tombstones: Vec<(String, u64)>,
    },
    /// A sink subscribes to this node's type-update notifications.
    Subscribe,
    /// Notification delivered to a sink.
    Notification {
        /// Sequence number.
        seq: u64,
    },
}

/// Super-peer heartbeat period.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Silence threshold before a member suspects its super-peer: three missed
/// beats plus a second of slack.
const HEARTBEAT_TIMEOUT: SimDuration =
    SimDuration::from_nanos(3 * HEARTBEAT_INTERVAL.as_nanos() + 1_000_000_000);
/// How long to wait for probe replies before concluding a stage.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Static configuration of a node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Site name (for registry addresses and deployment records).
    pub site_name: String,
    /// Election rank (the §3.3 hashcode over static site attributes).
    pub rank: u64,
    /// Whether this node hosts the GT4 community index (→ election
    /// coordinator).
    pub has_community_index: bool,
    /// Maximum group size used by the coordinator.
    pub max_group_size: usize,
    /// Levels of the super-peer tree the coordinator builds: `2` (the
    /// default) is the paper's flat two-level overlay — leaf groups plus
    /// one fully connected super group; `3` and beyond recursively group
    /// the super-peers (groups-of-groups, §3's MDS index hierarchy) so
    /// election fan-out and query routing stay logarithmic in sites.
    pub tree_depth: usize,
    /// Branching factor of the tiers above the leaf level; `None` reuses
    /// `max_group_size`.
    pub tree_branching: Option<usize>,
    /// Whether the node caches remote results (Fig. 12's switch).
    pub use_cache: bool,
    /// CPU cost of accepting/parsing any request.
    pub request_cost: SimDuration,
    /// Extra CPU cost of resolving through the registries (the cache
    /// fast path skips this — Fig. 12's cache effect).
    pub registry_cost: SimDuration,
    /// Recovery policy for probes that time out with *silent* peers: the
    /// stage backs off (decorrelated jitter) and re-asks only the peers
    /// that never answered, feeding per-peer circuit breakers. Defaults
    /// to [`RetryPolicy::disabled`], under which a deadline miss concludes
    /// the stage immediately — byte-for-byte the legacy behaviour.
    pub retry: RetryPolicy,
    /// Backpressure at the front door: a bounded, lease-accounted inbox
    /// with class-tiered shedding (best-effort first, gold reserved).
    /// Defaults to [`AdmissionConfig::disabled`], under which the request
    /// path — messages, timers, RNG — is byte-for-byte the legacy
    /// behaviour.
    pub admission: AdmissionConfig,
    /// Coordinator's re-election period (the Index Monitor "periodically
    /// probes the GT4 Default Index", §3.3); `None` = single election.
    pub election_interval: Option<SimDuration>,
    /// ABLATION: resolve misses by flooding every node in the VO instead
    /// of the group/super-peer ladder (what GLARE's overlay avoids).
    pub flood_mode: bool,
    /// ABLATION: a member that detects super-peer silence takes over
    /// immediately, skipping the majority-acknowledged verification —
    /// demonstrates the split-brain the paper's protocol prevents.
    pub naive_takeover: bool,
    /// When set, the node notifies all subscribed sinks at this period
    /// (Fig. 13's notification rate).
    pub notify_interval: Option<SimDuration>,
    /// CPU cost per delivered notification.
    pub notify_cost: SimDuration,
    /// Deployment Status Monitor period: sweeps expired deployments and
    /// heartbeats live entries' LUTs (§3.2). `None` (default) disables
    /// the loop.
    pub monitor_interval: Option<SimDuration>,
    /// Cache Refresher period: discards outdated cache entries and, when
    /// the durable store is enabled, runs a periodic anti-entropy round
    /// with the super-peer. `None` (default) disables the loop.
    pub cache_refresh_interval: Option<SimDuration>,
    /// Adaptive, phi-accrual-style failure suspicion: per-peer EWMA +
    /// variance over heartbeat inter-arrivals and probe round-trips,
    /// driving the takeover threshold and hedge delays. Defaults to
    /// [`SuspicionConfig::disabled`], under which detection is
    /// byte-for-byte the fixed-threshold legacy behaviour.
    pub suspicion: SuspicionConfig,
    /// Hedged probes: single-target read stages fire one extra probe to
    /// the next-best replica after a deterministic quantile-derived
    /// delay; the first useful response wins. Defaults to
    /// [`HedgeConfig::disabled`], under which no hedge timers or probes
    /// exist — byte-for-byte the legacy behaviour.
    pub hedge: HedgeConfig,
}

impl NodeConfig {
    /// Sensible defaults for a named site.
    pub fn new(site_name: &str, rank: u64) -> NodeConfig {
        NodeConfig {
            site_name: site_name.to_owned(),
            rank,
            has_community_index: false,
            max_group_size: 4,
            tree_depth: 2,
            tree_branching: None,
            use_cache: true,
            request_cost: REQUEST_BASE_COST,
            registry_cost: SimDuration::from_millis(4),
            retry: RetryPolicy::disabled(),
            admission: AdmissionConfig::disabled(),
            election_interval: Some(SimDuration::from_secs(120)),
            flood_mode: false,
            naive_takeover: false,
            notify_interval: None,
            notify_cost: SimDuration::from_millis(25),
            monitor_interval: None,
            cache_refresh_interval: None,
            suspicion: SuspicionConfig::disabled(),
            hedge: HedgeConfig::disabled(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// A client request's first rung: waiting on this node's group
    /// members.
    PeerProbe,
    /// Waiting on the level-`N` super-peer above (tree ascent; 1 = a
    /// member waiting on its own leaf super-peer).
    TreeEscalate(u8),
    /// A level-`N` super-peer waiting on its subtree: its leaf peers and
    /// the member subtrees of every tier it leads up to `N`.
    TreeProbe(u8),
    /// A top-tier super-peer waiting on the other top-tier super-peers
    /// (terminal).
    TreeForward,
}

/// Hedge bookkeeping of one probe stage. `Default` is the no-hedge state
/// every stage starts in; single-target read stages with hedging enabled
/// get a `plan` and an armed `timer`.
#[derive(Default)]
struct HedgeState {
    /// The next-best replica and the scope its probe would carry.
    plan: Option<(ActorId, QueryScope)>,
    /// Armed hedge timer; `None` once fired or never armed. Cancelled via
    /// tombstone when the stage concludes first.
    timer: Option<TimerToken>,
    /// The replica actually hedged to (set when the timer fires).
    target: Option<ActorId>,
    /// When the hedge probe went out (its own RTT baseline).
    sent: Option<SimTime>,
    /// The hedge's useful answer concluded the stage.
    won: bool,
}

/// One deployment-list request as the node handling it sees it.
struct Request {
    activity: String,
    /// Correlation id chosen by the requester, echoed in the answer.
    req_id: u64,
    reply_to: ActorId,
    scope: QueryScope,
    /// Originating tenant's class, echoed into every probe of the ladder.
    class: TenantClass,
    /// The `node.query` span covering arrival → reply (inert when tracing
    /// is off).
    span: SpanHandle,
}

/// One probe stage of the ladder answering `req`.
struct PendingQuery {
    req: Request,
    awaiting: HashSet<ActorId>,
    collected: Vec<ActivityDeployment>,
    stage: Stage,
    /// Every peer this stage asked, with the scope its probe carried (a
    /// retry re-sends it verbatim).
    targets: Vec<(ActorId, QueryScope)>,
    /// The one live deadline timer of this stage.
    deadline: TimerToken,
    /// Probe attempt number, 1-based.
    attempt: u32,
    /// Previous backoff delay (decorrelated jitter seed).
    prev_backoff: SimDuration,
    /// When the first probe of this stage went out (deadline budget).
    started: SimTime,
    /// Whether any probe stage of this ladder exhausted its retry budget
    /// or was short-circuited — unlocks the degraded cache fallback on a
    /// final miss.
    probes_failed: bool,
    /// Hedged-probe state (inert default unless this stage armed one).
    hedge: HedgeState,
}

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

/// Everything a node names its metrics by, interned so that a record
/// formats nothing: the `{site}` label set nearly every family is keyed
/// on, and the names of the cache and admission families.
///
/// Each part is built the first time something is recorded under it (a
/// node that never records holds none; one with the cache or admission off
/// never builds that part), from the strings the call sites used to format
/// per record, so exposition is unchanged.
///
/// The instruments a request records into keep their registry handle
/// beside the name: filled by the first record (never earlier, or the
/// instrument would appear before it counted anything), used by every
/// later one in place of the name search.
struct NodeLabels {
    /// `{site="site{N}"}`.
    site: Labels,
    /// `glare_cache_hit_ratio{site}`.
    hit_ratio: Option<GaugeId>,
    /// `glare_inbox_occupancy{site}`.
    inbox_occupancy: Option<GaugeId>,
    /// Names of the cache tallies.
    cache: Option<Box<CacheLabels>>,
    /// `{class, site}` sets of the admission families.
    tenant: Option<Box<AdmissionLabels>>,
}

/// The `{class, site}` sets one node's admission decisions are counted
/// under, with the handles of the two counters of each class once
/// recorded, by [`TenantClass::index`].
struct AdmissionLabels {
    sets: TenantLabels,
    /// `glare_admission_admitted_total{class, site}`.
    admitted: [Option<CounterId>; 3],
    /// `glare_admission_shed_total{class, site}`.
    shed: [Option<CounterId>; 3],
}

/// The names one node's cache tallies are recorded under, each with the
/// handle of its counter once recorded. Rebuilt as a whole, so a stale
/// `{peer_group, site}` set takes its handles with it.
struct CacheLabels {
    /// `site{N}.cache.hits`.
    hits: String,
    hits_id: Option<CounterId>,
    /// `site{N}.cache.misses`.
    misses: String,
    misses_id: Option<CounterId>,
    /// `{peer_group, site}` as of `peer_group_of`.
    peer_group: Labels,
    /// `glare_cache_hits_total{peer_group, site}`.
    group_hits_id: Option<CounterId>,
    /// `glare_cache_misses_total{peer_group, site}`.
    group_misses_id: Option<CounterId>,
    /// The super-peer these were built under.
    peer_group_of: Option<ActorId>,
}

impl CacheLabels {
    /// Add `hits` and `misses` (whichever is nonzero) to the flat and the
    /// per-group tallies.
    fn tally(&mut self, m: &mut MetricsRegistry, hits: u64, misses: u64) {
        let group = &self.peer_group;
        for (n, name, flat_id, family, group_id) in [
            (
                hits,
                &self.hits,
                &mut self.hits_id,
                "glare_cache_hits_total",
                &mut self.group_hits_id,
            ),
            (
                misses,
                &self.misses,
                &mut self.misses_id,
                "glare_cache_misses_total",
                &mut self.group_misses_id,
            ),
        ] {
            if n > 0 {
                let flat = *flat_id.get_or_insert_with(|| m.counter_id(name));
                m.counter_at(flat).add(n);
                let labeled = *group_id.get_or_insert_with(|| m.counter_labeled_id(family, group));
                m.counter_at(labeled).add(n);
            }
        }
    }
}

impl NodeLabels {
    /// The node's interned names, the `{site}` set built now if this is
    /// its first record. Takes the slot, not the node, so callers keep the
    /// node's other fields while they hold the result.
    fn of(slot: &mut Option<Box<NodeLabels>>, site: SiteId) -> &mut NodeLabels {
        slot.get_or_insert_with(|| {
            Box::new(NodeLabels {
                site: Labels::of(&[("site", &format!("site{}", site.0))]),
                hit_ratio: None,
                inbox_occupancy: None,
                cache: None,
                tenant: None,
            })
        })
    }

    /// `site{N}`.
    fn site_name(&self) -> &str {
        self.site.get("site").expect("built with a site label")
    }

    /// `{site, key=value}`, for the few families keyed on a second label.
    /// Built per call: they record on elections, retries and breaker
    /// trips, not per request.
    fn site_and(&self, key: &str, value: &str) -> Labels {
        Labels::of(&[("site", self.site_name()), (key, value)])
    }

    /// The cache tallies' names, with `{peer_group, site}` naming the
    /// node's current peer group: the super-peer's actor id (`g{N}`), or
    /// `ungrouped` before the first appointment. Rebuilt only when the
    /// super-peer differs from the one the held set names.
    ///
    /// Group membership changes over time (elections, takeovers); labeled
    /// tallies are attributed to the group at access time, which is what
    /// the paper's two-level cache question — "how effective is this
    /// super-peer's cache domain" — needs.
    fn cache(&mut self, super_peer: Option<ActorId>) -> &mut CacheLabels {
        if self.cache.as_ref().is_none_or(|c| c.peer_group_of != super_peer) {
            let site = self.site_name();
            let group = match super_peer {
                Some(sp) => format!("g{}", sp.0),
                None => "ungrouped".to_owned(),
            };
            self.cache = Some(Box::new(CacheLabels {
                hits: format!("{site}.cache.hits"),
                hits_id: None,
                misses: format!("{site}.cache.misses"),
                misses_id: None,
                peer_group: self.site_and("peer_group", &group),
                group_hits_id: None,
                group_misses_id: None,
                peer_group_of: super_peer,
            }));
        }
        self.cache.as_deref_mut().expect("built above when absent")
    }

    /// Set `glare_cache_hit_ratio{site}`.
    fn set_hit_ratio(&mut self, m: &mut MetricsRegistry, now: SimTime, ratio: f64) {
        let id = *self.hit_ratio.get_or_insert_with(|| {
            m.gauge_id("glare_cache_hit_ratio", &self.site, DEFAULT_GAUGE_WINDOW)
        });
        m.gauge_at(id).set(now, ratio);
    }

    /// Set `glare_inbox_occupancy{site}`.
    fn set_inbox_occupancy(&mut self, m: &mut MetricsRegistry, now: SimTime, occupancy: u32) {
        let id = *self.inbox_occupancy.get_or_insert_with(|| {
            m.gauge_id("glare_inbox_occupancy", &self.site, DEFAULT_GAUGE_WINDOW)
        });
        m.gauge_at(id).set(now, f64::from(occupancy));
    }

    /// The admission families' `{class, site}` sets and handles, built now
    /// if this is the node's first admission decision; `site_name` is the
    /// node's configured name, which those families have always carried.
    fn admission(&mut self, site_name: &str) -> &mut AdmissionLabels {
        self.tenant.get_or_insert_with(|| {
            Box::new(AdmissionLabels {
                sets: TenantLabels::for_site(site_name),
                admitted: [None; 3],
                shed: [None; 3],
            })
        })
    }

    /// Count one `class` decision of the node configured as `site_name`
    /// into `glare_admission_admitted_total` or `glare_admission_shed_total`.
    fn count_admission(
        &mut self,
        m: &mut MetricsRegistry,
        site_name: &str,
        class: TenantClass,
        admitted: bool,
    ) {
        let a = self.admission(site_name);
        let (family, slots) = if admitted {
            ("glare_admission_admitted_total", &mut a.admitted)
        } else {
            ("glare_admission_shed_total", &mut a.shed)
        };
        let id = *slots[class.index()]
            .get_or_insert_with(|| m.counter_labeled_id(family, a.sets.get(class.label())));
        m.counter_at(id).inc();
    }
}

/// The names a request for `activity` is looked up under: its concrete
/// closure, or the raw name when the hierarchy resolves it to nothing.
fn lookup_names<'a>(closure: &'a [String], activity: &'a str) -> impl Iterator<Item = &'a str> {
    let raw = closure.is_empty().then_some(activity);
    closure.iter().map(String::as_str).chain(raw)
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
    // --- registries ---
    /// The node's type registry.
    pub atr: ActivityTypeRegistry,
    /// The node's deployment registry.
    pub adr: ActivityDeploymentRegistry,
    /// The node's cache.
    pub cache: RegistryCache,
    // --- overlay state ---
    role: Role,
    group: Vec<ActorId>,
    super_peer: Option<ActorId>,
    other_super_peers: Vec<ActorId>,
    /// Higher-level tree placement (empty for members / flat overlays).
    tree_parents: Vec<TreeParent>,
    /// Fellow top-tier super-peers (top-tier super-peers only).
    tree_others: Vec<ActorId>,
    /// Grouping tiers of the overlay tree (1 = flat two-level).
    tree_tiers: u8,
    last_heartbeat: SimTime,
    preferred_coordinator: Option<(ActorId, u32)>,
    election_acks: Vec<(ActorId, u64)>,
    tally: Option<(ActorId, MajorityTally)>,
    verification_sent: bool,
    // --- request state ---
    next_req: u64,
    pending: HashMap<u64, PendingQuery>,
    /// Per-remote-peer circuit breakers fed by probe deadline misses
    /// (only consulted when `cfg.retry` enables retries).
    breakers: BreakerBank<ActorId>,
    /// Per-peer round-trip estimator over probe responses (inert unless
    /// `cfg.suspicion` is enabled); derives hedge delays.
    rtt: SuspicionTracker<ActorId>,
    /// Per-peer heartbeat inter-arrival estimator (inert unless
    /// `cfg.suspicion` is enabled); derives the takeover threshold.
    hb: SuspicionTracker<ActorId>,
    // --- admission state ---
    /// Bounded-inbox admission controller (inert unless `cfg.admission`
    /// is enabled).
    admission: AdmissionController,
    /// Interned metric names and label sets (`None` until first used).
    labels: Option<Box<NodeLabels>>,
    /// Handle of `glare.requests`, from this node's first request on.
    requests_id: Option<CounterId>,
    /// Handle of `glare.cache_answers`, from its first cache answer on.
    cache_answers_id: Option<CounterId>,
    /// Ticket of each admitted, still-unanswered client request, keyed by
    /// `(reply_to, req_id)`; released when the reply goes out.
    admitted: HashMap<(ActorId, u64), u64>,
    // --- notification state ---
    sinks: Vec<ActorId>,
    notify_seq: u64,
    // --- durability state ---
    /// Set by [`GlareNode::recover_from_store`]: the node restarted from
    /// its durable store and owes its next super-peer an anti-entropy
    /// round.
    pending_rejoin: bool,
    /// When the post-crash recovery began; taken when the node is back in
    /// sync (first anti-entropy response, or winning office) to feed
    /// `glare_recovery_ms`.
    recovery_started: Option<SimTime>,
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
            role: Role::Member,
            group: Vec::new(),
            super_peer: None,
            other_super_peers: Vec::new(),
            tree_parents: Vec::new(),
            tree_others: Vec::new(),
            tree_tiers: 1,
            last_heartbeat: SimTime::ZERO,
            preferred_coordinator: None,
            election_acks: Vec::new(),
            tally: None,
            verification_sent: false,
            next_req: 0,
            pending: HashMap::new(),
            breakers: BreakerBank::default(),
            rtt: SuspicionTracker::new(cfg.suspicion),
            hb: SuspicionTracker::new(cfg.suspicion),
            admission: AdmissionController::new(cfg.admission),
            labels: None,
            requests_id: None,
            cache_answers_id: None,
            admitted: HashMap::new(),
            sinks: Vec::new(),
            notify_seq: 0,
            pending_rejoin: false,
            recovery_started: None,
            cfg,
        }
    }

    /// Current overlay role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The node's current super-peer (itself when it is one).
    pub fn super_peer(&self) -> Option<ActorId> {
        self.super_peer
    }

    /// The node's group (empty before the first election).
    pub fn group(&self) -> &[ActorId] {
        &self.group
    }

    /// Higher-level tree placement (empty for plain members and for the
    /// flat `depth = 2` overlay).
    pub fn tree_parents(&self) -> &[TreeParent] {
        &self.tree_parents
    }

    /// Fellow top-tier super-peers (nonempty only on top-tier super-peers
    /// of a depth ≥ 3 tree).
    pub fn tree_others(&self) -> &[ActorId] {
        &self.tree_others
    }

    /// Grouping tiers of the overlay tree this node was appointed into
    /// (1 = flat two-level).
    pub fn tree_tiers(&self) -> u8 {
        self.tree_tiers
    }

    /// Current suspicion level of the node's super-peer given its
    /// heartbeat silence at `now` — zero when suspicion is disabled, the
    /// estimator is cold, or the node has no (remote) super-peer.
    pub fn super_peer_suspicion(&self, now: SimTime) -> f64 {
        match self.super_peer.filter(|&sp| sp != self.me) {
            Some(sp) => self
                .hb
                .suspicion(sp, now.saturating_since(self.last_heartbeat)),
            None => 0.0,
        }
    }

    /// How often the super-peer liveness check runs: with adaptive
    /// suspicion on, every heartbeat period (fine-grained silence
    /// tracking); otherwise the legacy cadence of one full timeout.
    fn hb_check_period(&self) -> SimDuration {
        if self.cfg.suspicion.enabled {
            HEARTBEAT_INTERVAL
        } else {
            HEARTBEAT_TIMEOUT
        }
    }

    /// Heartbeat-silence threshold before `peer` is considered missing:
    /// the learned adaptive threshold when suspicion is enabled and warm
    /// (never below two heartbeat periods, never above the configured
    /// timeout — adaptation only accelerates detection), else the
    /// configured fixed timeout.
    fn takeover_threshold(&self, peer: ActorId) -> SimDuration {
        if !self.cfg.suspicion.enabled {
            return HEARTBEAT_TIMEOUT;
        }
        self.hb.silence_threshold(
            peer,
            HEARTBEAT_INTERVAL * 2,
            HEARTBEAT_TIMEOUT,
        )
    }

    /// Whether this node is the unique root of a converged multi-level
    /// tree: super-peer of its topmost group with no fellow top-tier
    /// super-peers. Never true on a one-tier plan, whose top tier is the
    /// leaf tier and holds no placement above it.
    pub fn is_tree_root(&self) -> bool {
        self.tree_others.is_empty()
            && self
                .tree_parents
                .iter()
                .find(|t| t.level == self.tree_tiers)
                .is_some_and(|t| t.super_peer == self.me)
    }

    fn group_peers(&self) -> Vec<ActorId> {
        self.group
            .iter()
            .copied()
            .filter(|&id| id != self.me && Some(id) != self.super_peer)
            .collect()
    }

    /// Add `n` to this site's counter in the `{site}`-keyed `family`.
    fn count(&mut self, ctx: &mut Ctx<'_>, family: &str, n: u64) {
        let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
        ctx.metrics().counter_labeled(family, &labels.site).add(n);
    }

    /// The memoised concrete closure of `activity` in this node's ATR.
    fn concrete_closure(&self, activity: &str) -> Arc<[String]> {
        self.atr.with_hierarchy(|h| h.concrete_closure(activity))
    }

    fn resolve_local(&self, activity: &str, now: SimTime) -> Vec<ActivityDeployment> {
        // A site that hosts nothing (most of a VO) has no answer whatever
        // the name resolves to; skip the type DAG.
        if self.adr.indexes_nothing() {
            return Vec::new();
        }
        let closure = self.concrete_closure(activity);
        let mut out = Vec::new();
        for n in lookup_names(&closure, activity) {
            out.extend(self.adr.deployments_of(n, now).value);
        }
        out
    }

    fn resolve_cache(&mut self, activity: &str, now: SimTime) -> Vec<ActivityDeployment> {
        if !self.cfg.use_cache {
            return Vec::new();
        }
        let closure = self.concrete_closure(activity);
        let mut out = Vec::new();
        for n in lookup_names(&closure, activity) {
            out.extend(self.cache.deployments_of(n, now));
        }
        out
    }

    /// [`GlareNode::resolve_cache`], mirroring the cache's own hit/miss
    /// tallies into the simulation metrics under the stable names
    /// `site{N}.cache.hits` / `site{N}.cache.misses`, plus the labeled
    /// families `glare_cache_{hits,misses}_total{site,peer_group}` and the
    /// windowed `glare_cache_hit_ratio{site}` gauge.
    fn resolve_cache_counted(
        &mut self,
        ctx: &mut Ctx<'_>,
        activity: &str,
        now: SimTime,
    ) -> Vec<ActivityDeployment> {
        let (h0, m0) = (self.cache.hits(), self.cache.misses());
        let out = self.resolve_cache(activity, now);
        let (h1, m1) = (self.cache.hits(), self.cache.misses());
        // With the cache off there is nothing to record below, and no name
        // is built.
        if h1 > h0 || m1 > m0 {
            NodeLabels::of(&mut self.labels, ctx.self_site)
                .cache(self.super_peer)
                .tally(ctx.metrics(), h1 - h0, m1 - m0);
        }
        if let Some(ratio) = self.cache.hit_ratio() {
            NodeLabels::of(&mut self.labels, ctx.self_site).set_hit_ratio(
                ctx.metrics(),
                now,
                ratio,
            );
        }
        out
    }

    /// Send the answer and close the request's `node.query` span, tagging
    /// it with the resolution source and result count.
    fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: Request,
        deployments: Vec<ActivityDeployment>,
        source: &str,
    ) {
        if ctx.trace_enabled() {
            ctx.span_attr(req.span, "source", source);
            ctx.span_attr(req.span, "results", &deployments.len().to_string());
        }
        ctx.send_sized(
            req.reply_to,
            NodeMsg::QueryResponse {
                req_id: req.req_id,
                deployments,
            },
            2_048,
        );
        ctx.end_span(req.span);
        if self.admission.is_enabled() {
            // Probe replies were never admitted and miss the map; only the
            // original client request holds an inbox ticket.
            if let Some(ticket) = self.admitted.remove(&(req.reply_to, req.req_id)) {
                self.admission.release(ticket);
            }
        }
    }

    /// The next-best replica for hedging a single-target read stage, with
    /// the scope its probe must carry. Deterministic — the lowest actor id
    /// among the eligible alternates — so same-seed runs hedge
    /// identically. `None` for stages with no equivalent alternate. Only
    /// query probes are ever hedged: they are idempotent reads, while
    /// deploy/register traffic mutates remote state and a duplicated
    /// write is a correctness bug, not a latency win.
    fn hedge_candidate(&self, stage: Stage, original: ActorId) -> Option<(ActorId, QueryScope)> {
        match stage {
            // A member's escalation to its own (possibly gray-slow)
            // super-peer: any other leaf super-peer it was told of serves
            // the same read from its own group, terminally.
            Stage::TreeEscalate(1) => self
                .other_super_peers
                .iter()
                .copied()
                .filter(|&id| id != original)
                .min()
                .map(|id| (id, QueryScope::Subtree { level: 1 })),
            // Higher up: a sibling of the slow parent covers its own
            // subtree — a second, disjoint replica of the read.
            Stage::TreeEscalate(lvl) => self
                .tree_parents
                .iter()
                .find(|t| t.level == lvl)
                .and_then(|tp| {
                    tp.group
                        .iter()
                        .copied()
                        .filter(|&id| id != self.me && id != original)
                        .min()
                })
                .map(|id| (id, QueryScope::Subtree { level: lvl - 1 })),
            _ => None,
        }
    }

    /// Deterministic hedge delay for a probe of `target`: the learned
    /// high quantile of the peer's response distribution when the RTT
    /// estimator is warm, else a fixed fraction of the probe deadline.
    /// No randomness — same-seed runs hedge at identical instants.
    fn hedge_delay(&self, target: ActorId) -> SimDuration {
        let cap = PROBE_TIMEOUT;
        let delay = self
            .rtt
            .latency_quantile(target, self.cfg.hedge.sigmas)
            .unwrap_or_else(|| cap.mul_f64(self.cfg.hedge.cold_fraction));
        delay.max(self.cfg.hedge.min_delay).min(cap)
    }

    /// Arm the hedge for a freshly started single-target read stage, when
    /// hedging is on and an equivalent alternate replica exists. With
    /// hedging disabled (the default) this allocates nothing and arms no
    /// timer — the stage is byte-identical to the legacy path.
    fn arm_hedge(
        &mut self,
        ctx: &mut Ctx<'_>,
        local_id: u64,
        stage: Stage,
        original: ActorId,
    ) -> HedgeState {
        if !self.cfg.hedge.enabled {
            return HedgeState::default();
        }
        let Some(plan) = self.hedge_candidate(stage, original) else {
            return HedgeState::default();
        };
        let delay = self.hedge_delay(original);
        let timer = ctx.timer_after_then(delay, "qhedge", local_id);
        HedgeState {
            plan: Some(plan),
            timer: Some(timer),
            target: None,
            sent: None,
            won: false,
        }
    }

    /// Ask `to` for `activity` on behalf of pending query `local_id`.
    fn send_probe(
        ctx: &mut Ctx<'_>,
        to: ActorId,
        scope: QueryScope,
        activity: &str,
        local_id: u64,
        class: TenantClass,
    ) {
        ctx.send(
            to,
            NodeMsg::QueryDeployments {
                activity: activity.to_owned(),
                req_id: local_id,
                reply_to: ctx.self_id,
                scope,
                class,
            },
        );
    }

    /// A hedge timer fired: the original target is past its learned
    /// quantile, so fire one extra probe to the planned alternate. The
    /// original stays authoritative — the stage still concludes the
    /// moment it answers; the hedge can only accelerate conclusion with a
    /// useful (non-empty) answer of its own.
    fn fire_hedge(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let Some(p) = self.pending.get_mut(&local_id) else {
            return; // stage concluded; the tombstoned timer raced us
        };
        p.hedge.timer = None;
        let Some((target, scope)) = p.hedge.plan else {
            return;
        };
        let activity = p.req.activity.clone();
        p.hedge.target = Some(target);
        p.hedge.sent = Some(ctx.now());
        Self::send_probe(ctx, target, scope, &activity, local_id, p.req.class);
        self.count(ctx, "glare_hedges_fired_total", 1);
        ctx.emit_event_with("query.hedged", "node", || {
            [("activity", activity), ("target", target.to_string())]
        });
    }

    /// Start the next probe stage of the ladder answering `req`: arm its
    /// deadline (and, for a single-target read, its hedge), ask every
    /// target with the scope given for it, and park the stage until the
    /// answers or the deadline conclude it. With nothing to probe the
    /// stage concludes empty on the spot, and the ladder moves on.
    fn begin_stage(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: Request,
        probes_failed: bool,
        targets: Vec<(ActorId, QueryScope)>,
        stage: Stage,
    ) {
        let local_id = self.next_req;
        self.next_req += 1;
        let timeout = if targets.is_empty() {
            SimDuration::ZERO
        } else {
            PROBE_TIMEOUT
        };
        let deadline = ctx.timer_after_then(timeout, "qdl", local_id);
        let hedge = match targets[..] {
            [(only, _)] => self.arm_hedge(ctx, local_id, stage, only),
            _ => HedgeState::default(),
        };
        for &(t, scope) in &targets {
            Self::send_probe(ctx, t, scope, &req.activity, local_id, req.class);
        }
        let nothing_to_probe = targets.is_empty();
        self.pending.insert(
            local_id,
            PendingQuery {
                req,
                awaiting: targets.iter().map(|&(t, _)| t).collect(),
                collected: Vec::new(),
                stage,
                targets,
                deadline,
                attempt: 1,
                prev_backoff: SimDuration::ZERO,
                started: ctx.now(),
                probes_failed,
                hedge,
            },
        );
        if nothing_to_probe {
            self.conclude_stage(ctx, local_id);
        }
    }

    /// A probe deadline fired: with retries enabled and only silence to
    /// show for the attempt, feed the breakers, back off and re-ask the
    /// peers that never answered; otherwise conclude the stage as-is.
    fn deadline_expired(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let retry = self.cfg.retry;
        if !retry.retries_enabled() {
            // Legacy path: a deadline miss concludes immediately; no
            // breaker bookkeeping, no RNG draws, no telemetry.
            self.conclude_stage(ctx, local_id);
            return;
        }
        let now = ctx.now();
        let (unanswered, attempt, prev_backoff, started, empty) =
            match self.pending.get(&local_id) {
                Some(p) => {
                    // Sort for determinism: HashSet iteration order varies
                    // run to run.
                    let mut u: Vec<ActorId> = p.awaiting.iter().copied().collect();
                    u.sort_unstable();
                    (u, p.attempt, p.prev_backoff, p.started, p.collected.is_empty())
                }
                None => return,
            };
        if unanswered.is_empty() || !empty {
            // Everyone answered, or partial answers arrived — retrying the
            // silent rest would not change the outcome of this stage.
            self.conclude_stage(ctx, local_id);
            return;
        }
        let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
        // Silence past the deadline counts as a failed call per peer.
        for &t in &unanswered {
            if self.breakers.breaker(t).record_failure(now) {
                let opened = labels.site_and("to", "open");
                ctx.metrics()
                    .counter_labeled("glare_breaker_transitions_total", &opened)
                    .inc();
                ctx.emit_event_with("breaker.open", "node", || [("remote", t.to_string())]);
            }
        }
        let next = attempt + 1;
        if !retry.may_attempt(next, now.saturating_since(started)) {
            if let Some(p) = self.pending.get_mut(&local_id) {
                p.probes_failed = true;
            }
            self.conclude_stage(ctx, local_id);
            return;
        }
        let delay = retry.next_backoff(ctx.rng(), prev_backoff);
        ctx.metrics()
            .counter_labeled("glare_retries_total", &labels.site_and("op", "query"))
            .inc();
        ctx.metrics()
            .histogram_labeled("glare_retry_backoff_ms", &labels.site)
            .record(delay);
        ctx.emit_event_with("retry.attempt", "node", || {
            [
                ("op", "query".to_owned()),
                ("attempt", next.to_string()),
                ("backoff_ms", delay.as_millis_f64().to_string()),
            ]
        });
        ctx.timer_after_then(delay, "qback", local_id);
        if let Some(p) = self.pending.get_mut(&local_id) {
            p.attempt = next;
            p.prev_backoff = delay;
        }
    }

    /// Backoff elapsed: re-probe the peers that are still silent, skipping
    /// any behind an open breaker. A new deadline covers the re-probe.
    fn retry_probe(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let now = ctx.now();
        let Some(p) = self.pending.get(&local_id) else {
            return; // stage already concluded by a late reply
        };
        // Sorted for determinism: probes go out in actor-id order.
        let mut resend: Vec<(ActorId, QueryScope)> = p
            .targets
            .iter()
            .copied()
            .filter(|(t, _)| p.awaiting.contains(t))
            .collect();
        resend.sort_unstable_by_key(|&(t, _)| t);
        let silent = resend.len();
        resend.retain(|&(t, _)| self.breakers.breaker(t).allow(now));
        let shorted = (silent - resend.len()) as u64;
        if shorted > 0 {
            self.count(ctx, "glare_breaker_short_circuits_total", shorted);
        }
        let Some(p) = self.pending.get_mut(&local_id) else {
            return;
        };
        if resend.is_empty() {
            // Every silent peer is behind an open breaker: give up on the
            // stage and let the ladder escalate (or degrade).
            p.probes_failed = true;
            self.conclude_stage(ctx, local_id);
            return;
        }
        p.deadline = ctx.timer_after_then(PROBE_TIMEOUT, "qdl", local_id);
        for &(t, scope) in &resend {
            Self::send_probe(ctx, t, scope, &p.req.activity, local_id, p.req.class);
        }
    }

    /// Final miss of the ladder. When a probe stage ran out of road
    /// (budget exhausted or breakers open) the two-level cache is
    /// consulted once more with freshness checks off: a stale answer
    /// marked degraded beats an error while a site recovers.
    fn reply_miss(&mut self, ctx: &mut Ctx<'_>, p: PendingQuery) {
        if p.probes_failed && self.cfg.use_cache {
            let now = ctx.now();
            let closure = self.concrete_closure(&p.req.activity);
            let mut stale = Vec::new();
            let mut max_age = SimDuration::ZERO;
            for n in lookup_names(&closure, &p.req.activity) {
                for (d, age) in self.cache.deployments_of_degraded(n, now) {
                    if age > max_age {
                        max_age = age;
                    }
                    stale.push(d);
                }
            }
            if !stale.is_empty() {
                self.count(ctx, "glare_degraded_reads_total", 1);
                ctx.emit_event_with("query.degraded", "node", || {
                    [
                        ("activity", p.req.activity.clone()),
                        ("age_ms", max_age.as_millis_f64().to_string()),
                    ]
                });
                ctx.span_attr(p.req.span, "degraded", "1");
                self.reply(ctx, p.req, stale, "degraded");
                return;
            }
        }
        self.reply(ctx, p.req, Vec::new(), "miss");
    }

    /// Fan-out for a node asked to resolve against its subtree as a
    /// level-`level` super-peer: the members of every tier it leads up to
    /// `level` (each covering its own subtree), plus its leaf peers. At
    /// level 1 — always, on a one-tier plan — that is the leaf peers alone.
    fn tree_probe_targets(&self, level: u8) -> Vec<(ActorId, QueryScope)> {
        let mut out = Vec::new();
        for j in 2..=level {
            let Some(tp) = self.tree_parents.iter().find(|t| t.level == j) else {
                continue;
            };
            if tp.super_peer != self.me {
                // Not the leader at this tier: its members' subtrees are
                // siblings, not descendants.
                continue;
            }
            for &id in &tp.group {
                if id != self.me {
                    out.push((id, QueryScope::Subtree { level: j - 1 }));
                }
            }
        }
        for id in self.group_peers() {
            out.push((id, QueryScope::LocalOnly));
        }
        out
    }

    /// This node's subtree missed at `from_level`: climb toward the root.
    /// At each tier above, either hand the query to the parent super-peer
    /// (`TreeUp`) or — when this node *is* that parent — probe the tier's
    /// member subtrees directly. A miss at the top tier forwards sideways
    /// to the other top super-peers, terminally; on a one-tier plan that
    /// is the whole climb.
    fn escalate_tree(&mut self, ctx: &mut Ctx<'_>, p: PendingQuery, from_level: u8) {
        let top = self.tree_tiers;
        let mut lvl = from_level;
        while lvl < top {
            lvl += 1;
            let Some(tp) = self.tree_parents.iter().find(|t| t.level == lvl) else {
                // Placement lost (post-takeover heir, mid-election churn):
                // nothing above to ask.
                self.reply_miss(ctx, p);
                return;
            };
            if tp.super_peer != self.me {
                let up = vec![(tp.super_peer, QueryScope::TreeUp { level: lvl })];
                self.begin_stage(ctx, p.req, p.probes_failed, up, Stage::TreeEscalate(lvl));
                return;
            }
            let targets: Vec<(ActorId, QueryScope)> = tp
                .group
                .iter()
                .copied()
                .filter(|&id| id != self.me)
                .map(|id| (id, QueryScope::Subtree { level: lvl - 1 }))
                .collect();
            if !targets.is_empty() {
                self.begin_stage(ctx, p.req, p.probes_failed, targets, Stage::TreeProbe(lvl));
                return;
            }
            // Sole member of this tier's group: keep climbing.
        }
        // Whom to forward across. When the leaf tier is the top, every
        // member of a group was told the other leaf super-peers, so an heir
        // that took office by takeover still forwards; above it only the
        // appointed top-tier super-peers know their fellows, and an heir,
        // holding no placement, never gets here.
        let fellows: &[ActorId] = match top {
            1 if self.role == Role::SuperPeer => &self.other_super_peers,
            1 => &[],
            _ => &self.tree_others,
        };
        let across: Vec<(ActorId, QueryScope)> = fellows
            .iter()
            .map(|&id| (id, QueryScope::Subtree { level: top }))
            .collect();
        if across.is_empty() {
            self.reply_miss(ctx, p);
        } else {
            self.begin_stage(ctx, p.req, p.probes_failed, across, Stage::TreeForward);
        }
    }

    fn conclude_stage(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let Some(p) = self.pending.remove(&local_id) else {
            return;
        };
        ctx.cancel_timer(p.deadline);
        if let Some(t) = p.hedge.timer {
            // Unfired hedge: tombstone the timer so it never fires.
            ctx.cancel_timer(t);
        }
        if p.hedge.target.is_some() {
            // The hedge went out: it either won the stage with a useful
            // answer or duplicated work the original (or the deadline)
            // settled anyway.
            let family = if p.hedge.won {
                "glare_hedges_won_total"
            } else {
                "glare_hedges_wasted_total"
            };
            self.count(ctx, family, 1);
        }
        if !p.collected.is_empty() {
            // Cache what the probe learned (§3.3: the super-peer "caches
            // the results"; §3.1: remote resources optionally cached).
            if self.cfg.use_cache {
                for d in &p.collected {
                    let epr = d.epr(&self.adr.address, ctx.now());
                    let origin = d.site.clone();
                    self.cache.put_deployment(d.clone(), &origin, epr, ctx.now());
                }
            }
            // Level 1 keeps the names the two-level protocol's spans have
            // always carried.
            let source = match p.stage {
                Stage::PeerProbe | Stage::TreeProbe(1) => "probe.group",
                Stage::TreeEscalate(1) => "probe.superpeer",
                Stage::TreeEscalate(_) => "probe.parent",
                Stage::TreeProbe(_) => "probe.subtree",
                Stage::TreeForward => "probe.forwarded",
            };
            self.reply(ctx, p.req, p.collected, source);
            return;
        }
        // Miss: escalate or give up.
        match (p.stage, p.req.scope) {
            (Stage::PeerProbe, QueryScope::Full) if self.cfg.flood_mode => {
                // Everyone was already asked; a miss is final.
                self.reply_miss(ctx, p);
            }
            (Stage::PeerProbe, QueryScope::Full) => {
                match self.super_peer.filter(|&sp| sp != self.me) {
                    Some(sp) => {
                        let up = vec![(sp, QueryScope::TreeUp { level: 1 })];
                        self.begin_stage(ctx, p.req, p.probes_failed, up, Stage::TreeEscalate(1));
                    }
                    // A super-peer fielding its own client's miss.
                    None => self.escalate_tree(ctx, p, 1),
                }
            }
            (Stage::TreeProbe(level), QueryScope::Full | QueryScope::TreeUp { .. }) => {
                // This tier's subtrees missed; keep climbing (terminal
                // only once the top tier has been forwarded across).
                self.escalate_tree(ctx, p, level);
            }
            _ => {
                self.reply_miss(ctx, p);
            }
        }
    }

    fn handle_query(&mut self, ctx: &mut Ctx<'_>, req: Request) {
        let now = ctx.now();
        // Cache fast path: answers without the registry resolution stage.
        let cached = self.resolve_cache_counted(ctx, &req.activity, now);
        if !cached.is_empty() {
            let m = ctx.metrics();
            let id = *self
                .cache_answers_id
                .get_or_insert_with(|| m.counter_id("glare.cache_answers"));
            m.counter_at(id).inc();
            self.reply(ctx, req, cached, "cache");
            return;
        }
        let local = self.resolve_local(&req.activity, now);
        if !local.is_empty() {
            // Registry resolution costs an extra CPU stage; its result is
            // cached for subsequent requests.
            if self.cfg.use_cache {
                for d in &local {
                    let epr = d.epr(&self.adr.address, now);
                    let origin = d.site.clone();
                    self.cache.put_deployment(d.clone(), &origin, epr, now);
                }
            }
            let then = Deferred::ReplyAfterRegistry {
                req,
                deployments: local,
            };
            ctx.compute_then(self.cfg.registry_cost, "registry", then);
            return;
        }
        let (targets, stage) = match req.scope {
            QueryScope::LocalOnly => {
                self.reply(ctx, req, Vec::new(), "miss");
                return;
            }
            QueryScope::Full if self.cfg.flood_mode => {
                // Ablation: ask everyone at once.
                let everyone = self
                    .roster
                    .iter()
                    .filter(|&&(id, _)| id != self.me)
                    .map(|&(id, _)| (id, QueryScope::LocalOnly))
                    .collect();
                (everyone, Stage::PeerProbe)
            }
            QueryScope::Full => (self.tree_probe_targets(1), Stage::PeerProbe),
            // Cover this node's subtree as a level-`level` super-peer. A
            // `TreeUp` miss then climbs further; a `Subtree` miss is
            // terminal.
            QueryScope::Subtree { level } | QueryScope::TreeUp { level } => {
                (self.tree_probe_targets(level), Stage::TreeProbe(level))
            }
        };
        self.begin_stage(ctx, req, false, targets, stage);
    }

    /// Coordinator: broadcast the first election notice and arm the
    /// second-notice and close timers.
    ///
    /// The whole round runs inside an `election.round` span; the
    /// second-notice and close timers inherit its context, so one round's
    /// broadcasts, acks and appointments form one trace.
    fn start_election(&mut self, ctx: &mut Ctx<'_>) {
        self.election_acks.clear();
        self.count(ctx, "glare_election_rounds_total", 1);
        ctx.emit_event(
            "election.round",
            "node",
            &[("community", &self.roster.len().to_string())],
        );
        let span = ctx.span("election.round", SpanKind::Internal);
        if ctx.trace_enabled() {
            ctx.span_attr(span, "community", &self.roster.len().to_string());
        }
        let size = self.roster.len() as u32;
        for &(id, _) in self.roster.iter() {
            ctx.send(
                id,
                NodeMsg::ElectionNotice {
                    coordinator: self.me,
                    second: false,
                    community_size: size,
                },
            );
        }
        ctx.timer_after(SimDuration::from_millis(300), "election-second");
        ctx.timer_after(SimDuration::from_millis(900), "election-close");
        ctx.end_span(span);
    }

    fn become_super_peer(&mut self, ctx: &mut Ctx<'_>) {
        let already = self.role == Role::SuperPeer;
        self.role = Role::SuperPeer;
        self.super_peer = Some(self.me);
        if !already {
            // Arm the heartbeat loop exactly once per office term.
            ctx.timer_after(HEARTBEAT_INTERVAL, "heartbeat");
            ctx.metrics().counter("glare.superpeer_takeovers").inc();
            ctx.with_span("election.takeover", SpanKind::Internal, |_| {});
        }
    }

    fn suspect_super_peer(&mut self, ctx: &mut Ctx<'_>) {
        let Some(sp) = self.super_peer else { return };
        if sp == self.me {
            return;
        }
        self.count(ctx, "glare_failures_suspected_total", 1);
        ctx.emit_event("failure.suspected", "node", &[("suspect", &sp.to_string())]);
        if self.cfg.naive_takeover {
            // Ablation: no verification, no majority — just grab office.
            // Under a partial partition this splits the brain.
            self.record_failure_confirmed(ctx, sp, "naive");
            self.group.retain(|&id| id != sp);
            self.become_super_peer(ctx);
            for &m in &self.group {
                if m != self.me {
                    ctx.send(m, NodeMsg::Takeover);
                }
            }
            return;
        }
        // Rank the group, excluding the suspect.
        let candidates: Vec<(ActorId, u64)> = self
            .roster
            .iter()
            .copied()
            .filter(|(id, _)| self.group.contains(id))
            .collect();
        let Some(highest) = highest_ranked(&candidates, sp) else {
            return;
        };
        if highest == self.me {
            self.begin_verification(ctx, sp);
        } else {
            ctx.send(highest, NodeMsg::SuspectNotice { suspect: sp });
        }
    }

    fn begin_verification(&mut self, ctx: &mut Ctx<'_>, suspect: ActorId) {
        if self.verification_sent {
            return;
        }
        // (a) verify the super-peer is missing from our own vantage
        // (adaptive threshold when suspicion is enabled and warm).
        if ctx.now().saturating_since(self.last_heartbeat) < self.takeover_threshold(suspect) {
            return;
        }
        // (b) verify own rank.
        let candidates: Vec<(ActorId, u64)> = self
            .roster
            .iter()
            .copied()
            .filter(|(id, _)| self.group.contains(id))
            .collect();
        if highest_ranked(&candidates, suspect) != Some(self.me) {
            return;
        }
        // (c) ask every other member to verify.
        self.verification_sent = true;
        let voters = self.group.iter().filter(|&&id| id != suspect).count();
        let mut tally = MajorityTally::new(voters);
        tally.agree(self.me); // our own verdict
        self.tally = Some((suspect, tally));
        for &m in &self.group {
            if m != self.me && m != suspect {
                ctx.send(m, NodeMsg::VerifyRequest { suspect });
            }
        }
        self.maybe_takeover(ctx);
    }

    /// Publish a confirmed super-peer failure: the detection latency
    /// (silence since the last heartbeat of the dead super-peer) into
    /// `glare_failure_detection_ms{site}` and a `failure.confirmed` event.
    fn record_failure_confirmed(&mut self, ctx: &mut Ctx<'_>, suspect: ActorId, method: &str) {
        let latency = ctx.now().saturating_since(self.last_heartbeat);
        let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
        ctx.metrics()
            .histogram_labeled("glare_failure_detection_ms", &labels.site)
            .record(latency);
        ctx.emit_event(
            "failure.confirmed",
            "node",
            &[
                ("suspect", &suspect.to_string()),
                ("method", method),
                ("latency_ms", &format!("{}", latency.as_nanos() as f64 / 1e6)),
            ],
        );
    }

    fn maybe_takeover(&mut self, ctx: &mut Ctx<'_>) {
        let Some((suspect, tally)) = &self.tally else {
            return;
        };
        if !tally.has_majority() {
            return;
        }
        let suspect = *suspect;
        self.tally = None;
        self.verification_sent = false;
        self.record_failure_confirmed(ctx, suspect, "majority");
        // The dead peer's latency history is moot; a later incarnation
        // starts cold.
        self.hb.forget(suspect);
        self.rtt.forget(suspect);
        // Remove the dead super-peer from the group and take over.
        self.group.retain(|&id| id != suspect);
        self.become_super_peer(ctx);
        for &m in &self.group {
            if m != self.me {
                ctx.send(m, NodeMsg::Takeover);
            }
        }
        for &sp in &self.other_super_peers {
            ctx.send(sp, NodeMsg::Takeover);
        }
    }

    // --- durability & anti-entropy (every path gated on the store) ---

    /// Append one registry mutation to the site's durable journal,
    /// compacting once the journal passes the configured threshold.
    /// No-op — no appends, no metrics — when the store is disabled.
    fn journal(&mut self, ctx: &mut Ctx<'_>, m: &RegistryMutation) {
        if !ctx.store_enabled() {
            return;
        }
        if ctx.store_append(m.kind(), &m.payload()).is_some() {
            self.count(ctx, "glare_store_appends_total", 1);
        }
        let every = ctx.store_config().compact_every;
        if every > 0 && ctx.store_journal_len() >= every as usize {
            self.write_snapshot(ctx);
        }
    }

    /// Serialize the node's full registry state — types, deployments,
    /// uninstall tombstones — into the store's snapshot slot, clearing
    /// the journal.
    fn write_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.store_enabled() {
            return;
        }
        let state = durable::SnapshotState::capture(&self.atr, &self.adr, ctx.now());
        if let Some(compacted) = ctx.store_snapshot(&durable::encode_snapshot(&state)) {
            self.count(ctx, "glare_store_snapshots_total", 1);
            ctx.emit_event("store.compacted", "store", &[("records", &compacted.to_string())]);
        }
    }

    /// Rebuild the registries from the durable store after a crash
    /// ([`durable::replay`]), publish what the replay cost, and owe the
    /// next super-peer an anti-entropy round.
    fn recover_from_store(&mut self, ctx: &mut Ctx<'_>) {
        let Some(recovered) = ctx.store_recover() else {
            return;
        };
        let now = ctx.now();
        // Lease records belong to the synchronous Grid harness; the
        // distributed node keeps no lease table.
        let had_snapshot = durable::replay(&recovered, &self.atr, &self.adr, None, now);
        let replayed = recovered.replayed_records();
        let labels = &NodeLabels::of(&mut self.labels, ctx.self_site).site;
        ctx.metrics()
            .counter_labeled("glare_store_replayed_records_total", labels)
            .add(replayed);
        if recovered.truncated_records > 0 {
            ctx.metrics()
                .counter_labeled("glare_store_truncated_records_total", labels)
                .add(recovered.truncated_records);
        }
        // Mirror the modeled replay cost (already charged to the site's
        // CPU by the kernel) into an observable latency distribution.
        let store_cfg = ctx.store_config();
        let mut replay_cost = store_cfg.replay_cost_per_record.mul_f64(replayed as f64);
        if had_snapshot {
            replay_cost += store_cfg.snapshot_load_cost;
        }
        ctx.metrics()
            .histogram_labeled("glare_store_replay_ms", labels)
            .record(replay_cost);
        ctx.emit_event(
            "store.recovered",
            "store",
            &[
                ("replayed", &replayed.to_string()),
                ("truncated_records", &recovered.truncated_records.to_string()),
                ("snapshot", if had_snapshot { "1" } else { "0" }),
            ],
        );
        self.pending_rejoin = true;
        self.recovery_started = Some(now);
        // Re-snapshot the rebuilt state so the next crash replays from a
        // compact journal.
        self.write_snapshot(ctx);
    }

    /// Member → super-peer: open an anti-entropy round by shipping the
    /// member's full durable ADR view (live entries with their LUTs, and
    /// uninstall tombstones). No-op for super-peers, ungrouped nodes and
    /// disabled stores.
    fn start_antientropy(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.store_enabled() {
            return;
        }
        let Some(sp) = self.super_peer.filter(|&sp| sp != self.me) else {
            return;
        };
        let now = ctx.now();
        let mut live = durable::live_deployments(&self.adr, now);
        live.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let entries: Vec<(ActivityDeployment, u64)> = live
            .into_iter()
            .map(|d| {
                let lut = self
                    .adr
                    .epr_of(&d.key, now)
                    .map_or(0, |e| e.last_update_time.as_nanos());
                (d, lut)
            })
            .collect();
        let tombstones: Vec<(String, u64)> = self
            .adr
            .tombstones()
            .into_iter()
            .map(|(k, t)| (k, t.as_nanos()))
            .collect();
        self.count(ctx, "glare_antientropy_rounds_total", 1);
        ctx.emit_event(
            "antientropy.round",
            "node",
            &[
                ("entries", &entries.len().to_string()),
                ("tombstones", &tombstones.len().to_string()),
            ],
        );
        let bytes = 256 + DEPLOYMENT_WIRE_BYTES * entries.len().max(1) as u64;
        ctx.send_sized(sp, NodeMsg::AntiEntropySummary { entries, tombstones }, bytes);
    }

    /// Deterministic digest over the node's registry state: types,
    /// deployments (volatile status/metrics masked) and tombstone keys.
    /// The crash-replay verification gate compares this between a
    /// crashed-recovered-rejoined run and a never-crashed run of the same
    /// seed.
    pub fn registry_digest(&self, now: SimTime) -> u64 {
        let state = durable::SnapshotState::capture(&self.atr, &self.adr, now);
        let tomb_keys: Vec<String> = state.tombstones.into_iter().map(|(k, _)| k).collect();
        durable::registry_digest(&state.types, &state.deployments, &tomb_keys)
    }
}

impl Actor for GlareNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert_eq!(
            ctx.self_id, self.me,
            "OverlayBuilder must register nodes in id order"
        );
        self.last_heartbeat = ctx.now();
        if self.cfg.has_community_index {
            self.start_election(ctx);
        }
        // Everyone monitors super-peer liveness.
        ctx.timer_after(self.hb_check_period(), "hb-check");
        if let Some(interval) = self.cfg.notify_interval {
            ctx.timer_after(interval, "notify");
        }
        if let Some(interval) = self.cfg.monitor_interval {
            ctx.timer_after(interval, "status-monitor");
        }
        if let Some(interval) = self.cfg.cache_refresh_interval {
            ctx.timer_after(interval, "cache-refresh");
        }
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
            } => {
                // Prefer the smaller community under contention (§3.3).
                let preferred = match self.preferred_coordinator {
                    Some((id, size)) => {
                        if community_size < size
                            || (community_size == size && coordinator < id)
                        {
                            self.preferred_coordinator = Some((coordinator, community_size));
                            coordinator
                        } else {
                            id
                        }
                    }
                    None => {
                        self.preferred_coordinator = Some((coordinator, community_size));
                        coordinator
                    }
                };
                if second && coordinator == preferred {
                    ctx.send(coordinator, NodeMsg::ElectionAck { rank: self.cfg.rank });
                }
            }
            NodeMsg::ElectionAck { rank } => {
                if !self.election_acks.iter().any(|(id, _)| *id == from) {
                    self.election_acks.push((from, rank));
                }
            }
            NodeMsg::Appointment {
                group,
                super_peer,
                other_super_peers,
                parents,
                tree_others,
                tree_tiers,
            } => {
                self.group = group;
                self.super_peer = Some(super_peer);
                self.other_super_peers = other_super_peers;
                self.tree_parents = parents;
                self.tree_others = tree_others;
                self.tree_tiers = tree_tiers;
                self.last_heartbeat = ctx.now();
                self.verification_sent = false;
                self.tally = None;
                let won = super_peer == self.me;
                let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
                let outcome = labels.site_and("outcome", if won { "won" } else { "lost" });
                ctx.metrics().counter_labeled("glare_elections_total", &outcome).inc();
                ctx.emit_event(
                    if won { "election.won" } else { "election.lost" },
                    "node",
                    &[
                        ("super_peer", &super_peer.to_string()),
                        ("group_size", &self.group.len().to_string()),
                    ],
                );
                if won {
                    self.become_super_peer(ctx);
                } else {
                    // A demoted super-peer's heartbeat loop dies with the
                    // role check in the timer handler.
                    self.role = Role::Member;
                }
                if self.pending_rejoin && ctx.store_enabled() {
                    self.pending_rejoin = false;
                    if won {
                        // Back in office: this node is the group's
                        // authority again; there is nobody to pull from.
                        if let Some(started) = self.recovery_started.take() {
                            let elapsed = ctx.now().saturating_since(started);
                            let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
                            ctx.metrics()
                                .histogram_labeled("glare_recovery_ms", &labels.site)
                                .record(elapsed);
                        }
                    } else {
                        self.start_antientropy(ctx);
                    }
                }
            }
            NodeMsg::Heartbeat => {
                if Some(from) == self.super_peer {
                    let now = ctx.now();
                    // Feed the inter-arrival estimator (no-op when
                    // suspicion is disabled): heartbeats from a slow but
                    // alive super-peer keep arriving, so gray slowness
                    // raises probe suspicion without any takeover.
                    self.hb
                        .observe(from, now.saturating_since(self.last_heartbeat));
                    self.last_heartbeat = now;
                }
            }
            NodeMsg::SuspectNotice { suspect } => {
                if Some(suspect) == self.super_peer {
                    self.begin_verification(ctx, suspect);
                }
            }
            NodeMsg::VerifyRequest { suspect } => {
                let missing = Some(suspect) == self.super_peer
                    && ctx.now().saturating_since(self.last_heartbeat)
                        >= self.takeover_threshold(suspect);
                ctx.send(from, NodeMsg::VerifyAck { suspect, missing });
            }
            NodeMsg::VerifyAck { suspect, missing } => {
                if missing {
                    if let Some((s, tally)) = &mut self.tally {
                        if *s == suspect {
                            tally.agree(from);
                        }
                    }
                    self.maybe_takeover(ctx);
                }
            }
            NodeMsg::Takeover => {
                // The sender is the new super-peer of its group. If it is
                // in our group, adopt it; if we are a super-peer, update
                // our roster of fellow super-peers.
                if self.group.contains(&from) {
                    let old = self.super_peer;
                    self.super_peer = Some(from);
                    self.last_heartbeat = ctx.now();
                    if let Some(old) = old {
                        self.group.retain(|&id| id != old);
                    }
                    if self.pending_rejoin && ctx.store_enabled() {
                        self.pending_rejoin = false;
                        self.start_antientropy(ctx);
                    }
                } else if self.role == Role::SuperPeer
                    && !self.other_super_peers.contains(&from) {
                        self.other_super_peers.push(from);
                    }
            }
            NodeMsg::RegisterType(t) => {
                let journal = if ctx.store_enabled() { Some(t.clone()) } else { None };
                let ok = self.atr.register(*t, ctx.now()).is_ok();
                if let Some(t) = journal.filter(|_| ok) {
                    self.journal(ctx, &RegistryMutation::AtrRegister(t));
                }
                self.notify_seq += 1;
            }
            NodeMsg::RegisterDeployment(d) => {
                let journal = if ctx.store_enabled() { Some(d.clone()) } else { None };
                let ok = self.adr.register(*d, &self.atr, ctx.now()).is_ok();
                if let Some(d) = journal.filter(|_| ok) {
                    self.journal(ctx, &RegistryMutation::AdrRegister(d));
                }
            }
            NodeMsg::UninstallDeployment { key } => {
                // Remove (if live) and tombstone unconditionally: deletes
                // win even when the entry is unknown here, so a concurrent
                // register elsewhere cannot resurrect it via anti-entropy.
                let now = ctx.now();
                if self.adr.uninstall(&key, now).is_err() {
                    self.adr.restore_tombstones([(key.clone(), now)]);
                }
                self.cache.evict_deployment(&key);
                ctx.emit_event("deployment.tombstoned", "node", &[("key", &key)]);
                self.journal(ctx, &RegistryMutation::AdrUninstall { key, at: now });
            }
            NodeMsg::AntiEntropySummary { entries, tombstones } => {
                // Super-peer side: absorb the member's durable view into
                // the group cache, apply its tombstones, and push back the
                // member-origin entries the group still holds but the
                // member lost (torn tail, pre-snapshot crash).
                let now = ctx.now();
                let member_site = format!("site{}", from.0);
                let member_keys: HashSet<String> =
                    entries.iter().map(|(d, _)| d.key.clone()).collect();
                let mut absorbed = 0u64;
                for (d, lut) in entries {
                    let key = d.key.clone();
                    // A local tombstone at least as new as the entry wins.
                    if self
                        .adr
                        .tombstone_of(&key)
                        .is_some_and(|t| t.as_nanos() >= lut)
                    {
                        continue;
                    }
                    if self.cfg.use_cache && self.cache.peek_deployment(&key).is_none() {
                        let epr = d.epr(&self.adr.address, SimTime::from_nanos(lut));
                        let origin = d.site.clone();
                        self.cache.put_deployment(d, &origin, epr, now);
                        absorbed += 1;
                    }
                }
                let mut applied = 0u64;
                for (key, at_ns) in tombstones {
                    let at = SimTime::from_nanos(at_ns);
                    let newly = self.adr.tombstone_of(&key).is_none_or(|t| t < at);
                    self.adr.apply_tombstone(&key, at, now);
                    self.cache.evict_deployment(&key);
                    if newly {
                        applied += 1;
                        self.journal(ctx, &RegistryMutation::AdrUninstall { key, at });
                    }
                }
                let mut push = Vec::new();
                let mut origins = self.cache.deployment_origins();
                origins.sort_unstable();
                for (key, origin) in origins {
                    if origin != member_site
                        || member_keys.contains(&key)
                        || self.adr.tombstone_of(&key).is_some()
                    {
                        continue;
                    }
                    if let Some(entry) = self.cache.peek_deployment(&key) {
                        push.push(entry.value.clone());
                    }
                }
                if absorbed > 0 {
                    self.count(ctx, "glare_antientropy_pushes_total", absorbed);
                }
                if applied > 0 {
                    self.count(ctx, "glare_antientropy_tombstones_total", applied);
                }
                let sp_tombs: Vec<(String, u64)> = self
                    .adr
                    .tombstones()
                    .into_iter()
                    .map(|(k, t)| (k, t.as_nanos()))
                    .collect();
                let bytes = 256 + DEPLOYMENT_WIRE_BYTES * push.len().max(1) as u64;
                ctx.send_sized(
                    from,
                    NodeMsg::AntiEntropyResponse { push, tombstones: sp_tombs },
                    bytes,
                );
            }
            NodeMsg::AntiEntropyResponse { push, tombstones } => {
                // Member side: tombstones first (a pushed entry must never
                // outrun the delete that killed it), then restore lost
                // entries the group preserved.
                let now = ctx.now();
                let mut learned = 0u64;
                for (key, at_ns) in tombstones {
                    let at = SimTime::from_nanos(at_ns);
                    let newly = self.adr.tombstone_of(&key).is_none_or(|t| t < at);
                    if self.adr.apply_tombstone(&key, at, now) {
                        ctx.emit_event("deployment.tombstoned", "node", &[("key", &key)]);
                    }
                    self.cache.evict_deployment(&key);
                    if newly {
                        learned += 1;
                        self.journal(ctx, &RegistryMutation::AdrUninstall { key, at });
                    }
                }
                let mut pulls = 0u64;
                for d in push {
                    let key = d.key.clone();
                    if self.adr.tombstone_of(&key).is_some()
                        || self.adr.lookup(&key, now).is_some()
                    {
                        continue;
                    }
                    let journal = if ctx.store_enabled() {
                        Some(Box::new(d.clone()))
                    } else {
                        None
                    };
                    if self.adr.register(d, &self.atr, now).is_ok() {
                        pulls += 1;
                        if let Some(d) = journal {
                            self.journal(ctx, &RegistryMutation::AdrRegister(d));
                        }
                    }
                }
                if pulls > 0 {
                    self.count(ctx, "glare_antientropy_pulls_total", pulls);
                }
                if learned > 0 {
                    self.count(ctx, "glare_antientropy_tombstones_total", learned);
                }
                if let Some(started) = self.recovery_started.take() {
                    // First anti-entropy answer after a rejoin: the node is
                    // converged with its group — recovery is over.
                    let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
                    ctx.metrics()
                        .histogram_labeled("glare_recovery_ms", &labels.site)
                        .record(now.saturating_since(started));
                }
            }
            NodeMsg::QueryDeployments {
                activity,
                req_id,
                reply_to,
                scope,
                class,
            } => {
                // Backpressure at the front door: client-facing arrivals
                // (scope Full) pass the bounded-inbox admission check
                // before any CPU is charged. Internal probes were already
                // admitted at their entry site and flow freely.
                if self.admission.is_enabled() && scope == QueryScope::Full {
                    let now = ctx.now();
                    let decision = self.admission.decide(class, now);
                    // The decide() occupancy refresh sweeps TTL-expired
                    // tickets; any it reclaimed are leaked slots (their
                    // request died without a reply) — make them visible
                    // instead of letting them drain silently.
                    let leaked = self.admission.take_ttl_released();
                    if leaked > 0 {
                        self.count(ctx, "glare_inbox_ttl_released_total", leaked);
                        ctx.emit_event_with("inbox.ttl_release", "admission", || {
                            [("count", leaked.to_string())]
                        });
                    }
                    match decision {
                        AdmissionDecision::Admit { ticket } => {
                            self.admitted.insert((reply_to, req_id), ticket);
                            let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
                            labels.count_admission(ctx.metrics(), &self.cfg.site_name, class, true);
                            labels.set_inbox_occupancy(
                                ctx.metrics(),
                                now,
                                self.admission.occupancy(now),
                            );
                        }
                        AdmissionDecision::Shed { retry_after } => {
                            NodeLabels::of(&mut self.labels, ctx.self_site).count_admission(
                                ctx.metrics(),
                                &self.cfg.site_name,
                                class,
                                false,
                            );
                            ctx.emit_event_with("query.shed", "admission", || {
                                [
                                    ("class", class.label().to_owned()),
                                    ("activity", activity),
                                    ("retry_after_ms", retry_after.as_millis_f64().to_string()),
                                ]
                            });
                            ctx.send_sized(
                                reply_to,
                                NodeMsg::QueryRejected {
                                    req_id,
                                    retry_after,
                                },
                                512,
                            );
                            return;
                        }
                    }
                }
                // Charge the request's CPU cost; handle when it completes.
                let m = ctx.metrics();
                let id = *self
                    .requests_id
                    .get_or_insert_with(|| m.counter_id("glare.requests"));
                m.counter_at(id).inc();
                // The query span covers arrival → reply; opened before the
                // compute so the CPU stage chains under it.
                let span = ctx.span("node.query", SpanKind::Internal);
                if ctx.trace_enabled() {
                    ctx.span_attr(span, "activity", &activity);
                    ctx.span_attr(span, "scope", scope_label(scope));
                }
                let then = Deferred::HandleQuery(Request {
                    activity,
                    req_id,
                    reply_to,
                    scope,
                    class,
                    span,
                });
                if ctx.compute_then(self.cfg.request_cost, "req", then).is_none() {
                    // Site down; request lost. An admitted request's
                    // ticket dies with it (the TTL backstop would
                    // reclaim it anyway).
                    if let Some(ticket) = self.admitted.remove(&(reply_to, req_id)) {
                        self.admission.release(ticket);
                    }
                    ctx.end_span(span);
                }
            }
            NodeMsg::QueryResponse {
                req_id,
                deployments,
            } => {
                let now = ctx.now();
                let mut conclude = None;
                if let Some(p) = self.pending.get_mut(&req_id) {
                    if p.hedge.target == Some(from) {
                        // The hedge answered. The original stays
                        // authoritative for misses (replicas are not
                        // guaranteed equivalent for an empty answer), so
                        // only a useful response wins the race; the
                        // loser's eventual reply finds no pending entry
                        // and is dropped — exactly-once toward the
                        // client.
                        if let Some(sent) = p.hedge.sent {
                            self.rtt.observe(from, now.saturating_since(sent));
                        }
                        if !deployments.is_empty() {
                            p.collected.extend(deployments);
                            p.hedge.won = true;
                            // Hedge win counts as a successful call for
                            // the alternate's breaker.
                            self.breakers.breaker(from).record_success();
                            conclude = Some(req_id);
                        }
                    } else {
                        if p.awaiting.contains(&from) {
                            self.rtt.observe(from, now.saturating_since(p.started));
                        }
                        p.awaiting.remove(&from);
                        p.collected.extend(deployments);
                        if p.awaiting.is_empty() {
                            conclude = Some(req_id);
                        }
                    }
                }
                if let Some(id) = conclude {
                    self.conclude_stage(ctx, id);
                }
            }
            NodeMsg::QueryRejected { req_id, .. } => {
                // A probe we forwarded was shed downstream. Treat it like
                // an empty answer so the ladder concludes with whatever the
                // other peers return; the retry-after hint is for clients.
                let mut conclude = None;
                if let Some(p) = self.pending.get_mut(&req_id) {
                    p.awaiting.remove(&from);
                    if p.awaiting.is_empty() {
                        conclude = Some(req_id);
                    }
                }
                if let Some(id) = conclude {
                    self.conclude_stage(ctx, id);
                }
            }
            NodeMsg::Subscribe => {
                if !self.sinks.contains(&from) {
                    self.sinks.push(from);
                }
            }
            NodeMsg::Notification { .. } => { /* nodes don't consume these */ }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
        // A probe timer carries the id of its pending query; what it is for
        // is the tag it was armed with.
        if let Some(local_id) = ctx.take_continuation::<u64>() {
            match tag {
                // Probe deadline: retry silent peers or conclude with
                // whatever arrived.
                "qdl" => self.deadline_expired(ctx, local_id),
                "qback" => self.retry_probe(ctx, local_id),
                _ => self.fire_hedge(ctx, local_id),
            }
            return;
        }
        match tag {
            "notify-stagger" => {
                let Some((sink, seq)) = ctx.take_continuation::<(ActorId, u64)>() else {
                    return;
                };
                // Amnesia drops the subscriptions, and an offset armed by
                // the previous incarnation can be due after the restart.
                if self.sinks.contains(&sink) {
                    let then = Deferred::DeliverNotification { sink, seq };
                    ctx.compute_then(self.cfg.notify_cost, "notify-one", then);
                }
            }
            "election-second" => {
                let size = self.roster.len() as u32;
                for &(id, _) in self.roster.iter() {
                    ctx.send(
                        id,
                        NodeMsg::ElectionNotice {
                            coordinator: self.me,
                            second: true,
                            community_size: size,
                        },
                    );
                }
            }
            "election-close" => {
                let branching = self.cfg.tree_branching.unwrap_or(self.cfg.max_group_size);
                let plan = plan_tree(
                    &self.election_acks,
                    self.cfg.max_group_size,
                    branching,
                    self.cfg.tree_depth,
                );
                let leaf: &[crate::superpeer::Group] =
                    plan.levels.first().map(Vec::as_slice).unwrap_or(&[]);
                let tiers = plan.tiers().max(1);
                let span = ctx.span("election.close", SpanKind::Internal);
                if ctx.trace_enabled() {
                    ctx.span_attr(span, "groups", &leaf.len().to_string());
                    ctx.span_attr(span, "acks", &self.election_acks.len().to_string());
                    if tiers >= 2 {
                        ctx.span_attr(span, "tiers", &tiers.to_string());
                    }
                }
                // Placement above the leaf tier (none on a one-tier plan).
                let top_sps = plan.top_super_peers();
                let fellows = |of: ActorId| -> Vec<ActorId> {
                    top_sps.iter().copied().filter(|&s| s != of).collect()
                };
                let mut parents: HashMap<ActorId, Vec<TreeParent>> = HashMap::new();
                let mut siblings: HashMap<ActorId, Vec<ActorId>> = HashMap::new();
                let mut top_others: HashMap<ActorId, Vec<ActorId>> = HashMap::new();
                for (li, level_groups) in plan.levels.iter().enumerate().skip(1) {
                    let level = (li + 1) as u8;
                    for g in level_groups {
                        if level == tiers {
                            top_others.insert(g.super_peer, fellows(g.super_peer));
                        }
                        for m in g.all() {
                            parents.entry(m).or_default().push(TreeParent {
                                level,
                                group: g.all(),
                                super_peer: g.super_peer,
                            });
                            if level == 2 {
                                siblings.insert(
                                    m,
                                    g.all().into_iter().filter(|&s| s != m).collect(),
                                );
                            }
                        }
                    }
                }
                for g in leaf {
                    // The leaf super-peer's fellows one tier up: its
                    // level-2 group, or — the leaf tier being the top —
                    // the top tier itself.
                    let others = siblings
                        .get(&g.super_peer)
                        .cloned()
                        .unwrap_or_else(|| fellows(g.super_peer));
                    for &m in &g.all() {
                        ctx.send(
                            m,
                            NodeMsg::Appointment {
                                group: g.all(),
                                super_peer: g.super_peer,
                                other_super_peers: others.clone(),
                                parents: parents.get(&m).cloned().unwrap_or_default(),
                                tree_others: top_others.get(&m).cloned().unwrap_or_default(),
                                tree_tiers: tiers,
                            },
                        );
                    }
                }
                self.election_acks.clear();
                ctx.end_span(span);
                if let Some(iv) = self.cfg.election_interval {
                    ctx.timer_after(iv, "election-reopen");
                }
            }
            "election-reopen"
                if self.cfg.has_community_index => {
                    self.start_election(ctx);
                }
            "heartbeat"
                if self.role == Role::SuperPeer => {
                    for &m in &self.group {
                        if m != self.me {
                            ctx.send(m, NodeMsg::Heartbeat);
                        }
                    }
                    ctx.timer_after(HEARTBEAT_INTERVAL, "heartbeat");
                }
            "hb-check" => {
                if self.role == Role::Member {
                    if let Some(sp) = self.super_peer.filter(|&sp| sp != self.me) {
                        let silence = ctx.now().saturating_since(self.last_heartbeat);
                        if self.cfg.suspicion.enabled {
                            // Export the current suspicion level (0 while
                            // healthy or cold) as a windowed gauge.
                            let level = self.hb.suspicion(sp, silence);
                            let labels = NodeLabels::of(&mut self.labels, ctx.self_site);
                            let now = ctx.now();
                            ctx.metrics()
                                .gauge("glare_suspicion_level", &labels.site, DEFAULT_GAUGE_WINDOW)
                                .set(now, level);
                        }
                        if silence >= self.takeover_threshold(sp) {
                            self.suspect_super_peer(ctx);
                        }
                    }
                }
                ctx.timer_after(self.hb_check_period(), "hb-check");
            }
            "notify" => {
                // Fan one notification round out to every sink. Each
                // delivery is staggered to a random offset within the
                // interval (the container worker pool drains the sink list
                // over the period), charging CPU per delivery — the
                // Fig. 13 load driver.
                self.notify_seq += 1;
                let seq = self.notify_seq;
                let sinks = self.sinks.clone();
                let interval = self.cfg.notify_interval.unwrap_or(SimDuration::from_secs(1));
                let span = ctx.span("notify.round", SpanKind::Internal);
                if ctx.trace_enabled() {
                    ctx.span_attr(span, "sinks", &sinks.len().to_string());
                    ctx.span_attr(span, "seq", &seq.to_string());
                }
                for sink in sinks {
                    let offset_ns = ctx.rng().range(0, interval.as_nanos().max(1));
                    let offset = SimDuration::from_nanos(offset_ns);
                    ctx.timer_after_then(offset, "notify-stagger", (sink, seq));
                }
                ctx.end_span(span);
                if let Some(interval) = self.cfg.notify_interval {
                    ctx.timer_after(interval, "notify");
                }
            }
            "status-monitor" => {
                // Deployment Status Monitor (§3.2): drop expired entries
                // and heartbeat the survivors' LUTs so peers can judge
                // cached copies' freshness.
                let now = ctx.now();
                let swept = self.adr.sweep_expired(now);
                let mut keys = self.adr.keys(now);
                keys.sort_unstable();
                for k in &keys {
                    let _ = self.adr.touch(k, now);
                }
                self.count(ctx, "glare_monitor_ticks_total", 1);
                ctx.emit_event(
                    "monitor.tick",
                    "node",
                    &[
                        ("live", &keys.len().to_string()),
                        ("swept", &swept.len().to_string()),
                    ],
                );
                if let Some(interval) = self.cfg.monitor_interval {
                    ctx.timer_after(interval, "status-monitor");
                }
            }
            "cache-refresh" => {
                // Cache Refresher (§3.2): age out stale entries; with the
                // durable store on, members also run a periodic
                // anti-entropy round so divergence heals without waiting
                // for the next crash.
                self.cache.discard_outdated(ctx.now());
                if self.role == Role::Member {
                    self.start_antientropy(ctx);
                }
                if let Some(interval) = self.cfg.cache_refresh_interval {
                    ctx.timer_after(interval, "cache-refresh");
                }
            }
            _ => {}
        }
    }

    fn on_compute_done(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
        match ctx.take_continuation::<Deferred>() {
            Some(Deferred::HandleQuery(req)) => self.handle_query(ctx, req),
            Some(Deferred::ReplyAfterRegistry { req, deployments }) => {
                self.reply(ctx, req, deployments, "registry");
            }
            Some(Deferred::DeliverNotification { sink, seq }) => {
                ctx.send(sink, NodeMsg::Notification { seq });
                ctx.metrics().counter("glare.notifications_sent").inc();
            }
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
        // Amnesia: everything volatile dies with the process; only the
        // durable store (snapshot + journal) survives, and
        // `on_site_restart` rebuilds from it.
        let atr_addr = self.atr.address.clone();
        let atr_tp = self.atr.transport;
        let adr_addr = self.adr.address.clone();
        let adr_tp = self.adr.transport;
        self.atr = ActivityTypeRegistry::new(&atr_addr, atr_tp);
        self.adr = ActivityDeploymentRegistry::new(&adr_addr, adr_tp);
        self.cache = RegistryCache::new(crate::grid::DEFAULT_CACHE_AGE);
        self.role = Role::Member;
        self.group.clear();
        self.super_peer = None;
        self.other_super_peers.clear();
        self.tree_parents.clear();
        self.tree_others.clear();
        self.tree_tiers = 1;
        self.last_heartbeat = SimTime::ZERO;
        self.preferred_coordinator = None;
        self.election_acks.clear();
        self.tally = None;
        self.verification_sent = false;
        // `next_req` deliberately survives: a QueryResponse from the
        // previous incarnation still in flight must never alias a new
        // correlation id.
        self.pending.clear();
        self.breakers = BreakerBank::default();
        self.rtt.clear();
        self.hb.clear();
        self.admission = AdmissionController::new(self.cfg.admission);
        self.admitted.clear();
        self.sinks.clear();
        self.notify_seq = 0;
        self.pending_rejoin = false;
        self.recovery_started = None;
        ctx.emit_event("site.amnesia", "node", &[]);
    }

    fn on_site_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Re-arm the liveness/notification loops lost in the crash.
        self.last_heartbeat = ctx.now();
        ctx.timer_after(self.hb_check_period(), "hb-check");
        if self.cfg.has_community_index {
            self.start_election(ctx);
        }
        if self.role == Role::SuperPeer {
            ctx.timer_after(HEARTBEAT_INTERVAL, "heartbeat");
        }
        if let Some(interval) = self.cfg.notify_interval {
            ctx.timer_after(interval, "notify");
        }
        if let Some(interval) = self.cfg.monitor_interval {
            ctx.timer_after(interval, "status-monitor");
        }
        if let Some(interval) = self.cfg.cache_refresh_interval {
            ctx.timer_after(interval, "cache-refresh");
        }
        if ctx.store_enabled() {
            self.recover_from_store(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::example_hierarchy;
    use crate::overlay::{ClientStats, OverlayBuilder, QueryClient};
    use glare_fabric::{SimTime, Simulation};

    fn seeded_overlay(
        n: usize,
        deploy_on: &[usize],
        use_cache: bool,
    ) -> (Simulation, Vec<ActorId>) {
        let mut b = OverlayBuilder::new(n, 42);
        b.configure(move |_, cfg| {
            cfg.use_cache = use_cache;
            cfg.max_group_size = 4;
        });
        let deploy_on = deploy_on.to_vec();
        b.seed(move |i, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).unwrap();
            }
            if deploy_on.contains(&i) {
                let d = ActivityDeployment::executable(
                    "JPOVray",
                    &format!("site{i}"),
                    "/opt/deployments/jpovray/bin/jpovray",
                    "/opt/deployments/jpovray",
                );
                node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
            }
        });
        b.build()
    }

    /// The interned names are, string for string, what each record used
    /// to format: parts appear on first use, and only the peer-group set
    /// follows the super-peer.
    #[test]
    fn node_labels_are_lazy_and_track_the_super_peer() {
        let mut slot = None;
        let labels = NodeLabels::of(&mut slot, SiteId(7));
        assert_eq!(labels.site, Labels::of(&[("site", "site7")]));
        assert!(labels.cache.is_none() && labels.tenant.is_none());
        assert_eq!(
            labels.site_and("op", "query"),
            Labels::of(&[("site", "site7"), ("op", "query")])
        );
        let names = labels.cache(None);
        assert_eq!(names.hits, "site7.cache.hits");
        assert_eq!(names.misses, "site7.cache.misses");
        assert_eq!(
            names.peer_group,
            Labels::of(&[("site", "site7"), ("peer_group", "ungrouped")])
        );
        // A hit is tallied under the group of the moment: the handles a
        // rebuilt set starts without are resolved again, by name, so the
        // flat counter carries on and each group gets its own.
        let mut m = MetricsRegistry::new();
        for sp in [ActorId(3), ActorId(3), ActorId(5)] {
            let names = labels.cache(Some(sp));
            assert_eq!(
                names.peer_group,
                Labels::of(&[("site", "site7"), ("peer_group", &format!("g{}", sp.0))])
            );
            names.tally(&mut m, 1, 0);
            assert!(names.group_hits_id.is_some() && names.misses_id.is_none());
        }
        assert_eq!(m.counter_names().collect::<Vec<_>>(), ["site7.cache.hits"]);
        assert_eq!(m.counter_value("site7.cache.hits"), 3);
        let per_group: Vec<u64> = m
            .labeled_counters_of("glare_cache_hits_total")
            .map(|(_, n)| n)
            .collect();
        assert_eq!(per_group, [2, 1]);
        assert_eq!(
            m.labeled_counter_families().count(),
            1,
            "no miss was tallied"
        );
        assert_eq!(
            *labels.admission("siteSeven").sets.get("gold"),
            Labels::of(&[("class", "gold"), ("site", "siteSeven")])
        );
        // A second `of` finds what the first built.
        assert!(NodeLabels::of(&mut slot, SiteId(7)).cache.is_some());
    }

    /// Seeded property: `resolve_local` answers a node whose ADR indexes
    /// nothing without walking the type DAG, and must give what the walk
    /// gives whatever ran before: type inserts and removals, deployment
    /// registrations, uninstalls, peer tombstones, type expiry and sweeps
    /// (a type whose last deployment went keeps an empty index entry: the
    /// slow path, still right), and the amnesia of a crash, which swaps in
    /// registries that index nothing again.
    #[test]
    fn resolve_local_equals_the_closure_walk_after_random_edits() {
        use glare_fabric::SimRng;

        const NAMES: u64 = 8;
        fn walk(node: &GlareNode, activity: &str, now: SimTime) -> Vec<ActivityDeployment> {
            let closure = node.concrete_closure(activity);
            lookup_names(&closure, activity)
                .flat_map(|n| node.adr.deployments_of(n, now).value)
                .collect()
        }
        let mut rng = SimRng::from_seed(0x16_FA57);
        let (mut answered_empty_early, mut answered_something) = (0, 0);
        for round in 0..60 {
            let mut b = OverlayBuilder::new(1, round);
            b.configure(|_, cfg| cfg.use_cache = false);
            let (mut sim, ids) = b.build();
            sim.enable_store(glare_fabric::StoreConfig::standard());
            let crash_at = SimTime::from_secs(rng.range(5, 40));
            sim.schedule_crash(crash_at, SiteId(0));
            sim.schedule_restart(crash_at + SimDuration::from_secs(2), SiteId(0));
            sim.start();
            for step in 1..=40u64 {
                let now = SimTime::from_secs(step);
                sim.run_until(now);
                let node: &GlareNode = sim.actor_as(ids[0]).unwrap();
                let ty = format!("T{}", rng.range(0, NAMES));
                let key = format!("t{}@s{}", rng.range(0, NAMES), rng.range(0, 3));
                match rng.range(0, 10) {
                    0..=2 => {
                        // Bases have smaller indices: the DAG stays acyclic.
                        let i: u64 = ty[1..].parse().unwrap();
                        let mut t = if rng.chance(0.6) {
                            ActivityType::concrete_type(&ty, "d", "x")
                        } else {
                            ActivityType::abstract_type(&ty, "d")
                        };
                        if i > 0 && rng.chance(0.7) {
                            t = t.extends(&format!("T{}", rng.range(0, i)));
                        }
                        let _ = node.atr.register(t, now);
                    }
                    3 => drop(node.atr.remove(&ty)),
                    4..=6 => {
                        let site = format!("s{}", rng.range(0, 3));
                        let d = ActivityDeployment::executable(&ty, &site, "/x/bin/x", "/x");
                        let _ = node.adr.register(d, &node.atr, now);
                    }
                    7 => drop(node.adr.uninstall(&key, now)),
                    8 => drop(node.adr.apply_tombstone(&key, now, now)),
                    _ => {
                        node.adr.expire_type(&ty, now, now);
                        node.adr.sweep_expired(now + SimDuration::from_secs(1));
                    }
                }
                for i in 0..NAMES + 1 {
                    let name = format!("T{i}");
                    let fast = node.resolve_local(&name, now);
                    assert_eq!(fast, walk(node, &name, now), "round {round} step {step} {name}");
                    answered_something += usize::from(!fast.is_empty());
                }
                answered_empty_early += usize::from(node.adr.indexes_nothing());
            }
        }
        assert!(answered_empty_early > 100 && answered_something > 100, "both paths ran");
    }

    /// Continuations ride their completion events, so a crash voids the
    /// ones in flight with the events themselves, durable store or not: no
    /// request of the old incarnation is resumed, and the node holds
    /// nothing of them afterwards (without the store the node keeps its
    /// volatile state across a crash, and used to keep a `deferred` entry
    /// per voided completion for the rest of the run).
    #[test]
    fn a_crash_voids_the_continuations_in_flight_with_and_without_the_store() {
        struct Collector(Vec<u64>);
        impl Actor for Collector {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
                if let Ok((_, NodeMsg::QueryResponse { req_id, deployments })) = env.downcast() {
                    assert_eq!(deployments.len(), 1, "site 1 hosts JPOVray");
                    self.0.push(req_id);
                }
            }
            fn as_any(&self) -> Option<&dyn Any> {
                Some(self)
            }
        }
        for store in [false, true] {
            let (mut sim, ids) = seeded_overlay(2, &[1], false);
            if store {
                sim.enable_store(glare_fabric::StoreConfig::standard());
            }
            let collector = sim.add_actor(SiteId(0), Box::new(Collector(Vec::new())));
            let ask = |sim: &mut Simulation, at: SimTime, req_id: u64| {
                let msg = NodeMsg::QueryDeployments {
                    activity: "Imaging".to_owned(),
                    req_id,
                    reply_to: collector,
                    scope: QueryScope::LocalOnly,
                    class: TenantClass::BestEffort,
                };
                sim.inject(at, collector, ids[1], msg);
            };
            // Request 1 is two thirds through its registry stage and
            // request 2 half through its request stage when site 1 dies.
            let t0 = SimTime::from_secs(60);
            let (request, registry) = (REQUEST_BASE_COST, SimDuration::from_millis(4));
            ask(&mut sim, t0, 1);
            ask(&mut sim, t0 + request + registry / 4, 2);
            let crash = t0 + request + registry * 3 / 4;
            sim.schedule_crash(crash, SiteId(1));
            sim.schedule_restart(crash + SimDuration::from_secs(20), SiteId(1));
            ask(&mut sim, crash + SimDuration::from_secs(40), 3);
            sim.start();
            sim.run_until(t0 + SimDuration::from_secs(120));
            assert_eq!(sim.metrics().counter_value("glare.requests"), 3, "store {store}");
            assert_eq!(
                sim.actor_as::<Collector>(collector).unwrap().0,
                [3],
                "store {store}: only the new incarnation's request is answered"
            );
            let node: &GlareNode = sim.actor_as(ids[1]).unwrap();
            // The voided completions took their payloads with them (fabric's
            // `compute_then_payload_rides_the_event_and_dies_with_a_crash`);
            // the node itself has no table a request could be left in.
            assert_eq!(node.admitted.len(), 0);
        }
    }

    #[test]
    fn election_forms_groups_and_heartbeats() {
        let (mut sim, ids) = seeded_overlay(7, &[], true);
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        let _ = ids;
        // ceil(7/4) = 2 super-peers took office.
        assert_eq!(
            sim.metrics().counter_value("glare.superpeer_takeovers"),
            2,
            "two groups, two super-peers"
        );
    }

    #[test]
    fn local_query_answers_fast() {
        let (mut sim, ids) = seeded_overlay(3, &[0], true);
        let stats = ClientStats::shared();
        let client = QueryClient::new(ids[0], "Imaging", SimDuration::from_secs(1), 5, stats.clone());
        let topo_site = glare_fabric::SiteId(0);
        let cid = sim.add_actor(topo_site, Box::new(client));
        let _ = cid;
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        let s = stats.lock();
        assert_eq!(s.responses, 5);
        assert_eq!(s.hits, 5, "all answered with deployments");
        assert!(
            s.mean_latency().unwrap() < SimDuration::from_millis(50),
            "local answers are fast: {:?}",
            s.mean_latency()
        );
    }

    #[test]
    fn remote_query_found_via_group_and_cached() {
        let (mut sim, ids) = seeded_overlay(3, &[2], true);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[0],
            "Imaging",
            SimDuration::from_secs(2),
            4,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(0), Box::new(client));
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        let s = stats.lock();
        assert_eq!(s.responses, 4);
        assert_eq!(s.hits, 4);
        // Later requests hit the cache and are faster than the first.
        assert!(
            *s.latencies.last().unwrap() < s.latencies[0],
            "cached {:?} vs first {:?}",
            s.latencies.last(),
            s.latencies[0]
        );
        assert!(sim.metrics().counter_value("glare.cache_answers") >= 1);
    }

    #[test]
    fn cache_off_never_speeds_up() {
        let (mut sim, ids) = seeded_overlay(3, &[2], false);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[0],
            "Imaging",
            SimDuration::from_secs(2),
            4,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(0), Box::new(client));
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        let s = stats.lock();
        assert_eq!(s.responses, 4);
        assert_eq!(sim.metrics().counter_value("glare.cache_answers"), 0);
    }

    #[test]
    fn query_across_groups_via_super_peers() {
        // 7 nodes -> 2 groups. Deployment lives on the last node; client
        // asks the first. If they land in different groups, resolution
        // must traverse super-peers.
        let (mut sim, ids) = seeded_overlay(7, &[6], true);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[0],
            "Imaging",
            SimDuration::from_secs(3),
            3,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(0), Box::new(client));
        sim.start();
        sim.run_until(SimTime::from_secs(120));
        let s = stats.lock();
        assert_eq!(s.responses, 3);
        assert_eq!(s.hits, 3, "deployment found across groups");
    }

    #[test]
    fn coordinator_contention_smaller_community_wins() {
        // Two nodes both believe they hold a community index. §3.3: "A
        // message from a smaller community is acknowledged in case of
        // notifications from multiple indices." We model the second
        // coordinator claiming a smaller community by giving it a short
        // roster; every node must ack exactly one coordinator, and the
        // overlay still converges to one super-peer per group.
        let mut b = OverlayBuilder::new(4, 31);
        b.configure(|i, cfg| {
            if i == 1 {
                cfg.has_community_index = true; // second, contending index
            }
            cfg.election_interval = None;
        });
        let (mut sim, _ids) = b.build();
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        // Both coordinators have the same community size (full roster), so
        // the lower actor id (node 0) wins the tie; only its appointments
        // land. One group of 4 => exactly one super-peer.
        assert_eq!(
            sim.metrics().counter_value("glare.superpeer_takeovers"),
            1,
            "contending coordinators must not create extra super-peers"
        );
    }

    #[test]
    fn super_peer_failure_triggers_reelection() {
        // One group of 4: super-peer crashes; a member takes over after
        // majority verification.
        let (mut sim, _ids) = seeded_overlay(4, &[], true);
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.metrics().counter_value("glare.superpeer_takeovers"), 1);
        // Crash the highest-ranked site (the super-peer). Ranks come from
        // OverlayBuilder's topology; find it via the takeover counter by
        // crashing each site until the counter moves — instead, crash all
        // sites one at a time is overkill; the builder ranks by site spec,
        // so recompute which site won.
        let topo = sim.topology().clone();
        let mut ranked: Vec<(u32, u64)> = (0..4u32)
            .map(|i| {
                (
                    i,
                    topo.site(glare_fabric::SiteId(i)).rank_hashcode(),
                )
            })
            .collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        let sp_site = glare_fabric::SiteId(ranked[0].0);
        sim.schedule_crash(SimTime::from_secs(20), sp_site);
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(
            sim.metrics().counter_value("glare.superpeer_takeovers"),
            2,
            "a member must take over after the crash"
        );
    }

    #[test]
    fn probe_deadline_miss_without_retry_stays_legacy() {
        // Retries default to disabled: a crashed peer makes the probe
        // deadline fire, the stage concludes as a plain miss, and the
        // recovery layer leaves no trace — no retry metrics, no events.
        let (mut sim, ids) = seeded_overlay(3, &[2], true);
        sim.enable_events(100_000);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[0],
            "Imaging",
            SimDuration::from_secs(10),
            1,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(0), Box::new(client));
        sim.schedule_crash(SimTime::from_secs(5), glare_fabric::SiteId(2));
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        let s = stats.lock();
        assert_eq!(s.responses, 1, "miss still answers");
        assert_eq!(s.hits, 0);
        let ev = sim.events().expect("events enabled");
        assert_eq!(ev.of_kind("retry.attempt").count(), 0);
        assert_eq!(ev.of_kind("breaker.open").count(), 0);
        assert_eq!(ev.of_kind("query.degraded").count(), 0);
        assert_eq!(
            sim.metrics().counter_labeled_value(
                "glare_retries_total",
                &glare_fabric::Labels::of(&[("site", "site0"), ("op", "query")]),
            ),
            0
        );
    }

    #[test]
    fn silent_peer_probes_retry_then_degrade_to_stale_cache() {
        // A deployment is cached from a healthy remote, the remote
        // crashes, the cache entry ages out — and the query still
        // answers: probes retry with backoff, the peer's breaker opens,
        // and the final miss falls back to the stale entry, marked
        // degraded.
        let topo = glare_fabric::Topology::uniform(4);
        let mut ranked: Vec<(u32, u64)> = (0..4u32)
            .map(|i| (i, topo.site(glare_fabric::SiteId(i)).rank_hashcode()))
            .collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        let sp_site = ranked[0].0 as usize;
        let client_site = (0..4).find(|&i| i != sp_site).unwrap();
        let deploy_site = (0..4)
            .find(|&i| i != sp_site && i != client_site)
            .unwrap();
        let mut b = OverlayBuilder::new(4, 42);
        b.configure(|_, cfg| {
            cfg.max_group_size = 4;
            cfg.retry = crate::retry::RetryPolicy::standard();
            // Keep the first election's groups: re-election would drop the
            // crashed member from the overlay and sidestep the probes this
            // test is about.
            cfg.election_interval = None;
        });
        b.seed(move |i, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).unwrap();
            }
            if i == deploy_site {
                let d = ActivityDeployment::executable(
                    "JPOVray",
                    &format!("site{i}"),
                    "/opt/deployments/jpovray/bin/jpovray",
                    "/opt/deployments/jpovray",
                );
                node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
            }
        });
        let (mut sim, ids) = b.build();
        sim.enable_events(100_000);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[client_site],
            "Imaging",
            SimDuration::from_secs(200),
            3,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(client_site as u32), Box::new(client));
        // Crash after the second query (cache still warm), so the third
        // finds the entry expired and the owner unreachable.
        sim.schedule_crash(
            SimTime::from_secs(450),
            glare_fabric::SiteId(deploy_site as u32),
        );
        sim.start();
        sim.run_until(SimTime::from_secs(900));
        let s = stats.lock();
        assert_eq!(s.responses, 3, "every query answered");
        assert_eq!(s.hits, 3, "the degraded read still carries deployments");
        let ev = sim.events().expect("events enabled");
        assert!(ev.of_kind("retry.attempt").count() >= 1, "probes retried");
        assert!(ev.of_kind("breaker.open").count() >= 1, "breaker opened");
        assert_eq!(ev.of_kind("query.degraded").count(), 1);
        let client_label = format!("site{client_site}");
        assert!(
            sim.metrics().counter_labeled_value(
                "glare_retries_total",
                &glare_fabric::Labels::of(&[("site", &client_label), ("op", "query")]),
            ) >= 1
        );
        assert_eq!(
            sim.metrics().counter_labeled_value(
                "glare_degraded_reads_total",
                &glare_fabric::Labels::of(&[("site", &client_label)]),
            ),
            1
        );
        assert_eq!(sim.metrics().lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn queries_survive_super_peer_failure() {
        // Compute which site will win the election up front, so the
        // deployment can be placed on a *surviving* member.
        let topo = glare_fabric::Topology::uniform(4);
        let mut ranked: Vec<(u32, u64)> = (0..4u32)
            .map(|i| (i, topo.site(glare_fabric::SiteId(i)).rank_hashcode()))
            .collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        let sp_site = ranked[0].0 as usize;
        let deploy_site = (0..4).find(|&i| i != sp_site).unwrap();
        let client_site = (0..4).find(|&i| i != sp_site && i != deploy_site).unwrap();
        let (mut sim, ids) = seeded_overlay(4, &[deploy_site], true);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[client_site],
            "Imaging",
            SimDuration::from_secs(30),
            4,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(client_site as u32), Box::new(client));
        sim.schedule_crash(SimTime::from_secs(15), glare_fabric::SiteId(sp_site as u32));
        sim.start();
        sim.run_until(SimTime::from_secs(300));
        let s = stats.lock();
        assert_eq!(s.responses, 4, "all queries answered despite SP crash");
        assert_eq!(s.hits, 4, "deployment on a surviving site stays findable");
    }

    #[test]
    fn crash_with_store_recovers_and_digests_match() {
        // A crashed site forgets everything volatile, rebuilds from its
        // durable store, and ends the run with registries byte-identical
        // (digest-wise) to a never-crashed run of the same seed.
        let build = || {
            let mut b = OverlayBuilder::new(4, 42);
            b.configure(|_, cfg| {
                cfg.max_group_size = 4;
            });
            b.seed(|i, node| {
                for t in example_hierarchy(SimTime::ZERO) {
                    node.atr.register(t, SimTime::ZERO).unwrap();
                }
                let d = ActivityDeployment::executable(
                    "JPOVray",
                    &format!("site{i}"),
                    "/opt/deployments/jpovray/bin/jpovray",
                    "/opt/deployments/jpovray",
                );
                node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
            });
            let (mut sim, ids) = b.build();
            sim.enable_store(glare_fabric::StoreConfig::standard());
            (sim, ids)
        };
        let horizon = SimTime::from_secs(300);
        let (mut reference, ref_ids) = build();
        reference.start();
        reference.run_until(horizon);
        let (mut sim, ids) = build();
        sim.enable_events(100_000);
        sim.schedule_crash(SimTime::from_secs(30), glare_fabric::SiteId(1));
        sim.schedule_restart(SimTime::from_secs(50), glare_fabric::SiteId(1));
        sim.start();
        sim.run_until(horizon);
        let ev = sim.events().expect("events enabled");
        assert!(ev.of_kind("site.amnesia").count() >= 1, "crash wiped volatile state");
        assert!(ev.of_kind("store.recovered").count() >= 1, "restart replayed the store");
        for i in 0..4 {
            let a: &GlareNode = sim.actor_as(ids[i]).unwrap();
            let b: &GlareNode = reference.actor_as(ref_ids[i]).unwrap();
            assert_eq!(
                a.registry_digest(horizon),
                b.registry_digest(horizon),
                "site{i} diverged from the never-crashed run"
            );
        }
        assert_eq!(sim.metrics().lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn torn_journal_truncates_at_last_valid_record() {
        let mut b = OverlayBuilder::new(2, 7);
        b.configure(|_, cfg| {
            cfg.max_group_size = 2;
        });
        b.seed(|_, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).unwrap();
            }
        });
        let (mut sim, ids) = b.build();
        sim.enable_store(glare_fabric::StoreConfig::standard());
        sim.enable_events(100_000);
        // Four registrations journal four records on site 1...
        for (k, name) in ["alpha", "beta", "gamma", "delta"].iter().enumerate() {
            let d = ActivityDeployment::executable(
                "JPOVray",
                "site1",
                &format!("/opt/{name}/bin/{name}"),
                &format!("/opt/{name}"),
            );
            sim.inject(
                SimTime::from_secs(5 + k as u64),
                ids[1],
                ids[1],
                NodeMsg::RegisterDeployment(Box::new(d)),
            );
        }
        // ...and the crash tears the last two off the tail: recovery must
        // truncate at the last valid record, not die on the corruption.
        sim.schedule_crash_torn(SimTime::from_secs(30), glare_fabric::SiteId(1), 2);
        sim.schedule_restart(SimTime::from_secs(45), glare_fabric::SiteId(1));
        sim.start();
        sim.run_until(SimTime::from_secs(60));
        let node: &GlareNode = sim.actor_as(ids[1]).unwrap();
        let mut keys = node.adr.keys(SimTime::from_secs(60));
        keys.sort_unstable();
        assert_eq!(keys, vec!["alpha@site1".to_owned(), "beta@site1".to_owned()]);
        assert_eq!(
            sim.metrics().counter_labeled_value(
                "glare_store_truncated_records_total",
                &glare_fabric::Labels::of(&[("site", "site1")]),
            ),
            2
        );
        let ev = sim.events().expect("events enabled");
        let rec = ev.of_kind("store.recovered").next().expect("recovery event");
        assert!(
            rec.fields
                .iter()
                .any(|(k, v)| k == "truncated_records" && v == "2"),
            "recovery reports the torn tail: {:?}",
            rec.fields
        );
        assert!(ev.of_kind("store.torn").count() >= 1, "kernel recorded the tear");
    }

    #[test]
    fn monitors_keep_ticking_after_crash_restart() {
        // Regression: a restart used to re-arm only hb-check/election/
        // heartbeat/notify; the Deployment Status Monitor and Cache
        // Refresher loops died with the crash.
        let mut b = OverlayBuilder::new(2, 9);
        b.configure(|_, cfg| {
            cfg.monitor_interval = Some(SimDuration::from_secs(10));
            cfg.cache_refresh_interval = Some(SimDuration::from_secs(15));
        });
        b.seed(|_, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).unwrap();
            }
        });
        let (mut sim, _ids) = b.build();
        sim.schedule_crash(SimTime::from_secs(60), glare_fabric::SiteId(1));
        sim.schedule_restart(SimTime::from_secs(80), glare_fabric::SiteId(1));
        sim.start();
        sim.run_until(SimTime::from_secs(100));
        let labels = glare_fabric::Labels::of(&[("site", "site1")]);
        let at_100 = sim
            .metrics()
            .counter_labeled_value("glare_monitor_ticks_total", &labels);
        sim.run_until(SimTime::from_secs(200));
        let at_200 = sim
            .metrics()
            .counter_labeled_value("glare_monitor_ticks_total", &labels);
        assert!(
            at_200 >= at_100 + 8,
            "status monitor must keep firing after restart: {at_100} -> {at_200}"
        );
    }

    /// Mirror of the chaos harness's overlay invariants: every node names
    /// a super-peer, named super-peers hold the office, office holders
    /// name themselves, members point back, and the distinct-super-peer
    /// count matches the office-holder count.
    fn assert_overlay_invariants(sim: &Simulation, ids: &[ActorId], skip: &[ActorId]) {
        let node = |id: ActorId| sim.actor_as::<GlareNode>(id).expect("GlareNode");
        let mut named = std::collections::BTreeSet::new();
        let mut office_holders = 0usize;
        for &id in ids {
            if skip.contains(&id) {
                continue;
            }
            let n = node(id);
            if n.role() == Role::SuperPeer {
                office_holders += 1;
            }
            let sp = n.super_peer().unwrap_or_else(|| panic!("node {} ungrouped", id.0));
            named.insert(sp);
            assert_eq!(node(sp).role(), Role::SuperPeer, "named SP {} holds office", sp.0);
            if n.role() == Role::SuperPeer {
                assert_eq!(sp, id, "office holder {} defers to {}", id.0, sp.0);
                for &m in n.group() {
                    if skip.contains(&m) {
                        continue;
                    }
                    assert_eq!(
                        node(m).super_peer(),
                        Some(id),
                        "member {} of {}'s group points elsewhere",
                        m.0,
                        id.0
                    );
                }
            }
        }
        assert_eq!(named.len(), office_holders, "one super-peer per group");
    }

    #[test]
    fn depth_three_election_converges_to_single_root() {
        // 121 sites, groups of 12: ceil(121/12) = 11 leaf groups, whose
        // 11 super-peers re-partition (branching = 12) into one level-2
        // group — exactly one root over two grouping tiers.
        let mut b = OverlayBuilder::new(121, 11);
        b.configure(|_, cfg| {
            cfg.max_group_size = 12;
            cfg.tree_depth = 3;
            cfg.election_interval = None;
        });
        let (mut sim, ids) = b.build();
        sim.start();
        sim.run_until(SimTime::from_secs(30));
        assert_overlay_invariants(&sim, &ids, &[]);
        let mut roots = Vec::new();
        let mut leaf_sps = std::collections::BTreeSet::new();
        for &id in &ids {
            let n = sim.actor_as::<GlareNode>(id).expect("GlareNode");
            assert_eq!(n.tree_tiers(), 2, "node {} saw a two-tier plan", id.0);
            if n.role() == Role::SuperPeer {
                leaf_sps.insert(id);
                assert!(
                    n.tree_parents().iter().any(|t| t.level == 2),
                    "leaf super-peer {} knows its level-2 parent",
                    id.0
                );
            } else {
                assert!(n.tree_parents().is_empty(), "plain member {} has no parents", id.0);
            }
            if n.is_tree_root() {
                roots.push(id);
            }
        }
        assert_eq!(leaf_sps.len(), 11, "one super-peer per leaf group");
        assert_eq!(roots.len(), 1, "exactly one tree root: {roots:?}");
        // The root leads its level-2 group, so every other leaf SP points
        // up at it.
        let root = roots[0];
        for &sp in &leaf_sps {
            let n = sim.actor_as::<GlareNode>(sp).expect("GlareNode");
            let parent = n
                .tree_parents()
                .iter()
                .find(|t| t.level == 2)
                .expect("level-2 parent");
            assert_eq!(parent.super_peer, root, "leaf SP {} reports to the root", sp.0);
            assert!(n.tree_others().is_empty(), "single top group has no siblings");
        }
    }

    #[test]
    fn depth_three_query_resolves_across_subtrees() {
        // 12 sites, groups of 3 with branching 3: 4 leaf groups whose
        // super-peers split into two level-2 subtrees. Deploy only on a
        // plain member under one top-level subtree and query from a plain
        // member under the other: with the cache off, a hit requires the
        // full ladder — up to the querier's top super-peer, sideways to
        // the other top super-peer, and down through its subtree.
        let n = 12usize;
        let topo = glare_fabric::Topology::uniform(n);
        let responders: Vec<(ActorId, u64)> = (0..n as u32)
            .map(|i| (ActorId(i), topo.site(glare_fabric::SiteId(i)).rank_hashcode()))
            .collect();
        let plan = plan_tree(&responders, 3, 3, 3);
        assert_eq!(plan.levels.len(), 2, "two grouping tiers");
        assert!(plan.levels[1].len() >= 2, "need two top-level subtrees");
        let leaf_of = |sp: ActorId| {
            plan.levels[0]
                .iter()
                .find(|g| g.super_peer == sp)
                .expect("every level-2 member leads a leaf group")
        };
        let pick_member = |top: &crate::superpeer::Group| {
            // A plain (non-super-peer) member of a leaf group inside this
            // top-level subtree, so the query cannot short-circuit.
            top.all()
                .iter()
                .flat_map(|&sp| leaf_of(sp).members.clone())
                .next()
                .expect("subtree has a plain member")
        };
        let client_site = pick_member(&plan.levels[1][0]).0 as usize;
        let deploy_site = pick_member(&plan.levels[1][1]).0 as usize;
        assert_ne!(client_site, deploy_site);

        let mut b = OverlayBuilder::new(n, 17);
        b.configure(|_, cfg| {
            cfg.max_group_size = 3;
            cfg.tree_branching = Some(3);
            cfg.tree_depth = 3;
            cfg.use_cache = false;
            cfg.election_interval = None;
        });
        b.seed(move |i, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).unwrap();
            }
            if i == deploy_site {
                let d = ActivityDeployment::executable(
                    "JPOVray",
                    &format!("site{i}"),
                    "/opt/deployments/jpovray/bin/jpovray",
                    "/opt/deployments/jpovray",
                );
                node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
            }
        });
        let (mut sim, ids) = b.build();
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[client_site],
            "Imaging",
            SimDuration::from_secs(5),
            3,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(client_site as u32), Box::new(client));
        sim.start();
        sim.run_until(SimTime::from_secs(120));
        let s = stats.lock();
        assert_eq!(s.responses, 3);
        assert_eq!(s.hits, 3, "deployment found across top-level subtrees");
    }

    #[test]
    fn mid_level_super_peer_crash_heals_on_reelection() {
        // 25 sites, groups of 5: 5 leaf groups, their super-peers form one
        // level-2 group under a single root. Crash the root: its own leaf
        // group heals by heartbeat takeover, and the next periodic
        // election re-plans the whole tree around the survivors.
        let mut b = OverlayBuilder::new(25, 13);
        b.configure(|_, cfg| {
            cfg.max_group_size = 5;
            cfg.tree_depth = 3;
            cfg.election_interval = Some(SimDuration::from_secs(60));
        });
        let (mut sim, ids) = b.build();
        sim.start();
        sim.run_until(SimTime::from_secs(10));
        let root = ids
            .iter()
            .copied()
            .find(|&id| {
                sim.actor_as::<GlareNode>(id)
                    .expect("GlareNode")
                    .is_tree_root()
            })
            .expect("depth-3 election produced a root");
        // The coordinator (node 0) must survive to run the re-election.
        assert_ne!(root, ActorId(0), "test setup: root is not the coordinator");
        sim.schedule_crash(SimTime::from_secs(20), glare_fabric::SiteId(root.0));
        // Run past the next periodic election (re-opens every 60s).
        sim.run_until(SimTime::from_secs(200));
        let survivors: Vec<ActorId> = ids.iter().copied().filter(|&id| id != root).collect();
        assert_overlay_invariants(&sim, &ids, &[root]);
        let mut roots = Vec::new();
        for &id in &survivors {
            let n = sim.actor_as::<GlareNode>(id).expect("GlareNode");
            assert_ne!(n.super_peer(), Some(root), "node {} still follows the dead root", id.0);
            assert!(
                n.tree_parents().iter().all(|t| t.super_peer != root),
                "node {} keeps the dead root as a parent",
                id.0
            );
            assert_eq!(n.tree_tiers(), 2, "re-election restored the two-tier plan");
            if n.is_tree_root() {
                roots.push(id);
            }
        }
        assert_eq!(roots.len(), 1, "tree healed to exactly one new root: {roots:?}");
    }

    /// Two-group gray-failure fixture: 7 nodes, groups of 4, election
    /// outcome computed statically (same flat plan the coordinator will
    /// build). Returns `(client_site, own_sp_site, other_sp_site,
    /// other_member_site)` — the client is a plain member of one group;
    /// the alternate sites live in the other group.
    fn two_group_sites(n: usize) -> (usize, usize, usize, usize) {
        let topo = glare_fabric::Topology::uniform(n);
        let responders: Vec<(ActorId, u64)> = (0..n as u32)
            .map(|i| (ActorId(i), topo.site(glare_fabric::SiteId(i)).rank_hashcode()))
            .collect();
        let plan = plan_tree(&responders, 4, 4, 2);
        assert!(plan.levels[0].len() >= 2, "need two leaf groups");
        let g0 = &plan.levels[0][0];
        let g1 = &plan.levels[0][1];
        let client = g0.members.first().expect("group 0 has a plain member");
        let other_member = g1.members.first().expect("group 1 has a plain member");
        (
            client.0 as usize,
            g0.super_peer.0 as usize,
            g1.super_peer.0 as usize,
            other_member.0 as usize,
        )
    }

    /// Build the fixture overlay: deployment seeded on `deploy_site`,
    /// cache off (every query walks the full ladder), retries off, one
    /// election.
    fn grayfail_overlay(
        deploy_site: usize,
        hedge: crate::suspicion::HedgeConfig,
    ) -> (Simulation, Vec<ActorId>) {
        let mut b = OverlayBuilder::new(7, 42);
        b.configure(move |_, cfg| {
            cfg.max_group_size = 4;
            cfg.use_cache = false;
            cfg.election_interval = None;
            cfg.hedge = hedge;
        });
        b.seed(move |i, node| {
            for t in example_hierarchy(SimTime::ZERO) {
                node.atr.register(t, SimTime::ZERO).unwrap();
            }
            if i == deploy_site {
                let d = ActivityDeployment::executable(
                    "JPOVray",
                    &format!("site{i}"),
                    "/opt/deployments/jpovray/bin/jpovray",
                    "/opt/deployments/jpovray",
                );
                node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
            }
        });
        b.build()
    }

    #[test]
    fn hedged_probe_routes_around_gray_slow_super_peer() {
        // The client's super-peer is alive (heartbeats keep flowing — site
        // degradation scales compute, not sends) but 200x slow: its 4ms
        // request stage takes 800ms, past the 500ms probe deadline. With
        // hedging on, the cold hedge fires at 250ms into the *other*
        // group's super-peer, whose subtree holds the deployment — the
        // query still hits. The gray super-peer's late answer finds the
        // stage concluded and is dropped: exactly-once accounting.
        let (client_site, sp_site, _other_sp, other_member) = two_group_sites(7);
        let (mut sim, ids) =
            grayfail_overlay(other_member, crate::suspicion::HedgeConfig::standard());
        sim.enable_events(100_000);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[client_site],
            "Imaging",
            SimDuration::from_secs(20),
            1,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(client_site as u32), Box::new(client));
        sim.start();
        sim.run_until(SimTime::from_secs(12));
        sim.set_site_degraded(glare_fabric::SiteId(sp_site as u32), Some(200.0));
        sim.run_until(SimTime::from_secs(60));
        let s = stats.lock();
        assert_eq!(s.responses, 1, "exactly one answer despite two probes");
        assert_eq!(s.hits, 1, "hedge converted the deadline miss into a hit");
        let client_label = format!("site{client_site}");
        let labels = glare_fabric::Labels::of(&[("site", &client_label)]);
        let m = sim.metrics();
        assert_eq!(m.counter_labeled_value("glare_hedges_fired_total", &labels), 1);
        assert_eq!(m.counter_labeled_value("glare_hedges_won_total", &labels), 1);
        assert_eq!(m.counter_labeled_value("glare_hedges_wasted_total", &labels), 0);
        let ev = sim.events().expect("events enabled");
        assert_eq!(ev.of_kind("query.hedged").count(), 1);
        assert_eq!(ev.of_kind("site.degraded").count(), 1);
        // The gray peer was never *declared* failed — no takeover churn.
        assert_eq!(ev.of_kind("failure.suspected").count(), 0);
        assert_eq!(m.lint_metric_names(), Vec::<String>::new());
    }

    #[test]
    fn without_hedging_gray_slow_super_peer_turns_hits_into_misses() {
        // Same scenario, hedging disabled (the default): the escalation
        // times out against the slow super-peer and the query misses —
        // and the recovery layer leaves no trace.
        let (client_site, sp_site, _other_sp, other_member) = two_group_sites(7);
        let (mut sim, ids) =
            grayfail_overlay(other_member, crate::suspicion::HedgeConfig::disabled());
        sim.enable_events(100_000);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[client_site],
            "Imaging",
            SimDuration::from_secs(20),
            1,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(client_site as u32), Box::new(client));
        sim.start();
        sim.run_until(SimTime::from_secs(12));
        sim.set_site_degraded(glare_fabric::SiteId(sp_site as u32), Some(200.0));
        sim.run_until(SimTime::from_secs(60));
        let s = stats.lock();
        assert_eq!(s.responses, 1, "the deadline miss still answers");
        assert_eq!(s.hits, 0, "no hedge, no route around the slow peer");
        let client_label = format!("site{client_site}");
        let labels = glare_fabric::Labels::of(&[("site", &client_label)]);
        let m = sim.metrics();
        assert_eq!(m.counter_labeled_value("glare_hedges_fired_total", &labels), 0);
        assert_eq!(m.counter_labeled_value("glare_hedges_won_total", &labels), 0);
        assert_eq!(m.counter_labeled_value("glare_hedges_wasted_total", &labels), 0);
        let ev = sim.events().expect("events enabled");
        assert_eq!(ev.of_kind("query.hedged").count(), 0);
        assert!(
            sim.metrics().gauge_ref(
                "glare_suspicion_level",
                &glare_fabric::Labels::of(&[("site", &client_label)]),
            ).is_none(),
            "suspicion disabled exports no gauge"
        );
    }

    #[test]
    fn hedge_into_dead_replica_original_still_wins() {
        // The alternate super-peer is crashed; the original is mildly
        // degraded (8x: ~32ms request stage), slow enough that a 10ms
        // hedge fires first. The hedge probe vanishes into the dead site;
        // the original's non-empty answer concludes the stage — wasted,
        // not won — and the client still sees exactly one response.
        let (client_site, sp_site, other_sp, _other_member) = two_group_sites(7);
        // Deployment on the client's own super-peer: the original answers
        // non-empty from its registry after the group probe misses.
        let mut hedge = crate::suspicion::HedgeConfig::standard();
        hedge.cold_fraction = 0.01; // cold delay 5ms -> floored to min 10ms
        let (mut sim, ids) = grayfail_overlay(sp_site, hedge);
        sim.enable_events(100_000);
        let stats = ClientStats::shared();
        let client = QueryClient::new(
            ids[client_site],
            "Imaging",
            SimDuration::from_secs(20),
            1,
            stats.clone(),
        );
        sim.add_actor(glare_fabric::SiteId(client_site as u32), Box::new(client));
        // Crash the alternate before the query; detection (16s legacy
        // threshold, 16s check cadence) lands after the 30s horizon, so
        // the client still believes in the dead super-peer when it hedges.
        sim.schedule_crash(SimTime::from_secs(15), glare_fabric::SiteId(other_sp as u32));
        sim.start();
        sim.run_until(SimTime::from_secs(12));
        sim.set_site_degraded(glare_fabric::SiteId(sp_site as u32), Some(8.0));
        sim.run_until(SimTime::from_secs(30));
        let s = stats.lock();
        assert_eq!(s.responses, 1, "dead hedge target cannot double-answer");
        assert_eq!(s.hits, 1, "the original authoritative answer wins");
        let client_label = format!("site{client_site}");
        let labels = glare_fabric::Labels::of(&[("site", &client_label)]);
        let m = sim.metrics();
        assert_eq!(m.counter_labeled_value("glare_hedges_fired_total", &labels), 1);
        assert_eq!(m.counter_labeled_value("glare_hedges_won_total", &labels), 0);
        assert_eq!(m.counter_labeled_value("glare_hedges_wasted_total", &labels), 1);
    }

    #[test]
    fn adaptive_suspicion_detects_crash_faster_with_no_false_positives() {
        // One group of 4 under the adaptive detector: 120s of healthy
        // heartbeats warm the estimator (zero suspicions — no false
        // positives), then the super-peer crashes and the learned
        // threshold (2x mean + 4 sigma ~ 12s, checked every heartbeat
        // period) confirms the failure sooner than the legacy fixed
        // 16s-threshold/16s-cadence detector of a same-seed run.
        let confirm_time = |suspicion: crate::suspicion::SuspicionConfig| {
            let mut b = OverlayBuilder::new(4, 42);
            b.configure(move |_, cfg| {
                cfg.max_group_size = 4;
                cfg.election_interval = None;
                cfg.suspicion = suspicion;
            });
            let (mut sim, _ids) = b.build();
            sim.enable_events(100_000);
            let topo = sim.topology().clone();
            let mut ranked: Vec<(u32, u64)> = (0..4u32)
                .map(|i| (i, topo.site(glare_fabric::SiteId(i)).rank_hashcode()))
                .collect();
            ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
            let sp_site = glare_fabric::SiteId(ranked[0].0);
            sim.schedule_crash(SimTime::from_secs(121), sp_site);
            sim.start();
            sim.run_until(SimTime::from_secs(200));
            let ev = sim.events().expect("events enabled");
            let pre_crash_suspected = ev
                .of_kind("failure.suspected")
                .filter(|r| r.time < SimTime::from_secs(121))
                .count();
            assert_eq!(pre_crash_suspected, 0, "healthy peers are never suspected");
            let confirmed = ev
                .of_kind("failure.confirmed")
                .map(|r| r.time)
                .min()
                .expect("the crash is eventually confirmed");
            assert_eq!(
                sim.metrics().counter_value("glare.superpeer_takeovers"),
                2,
                "exactly the initial election plus the one real takeover"
            );
            (confirmed, sim)
        };
        let (adaptive_at, adaptive_sim) =
            confirm_time(crate::suspicion::SuspicionConfig::standard());
        let (legacy_at, _) = confirm_time(crate::suspicion::SuspicionConfig::disabled());
        assert!(
            adaptive_at < legacy_at,
            "adaptive {adaptive_at:?} must beat legacy {legacy_at:?}"
        );
        // The adaptive run exported the suspicion gauge for some member.
        let m = adaptive_sim.metrics();
        let exported = (0..4).any(|i| {
            m.gauge_ref(
                "glare_suspicion_level",
                &glare_fabric::Labels::of(&[("site", &format!("site{i}"))]),
            )
            .is_some()
        });
        assert!(exported, "suspicion level gauge is published when enabled");
        assert_eq!(m.lint_metric_names(), Vec::<String>::new());
    }
}
