//! What nodes say to each other and how a node is configured: the
//! message vocabulary, the query scopes, the protocol's three time
//! constants and [`NodeConfig`].

use glare_fabric::{ActorId, SimDuration};
use glare_services::mds::REQUEST_BASE_COST;

use crate::admission::{AdmissionConfig, TenantClass};
use crate::model::{ActivityDeployment, ActivityType};
use crate::retry::RetryPolicy;
use crate::superpeer::TreeParent;
use crate::suspicion::{HedgeConfig, SuspicionConfig};

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
pub(super) fn scope_label(scope: QueryScope) -> &'static str {
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
pub(super) const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Silence threshold before a member suspects its super-peer: three missed
/// beats plus a second of slack.
pub(super) const HEARTBEAT_TIMEOUT: SimDuration =
    SimDuration::from_nanos(3 * HEARTBEAT_INTERVAL.as_nanos() + 1_000_000_000);
/// How long to wait for probe replies before concluding a stage.
pub(super) const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(500);

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
