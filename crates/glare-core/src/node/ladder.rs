//! The query ladder: one deployment-list request from arrival to reply —
//! own registry → cache → group peers → super-peer → up the tree → across
//! the top tier — with its probe stages, deadlines, retries, breakers and
//! hedges ([`Ladder`]). It reads the overlay view and never writes it.

use std::collections::{HashMap, HashSet};
use std::num::NonZeroU64;
use std::sync::Arc;

use glare_fabric::{
    ActorId, Ctx, FieldValue, SimDuration, SimTime, SpanHandle, SpanKind, TimerToken,
};

use super::msg::{scope_label, NodeConfig, NodeMsg, QueryScope, PROBE_TIMEOUT};
use super::{Deferred, GlareNode};
use crate::admission::TenantClass;
use crate::model::ActivityDeployment;
use crate::retry::BreakerBank;
use crate::suspicion::SuspicionTracker;

/// Hedge delay as a fraction of the probe deadline while the latency
/// estimator is cold (no learned quantile to derive it from): a cold
/// hedge waits half the deadline. Fixed, like the two below — tuned once
/// for the 500 ms [`PROBE_TIMEOUT`], and read only after
/// `cfg.hedge.enabled` let a hedge be planned.
const HEDGE_COLD_FRACTION: f64 = 0.5;

/// Standard deviations above the learned mean round-trip used as the
/// warm hedge delay — a deterministic stand-in for roughly the p99 of
/// the peer's response distribution.
const HEDGE_SIGMAS: f64 = 3.0;

/// Floor on any hedge delay: hedging below the healthy round-trip only
/// duplicates traffic.
const HEDGE_MIN_DELAY: SimDuration = SimDuration::from_millis(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Stage {
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
pub(super) struct Request {
    activity: Arc<str>,
    /// Correlation id chosen by the requester, echoed in the answer.
    req_id: u64,
    reply_to: ActorId,
    scope: QueryScope,
    /// Originating tenant's class, echoed into every probe of the ladder.
    class: TenantClass,
    /// The inbox ticket a client request was admitted under, given back
    /// when the reply goes out (`None` for a probe, or with the door off).
    ticket: Option<NonZeroU64>,
    /// The `node.query` span covering arrival → reply (inert when tracing
    /// is off).
    span: SpanHandle,
}

/// One probe stage of the ladder answering `req`.
struct PendingQuery {
    req: Request,
    awaiting: HashSet<ActorId>,
    collected: Vec<Arc<ActivityDeployment>>,
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

/// The ladder's state: the probe stages in flight and what the node has
/// learned about the peers it probes.
pub(super) struct Ladder {
    /// Next correlation id for a probe stage. It survives amnesia: a
    /// `QueryResponse` from the previous incarnation still in flight must
    /// never alias a new correlation id.
    pub(super) next_req: u64,
    pending: HashMap<u64, PendingQuery>,
    /// Per-remote-peer circuit breakers fed by probe deadline misses
    /// (only consulted when `cfg.retry` enables retries).
    breakers: BreakerBank<ActorId>,
    /// Per-peer round-trip estimator over probe responses (inert unless
    /// `cfg.suspicion` is enabled); derives hedge delays.
    pub(super) rtt: SuspicionTracker<ActorId>,
}

impl Ladder {
    pub(super) fn new(cfg: &NodeConfig) -> Ladder {
        Ladder {
            next_req: 0,
            pending: HashMap::new(),
            breakers: BreakerBank::default(),
            rtt: SuspicionTracker::new(cfg.suspicion),
        }
    }

    /// The next incarnation's ladder: nothing in flight, nothing learned,
    /// and the correlation counter carried on (see `next_req`).
    pub(super) fn after_amnesia(&self, cfg: &NodeConfig) -> Ladder {
        Ladder {
            next_req: self.next_req,
            ..Ladder::new(cfg)
        }
    }

    /// Book `from`'s answer to probe stage `local_id` (`None`: the probe
    /// was shed downstream). True when that settles the stage.
    fn record_answer(
        &mut self,
        now: SimTime,
        local_id: u64,
        from: ActorId,
        answer: Option<Vec<Arc<ActivityDeployment>>>,
    ) -> bool {
        let Some(p) = self.pending.get_mut(&local_id) else {
            return false;
        };
        let Some(deployments) = answer else {
            // Treat a shed probe like an empty answer so the ladder
            // concludes with whatever the other peers return; the
            // retry-after hint is for clients.
            p.awaiting.remove(&from);
            return p.awaiting.is_empty();
        };
        if p.hedge.target == Some(from) {
            // The hedge answered. The original stays authoritative for
            // misses (replicas are not guaranteed equivalent for an empty
            // answer), so only a useful response wins the race; the
            // loser's eventual reply finds no pending entry and is dropped
            // — exactly-once toward the client.
            if let Some(sent) = p.hedge.sent {
                self.rtt.observe(from, now.saturating_since(sent));
            }
            if deployments.is_empty() {
                return false;
            }
            p.collected.extend(deployments);
            p.hedge.won = true;
            // Hedge win counts as a successful call for the alternate's
            // breaker.
            self.breakers.breaker(from).record_success();
            return true;
        }
        if p.awaiting.contains(&from) {
            self.rtt.observe(from, now.saturating_since(p.started));
        }
        p.awaiting.remove(&from);
        p.collected.extend(deployments);
        p.awaiting.is_empty()
    }
}

/// The names a request for `activity` is looked up under: its concrete
/// closure, or the raw name when the hierarchy resolves it to nothing.
pub(super) fn lookup_names<'a>(
    closure: &'a [String],
    activity: &'a str,
) -> impl Iterator<Item = &'a str> {
    let raw = closure.is_empty().then_some(activity);
    closure.iter().map(String::as_str).chain(raw)
}

impl GlareNode {
    pub(super) fn resolve_local(&self, activity: &str, now: SimTime) -> Vec<ActivityDeployment> {
        // A site that hosts nothing (most of a VO) has no answer whatever
        // the name resolves to; skip the type DAG.
        if self.adr.indexes_nothing() {
            return Vec::new();
        }
        let closure = self.atr.concrete_closure(activity);
        let mut out = Vec::new();
        for n in lookup_names(&closure, activity) {
            out.extend(self.adr.deployments_of(n, now).value);
        }
        out
    }

    /// Answer from the cache, mirroring the cache's own hit/miss tallies
    /// into the simulation metrics under the stable names
    /// `site{N}.cache.hits` / `site{N}.cache.misses`, plus the labeled
    /// families `glare_cache_{hits,misses}_total{site,peer_group}` and the
    /// windowed `glare_cache_hit_ratio{site}` gauge.
    fn resolve_cache(
        &mut self,
        ctx: &mut Ctx<'_>,
        activity: &str,
        now: SimTime,
    ) -> Vec<Arc<ActivityDeployment>> {
        if !self.cfg.use_cache {
            return Vec::new();
        }
        let (h0, m0) = (self.cache.hits(), self.cache.misses());
        let closure = self.atr.concrete_closure(activity);
        let mut out = Vec::new();
        for n in lookup_names(&closure, activity) {
            let found = self.cache.deployments_of(n, now);
            // One name is the usual case: its vector is the answer as is.
            if out.is_empty() {
                out = found;
            } else {
                out.extend(found);
            }
        }
        let (h1, m1) = (self.cache.hits(), self.cache.misses());
        if h1 > h0 || m1 > m0 {
            self.tele
                .labels(ctx.self_site)
                .cache(self.view.super_peer)
                .tally(ctx.metrics(), h1 - h0, m1 - m0);
        }
        if let Some(ratio) = self.cache.hit_ratio() {
            self.tele.labels(ctx.self_site).set_hit_ratio(ctx.metrics(), now, ratio);
        }
        out
    }

    /// Send the answer and close the request's `node.query` span, tagging
    /// it with the resolution source and result count.
    pub(super) fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: Request,
        deployments: Vec<Arc<ActivityDeployment>>,
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
        self.release_ticket(req.ticket);
    }

    /// A deployment-list request arrived: pass the front door, charge the
    /// request's CPU cost, and handle it when that completes.
    pub(super) fn on_query(
        &mut self,
        ctx: &mut Ctx<'_>,
        activity: Arc<str>,
        req_id: u64,
        reply_to: ActorId,
        scope: QueryScope,
        class: TenantClass,
    ) {
        let Some(ticket) = self.admit(ctx, &activity, req_id, reply_to, scope, class) else {
            return;
        };
        let m = ctx.metrics();
        let id = *self
            .tele
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
            ticket,
            span,
        });
        if ctx.compute_then(self.cfg.request_cost, "req", then).is_none() {
            // Site down; request lost. Its inbox slot is freed now rather
            // than left to the TTL backstop.
            self.release_ticket(ticket);
            ctx.end_span(span);
        }
    }

    /// A probe timer fired for stage `local_id`; what it is for is the tag
    /// it was armed with.
    pub(super) fn on_probe_timer(&mut self, ctx: &mut Ctx<'_>, tag: &str, local_id: u64) {
        match tag {
            // Probe deadline: retry silent peers or conclude with whatever
            // arrived.
            "qdl" => self.deadline_expired(ctx, local_id),
            "qback" => self.retry_probe(ctx, local_id),
            _ => self.fire_hedge(ctx, local_id),
        }
    }

    /// A probe of stage `req_id` was answered by `from` (`None`: shed
    /// downstream); conclude the stage if that settles it.
    pub(super) fn on_probe_answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ActorId,
        req_id: u64,
        answer: Option<Vec<Arc<ActivityDeployment>>>,
    ) {
        if self.ladder.record_answer(ctx.now(), req_id, from, answer) {
            self.conclude_stage(ctx, req_id);
        }
    }

    /// Deterministic hedge delay for a probe of `target`: the learned
    /// high quantile of the peer's response distribution when the RTT
    /// estimator is warm, else a fixed fraction of the probe deadline.
    /// No randomness — same-seed runs hedge at identical instants.
    fn hedge_delay(&self, target: ActorId) -> SimDuration {
        let delay = self
            .ladder
            .rtt
            .latency_quantile(target, HEDGE_SIGMAS)
            .unwrap_or_else(|| PROBE_TIMEOUT.mul_f64(HEDGE_COLD_FRACTION));
        delay.max(HEDGE_MIN_DELAY).min(PROBE_TIMEOUT)
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
        let Some(plan) = self.view.hedge_candidate(self.me, stage, original) else {
            return HedgeState::default();
        };
        let delay = self.hedge_delay(original);
        let timer = ctx.timer_after_then(delay, "qhedge", local_id);
        HedgeState {
            plan: Some(plan),
            timer: Some(timer),
            ..HedgeState::default()
        }
    }

    /// Ask `to` for `req`'s activity, in `req`'s class, on behalf of
    /// pending query `local_id`.
    fn send_probe(ctx: &mut Ctx<'_>, to: ActorId, scope: QueryScope, req: &Request, local_id: u64) {
        ctx.send(
            to,
            NodeMsg::QueryDeployments {
                activity: Arc::clone(&req.activity),
                req_id: local_id,
                reply_to: ctx.self_id,
                scope,
                class: req.class,
            },
        );
    }

    /// A hedge timer fired: the original target is past its learned
    /// quantile, so fire one extra probe to the planned alternate. The
    /// original stays authoritative — the stage still concludes the
    /// moment it answers; the hedge can only accelerate conclusion with a
    /// useful (non-empty) answer of its own.
    fn fire_hedge(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let Some(p) = self.ladder.pending.get_mut(&local_id) else {
            return; // stage concluded; the tombstoned timer raced us
        };
        p.hedge.timer = None;
        let Some((target, scope)) = p.hedge.plan else {
            return;
        };
        let activity = Arc::clone(&p.req.activity);
        p.hedge.target = Some(target);
        p.hedge.sent = Some(ctx.now());
        Self::send_probe(ctx, target, scope, &p.req, local_id);
        self.tele.count(ctx, "glare_hedges_fired_total", 1);
        ctx.emit_event_with("query.hedged", "node", || {
            [("activity", FieldValue::from(activity)), ("target", target.to_string().into())]
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
        let local_id = self.ladder.next_req;
        self.ladder.next_req += 1;
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
            Self::send_probe(ctx, t, scope, &req, local_id);
        }
        let nothing_to_probe = targets.is_empty();
        self.ladder.pending.insert(
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
            match self.ladder.pending.get(&local_id) {
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
        let labels = self.tele.labels(ctx.self_site);
        // Silence past the deadline counts as a failed call per peer.
        for &t in &unanswered {
            if self.ladder.breakers.breaker(t).record_failure(now) {
                let opened = labels.site_and("to", "open");
                ctx.metrics()
                    .counter_labeled("glare_breaker_transitions_total", &opened)
                    .inc();
                ctx.emit_event_with("breaker.open", "node", || [("remote", t.to_string())]);
            }
        }
        let next = attempt + 1;
        if !retry.may_attempt(next, now.saturating_since(started)) {
            if let Some(p) = self.ladder.pending.get_mut(&local_id) {
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
                ("op", FieldValue::from("query")),
                ("attempt", u64::from(next).into()),
                ("backoff_ms", delay.as_millis_f64().into()),
            ]
        });
        ctx.timer_after_then(delay, "qback", local_id);
        if let Some(p) = self.ladder.pending.get_mut(&local_id) {
            p.attempt = next;
            p.prev_backoff = delay;
        }
    }

    /// Backoff elapsed: re-probe the peers that are still silent, skipping
    /// any behind an open breaker. A new deadline covers the re-probe.
    fn retry_probe(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let now = ctx.now();
        let Some(p) = self.ladder.pending.get(&local_id) else {
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
        resend.retain(|&(t, _)| self.ladder.breakers.breaker(t).allow(now));
        let shorted = (silent - resend.len()) as u64;
        if shorted > 0 {
            self.tele.count(ctx, "glare_breaker_short_circuits_total", shorted);
        }
        let Some(p) = self.ladder.pending.get_mut(&local_id) else {
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
            Self::send_probe(ctx, t, scope, &p.req, local_id);
        }
    }

    /// Final miss of the ladder. When a probe stage ran out of road
    /// (budget exhausted or breakers open) the two-level cache is
    /// consulted once more with freshness checks off: a stale answer
    /// marked degraded beats an error while a site recovers.
    fn reply_miss(&mut self, ctx: &mut Ctx<'_>, p: PendingQuery) {
        if p.probes_failed && self.cfg.use_cache {
            let now = ctx.now();
            let closure = self.atr.concrete_closure(&p.req.activity);
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
                self.tele.count(ctx, "glare_degraded_reads_total", 1);
                ctx.emit_event_with("query.degraded", "node", || {
                    [
                        ("activity", FieldValue::from(Arc::clone(&p.req.activity))),
                        ("age_ms", max_age.as_millis_f64().into()),
                    ]
                });
                ctx.span_attr(p.req.span, "degraded", "1");
                self.reply(ctx, p.req, stale, "degraded");
                return;
            }
        }
        self.reply(ctx, p.req, Vec::new(), "miss");
    }

    /// This node's subtree missed at `from_level`: climb toward the root.
    /// At each tier above, either hand the query to the parent super-peer
    /// (`TreeUp`) or — when this node *is* that parent — probe the tier's
    /// member subtrees directly. A miss at the top tier forwards sideways
    /// to the other top super-peers, terminally; on a one-tier plan that
    /// is the whole climb.
    fn escalate_tree(&mut self, ctx: &mut Ctx<'_>, p: PendingQuery, from_level: u8) {
        let top = self.view.tree_tiers;
        let mut lvl = from_level;
        while lvl < top {
            lvl += 1;
            let Some(tp) = self.view.parent_at(lvl) else {
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
        let across: Vec<(ActorId, QueryScope)> = self
            .view
            .fellows()
            .iter()
            .map(|&id| (id, QueryScope::Subtree { level: top }))
            .collect();
        if across.is_empty() {
            self.reply_miss(ctx, p);
        } else {
            self.begin_stage(ctx, p.req, p.probes_failed, across, Stage::TreeForward);
        }
    }

    /// Cache what a resolution found (§3.3: the super-peer "caches the
    /// results"; §3.1: remote resources optionally cached).
    fn cache_results(&mut self, found: &[Arc<ActivityDeployment>], now: SimTime) {
        if !self.cfg.use_cache {
            return;
        }
        for d in found {
            let epr = d.epr(&self.adr.address, now);
            self.cache.put_deployment(Arc::clone(d), &d.site, epr, now);
        }
    }

    fn conclude_stage(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let Some(p) = self.ladder.pending.remove(&local_id) else {
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
            self.tele.count(ctx, family, 1);
        }
        if !p.collected.is_empty() {
            self.cache_results(&p.collected, ctx.now());
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
                match self.view.remote_super_peer(self.me) {
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

    /// A request's CPU stage completed: resolve it, or start the ladder.
    pub(super) fn handle_query(&mut self, ctx: &mut Ctx<'_>, req: Request) {
        let now = ctx.now();
        // Cache fast path: answers without the registry resolution stage.
        let cached = self.resolve_cache(ctx, &req.activity, now);
        if !cached.is_empty() {
            let m = ctx.metrics();
            let id = *self
                .tele
                .cache_answers_id
                .get_or_insert_with(|| m.counter_id("glare.cache_answers"));
            m.counter_at(id).inc();
            self.reply(ctx, req, cached, "cache");
            return;
        }
        let local = self.resolve_local(&req.activity, now);
        if !local.is_empty() {
            let local: Vec<Arc<ActivityDeployment>> = local.into_iter().map(Arc::new).collect();
            // Registry resolution costs an extra CPU stage; its result is
            // cached for subsequent requests.
            self.cache_results(&local, now);
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
            QueryScope::Full => (self.view.tree_probe_targets(self.me, 1), Stage::PeerProbe),
            // Cover this node's subtree as a level-`level` super-peer. A
            // `TreeUp` miss then climbs further; a `Subtree` miss is
            // terminal.
            QueryScope::Subtree { level } | QueryScope::TreeUp { level } => {
                (self.view.tree_probe_targets(self.me, level), Stage::TreeProbe(level))
            }
        };
        self.begin_stage(ctx, req, false, targets, stage);
    }
}
