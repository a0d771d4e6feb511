//! Super-peer failure detection (§3.3): heartbeats, silence and adaptive
//! suspicion, majority-acknowledged verification ([`Liveness`]). On a
//! confirmed failure the heir takes office through `election`.

use glare_fabric::{ActorId, Ctx, SimDuration, SimTime};

use super::msg::{NodeConfig, NodeMsg, HEARTBEAT_INTERVAL, HEARTBEAT_TIMEOUT};
use super::{GlareNode, Loop};
use crate::superpeer::{highest_ranked, MajorityTally, Role};
use crate::suspicion::SuspicionTracker;

/// What a node knows about its super-peer's health.
pub(super) struct Liveness {
    pub(super) last_heartbeat: SimTime,
    /// Per-peer heartbeat inter-arrival estimator (inert unless
    /// `cfg.suspicion` is enabled); derives the takeover threshold.
    hb: SuspicionTracker<ActorId>,
    /// The verification round this node opened: the suspect and the
    /// members that confirmed it missing.
    tally: Option<(ActorId, MajorityTally)>,
    verification_sent: bool,
}

impl Liveness {
    pub(super) fn new(cfg: &NodeConfig) -> Liveness {
        Liveness {
            last_heartbeat: SimTime::ZERO,
            hb: SuspicionTracker::new(cfg.suspicion),
            tally: None,
            verification_sent: false,
        }
    }

    /// A new super-peer term starts at `now`: the silence clock restarts
    /// and any verification of the previous holder is void. What the
    /// estimator learned stays.
    pub(super) fn new_term(&mut self, now: SimTime) {
        self.last_heartbeat = now;
        self.verification_sent = false;
        self.tally = None;
    }

    /// How often the super-peer liveness check runs: with adaptive
    /// suspicion on, every heartbeat period (fine-grained silence
    /// tracking); otherwise the legacy cadence of one full timeout.
    pub(super) fn hb_check_period(&self) -> SimDuration {
        if self.hb.is_enabled() {
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
        if !self.hb.is_enabled() {
            return HEARTBEAT_TIMEOUT;
        }
        self.hb
            .silence_threshold(peer, HEARTBEAT_INTERVAL * 2, HEARTBEAT_TIMEOUT)
    }

    /// Whether `peer` has been silent past its takeover threshold at `now`.
    fn finds_missing(&self, peer: ActorId, now: SimTime) -> bool {
        now.saturating_since(self.last_heartbeat) >= self.takeover_threshold(peer)
    }
}

impl GlareNode {
    /// Current suspicion level of the node's super-peer given its
    /// heartbeat silence at `now` — zero when suspicion is disabled, the
    /// estimator is cold, or the node has no (remote) super-peer.
    pub fn super_peer_suspicion(&self, now: SimTime) -> f64 {
        let silence = now.saturating_since(self.liveness.last_heartbeat);
        match self.view.remote_super_peer(self.me) {
            Some(sp) => self.liveness.hb.suspicion(sp, silence),
            None => 0.0,
        }
    }

    /// A heartbeat arrived; it counts when it is our super-peer's.
    pub(super) fn on_heartbeat(&mut self, ctx: &mut Ctx<'_>, from: ActorId) {
        if Some(from) == self.view.super_peer {
            let now = ctx.now();
            // Feed the inter-arrival estimator (no-op when suspicion is
            // disabled): heartbeats from a slow but alive super-peer keep
            // arriving, so gray slowness raises probe suspicion without
            // any takeover.
            let gap = now.saturating_since(self.liveness.last_heartbeat);
            self.liveness.hb.observe(from, gap);
            self.liveness.last_heartbeat = now;
        }
    }

    /// Super-peer: beat to every member, while in office.
    pub(super) fn beat(&mut self, ctx: &mut Ctx<'_>) {
        for &m in &self.view.group {
            if m != self.me {
                ctx.send(m, NodeMsg::Heartbeat);
            }
        }
        self.arm(ctx, Loop::Heartbeat);
    }

    /// Member: check the super-peer's silence against its threshold.
    pub(super) fn check_super_peer(&mut self, ctx: &mut Ctx<'_>) {
        if self.view.role == Role::Member {
            if let Some(sp) = self.view.remote_super_peer(self.me) {
                let now = ctx.now();
                if self.cfg.suspicion.enabled {
                    // Export the current suspicion level (0 while
                    // healthy or cold) as a windowed gauge.
                    let level = self.super_peer_suspicion(now);
                    let labels = self.tele.labels(ctx.self_site);
                    ctx.metrics()
                        .gauge("glare_suspicion_level", &labels.site)
                        .set(now, level);
                }
                if self.liveness.finds_missing(sp, now) {
                    self.suspect_super_peer(ctx);
                }
            }
        }
        self.arm(ctx, Loop::HbCheck);
    }

    fn suspect_super_peer(&mut self, ctx: &mut Ctx<'_>) {
        let Some(sp) = self.view.remote_super_peer(self.me) else {
            return;
        };
        self.tele.count(ctx, "glare_failures_suspected_total", 1);
        ctx.emit_event("failure.suspected", "node", &[("suspect", &sp.to_string())]);
        if self.cfg.naive_takeover {
            // Ablation: no verification, no majority — just grab office.
            // Under a partial partition this splits the brain.
            self.record_failure_confirmed(ctx, sp, "naive");
            self.take_over_from(ctx, sp);
            return;
        }
        // Rank the group, excluding the suspect.
        let Some(highest) = highest_ranked(&self.view.ranked_group(&self.roster), sp) else {
            return;
        };
        if highest == self.me {
            self.begin_verification(ctx, sp);
        } else {
            ctx.send(highest, NodeMsg::SuspectNotice { suspect: sp });
        }
    }

    /// A member reported `suspect` silent to us, its highest-ranked peer.
    pub(super) fn on_suspect_notice(&mut self, ctx: &mut Ctx<'_>, suspect: ActorId) {
        if Some(suspect) == self.view.super_peer {
            self.begin_verification(ctx, suspect);
        }
    }

    fn begin_verification(&mut self, ctx: &mut Ctx<'_>, suspect: ActorId) {
        if self.liveness.verification_sent {
            return;
        }
        // (a) verify the super-peer is missing from our own vantage
        // (adaptive threshold when suspicion is enabled and warm).
        if !self.liveness.finds_missing(suspect, ctx.now()) {
            return;
        }
        // (b) verify own rank.
        if highest_ranked(&self.view.ranked_group(&self.roster), suspect) != Some(self.me) {
            return;
        }
        // (c) ask every other member to verify.
        self.liveness.verification_sent = true;
        let voters = self.view.group.iter().filter(|&&id| id != suspect).count();
        let mut tally = MajorityTally::new(voters);
        tally.agree(self.me); // our own verdict
        self.liveness.tally = Some((suspect, tally));
        for &m in &self.view.group {
            if m != self.me && m != suspect {
                ctx.send(m, NodeMsg::VerifyRequest { suspect });
            }
        }
        self.maybe_takeover(ctx);
    }

    /// The heir asked for our verdict on `suspect`.
    pub(super) fn on_verify_request(&mut self, ctx: &mut Ctx<'_>, from: ActorId, suspect: ActorId) {
        let missing = Some(suspect) == self.view.super_peer
            && self.liveness.finds_missing(suspect, ctx.now());
        ctx.send(from, NodeMsg::VerifyAck { suspect, missing });
    }

    /// A member's verdict on `suspect` arrived.
    pub(super) fn on_verify_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ActorId,
        suspect: ActorId,
        missing: bool,
    ) {
        if missing {
            if let Some((s, tally)) = &mut self.liveness.tally {
                if *s == suspect {
                    tally.agree(from);
                }
            }
            self.maybe_takeover(ctx);
        }
    }

    /// Publish a confirmed super-peer failure: the detection latency
    /// (silence since the last heartbeat of the dead super-peer) into
    /// `glare_failure_detection_ms{site}` and a `failure.confirmed` event.
    fn record_failure_confirmed(&mut self, ctx: &mut Ctx<'_>, suspect: ActorId, method: &str) {
        let latency = ctx.now().saturating_since(self.liveness.last_heartbeat);
        let labels = self.tele.labels(ctx.self_site);
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
        let Some((suspect, tally)) = &self.liveness.tally else {
            return;
        };
        if !tally.has_majority() {
            return;
        }
        let suspect = *suspect;
        self.liveness.tally = None;
        self.liveness.verification_sent = false;
        self.record_failure_confirmed(ctx, suspect, "majority");
        // The dead peer's latency history is moot; a later incarnation
        // starts cold.
        self.liveness.hb.forget(suspect);
        self.ladder.rtt.forget(suspect);
        self.take_over_from(ctx, suspect);
        for &sp in &self.view.other_super_peers {
            ctx.send(sp, NodeMsg::Takeover);
        }
    }
}
