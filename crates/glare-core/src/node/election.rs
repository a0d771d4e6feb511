//! Super-peer election (§3.3): the coordinator's rounds ([`Coordinator`])
//! and how a node takes the place a round — or a takeover — gives it.
//! This is the only file that writes the overlay view.

use std::collections::HashMap;

use glare_fabric::{ActorId, Ctx, SimDuration, SpanKind};

use super::msg::{NodeConfig, NodeMsg};
use super::view::Membership;
use super::{GlareNode, Loop};
use crate::superpeer::{plan_tree, Group, Role, TreeParent};

/// Election state: which coordinator this node answers, and — on the node
/// holding the community index — the acks of the open round.
#[derive(Default)]
pub(super) struct Coordinator {
    preferred_coordinator: Option<(ActorId, u32)>,
    election_acks: Vec<(ActorId, u64)>,
}

/// Coordinator: send every node of `roster` an election notice.
pub(super) fn broadcast_notice(ctx: &mut Ctx<'_>, roster: &[(ActorId, u64)], second: bool) {
    let size = roster.len() as u32;
    for &(id, _) in roster {
        ctx.send(
            id,
            NodeMsg::ElectionNotice {
                coordinator: ctx.self_id,
                second,
                community_size: size,
            },
        );
    }
}

impl Coordinator {
    /// A coordinator's notice arrived: settle which coordinator this node
    /// prefers and, on the second notice of that one, ack with `rank`.
    pub(super) fn on_notice(
        &mut self,
        ctx: &mut Ctx<'_>,
        rank: u64,
        coordinator: ActorId,
        second: bool,
        community_size: u32,
    ) {
        // Prefer the smaller community under contention (§3.3).
        let preferred = match self.preferred_coordinator {
            Some((id, size)) => {
                if community_size < size || (community_size == size && coordinator < id) {
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
            ctx.send(coordinator, NodeMsg::ElectionAck { rank });
        }
    }

    /// Coordinator: `from` acked the open round with its rank.
    pub(super) fn on_ack(&mut self, from: ActorId, rank: u64) {
        if !self.election_acks.iter().any(|(id, _)| *id == from) {
            self.election_acks.push((from, rank));
        }
    }

    /// Coordinator: close the round — plan the tree over the responders
    /// and send every node of every leaf group its appointment.
    fn close(&mut self, ctx: &mut Ctx<'_>, cfg: &NodeConfig) {
        let branching = cfg.tree_branching.unwrap_or(cfg.max_group_size);
        let plan = plan_tree(&self.election_acks, cfg.max_group_size, branching, cfg.tree_depth);
        let leaf: &[Group] = plan.levels.first().map(Vec::as_slice).unwrap_or(&[]);
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
                        siblings.insert(m, g.all().into_iter().filter(|&s| s != m).collect());
                    }
                }
            }
        }
        for g in leaf {
            // The leaf super-peer's fellows one tier up: its level-2
            // group, or — the leaf tier being the top — the top tier
            // itself.
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
    }
}

impl GlareNode {
    /// Coordinator: broadcast the first election notice and arm the
    /// second-notice and close timers.
    ///
    /// The whole round runs inside an `election.round` span; the
    /// second-notice and close timers inherit its context, so one round's
    /// broadcasts, acks and appointments form one trace.
    pub(super) fn start_election(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.election_acks.clear();
        self.tele.count(ctx, "glare_election_rounds_total", 1);
        ctx.emit_event(
            "election.round",
            "node",
            &[("community", &self.roster.len().to_string())],
        );
        let span = ctx.span("election.round", SpanKind::Internal);
        if ctx.trace_enabled() {
            ctx.span_attr(span, "community", &self.roster.len().to_string());
        }
        broadcast_notice(ctx, &self.roster, false);
        ctx.timer_after(SimDuration::from_millis(300), "election-second");
        ctx.timer_after(SimDuration::from_millis(900), "election-close");
        ctx.end_span(span);
    }

    /// Coordinator: close the round and schedule the next one.
    pub(super) fn close_election(&mut self, ctx: &mut Ctx<'_>) {
        self.coord.close(ctx, &self.cfg);
        self.arm(ctx, Loop::ElectionReopen);
    }

    /// The coordinator placed this node under `super_peer`: adopt the view
    /// the appointment describes, start a new liveness term, take or leave
    /// office, and — restarted from the store — rejoin the group.
    pub(super) fn on_appointment(
        &mut self,
        ctx: &mut Ctx<'_>,
        super_peer: ActorId,
        appointed: Membership,
    ) {
        self.view = appointed;
        self.liveness.new_term(ctx.now());
        let won = super_peer == self.me;
        let labels = self.tele.labels(ctx.self_site);
        let outcome = labels.site_and("outcome", if won { "won" } else { "lost" });
        ctx.metrics().counter_labeled("glare_elections_total", &outcome).inc();
        ctx.emit_event(
            if won { "election.won" } else { "election.lost" },
            "node",
            &[
                ("super_peer", &super_peer.to_string()),
                ("group_size", &self.view.group.len().to_string()),
            ],
        );
        if won {
            self.become_super_peer(ctx);
        } else {
            // A demoted super-peer's heartbeat loop dies with the role
            // check in the timer handler.
            self.view.role = Role::Member;
        }
        self.rejoin_group(ctx, won);
    }

    fn become_super_peer(&mut self, ctx: &mut Ctx<'_>) {
        let already = self.view.role == Role::SuperPeer;
        self.view.role = Role::SuperPeer;
        self.view.super_peer = Some(self.me);
        if !already {
            // Arm the heartbeat loop exactly once per office term.
            self.arm(ctx, Loop::Heartbeat);
            ctx.metrics().counter("glare.superpeer_takeovers").inc();
            ctx.with_span("election.takeover", SpanKind::Internal, |_| {});
        }
    }

    /// The group's super-peer `suspect` is gone and this node is its heir:
    /// drop it from the group, take office and tell the members.
    pub(super) fn take_over_from(&mut self, ctx: &mut Ctx<'_>, suspect: ActorId) {
        self.view.group.retain(|&id| id != suspect);
        self.become_super_peer(ctx);
        for &m in &self.view.group {
            if m != self.me {
                ctx.send(m, NodeMsg::Takeover);
            }
        }
    }

    /// `from` announced that it took office. If it is in our group, adopt
    /// it; if we are a super-peer, add it to our fellow super-peers.
    pub(super) fn on_takeover(&mut self, ctx: &mut Ctx<'_>, from: ActorId) {
        if self.view.group.contains(&from) {
            let old = self.view.super_peer.replace(from);
            self.liveness.last_heartbeat = ctx.now();
            if let Some(old) = old {
                self.view.group.retain(|&id| id != old);
            }
            self.rejoin_group(ctx, false);
        } else if self.view.role == Role::SuperPeer
            && !self.view.other_super_peers.contains(&from)
        {
            self.view.other_super_peers.push(from);
        }
    }
}
