//! The overlay as one node sees it ([`Membership`]) and the routing
//! choices that are pure functions of it. Election and takeover write the
//! view; the query ladder, liveness and anti-entropy only read it.

use glare_fabric::ActorId;

use super::ladder::Stage;
use super::msg::QueryScope;
use crate::superpeer::{Role, TreeParent};

/// One node's place in the overlay: its group, its super-peer and, for a
/// super-peer, its placement in the tiers above.
pub(super) struct Membership {
    pub(super) role: Role,
    pub(super) group: Vec<ActorId>,
    pub(super) super_peer: Option<ActorId>,
    pub(super) other_super_peers: Vec<ActorId>,
    /// Higher-level tree placement (empty for members / flat overlays).
    pub(super) tree_parents: Vec<TreeParent>,
    /// Fellow top-tier super-peers (top-tier super-peers only).
    pub(super) tree_others: Vec<ActorId>,
    /// Grouping tiers of the overlay tree (1 = flat two-level).
    pub(super) tree_tiers: u8,
}

impl Membership {
    /// An ungrouped member: the view before the first appointment, and
    /// after amnesia.
    pub(super) fn new() -> Membership {
        Membership {
            role: Role::Member,
            group: Vec::new(),
            super_peer: None,
            other_super_peers: Vec::new(),
            tree_parents: Vec::new(),
            tree_others: Vec::new(),
            tree_tiers: 1,
        }
    }

    /// This node's placement at tree level `level`, if it holds one.
    pub(super) fn parent_at(&self, level: u8) -> Option<&TreeParent> {
        self.tree_parents.iter().find(|t| t.level == level)
    }

    /// The super-peer `me` answers to, when that is another node.
    pub(super) fn remote_super_peer(&self, me: ActorId) -> Option<ActorId> {
        self.super_peer.filter(|&sp| sp != me)
    }

    pub(super) fn group_peers(&self, me: ActorId) -> Vec<ActorId> {
        self.group
            .iter()
            .copied()
            .filter(|&id| id != me && Some(id) != self.super_peer)
            .collect()
    }

    /// The group's members with their ranks, in roster order: what
    /// [`crate::superpeer::highest_ranked`] picks an heir from.
    pub(super) fn ranked_group(&self, roster: &[(ActorId, u64)]) -> Vec<(ActorId, u64)> {
        roster
            .iter()
            .copied()
            .filter(|(id, _)| self.group.contains(id))
            .collect()
    }

    /// Fan-out for a node asked to resolve against its subtree as a
    /// level-`level` super-peer: the members of every tier it leads up to
    /// `level` (each covering its own subtree), plus its leaf peers. At
    /// level 1 — always, on a one-tier plan — that is the leaf peers alone.
    pub(super) fn tree_probe_targets(&self, me: ActorId, level: u8) -> Vec<(ActorId, QueryScope)> {
        let mut out = Vec::new();
        for j in 2..=level {
            let Some(tp) = self.parent_at(j) else {
                continue;
            };
            if tp.super_peer != me {
                // Not the leader at this tier: its members' subtrees are
                // siblings, not descendants.
                continue;
            }
            for &id in &tp.group {
                if id != me {
                    out.push((id, QueryScope::Subtree { level: j - 1 }));
                }
            }
        }
        for id in self.group_peers(me) {
            out.push((id, QueryScope::LocalOnly));
        }
        out
    }

    /// The next-best replica for hedging a single-target read stage, with
    /// the scope its probe must carry. Deterministic — the lowest actor id
    /// among the eligible alternates — so same-seed runs hedge
    /// identically. `None` for stages with no equivalent alternate. Only
    /// query probes are ever hedged: they are idempotent reads, while
    /// deploy/register traffic mutates remote state and a duplicated
    /// write is a correctness bug, not a latency win.
    pub(super) fn hedge_candidate(
        &self,
        me: ActorId,
        stage: Stage,
        original: ActorId,
    ) -> Option<(ActorId, QueryScope)> {
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
                .parent_at(lvl)
                .and_then(|tp| {
                    tp.group
                        .iter()
                        .copied()
                        .filter(|&id| id != me && id != original)
                        .min()
                })
                .map(|id| (id, QueryScope::Subtree { level: lvl - 1 })),
            _ => None,
        }
    }

    /// Whom a miss at the top tier is forwarded across to. When the leaf
    /// tier is the top, every member of a group was told the other leaf
    /// super-peers, so an heir that took office by takeover still forwards;
    /// above it only the appointed top-tier super-peers know their fellows,
    /// and an heir, holding no placement, never gets here.
    pub(super) fn fellows(&self) -> &[ActorId] {
        match self.tree_tiers {
            1 if self.role == Role::SuperPeer => &self.other_super_peers,
            1 => &[],
            _ => &self.tree_others,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: ActorId = ActorId(5);

    fn ids(v: &[u32]) -> Vec<ActorId> {
        v.iter().map(|&i| ActorId(i)).collect()
    }

    fn parent(level: u8, group: &[u32], super_peer: u32) -> TreeParent {
        TreeParent {
            level,
            group: ids(group),
            super_peer: ActorId(super_peer),
        }
    }

    /// Depth 2, plain member of group {1, 5, 6} under super-peer 1, told of
    /// the other leaf super-peers 9 and 8.
    fn member() -> Membership {
        Membership {
            group: ids(&[1, 5, 6]),
            super_peer: Some(ActorId(1)),
            other_super_peers: ids(&[9, 8]),
            ..Membership::new()
        }
    }

    /// Depth 2, the appointed super-peer of that group.
    fn leaf_super_peer() -> Membership {
        Membership {
            role: Role::SuperPeer,
            super_peer: Some(ME),
            group: ids(&[5, 6, 7]),
            ..member()
        }
    }

    /// Depth 3, leaf super-peer 5 in the level-2 group {3, 4, 5} led by 3.
    fn mid_tier() -> Membership {
        Membership {
            other_super_peers: ids(&[3, 4]),
            tree_parents: vec![parent(2, &[3, 4, 5], 3)],
            tree_tiers: 2,
            ..leaf_super_peer()
        }
    }

    /// Depth 3, leaf super-peer 5 leading the level-2 group {4, 5, 3}, with
    /// 11 and 12 leading the other top-tier groups.
    fn top_tier_leader() -> Membership {
        Membership {
            tree_parents: vec![parent(2, &[4, 5, 3], 5)],
            tree_others: ids(&[11, 12]),
            ..mid_tier()
        }
    }

    /// Depth 3, a member that took office by takeover: it knows the
    /// siblings its group was told of and holds no placement.
    fn heir() -> Membership {
        Membership {
            role: Role::SuperPeer,
            super_peer: Some(ME),
            group: ids(&[5, 6]),
            other_super_peers: ids(&[3, 4]),
            tree_tiers: 2,
            ..Membership::new()
        }
    }

    const LOCAL: QueryScope = QueryScope::LocalOnly;
    fn subtree(level: u8) -> QueryScope {
        QueryScope::Subtree { level }
    }

    #[test]
    fn parent_at_finds_the_placement_of_a_level_or_nothing() {
        assert!(member().parent_at(2).is_none() && heir().parent_at(2).is_none());
        assert_eq!(mid_tier().parent_at(2).map(|t| t.super_peer), Some(ActorId(3)));
        assert_eq!(top_tier_leader().parent_at(2).map(|t| t.super_peer), Some(ME));
        let leader = top_tier_leader();
        assert!(leader.parent_at(1).is_none() && leader.parent_at(3).is_none());
    }

    #[test]
    fn tree_probe_targets_cover_the_leaf_peers_and_the_tiers_this_node_leads() {
        let probe = |id: u32, scope| (ActorId(id), scope);
        // A member's first rung: its group minus itself and the super-peer.
        assert_eq!(member().tree_probe_targets(ME, 1), [probe(6, LOCAL)]);
        for view in [leaf_super_peer(), heir()] {
            let peers: Vec<_> = view.group_peers(ME).into_iter().map(|id| (id, LOCAL)).collect();
            assert_eq!(view.tree_probe_targets(ME, 1), peers);
            // A level it holds no placement at adds nothing.
            assert_eq!(view.tree_probe_targets(ME, 2), peers);
        }
        // Not the leader of its level-2 group: siblings are not descendants.
        assert_eq!(mid_tier().tree_probe_targets(ME, 2), [probe(6, LOCAL), probe(7, LOCAL)]);
        // The leader covers the tier's member subtrees, in group order,
        // ahead of its own leaf peers — and only from level 2 up.
        assert_eq!(
            top_tier_leader().tree_probe_targets(ME, 2),
            [probe(4, subtree(1)), probe(3, subtree(1)), probe(6, LOCAL), probe(7, LOCAL)]
        );
        assert_eq!(top_tier_leader().tree_probe_targets(ME, 1), [probe(6, LOCAL), probe(7, LOCAL)]);
    }

    #[test]
    fn hedge_candidate_is_the_lowest_equivalent_alternate() {
        let up = Stage::TreeEscalate;
        // A member hedges its own super-peer with the lowest other leaf
        // super-peer it was told of; at depth 3 those are the siblings.
        assert_eq!(member().hedge_candidate(ME, up(1), ActorId(1)), Some((ActorId(8), subtree(1))));
        assert_eq!(member().hedge_candidate(ME, up(1), ActorId(8)), Some((ActorId(9), subtree(1))));
        assert_eq!(heir().hedge_candidate(ME, up(1), ActorId(1)), Some((ActorId(3), subtree(1))));
        // Higher up: a sibling of the slow parent, never itself, never the
        // original.
        for view in [mid_tier(), top_tier_leader()] {
            assert_eq!(view.hedge_candidate(ME, up(2), ActorId(3)), Some((ActorId(4), subtree(1))));
        }
        // No placement at that level, no alternates, or a fan-out stage.
        assert_eq!(heir().hedge_candidate(ME, up(2), ActorId(3)), None);
        assert_eq!(Membership::new().hedge_candidate(ME, up(1), ActorId(1)), None);
        let fan_outs = [Stage::PeerProbe, Stage::TreeProbe(1), Stage::TreeProbe(2), Stage::TreeForward];
        for stage in fan_outs {
            assert_eq!(top_tier_leader().hedge_candidate(ME, stage, ActorId(3)), None);
        }
    }

    #[test]
    fn fellows_are_the_leaf_super_peers_on_one_tier_and_the_top_tier_above() {
        assert_eq!(member().fellows(), [], "a member forwards nothing across");
        assert_eq!(leaf_super_peer().fellows(), ids(&[9, 8]));
        // An heir on a one-tier plan was told the other leaf super-peers...
        let flat_heir = Membership { tree_tiers: 1, ..heir() };
        assert_eq!(flat_heir.fellows(), ids(&[3, 4]));
        // ...above it only appointed top-tier super-peers know theirs.
        assert_eq!(heir().fellows(), []);
        assert_eq!(mid_tier().fellows(), []);
        assert_eq!(top_tier_leader().fellows(), ids(&[11, 12]));
    }
}
