//! Super-peer overlay: ranking, group formation and majority tallies.
//!
//! "Based on this model, some members (called super-peers) of smaller
//! groups of Grid sites form a super group" (§3). Ranking uses the
//! hashcode over static site attributes (§3.3); the election coordinator
//! partitions responders into groups of roughly equal size, one super-peer
//! each ("Depending on the number of Grid sites, more than one sites can
//! also be elected as super-peers and other members are then equally
//! distributed among the elected super-peers"). Re-election confirms a
//! dead super-peer with "an acknowledgement from a simple majority".
//!
//! The message-driven protocol lives in [`crate::node`]; this module holds
//! the pure, independently-testable pieces.

use std::collections::HashSet;

use glare_fabric::ActorId;

/// Role of a node in the overlay.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Role {
    /// Ordinary group member.
    #[default]
    Member,
    /// Elected super-peer of its group.
    SuperPeer,
}

/// One group: a super-peer plus its members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The elected super-peer.
    pub super_peer: ActorId,
    /// Ordinary members (excludes the super-peer).
    pub members: Vec<ActorId>,
}

impl Group {
    /// Every node in the group, super-peer first.
    pub fn all(&self) -> Vec<ActorId> {
        let mut v = vec![self.super_peer];
        v.extend(&self.members);
        v
    }
}

/// Partition ranked responders into groups.
///
/// The highest-ranked ⌈n / max_group_size⌉ responders become super-peers;
/// remaining members are distributed round-robin so group sizes differ by
/// at most one. Deterministic given the input.
pub(crate) fn partition_groups(responders: &[(ActorId, u64)], max_group_size: usize) -> Vec<Group> {
    assert!(max_group_size >= 2, "groups need a super-peer and a member slot");
    if responders.is_empty() {
        return Vec::new();
    }
    let mut ranked: Vec<(ActorId, u64)> = responders.to_vec();
    // Highest rank first; actor id breaks exact ties deterministically.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let n = ranked.len();
    let k = n.div_ceil(max_group_size);
    let mut groups: Vec<Group> = ranked
        .iter()
        .take(k)
        .map(|&(id, _)| Group {
            super_peer: id,
            members: Vec::new(),
        })
        .collect();
    for (i, &(id, _)) in ranked.iter().skip(k).enumerate() {
        groups[i % k].members.push(id);
    }
    groups
}

/// Pick the highest-ranked node from a set (re-election's "immediately
/// calculates the ranks of all member sites, excluding the missing
/// super-peer and notifies the highest ranked member").
pub(crate) fn highest_ranked(candidates: &[(ActorId, u64)], exclude: ActorId) -> Option<ActorId> {
    candidates
        .iter()
        .filter(|(id, _)| *id != exclude)
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|&(id, _)| id)
}

/// One node's membership in a group *above* the leaf level of the
/// super-peer tree: the level (2 = groups of leaf super-peers), the full
/// group roster and that group's elected super-peer.
///
/// Leaf placement stays in the `Appointment`'s `group`/`super_peer`
/// fields; a plain member carries no `TreeParent`s at all, which is what
/// keeps the `depth = 2` overlay byte-identical to the pre-tree protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeParent {
    /// Tree level of this group (2-based; leaf groups are level 1).
    pub level: u8,
    /// Every node of the group, super-peer included.
    pub group: Vec<ActorId>,
    /// The group's elected super-peer.
    pub super_peer: ActorId,
}

/// A planned multi-level super-peer tree.
///
/// `levels[0]` holds the leaf groups (level 1, identical to what
/// `partition_groups` produces), `levels[1]` groups the leaf
/// super-peers, and so on. The super-peers of the last level form the
/// (flat, fully connected) top tier; when the population shrinks to a
/// single super-peer before the depth budget is exhausted, that node is
/// the unique tree root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreePlan {
    /// Groups per level, leaf level first.
    pub levels: Vec<Vec<Group>>,
}

impl TreePlan {
    /// Number of grouping tiers actually realized (1 = flat two-level
    /// overlay — today's paper protocol).
    pub(crate) fn tiers(&self) -> u8 {
        self.levels.len() as u8
    }

    /// Super-peers of the topmost level (the flat top tier; a single
    /// entry when the tree converged to one root).
    pub(crate) fn top_super_peers(&self) -> Vec<ActorId> {
        self.levels
            .last()
            .map(|gs| gs.iter().map(|g| g.super_peer).collect())
            .unwrap_or_default()
    }
}

/// Plan a multi-level super-peer tree over ranked responders.
///
/// The leaf level is exactly `partition_groups` with `max_group_size`;
/// every higher level re-partitions the previous level's super-peers with
/// `branching` until either `depth - 1` tiers exist or a single
/// super-peer remains (the root). `depth = 2` therefore degenerates to
/// the flat single-tier plan the paper describes. Deterministic given the
/// input.
pub fn plan_tree(
    responders: &[(ActorId, u64)],
    max_group_size: usize,
    branching: usize,
    depth: usize,
) -> TreePlan {
    let tiers = depth.saturating_sub(1).max(1);
    let mut levels: Vec<Vec<Group>> = Vec::new();
    let rank_of: std::collections::HashMap<ActorId, u64> = responders.iter().copied().collect();
    let mut pop: Vec<(ActorId, u64)> = responders.to_vec();
    for tier in 0..tiers {
        if pop.is_empty() {
            break;
        }
        let size = if tier == 0 { max_group_size } else { branching };
        let groups = partition_groups(&pop, size);
        pop = groups
            .iter()
            .map(|g| (g.super_peer, rank_of.get(&g.super_peer).copied().unwrap_or(0)))
            .collect();
        levels.push(groups);
        if pop.len() <= 1 {
            break;
        }
    }
    TreePlan { levels }
}

/// A simple-majority acknowledgement tally.
#[derive(Clone, Debug)]
pub struct MajorityTally {
    voters: usize,
    agreed: HashSet<ActorId>,
}

impl MajorityTally {
    /// New tally over `voters` eligible voters.
    pub(crate) fn new(voters: usize) -> Self {
        MajorityTally {
            voters,
            agreed: HashSet::new(),
        }
    }

    /// Record an agreement. Returns `true` once (and as long as) a simple
    /// majority has agreed.
    pub(crate) fn agree(&mut self, from: ActorId) -> bool {
        self.agreed.insert(from);
        self.has_majority()
    }

    /// Whether a simple majority (> half) has agreed.
    pub(crate) fn has_majority(&self) -> bool {
        self.agreed.len() * 2 > self.voters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[(u32, u64)]) -> Vec<(ActorId, u64)> {
        v.iter().map(|&(i, r)| (ActorId(i), r)).collect()
    }

    #[test]
    fn single_group_when_small() {
        let groups = partition_groups(&ids(&[(0, 5), (1, 9), (2, 3)]), 10);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].super_peer, ActorId(1), "highest rank wins");
        assert_eq!(groups[0].members.len(), 2);
        assert_eq!(groups[0].all().len(), 3);
    }

    #[test]
    fn multiple_groups_even_distribution() {
        let responders = ids(&[(0, 10), (1, 20), (2, 30), (3, 40), (4, 50), (5, 60), (6, 70)]);
        let groups = partition_groups(&responders, 3);
        // ceil(7/3) = 3 groups; 3 SPs (ranks 70, 60, 50), 4 members spread.
        assert_eq!(groups.len(), 3);
        let sps: Vec<ActorId> = groups.iter().map(|g| g.super_peer).collect();
        assert_eq!(sps, vec![ActorId(6), ActorId(5), ActorId(4)]);
        let sizes: Vec<usize> = groups.iter().map(|g| g.all().len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert!(sizes.iter().all(|&s| (2..=3).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn deterministic_under_rank_ties() {
        let a = partition_groups(&ids(&[(0, 5), (1, 5), (2, 5)]), 2);
        let b = partition_groups(&ids(&[(2, 5), (0, 5), (1, 5)]), 2);
        assert_eq!(a, b, "input order must not matter");
        assert_eq!(a[0].super_peer, ActorId(0), "ties broken by id");
    }

    #[test]
    fn empty_input() {
        assert!(partition_groups(&[], 4).is_empty());
    }

    #[test]
    fn highest_ranked_excludes_suspect() {
        let c = ids(&[(0, 10), (1, 99), (2, 50)]);
        assert_eq!(highest_ranked(&c, ActorId(1)), Some(ActorId(2)));
        assert_eq!(highest_ranked(&c, ActorId(9)), Some(ActorId(1)));
        assert_eq!(highest_ranked(&ids(&[(3, 1)]), ActorId(3)), None);
    }

    #[test]
    fn plan_tree_depth_two_is_flat_partition() {
        let responders = ids(&[(0, 10), (1, 20), (2, 30), (3, 40), (4, 50), (5, 60), (6, 70)]);
        let plan = plan_tree(&responders, 3, 3, 2);
        assert_eq!(plan.tiers(), 1);
        assert_eq!(plan.levels[0], partition_groups(&responders, 3));
        assert_eq!(
            plan.top_super_peers(),
            vec![ActorId(6), ActorId(5), ActorId(4)]
        );
    }

    #[test]
    fn plan_tree_depth_three_builds_groups_of_groups() {
        // 12 responders, leaf groups of 3 -> 4 leaf super-peers; branching
        // 4 folds them into a single level-2 group with one root.
        let responders: Vec<(ActorId, u64)> =
            (0..12u32).map(|i| (ActorId(i), 100 + i as u64)).collect();
        let plan = plan_tree(&responders, 3, 4, 3);
        assert_eq!(plan.tiers(), 2);
        assert_eq!(plan.levels[0].len(), 4);
        assert_eq!(plan.levels[1].len(), 1);
        let leaf_sps: Vec<ActorId> = plan.levels[0].iter().map(|g| g.super_peer).collect();
        let mut l2_all = plan.levels[1][0].all();
        l2_all.sort_unstable();
        let mut sps_sorted = leaf_sps.clone();
        sps_sorted.sort_unstable();
        assert_eq!(l2_all, sps_sorted, "level 2 regroups exactly the leaf SPs");
        assert_eq!(plan.top_super_peers().len(), 1, "single root");
        assert_eq!(plan.top_super_peers()[0], ActorId(11), "highest rank roots");
    }

    #[test]
    fn plan_tree_stops_early_at_single_super_peer() {
        // A population that collapses to one super-peer after the leaf
        // tier never grows useless upper tiers, whatever the depth.
        let responders = ids(&[(0, 5), (1, 9), (2, 3)]);
        let plan = plan_tree(&responders, 10, 4, 5);
        assert_eq!(plan.tiers(), 1);
        assert_eq!(plan.top_super_peers(), vec![ActorId(1)]);
    }

    #[test]
    fn plan_tree_deterministic() {
        let a: Vec<(ActorId, u64)> = (0..50u32).map(|i| (ActorId(i), (i as u64 * 37) % 41)).collect();
        let mut b = a.clone();
        b.reverse();
        assert_eq!(plan_tree(&a, 4, 4, 4), plan_tree(&b, 4, 4, 4));
    }

    #[test]
    fn majority_tally() {
        let mut t = MajorityTally::new(5);
        assert!(!t.agree(ActorId(0)));
        assert!(!t.agree(ActorId(1)));
        assert!(t.agree(ActorId(2)), "3 of 5 is a simple majority");
        assert_eq!(t.agreed.len(), 3);
        // Duplicate votes don't double-count.
        let mut t = MajorityTally::new(4);
        t.agree(ActorId(0));
        t.agree(ActorId(0));
        assert!(!t.has_majority());
        t.agree(ActorId(1));
        assert!(!t.has_majority(), "2 of 4 is not a majority");
        assert!(t.agree(ActorId(2)));
    }
}
