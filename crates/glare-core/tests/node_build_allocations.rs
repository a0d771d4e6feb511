//! Allocation pins for building one site of the perf ledger's `overlay_10k`
//! workload, which builds 10 000 of them: a `GlareNode` with that
//! workload's `NodeConfig`, then the 8 `example_hierarchy` types registered
//! in its ATR. Most of those sites never hold a deployment, so an ADR that
//! pays for storage before its first write, a resource key stored twice or
//! a second map over the type names would show here as blocks and bytes,
//! ten thousand times over in the workload's peak RSS.
//!
//! The test owns its binary because it installs a counting global allocator
//! (`crates/fabric/tests/support/counting_alloc.rs`, shared with the other
//! allocation pins); the tally is per thread.

use std::sync::Arc;

use glare_core::model::example_hierarchy;
use glare_core::{ActivityDeploymentRegistry, GlareNode, NodeConfig};
use glare_fabric::{ActorId, SimTime};
use glare_services::Transport;

#[path = "../../fabric/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;

const NOW: SimTime = SimTime::ZERO;

/// `(blocks, bytes requested, bytes still held)` while `f` runs, and what
/// it returned. A table that grows frees its old storage, so the bytes it
/// still holds are what the workload's resident set keeps per site.
fn spent<R>(f: impl FnOnce() -> R) -> ((u64, u64, u64), R) {
    let before = tally();
    let out = f();
    let after = tally();
    let (blocks, bytes) = (after.0 - before.0, after.1 - before.1);
    ((blocks, bytes, bytes - (after.2 - before.2)), out)
}

/// `overlay_10k`'s node configuration (`perf/src/workloads/overlay_10k.rs`:
/// groups and tree branching of 100, depth 3, no cache, no re-election).
fn overlay_config(site: &str) -> NodeConfig {
    let mut cfg = NodeConfig::new(site, 42);
    cfg.max_group_size = 100;
    cfg.tree_branching = Some(100);
    cfg.tree_depth = 3;
    cfg.use_cache = false;
    cfg.election_interval = None;
    cfg
}

/// An ADR that was never written holds no storage, and reading it takes
/// none: the lookups of the 99 in 100 `overlay_10k` sites that host
/// nothing. Before the resource home allocated its shards at the first
/// insert, `new` took 1 block of 1 024 bytes for them.
#[test]
fn an_empty_adr_allocates_nothing() {
    let address = String::from("https://site1234:8084/wsrf/services/ActivityDeploymentRegistry");
    let (new, adr) = spent(|| ActivityDeploymentRegistry::new(address, Transport::Http));
    assert_eq!(
        new,
        (0, 0, 0),
        "an ADR's home takes nothing before its first write"
    );

    let (reads, (listed, found, len)) = spent(|| {
        (
            adr.deployments_of("JPOVray", NOW).value.len(),
            adr.lookup("site1234/JPOVray", NOW).is_some(),
            adr.len(NOW),
        )
    });
    assert_eq!((listed, found, len), (0, false, 0));
    assert_eq!(
        reads.0, 0,
        "blocks of deployments_of, lookup and len on an empty ADR"
    );
}

/// One `overlay_10k` site as the workload builds it. `GlareNode::new` takes
/// the two registry addresses; the first registration allocates the ATR's
/// shard array. While both homes allocated their shards up front, each
/// resource stored its key a second time and the type hierarchy kept a
/// second map over the type names, `new` took (4, 2 166, 2 166) and the
/// 8 registrations (71, 8 748, 4 789); while each resource also kept a
/// creation instant that nothing read, the registrations took
/// (53, 8 260, 4 633); while it also kept a scheduled termination time that
/// only tests ever set, (53, 8 036, 4 409).
#[test]
fn an_overlay_10k_node_build_allocates_what_is_pinned() {
    let cfg = overlay_config("site1234");
    let roster = Arc::new(vec![(ActorId(0), 7), (ActorId(1), 42)]);
    let types = example_hierarchy(NOW);
    assert_eq!(types.len(), 8);

    let (new, node) = spent(|| GlareNode::new(cfg, ActorId(1), roster));
    let (register, ()) = spent(|| {
        for t in types {
            node.atr.register(t, NOW).expect("example type registers");
        }
    });
    assert_eq!(node.atr.len(NOW), 8);
    assert_eq!(
        new,
        (2, 118, 118),
        "(blocks, bytes, held) of GlareNode::new"
    );
    assert_eq!(
        register,
        (53, 7_588, 3_961),
        "(blocks, bytes, held) of registering the 8 types"
    );
}
