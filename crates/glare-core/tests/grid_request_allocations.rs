//! Allocation pins for the synchronous substrate: what a request against a
//! durable 8-site [`Grid`] (the `provision_storm` shape) takes from the
//! allocator. `probe_visit_allocations.rs` pins a request on the node the
//! same way. A span name or attribute copied where a literal would do, a
//! whole `ActivityType` cloned to keep its name, a catalogue rebuilt for
//! one lookup or a repository cloned for one transfer would show here as
//! blocks.
//!
//! One test, in order, because the first `Grid::new` of the process builds
//! the shared catalogue and the pins that follow are taken after it. The
//! test owns its binary because it installs a counting global allocator
//! (`crates/fabric/tests/support/counting_alloc.rs`, shared with the other
//! allocation pins); the tally is per thread.

use glare_core::model::example_hierarchy;
use glare_core::rdm::request_manager::DiscoverySource;
use glare_core::{provision, Grid, ProvisionRequest, RequestManager};
use glare_fabric::SimTime;
use glare_services::{ChannelKind, Transport};

#[path = "../../fabric/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;

/// `(allocations, bytes requested)` while `f` runs, and what it returned.
fn spent<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = tally();
    let out = f();
    let after = tally();
    ((after.0 - before.0, after.1 - before.1), out)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn request(activity: &str, from_site: usize) -> ProvisionRequest {
    ProvisionRequest {
        activity: activity.to_owned(),
        client: "meta-scheduler".to_owned(),
        channel: ChannelKind::Expect,
        from_site,
        preferred_site: None,
    }
}

/// Before the borrowing read paths (PR 23) the same measurements read 44
/// blocks / 4 671 bytes for the cache hit and 965 blocks for the Wien2k
/// provision, and every `Grid::new` rebuilt the catalogue (764 blocks each).
/// The provision read 730 blocks before XML element names and attribute
/// keys were borrowed and ATR entries shared. Before install plans were
/// shared, step directories entered as paths and cached deployments shared,
/// the cache hit read 19 blocks / 1 777 bytes, the provision 726 blocks and
/// a second `Grid::new` 610. Before event records kept typed fields and the
/// journal wrote its tokens, checksums and payloads in place, the provision
/// read 459 blocks; before a site's name and registry addresses moved into
/// it and its label set was built from its shared event name, a second
/// `Grid::new` read 354. Before a resource home allocated its shards at its
/// first insert and stopped storing each key twice, the provision read 417
/// blocks and a second `Grid::new` 339; before an install report stopped
/// listing the keys it registered (which no caller read), 414. Before each
/// site kept its own label set, event name and store (every `Grid` is
/// durable), a second `Grid::new` read 323. Before a registration was
/// encoded for the journal ahead of its write, instead of cloned to be
/// journaled after it, the provision read 410; before the install read its
/// type's installation spec in place instead of cloning it (its deploy-file
/// URL and package name), 395; before the shell stopped expanding an already
/// planned command line a second time (one `String` per shell step), 393.
#[test]
fn a_cache_hit_a_provision_and_a_second_grid_allocate_what_is_pinned() {
    let ((first_grid, _), mut grid) = spent(|| Grid::new(8, Transport::Http));
    let ((second_grid, _), _) = spent(|| Grid::new(8, Transport::Http));
    assert!(
        second_grid < first_grid,
        "the catalogue is built once: {second_grid} blocks for a second Grid, {first_grid} for the first"
    );

    for ty in example_hierarchy(SimTime::ZERO) {
        grid.register_type(0, ty, SimTime::ZERO).expect("example type registers");
    }
    let installed = provision(&mut grid, &request("JPOVray", 0), t(1)).expect("JPOVray installs");
    assert_eq!(installed.installs.len(), 3, "java, ant, jpovray");

    // A warm cache hit: the asking site hosts nothing, its first request
    // fetched remotely and filled its cache, its second already hit it.
    let rm = RequestManager::new(true);
    let asker = (installed.deployments[0].0 + 1) % grid.len();
    let first = rm.list_deployments(&mut grid, asker, "JPOVray", t(2)).expect("found remotely");
    assert!(matches!(first.source, DiscoverySource::RemoteSite(_)));
    rm.list_deployments(&mut grid, asker, "JPOVray", t(3)).expect("cache hit");
    let (hit, found) = spent(|| rm.list_deployments(&mut grid, asker, "JPOVray", t(4)));
    assert_eq!(found.expect("cache hit").source, DiscoverySource::LocalCache);
    assert_eq!(hit, (9, 518), "(blocks, bytes) of a warm cache-hit list_deployments");

    // One install: type registration, the process's first Wien2k plan,
    // transfer, unpack, install, journal.
    let (wien2k, out) = spent(|| provision(&mut grid, &request("Wien2k", 0), t(5)));
    assert_eq!(out.expect("Wien2k installs").installs.len(), 1);
    assert_eq!(wien2k.0, 390, "blocks of a Wien2k provision (one install)");
    assert_eq!(second_grid, 321, "blocks of a second 8-site Grid::new");
}
