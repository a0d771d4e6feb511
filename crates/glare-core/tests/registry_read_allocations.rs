//! Allocation pins for the registry read path: the requests of the perf
//! ledger's `registry_read` workload, at its 300-type population, counted
//! in blocks taken from the allocator. A named ATR lookup that copies its
//! entry, an element name or attribute key copied where a literal would do,
//! or a query that gathers the whole aggregate before filtering it would
//! show here.
//!
//! The test owns its binary because it installs a counting global allocator
//! (`crates/fabric/tests/support/counting_alloc.rs`, shared with the other
//! allocation pins); the tally is per thread.

use glare_core::model::ActivityType;
use glare_core::ActivityTypeRegistry;
use glare_fabric::SimTime;
use glare_services::{IndexKind, IndexService, Transport};
use glare_wsrf::parse_xml;

#[path = "../../fabric/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::tally;

const TYPES: usize = 300;
const NOW: SimTime = SimTime::ZERO;

/// Blocks allocated while `f` runs, and what it returned.
fn blocks<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = tally().0;
    let out = f();
    (tally().0 - before, out)
}

/// One of the 300 concrete types, with its one function.
fn activity_type(name: &str) -> ActivityType {
    ActivityType::concrete_type(name, "bench", "wien2k").with_function(
        "run",
        &["in:data"],
        &["out:data"],
    )
}

/// The `registry_read` set-up: 300 concrete types with one function each,
/// registered in the ATR and as entries of an index, which has served one
/// query.
fn services() -> (ActivityTypeRegistry, IndexService) {
    let atr = ActivityTypeRegistry::new("https://bench/ATR", Transport::Http);
    let mut mds = IndexService::new("bench-index", IndexKind::Default, Transport::Http);
    for i in 0..TYPES {
        let entry = activity_type(&format!("Type{i}"));
        mds.register("bench", entry.to_xml(), NOW);
        atr.register(entry, NOW).expect("type registers");
    }
    mds.query_by_name("ActivityTypeEntry", "Type0", NOW)
        .expect("warm-up query");
    (atr, mds)
}

/// With ATR entries copied out, element names and attribute keys owned and
/// the XPath walk gathering every node before testing names, the same four
/// requests took 10, 22, 32 and 46 blocks. While the walk kept all 300
/// same-name entries before testing the predicate, the MDS query took 28;
/// that the scan still visits every entry, `scanned` and `index_pin` show.
#[test]
fn registry_read_requests_allocate_what_is_pinned() {
    let (atr, mds) = services();
    let name = "Type137";

    let (lookup, hit) = blocks(|| atr.lookup(name, NOW));
    let hit = hit.expect("the type is registered");
    assert_eq!(hit.value.name, name);
    assert_eq!(lookup, 0, "a warm ATR lookup shares its entry");

    let request = format!(
        "<Envelope><Body><GetResourceProperty dialect=\"hash\">\
         <ResourceName>{name}</ResourceName><Client>perf-0</Client>\
         </GetResourceProperty></Body></Envelope>"
    );
    let (envelope, parsed) = blocks(|| parse_xml(&request));
    assert_eq!(parsed.expect("envelope parses").subtree_size(), 5);
    assert_eq!(envelope, 13, "blocks parsing the request envelope");

    let (reply, body) = blocks(|| hit.value.to_xml().to_xml());
    assert!(body.starts_with("<ActivityTypeEntry name=\"Type137\""));
    assert_eq!(reply, 18, "blocks rendering and serialising the ATR reply");

    // Warm: the expression is memoised, as every one is within a round.
    mds.query_by_name("ActivityTypeEntry", name, NOW)
        .expect("valid XPath");
    let (query, found) = blocks(|| mds.query_by_name("ActivityTypeEntry", name, NOW));
    let found = found.expect("by-name query is valid XPath");
    assert_eq!((found.matches.len(), found.scanned), (1, TYPES));
    assert_eq!(query, 20, "blocks of a warm MDS query_by_name");
}

/// The `registry_churn` writes through the index, each followed by the
/// next query. Before a write patched the one `<Entry>` it changed, it
/// discarded the aggregate, and the query after it took 6 058 blocks
/// copying all 300 entries back. While the index kept a copy of each entry
/// beside its aggregate document, a register took 21 blocks and a refresh
/// with new content 20. The query after each took 28 blocks while the XPath
/// walk kept all 300 same-name entries before testing the predicate.
#[test]
fn index_writes_and_the_query_after_each_allocate_what_is_pinned() {
    let (_, mut mds) = services();
    let name = "Type137";
    let xml = |name: &str| activity_type(name).to_xml();
    let query = |mds: &IndexService| {
        blocks(|| {
            let found = mds
                .query_by_name("ActivityTypeEntry", name, NOW)
                .expect("by-name query is valid XPath");
            assert_eq!(found.matches.len(), 1);
            found.scanned
        })
    };

    // Warm: the expression is memoised, as every one is within a round.
    query(&mds);
    let content = xml("Scratch0");
    let (register, (id, _)) = blocks(|| mds.register("bench", content, NOW));
    let (after_register, scanned) = query(&mds);
    assert_eq!(scanned, TYPES + 1);

    let content = xml("Scratch1");
    let (refresh, cost) = blocks(|| mds.refresh(id, Some(content), NOW));
    cost.expect("the entry is registered");
    let (after_refresh, scanned) = query(&mds);
    assert_eq!(scanned, TYPES + 1);

    let (remove, removed) = blocks(|| mds.remove(id));
    removed.expect("the entry is registered");
    let (after_remove, scanned) = query(&mds);
    assert_eq!(scanned, TYPES);

    assert_eq!(
        (register, after_register),
        (4, 20),
        "blocks of an MDS register and the query after it"
    );
    assert_eq!(
        (refresh, after_refresh),
        (0, 20),
        "blocks of an MDS refresh with new content and the query after it"
    );
    assert_eq!(
        (remove, after_remove),
        (0, 20),
        "blocks of an MDS remove and the query after it"
    );
}
