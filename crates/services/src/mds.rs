//! WS-MDS (GT4 Index Service) — the paper's baseline.
//!
//! "Note that, although Index Service is normally used for physical
//! resources but the underlying aggregation framework ... is same for both
//! GT4 Index service and GLARE registries. Therefore it is logical to make
//! this comparison" (§4).
//!
//! The index aggregates member content in a WSRF [`ServiceGroup`] and
//! answers **every** query — including lookups by name — through an XPath
//! scan of the materialized aggregate document. That O(entries) per-query
//! cost, contrasted with the registries' hashtable fast path, is the whole
//! Fig. 10/11 story. The GT4 deployment is hierarchical: each site runs a
//! *Default Index* that registers upstream into the VO-level *Community
//! Index*. [`IndexKind`] names that role only; no index here pushes its
//! aggregate upstream, because the overlay models the hierarchy as its
//! shared site roster (§3.3 builds peer groups from it).
//!
//! ## Concurrency
//!
//! [`IndexService::query`] takes `&self`: the aggregate document lives in
//! a snapshot behind an `RwLock`, so concurrent client threads scan the
//! same materialized document in parallel instead of serializing on an
//! exclusive service lock. The snapshot is derived state that the `&mut
//! self` mutators keep in step with the group: `register` appends the new
//! `<Entry>`, `refresh` with new content replaces the one it changed,
//! `remove` drops it, and a `sweep` that drops anything discards the
//! snapshot. So a snapshot, while it exists, holds the group's entries in
//! the group's order, one `<Entry>` each. It also records the earliest
//! instant one of them can lapse; a query at or past that instant sweeps
//! the group and rebuilds the snapshot. **The cost model is unchanged**:
//! every query still walks the whole document and is charged the per-entry
//! scan over the live entry count.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use glare_fabric::sync::RwLock;
use glare_fabric::{SimDuration, SimTime};
use glare_wsrf::{EntryId, ServiceGroup, WsrfError, XPath, XPathMemo, XmlNode};

use crate::security::Transport;

/// Role of an index in the GT4 hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Per-site local index.
    Default,
    /// VO-level root index.
    Community,
}

/// Base cost of accepting and parsing any request.
pub const REQUEST_BASE_COST: SimDuration = SimDuration::from_millis(4);

/// Cost of scanning one aggregated entry during an XPath query.
pub const SCAN_PER_ENTRY_COST: SimDuration = SimDuration::from_micros(120);

/// Cost of registering/refreshing one entry.
pub(crate) const REGISTER_COST: SimDuration = SimDuration::from_millis(6);

/// Default soft-state lifetime of index entries.
pub(crate) const DEFAULT_ENTRY_LIFETIME: SimDuration = SimDuration::from_secs(600);

/// Approximate serialized size of one aggregated entry on the wire.
pub(crate) const ENTRY_WIRE_BYTES: u64 = 1_200;

/// A materialized aggregate document and the instant its content decays.
#[derive(Debug)]
struct DocSnapshot {
    /// No later than the earliest soft-state lapse among the entries
    /// included; from this instant on the snapshot may over-report and
    /// must be rebuilt. A refresh moves a lapse later, so it may leave
    /// this value early, never late.
    next_lapse: Option<SimTime>,
    doc: XmlNode,
}

impl DocSnapshot {
    fn is_fresh(&self, now: SimTime) -> bool {
        self.next_lapse.is_none_or(|t| t > now)
    }

    /// Copies of what `xpath` selects, and how many entries the scan
    /// covered: while the snapshot is fresh its children are exactly the
    /// group's live entries.
    fn answer(&self, xpath: &XPath) -> (Vec<XmlNode>, usize) {
        let matches = xpath.select(&self.doc).into_iter().cloned().collect();
        (matches, self.doc.children.len())
    }
}

/// A GT4-style index service.
pub struct IndexService {
    /// Role in the hierarchy.
    pub kind: IndexKind,
    /// Transport security applied to every exchange.
    pub transport: Transport,
    group: RwLock<ServiceGroup>,
    queries_served: AtomicU64,
    /// Cached aggregate document: patched by every write, discarded by a
    /// sweep that drops entries, rebuilt when an included entry's soft
    /// state may have lapsed.
    snapshot: RwLock<Option<DocSnapshot>>,
    xpath_memo: XPathMemo,
}

impl fmt::Debug for IndexService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot = self
            .snapshot
            .read()
            .as_ref()
            .map(|s| (s.doc.children.len(), s.next_lapse));
        f.debug_struct("IndexService")
            .field("kind", &self.kind)
            .field("transport", &self.transport)
            .field("queries_served", &self.queries_served())
            .field("snapshot(entries, next_lapse)", &snapshot)
            .finish()
    }
}

/// Result of a query: matched subtrees plus the modeled service-side cost.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Matching XML subtrees.
    pub matches: Vec<XmlNode>,
    /// Modeled CPU cost of serving this query (scan + security).
    pub cost: SimDuration,
    /// Number of entries scanned.
    pub scanned: usize,
}

impl IndexService {
    /// New index of the given kind.
    pub fn new(name: &str, kind: IndexKind, transport: Transport) -> IndexService {
        IndexService {
            kind,
            transport,
            group: RwLock::new(ServiceGroup::new(name, DEFAULT_ENTRY_LIFETIME)),
            queries_served: AtomicU64::new(0),
            snapshot: RwLock::new(None),
            xpath_memo: XPathMemo::new(),
        }
    }

    /// Register member content; returns the entry id and the modeled cost.
    pub fn register(
        &mut self,
        member: &str,
        content: XmlNode,
        now: SimTime,
    ) -> (EntryId, SimDuration) {
        let group = self.group.get_mut();
        let id = group.add(member, content, now);
        if let Some(snap) = self.snapshot.get_mut() {
            // The snapshot mirrors the group, so the appended entry's
            // position is the snapshot's child count.
            snap.doc
                .children
                .push(group.entry_node(snap.doc.children.len()));
            let lapse = now + DEFAULT_ENTRY_LIFETIME;
            snap.next_lapse = Some(snap.next_lapse.map_or(lapse, |t| t.min(lapse)));
        }
        let cost = REGISTER_COST + self.transport.overhead_cost(ENTRY_WIRE_BYTES);
        (id, cost)
    }

    /// Refresh an entry's soft state (and optionally its content).
    pub fn refresh(
        &mut self,
        id: EntryId,
        content: Option<XmlNode>,
        now: SimTime,
    ) -> Result<SimDuration, WsrfError> {
        let group = self.group.get_mut();
        let new_content = content.is_some();
        let at = group.refresh(id, content, now)?;
        if let (true, Some(snap)) = (new_content, self.snapshot.get_mut()) {
            snap.doc.children[at] = group.entry_node(at);
        }
        Ok(REGISTER_COST + self.transport.overhead_cost(ENTRY_WIRE_BYTES))
    }

    /// Remove an entry.
    pub fn remove(&mut self, id: EntryId) -> Result<(), WsrfError> {
        let at = self.group.get_mut().remove(id)?;
        if let Some(snap) = self.snapshot.get_mut() {
            snap.doc.children.remove(at);
        }
        Ok(())
    }

    /// Number of live entries.
    pub fn len(&self, now: SimTime) -> usize {
        self.group.read().len_live(now)
    }

    /// Serve an XPath query. This is the real scan: the aggregate document
    /// is materialized and walked, and the modeled cost is charged per
    /// entry scanned — *there is no fast path*, even for `[@name='x']`
    /// lookups. Compiled expressions are memoized; the document walk is
    /// re-paid on every call.
    pub fn query(&self, xpath: &str, now: SimTime) -> Result<QueryResponse, WsrfError> {
        let compiled = self
            .xpath_memo
            .get_or_compile(xpath)
            .map_err(|e| WsrfError::InvalidQuery {
                message: e.to_string(),
            })?;
        let snap = self.snapshot.read();
        let (matches, scanned) = match snap.as_ref() {
            Some(s) if s.is_fresh(now) => s.answer(&compiled),
            _ => {
                drop(snap);
                let mut snap = self.snapshot.write();
                // Another reader may have rebuilt while we waited.
                if !snap.as_ref().is_some_and(|s| s.is_fresh(now)) {
                    let mut group = self.group.write();
                    group.sweep_stale(now);
                    let doc = group.aggregate_document(now);
                    let next_lapse = group.next_lapse(now);
                    drop(group);
                    *snap = Some(DocSnapshot { next_lapse, doc });
                }
                snap.as_ref().expect("snapshot just ensured").answer(&compiled)
            }
        };
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        let response_bytes = ENTRY_WIRE_BYTES * matches.len().max(1) as u64;
        let cost = REQUEST_BASE_COST
            + SCAN_PER_ENTRY_COST * scanned as u64
            + self.transport.overhead_cost(512 + response_bytes);
        Ok(QueryResponse {
            matches,
            cost,
            scanned,
        })
    }

    /// Convenience: the query a client uses to find an entry by name. The
    /// name is quoted with `'`, or with `"` if it holds a `'`; XPath 1.0
    /// literals have no escape, so a name holding both is refused.
    pub fn query_by_name(
        &self,
        element: &str,
        name: &str,
        now: SimTime,
    ) -> Result<QueryResponse, WsrfError> {
        let quote = if name.contains('\'') { '"' } else { '\'' };
        if name.contains(quote) {
            return Err(WsrfError::InvalidQuery {
                message: format!("name {name:?} holds both quote kinds"),
            });
        }
        self.query(&format!("//{element}[@name={quote}{name}{quote}]"), now)
    }

    /// Total queries served.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// The full aggregate document.
    pub fn aggregate(&self, now: SimTime) -> XmlNode {
        self.group.read().aggregate_document(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(name: &str) -> XmlNode {
        XmlNode::new("ActivityType")
            .attr("name", name)
            .child_text("Domain", "imaging")
    }

    fn index() -> IndexService {
        IndexService::new("default-site0", IndexKind::Default, Transport::Http)
    }

    #[test]
    fn register_and_lookup() {
        let mut idx = index();
        idx.register("site0", entry("JPOVray"), t(0));
        idx.register("site0", entry("Wien2k"), t(0));
        let r = idx.query_by_name("ActivityType", "JPOVray", t(1)).unwrap();
        assert_eq!(r.matches.len(), 1);
        assert_eq!(r.scanned, 2, "every entry is scanned");
        assert_eq!(idx.queries_served(), 1);
    }

    #[test]
    fn query_cost_grows_linearly_with_entries() {
        let mut small = index();
        let mut big = index();
        for i in 0..10 {
            small.register("m", entry(&format!("t{i}")), t(0));
        }
        for i in 0..300 {
            big.register("m", entry(&format!("t{i}")), t(0));
        }
        let c_small = small.query_by_name("ActivityType", "t5", t(1)).unwrap().cost;
        let c_big = big.query_by_name("ActivityType", "t5", t(1)).unwrap().cost;
        let delta = c_big - c_small;
        // 290 extra entries at SCAN_PER_ENTRY_COST each.
        assert_eq!(delta, SCAN_PER_ENTRY_COST * 290);
    }

    #[test]
    fn repeated_queries_still_pay_the_scan() {
        let mut idx = index();
        for i in 0..50 {
            idx.register("m", entry(&format!("t{i}")), t(0));
        }
        // Identical query twice: snapshot and memo are warm the second
        // time, but the modeled cost — the paper's phenomenon — must not
        // drop.
        let c1 = idx.query_by_name("ActivityType", "t7", t(1)).unwrap();
        let c2 = idx.query_by_name("ActivityType", "t7", t(2)).unwrap();
        assert_eq!(c1.cost, c2.cost);
        assert_eq!(c1.scanned, c2.scanned);
    }

    #[test]
    fn snapshot_invalidated_by_registration_and_lapse() {
        let mut idx = index();
        idx.register("m", entry("A"), t(0));
        assert_eq!(idx.query("//ActivityType", t(1)).unwrap().matches.len(), 1);
        // New registration invalidates the cached aggregate.
        idx.register("m", entry("B"), t(2));
        assert_eq!(idx.query("//ActivityType", t(3)).unwrap().matches.len(), 2);
        // Soft-state lapse invalidates it too: A and B lapse at t(600)
        // and t(602) respectively.
        assert_eq!(idx.query("//ActivityType", t(601)).unwrap().matches.len(), 1);
        assert_eq!(idx.query("//ActivityType", t(700)).unwrap().matches.len(), 0);
    }

    /// Seeded property: through any interleaving of `register`,
    /// `refresh` (with and without new content, also of an entry that has
    /// lapsed but is not swept yet), `remove`, and time moving on
    /// — now and then past a lapse, exactly onto the earliest one or one
    /// nanosecond short of it — a query sees exactly the document rebuilt
    /// from the group at that instant, whatever became of the snapshot on
    /// the way. Pins the rules by which the mutators patch the snapshot.
    #[test]
    fn query_sees_the_rebuilt_aggregate_after_random_edits() {
        use glare_fabric::SimRng;

        fn check(idx: &IndexService, now: SimTime) {
            let seen = idx.query("//Entry", now).unwrap();
            let rebuilt = idx.aggregate(now);
            assert_eq!(seen.matches, rebuilt.children);
            assert_eq!(seen.scanned, rebuilt.children.len());
        }

        let mut rng = SimRng::from_seed(0x3D5_5A9);
        let (mut onto_lapse, mut lapsed_refreshes) = (0, 0);
        for _ in 0..60 {
            let mut idx = index();
            let mut now = t(0);
            let mut ids: Vec<EntryId> = Vec::new();
            let mut serial = 0;
            for _ in 0..rng.range(20, 120) {
                match rng.range(0, 12) {
                    0..=2 => {
                        serial += 1;
                        ids.push(idx.register("m", entry(&format!("n{serial}")), now).0);
                    }
                    3..=5 if !ids.is_empty() => {
                        let id = ids[rng.index(ids.len())];
                        serial += 1;
                        let content = rng.chance(0.5).then(|| entry(&format!("n{serial}")));
                        // May name an entry a sweep has already dropped.
                        let _ = idx.refresh(id, content, now);
                    }
                    6 if !ids.is_empty() => {
                        let id = ids.swap_remove(rng.index(ids.len()));
                        let _ = idx.remove(id);
                    }
                    8 => {
                        // Mostly small steps; sometimes past every lease.
                        let step = if rng.chance(0.2) { 700 } else { rng.range(1, 200) };
                        now += SimDuration::from_secs(step);
                    }
                    9 => {
                        // Onto the earliest lapse, or one nanosecond short.
                        if let Some(lapse) = idx.group.read().next_lapse(now) {
                            now = if rng.chance(0.5) {
                                lapse
                            } else {
                                lapse - SimDuration::from_nanos(1)
                            };
                            onto_lapse += 1;
                        }
                    }
                    10 => {
                        // New content for an entry that has lapsed but
                        // not been swept (a swept one refuses it).
                        let live: Vec<EntryId> =
                            idx.group.read().iter_live(now).map(|e| e.id).collect();
                        for &id in ids.iter().filter(|id| !live.contains(id)) {
                            serial += 1;
                            if idx.refresh(id, Some(entry(&format!("n{serial}"))), now).is_ok() {
                                lapsed_refreshes += 1;
                                break;
                            }
                        }
                    }
                    11 => {
                        // Queries at the very instant of each write.
                        serial += 1;
                        ids.push(idx.register("m", entry(&format!("n{serial}")), now).0);
                        check(&idx, now);
                        let id = ids.swap_remove(rng.index(ids.len()));
                        let _ = idx.remove(id);
                        check(&idx, now);
                    }
                    _ => {}
                }
                // Not after every step, so several writes can land
                // between two queries.
                if rng.chance(0.6) {
                    check(&idx, now);
                }
            }
        }
        assert!(onto_lapse > 0 && lapsed_refreshes > 0, "{onto_lapse} {lapsed_refreshes}");
    }

    #[test]
    fn names_with_an_apostrophe_are_found_and_both_quotes_refused() {
        let mut idx = index();
        idx.register("m", entry("O'Brien"), t(0));
        idx.register("m", entry("say \"hi\""), t(0));
        let r = idx.query_by_name("ActivityType", "O'Brien", t(1)).unwrap();
        assert_eq!(r.matches.len(), 1);
        let r = idx.query_by_name("ActivityType", "say \"hi\"", t(1)).unwrap();
        assert_eq!(r.matches.len(), 1);
        assert!(matches!(
            idx.query_by_name("ActivityType", "O'Brien \"Jr\"", t(1)),
            Err(WsrfError::InvalidQuery { message }) if message.contains("both quote kinds")
        ));
    }

    #[test]
    fn concurrent_queries_share_the_service() {
        use std::sync::Arc;
        let mut idx = index();
        for i in 0..20 {
            idx.register("m", entry(&format!("t{i}")), t(0));
        }
        let idx = Arc::new(idx);
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    for j in 0..200 {
                        let name = format!("t{}", (j + k) % 20);
                        let r = idx.query_by_name("ActivityType", &name, t(1)).unwrap();
                        assert_eq!(r.matches.len(), 1);
                        assert_eq!(r.scanned, 20);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.queries_served(), 800, "no lost counter updates");
    }

    #[test]
    fn https_costs_more_than_http() {
        let mut plain = IndexService::new("p", IndexKind::Default, Transport::Http);
        let mut secure = IndexService::new("s", IndexKind::Default, Transport::Https);
        plain.register("m", entry("A"), t(0));
        secure.register("m", entry("A"), t(0));
        let c1 = plain.query_by_name("ActivityType", "A", t(1)).unwrap().cost;
        let c2 = secure.query_by_name("ActivityType", "A", t(1)).unwrap().cost;
        assert!(c2 > c1);
    }

    #[test]
    fn soft_state_expires_and_sweeps() {
        let mut idx = index();
        let (id, _) = idx.register("m", entry("A"), t(0));
        assert_eq!(idx.len(t(599)), 1);
        assert_eq!(idx.len(t(600)), 0);
        idx.refresh(id, None, t(500)).unwrap();
        assert_eq!(idx.len(t(900)), 1);
        // A query past the lapse sweeps the entry out of the group.
        idx.query("//Entry", t(2000)).unwrap();
        assert!(idx.refresh(id, None, t(2000)).is_err(), "a swept entry refuses a refresh");
    }

    #[test]
    fn remove_entry() {
        let mut idx = index();
        let (id, _) = idx.register("m", entry("A"), t(0));
        idx.remove(id).unwrap();
        assert_eq!(idx.len(t(1)), 0);
        assert!(idx.remove(id).is_err());
    }

    #[test]
    fn invalid_xpath_surfaces() {
        let idx = index();
        assert!(matches!(
            idx.query("][", t(0)),
            Err(WsrfError::InvalidQuery { .. })
        ));
    }
}
