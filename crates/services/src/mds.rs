//! WS-MDS (GT4 Index Service) — the paper's baseline.
//!
//! "Note that, although Index Service is normally used for physical
//! resources but the underlying aggregation framework ... is same for both
//! GT4 Index service and GLARE registries. Therefore it is logical to make
//! this comparison" (§4).
//!
//! The index aggregates member content in a WSRF [`ServiceGroup`] and
//! answers **every** query — including lookups by name — through an XPath
//! scan of its aggregate document. That O(entries) per-query
//! cost, contrasted with the registries' hashtable fast path, is the whole
//! Fig. 10/11 story. The GT4 deployment is hierarchical: each site runs a
//! *Default Index* that registers upstream into the VO-level *Community
//! Index*. [`IndexKind`] names that role only; no index here pushes its
//! aggregate upstream, because the overlay models the hierarchy as its
//! shared site roster (§3.3 builds peer groups from it).
//!
//! ## Concurrency
//!
//! [`IndexService::query`] takes `&self` and walks the group's aggregate
//! document in place, so concurrent client threads scan the same document
//! in parallel with no lock of the index's own. The `&mut self` mutators
//! edit that document directly: `register` appends an `<Entry>`, `refresh`
//! with new content replaces the one it names, `remove` drops it. An entry
//! lives until it is removed. **The cost model is unchanged**: every query
//! walks the whole document and is charged the per-entry scan over its
//! entry count.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use glare_fabric::{SimDuration, SimTime};
use glare_wsrf::{EntryId, ServiceGroup, WsrfError, XPathMemo, XmlNode};

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

/// Approximate serialized size of one aggregated entry on the wire.
pub(crate) const ENTRY_WIRE_BYTES: u64 = 1_200;

/// A GT4-style index service.
pub struct IndexService {
    /// Role in the hierarchy.
    pub kind: IndexKind,
    /// Transport security applied to every exchange.
    pub transport: Transport,
    group: ServiceGroup,
    queries_served: AtomicU64,
    xpath_memo: XPathMemo,
}

impl fmt::Debug for IndexService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexService")
            .field("kind", &self.kind)
            .field("transport", &self.transport)
            .field("queries_served", &self.queries_served())
            .field("entries", &self.group.len())
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
            group: ServiceGroup::new(name),
            queries_served: AtomicU64::new(0),
            xpath_memo: XPathMemo::new(),
        }
    }

    /// Register member content; returns the entry id and the modeled cost.
    pub fn register(
        &mut self,
        member: &str,
        content: XmlNode,
        _now: SimTime,
    ) -> (EntryId, SimDuration) {
        let id = self.group.add(member, content);
        let cost = REGISTER_COST + self.transport.overhead_cost(ENTRY_WIRE_BYTES);
        (id, cost)
    }

    /// Refresh an entry, optionally replacing its content.
    pub fn refresh(
        &mut self,
        id: EntryId,
        content: Option<XmlNode>,
        _now: SimTime,
    ) -> Result<SimDuration, WsrfError> {
        self.group.update(id, content)?;
        Ok(REGISTER_COST + self.transport.overhead_cost(ENTRY_WIRE_BYTES))
    }

    /// Remove an entry.
    pub fn remove(&mut self, id: EntryId) -> Result<(), WsrfError> {
        self.group.remove(id)
    }

    /// Number of entries.
    pub fn len(&self, _now: SimTime) -> usize {
        self.group.len()
    }

    /// Serve an XPath query. This is the real scan: the aggregate document
    /// is walked, and the modeled cost is charged per entry scanned —
    /// *there is no fast path*, even for `[@name='x']` lookups. Compiled
    /// expressions are memoized; the document walk is re-paid on every
    /// call.
    pub fn query(&self, xpath: &str, _now: SimTime) -> Result<QueryResponse, WsrfError> {
        let compiled = self
            .xpath_memo
            .get_or_compile(xpath)
            .map_err(|e| WsrfError::InvalidQuery {
                message: e.to_string(),
            })?;
        let doc = self.group.document();
        let matches: Vec<XmlNode> = compiled.select(doc).into_iter().cloned().collect();
        let scanned = doc.children.len();
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
    pub fn aggregate(&self, _now: SimTime) -> XmlNode {
        self.group.document().clone()
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
        // Identical query twice: the memo is warm the second time, but
        // the modeled cost — the paper's phenomenon — must not drop.
        let c1 = idx.query_by_name("ActivityType", "t7", t(1)).unwrap();
        let c2 = idx.query_by_name("ActivityType", "t7", t(2)).unwrap();
        assert_eq!(c1.cost, c2.cost);
        assert_eq!(c1.scanned, c2.scanned);
    }

    /// Seeded property: through any interleaving of `register`, `refresh`
    /// (with and without new content), `remove`, and a `refresh` or
    /// `remove` of an entry already removed, a query sees exactly the
    /// document rebuilt from a test-side model of the entries, and a removed
    /// id names no entry. Pins the rules by which the mutators edit the
    /// document.
    #[test]
    fn query_sees_the_rebuilt_aggregate_after_random_edits() {
        use glare_fabric::SimRng;

        type Model = Vec<(EntryId, String, XmlNode)>;

        fn check(idx: &IndexService, model: &Model, rng: &mut SimRng) {
            let mut doc = XmlNode::new("ServiceGroup").attr("name", "default-site0");
            for (id, member, content) in model {
                doc.children.push(
                    XmlNode::new("Entry")
                        .attr("member", member)
                        .attr("id", id.0.to_string())
                        .child(content.clone()),
                );
            }
            let seen = idx.query("//Entry", t(0)).unwrap();
            assert_eq!(seen.matches, doc.children);
            assert_eq!(seen.scanned, model.len());
            assert_eq!(idx.aggregate(t(0)), doc);
            assert_eq!(idx.len(t(0)), model.len());
            if !model.is_empty() {
                let content = &model[rng.index(model.len())].2;
                let name = content.attribute("name").unwrap();
                let found = idx.query_by_name("ActivityType", name, t(0)).unwrap();
                assert_eq!(found.matches, std::slice::from_ref(content));
            }
        }

        let mut rng = SimRng::from_seed(0x3D5_5A9);
        let mut refused = 0;
        for _ in 0..60 {
            let mut idx = index();
            let mut model: Model = Vec::new();
            let mut removed: Vec<EntryId> = Vec::new();
            let (mut serial, mut edits) = (0, 0);
            let mut register = |idx: &mut IndexService, model: &mut Model, rng: &mut SimRng| {
                serial += 1;
                let member = format!("m{}", rng.range(0, 3));
                let content = entry(&format!("n{serial}"));
                let (id, _) = idx.register(&member, content.clone(), t(0));
                model.push((id, member, content));
            };
            for _ in 0..rng.range(20, 120) {
                match rng.range(0, 10) {
                    0..=2 => register(&mut idx, &mut model, &mut rng),
                    3..=5 if !model.is_empty() => {
                        let at = rng.index(model.len());
                        edits += 1;
                        let content = rng.chance(0.5).then(|| entry(&format!("r{edits}")));
                        idx.refresh(model[at].0, content.clone(), t(0)).unwrap();
                        if let Some(content) = content {
                            model[at].2 = content;
                        }
                    }
                    6 if !model.is_empty() => {
                        let (id, ..) = model.remove(rng.index(model.len()));
                        idx.remove(id).unwrap();
                        removed.push(id);
                    }
                    7 if !removed.is_empty() => {
                        let id = removed[rng.index(removed.len())];
                        let content = rng.chance(0.5).then(|| entry("ghost"));
                        assert!(matches!(
                            idx.refresh(id, content, t(0)),
                            Err(WsrfError::NoSuchEntry { id: gone }) if gone == id.0
                        ));
                        assert!(matches!(
                            idx.remove(id),
                            Err(WsrfError::NoSuchEntry { id: gone }) if gone == id.0
                        ));
                        refused += 1;
                    }
                    8 => {
                        // Queries right after each write.
                        register(&mut idx, &mut model, &mut rng);
                        check(&idx, &model, &mut rng);
                        let (id, ..) = model.remove(rng.index(model.len()));
                        idx.remove(id).unwrap();
                        removed.push(id);
                        check(&idx, &model, &mut rng);
                    }
                    _ => {}
                }
                // Not after every step, so several writes can land
                // between two queries.
                if rng.chance(0.6) {
                    check(&idx, &model, &mut rng);
                }
            }
        }
        assert!(refused > 0);
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
