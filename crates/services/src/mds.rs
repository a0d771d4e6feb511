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
//! Index* (§3.3 builds peer groups from exactly this hierarchy).
//!
//! ## Concurrency
//!
//! [`IndexService::query`] takes `&self`: the aggregate document lives in
//! a generation-stamped snapshot behind an `RwLock`, so concurrent client
//! threads scan the same materialized document in parallel instead of
//! serializing on an exclusive service lock. Mutations (`register`,
//! `refresh`, `remove`, `sweep`) stay `&mut self` and bump the generation,
//! invalidating the snapshot. **The cost model is unchanged**: every query
//! is still charged the per-entry scan over the live entry count — only
//! the locking moved.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use glare_fabric::sync::RwLock;
use glare_fabric::{SimDuration, SimTime};
use glare_wsrf::{ServiceGroup, WsrfError, XPathMemo, XmlNode};

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
pub const REGISTER_COST: SimDuration = SimDuration::from_millis(6);

/// Default soft-state lifetime of index entries.
pub const DEFAULT_ENTRY_LIFETIME: SimDuration = SimDuration::from_secs(600);

/// Approximate serialized size of one aggregated entry on the wire.
pub const ENTRY_WIRE_BYTES: u64 = 1_200;

/// A materialized aggregate document, stamped with the registration
/// generation it was built from and the instant its content decays.
#[derive(Clone, Debug)]
struct DocSnapshot {
    /// Value of the service's generation counter at build time; any
    /// registration change advances the counter and orphans the snapshot.
    generation: u64,
    /// When the snapshot was materialized.
    built_at: SimTime,
    /// Earliest soft-state lapse among the entries included; past this
    /// instant the snapshot over-reports and must be rebuilt.
    next_lapse: Option<SimTime>,
    doc: XmlNode,
}

impl DocSnapshot {
    fn is_fresh(&self, generation: u64, now: SimTime) -> bool {
        self.generation == generation && self.next_lapse.is_none_or(|t| t > now)
    }
}

/// A GT4-style index service.
pub struct IndexService {
    /// Role in the hierarchy.
    pub kind: IndexKind,
    /// Transport security applied to every exchange.
    pub transport: Transport,
    group: RwLock<ServiceGroup>,
    /// Upstream community index this default index registers into.
    upstream: Option<String>,
    queries_served: AtomicU64,
    /// Registration-change counter stamped into snapshots.
    generation: AtomicU64,
    /// Cached aggregate document (rebuilt when the generation advances or
    /// an included entry's soft state lapses).
    snapshot: RwLock<Option<DocSnapshot>>,
    xpath_memo: XPathMemo,
}

impl Clone for IndexService {
    fn clone(&self) -> Self {
        IndexService {
            kind: self.kind,
            transport: self.transport,
            group: self.group.clone(),
            upstream: self.upstream.clone(),
            queries_served: AtomicU64::new(self.queries_served()),
            generation: AtomicU64::new(self.generation.load(Ordering::Acquire)),
            snapshot: self.snapshot.clone(),
            xpath_memo: self.xpath_memo.clone(),
        }
    }
}

impl fmt::Debug for IndexService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot_age = self
            .snapshot
            .read()
            .as_ref()
            .map(|s| (s.generation, s.built_at));
        f.debug_struct("IndexService")
            .field("kind", &self.kind)
            .field("transport", &self.transport)
            .field("upstream", &self.upstream)
            .field("queries_served", &self.queries_served())
            .field("generation", &self.generation.load(Ordering::Acquire))
            .field("snapshot(gen, built_at)", &snapshot_age)
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
            upstream: None,
            queries_served: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            snapshot: RwLock::new(None),
            xpath_memo: XPathMemo::new(),
        }
    }

    /// Point a default index at its community index (by name).
    pub fn set_upstream(&mut self, community: &str) {
        assert_eq!(
            self.kind,
            IndexKind::Default,
            "only default indexes register upstream"
        );
        self.upstream = Some(community.to_owned());
    }

    /// Name of the upstream community index, if configured.
    pub fn upstream(&self) -> Option<&str> {
        self.upstream.as_deref()
    }

    fn bump_generation(&mut self) {
        *self.generation.get_mut() += 1;
    }

    /// Register member content; returns the entry id and the modeled cost.
    pub fn register(
        &mut self,
        member: &str,
        content: XmlNode,
        now: SimTime,
    ) -> (glare_wsrf::EntryId, SimDuration) {
        self.bump_generation();
        let id = self.group.get_mut().add(member, content, now);
        let cost = REGISTER_COST + self.transport.overhead_cost(ENTRY_WIRE_BYTES);
        (id, cost)
    }

    /// Refresh an entry's soft state (and optionally its content).
    pub fn refresh(
        &mut self,
        id: glare_wsrf::EntryId,
        content: Option<XmlNode>,
        now: SimTime,
    ) -> Result<SimDuration, WsrfError> {
        self.group.get_mut().refresh(id, content, now)?;
        self.bump_generation();
        Ok(REGISTER_COST + self.transport.overhead_cost(ENTRY_WIRE_BYTES))
    }

    /// Remove an entry.
    pub fn remove(&mut self, id: glare_wsrf::EntryId) -> Result<(), WsrfError> {
        self.group.get_mut().remove(id)?;
        self.bump_generation();
        Ok(())
    }

    /// Number of live entries.
    pub fn len(&self, now: SimTime) -> usize {
        self.group.read().len_live(now)
    }

    /// Whether the index holds no live entries.
    pub fn is_empty(&self, now: SimTime) -> bool {
        self.len(now) == 0
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
        let scanned = self.group.read().len_live(now);
        let generation = self.generation.load(Ordering::Acquire);
        let snap = self.snapshot.read();
        let matches: Vec<XmlNode> = match snap.as_ref() {
            Some(s) if s.is_fresh(generation, now) => {
                compiled.select(&s.doc).into_iter().cloned().collect()
            }
            _ => {
                drop(snap);
                let mut snap = self.snapshot.write();
                // Another reader may have rebuilt while we waited.
                if !snap.as_ref().is_some_and(|s| s.is_fresh(generation, now)) {
                    let mut group = self.group.write();
                    group.sweep_stale(now);
                    let doc = group.aggregate_document(now);
                    let next_lapse = group.next_lapse(now);
                    drop(group);
                    *snap = Some(DocSnapshot {
                        generation,
                        built_at: now,
                        next_lapse,
                        doc,
                    });
                }
                let s = snap.as_ref().expect("snapshot just ensured");
                compiled.select(&s.doc).into_iter().cloned().collect()
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

    /// Convenience: the query a client uses to find an entry by name.
    pub fn query_by_name(
        &self,
        element: &str,
        name: &str,
        now: SimTime,
    ) -> Result<QueryResponse, WsrfError> {
        self.query(&format!("//{element}[@name='{name}']"), now)
    }

    /// Total queries served.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// The full aggregate document (what upstream registration ships).
    pub fn aggregate(&self, now: SimTime) -> XmlNode {
        self.group.read().aggregate_document(now)
    }

    /// Register this default index's entire aggregate into the community
    /// index, as the GT4 hierarchy does on its refresh cycle. Returns the
    /// upstream entry id.
    pub fn push_upstream(
        &self,
        community: &mut IndexService,
        member_name: &str,
        now: SimTime,
    ) -> (glare_wsrf::EntryId, SimDuration) {
        assert_eq!(community.kind, IndexKind::Community);
        community.register(member_name, self.aggregate(now), now)
    }

    /// Drop lapsed soft-state entries.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let n = self.group.get_mut().sweep_stale(now);
        if n > 0 {
            self.bump_generation();
        }
        n
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
    /// `refresh` (with and without new content), `remove`, `sweep`, and
    /// time moving on — now and then past a lapse — a query sees exactly
    /// the document rebuilt from the group at that instant, whatever
    /// became of the snapshot on the way. Pins the invalidation rules for
    /// any later change to how mutators treat the snapshot.
    #[test]
    fn query_sees_the_rebuilt_aggregate_after_random_edits() {
        use glare_fabric::SimRng;
        use glare_wsrf::EntryId;

        let mut rng = SimRng::from_seed(0x3D5_5A9);
        for _ in 0..60 {
            let mut idx = index();
            let mut now = t(0);
            let mut ids: Vec<EntryId> = Vec::new();
            let mut serial = 0;
            for _ in 0..rng.range(20, 120) {
                match rng.range(0, 10) {
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
                    7 => {
                        idx.sweep(now);
                    }
                    8 => {
                        // Mostly small steps; sometimes past every lease.
                        let step = if rng.chance(0.2) { 700 } else { rng.range(1, 200) };
                        now += SimDuration::from_secs(step);
                    }
                    _ => {}
                }
                // Not after every step, so several writes can land
                // between two queries.
                if rng.chance(0.6) {
                    let seen = idx.query("//Entry", now).unwrap();
                    let rebuilt = idx.aggregate(now);
                    assert_eq!(seen.matches, rebuilt.children);
                    assert_eq!(seen.scanned, rebuilt.children.len());
                }
            }
        }
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
        assert_eq!(idx.sweep(t(2000)), 1);
        assert!(idx.is_empty(t(2000)));
    }

    #[test]
    fn hierarchy_pushes_aggregate_upstream() {
        let mut community = IndexService::new("community", IndexKind::Community, Transport::Http);
        let mut d0 = IndexService::new("d0", IndexKind::Default, Transport::Http);
        let mut d1 = IndexService::new("d1", IndexKind::Default, Transport::Http);
        d0.set_upstream("community");
        d1.set_upstream("community");
        d0.register("site0", entry("A"), t(0));
        d1.register("site1", entry("B"), t(0));
        d0.push_upstream(&mut community, "site0", t(1));
        d1.push_upstream(&mut community, "site1", t(1));
        // The community index sees both sites' content.
        let r = community.query("//ActivityType", t(2)).unwrap();
        assert_eq!(r.matches.len(), 2);
        assert_eq!(d0.upstream(), Some("community"));
    }

    #[test]
    #[should_panic(expected = "only default indexes")]
    fn community_cannot_set_upstream() {
        let mut c = IndexService::new("c", IndexKind::Community, Transport::Http);
        c.set_upstream("other");
    }

    #[test]
    fn remove_entry() {
        let mut idx = index();
        let (id, _) = idx.register("m", entry("A"), t(0));
        idx.remove(id).unwrap();
        assert!(idx.is_empty(t(1)));
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
