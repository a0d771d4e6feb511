//! WSRF ServiceGroup: the aggregation framework.
//!
//! "Both registry services provide an aggregation of all locally registered
//! and cached resources, based on a WSRF service-group framework, in which
//! aggregated resources are periodically refreshed" (§3.1). GT4's Index
//! Service is built on the same framework — which is why the paper argues
//! the ATR-vs-Index comparison is fair.
//!
//! A [`ServiceGroup`] holds entries (XML content + provenance + lease).
//! Entries must be refreshed before their lifetime lapses or they are
//! swept, mirroring soft-state registration in MDS4.

use glare_fabric::{SimDuration, SimTime};

use crate::error::WsrfError;
use crate::xml::XmlNode;

/// Identifier of a service-group entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntryId(pub u64);

/// One aggregated entry.
#[derive(Clone, Debug)]
pub struct GroupEntry {
    /// Entry id.
    pub id: EntryId,
    /// Name of the member service/resource that registered this content.
    pub member: String,
    /// Aggregated XML content.
    pub content: XmlNode,
    /// Last refresh instant.
    pub refreshed_at: SimTime,
    /// Soft-state lifetime: entry lapses `lifetime` after the last refresh.
    pub lifetime: SimDuration,
}

impl GroupEntry {
    /// Whether the entry's soft state has lapsed at `now`.
    pub(crate) fn is_stale(&self, now: SimTime) -> bool {
        self.refreshed_at + self.lifetime <= now
    }
}

/// An aggregation of member-service content with soft-state lifetimes.
#[derive(Clone, Debug)]
pub struct ServiceGroup {
    name: String,
    next_id: u64,
    entries: Vec<GroupEntry>,
    default_lifetime: SimDuration,
}

impl ServiceGroup {
    /// New group with the given soft-state lifetime for entries.
    pub fn new(name: impl Into<String>, default_lifetime: SimDuration) -> Self {
        assert!(
            default_lifetime > SimDuration::ZERO,
            "lifetime must be positive"
        );
        ServiceGroup {
            name: name.into(),
            next_id: 0,
            entries: Vec::new(),
            default_lifetime,
        }
    }

    /// Register content from a member, returning the entry id.
    pub fn add(&mut self, member: impl Into<String>, content: XmlNode, now: SimTime) -> EntryId {
        let id = EntryId(self.next_id);
        self.next_id += 1;
        self.entries.push(GroupEntry {
            id,
            member: member.into(),
            content,
            refreshed_at: now,
            lifetime: self.default_lifetime,
        });
        id
    }

    /// Refresh an entry's soft state, optionally replacing its content.
    /// Returns the entry's position, as [`ServiceGroup::entry_node`] takes it.
    pub fn refresh(
        &mut self,
        id: EntryId,
        content: Option<XmlNode>,
        now: SimTime,
    ) -> Result<usize, WsrfError> {
        let at = self.position(id)?;
        let entry = &mut self.entries[at];
        entry.refreshed_at = now;
        if let Some(c) = content {
            entry.content = c;
        }
        Ok(at)
    }

    /// Remove an entry, returning the position it held; the entries after
    /// it move up by one.
    pub fn remove(&mut self, id: EntryId) -> Result<usize, WsrfError> {
        let at = self.position(id)?;
        self.entries.remove(at);
        Ok(at)
    }

    fn position(&self, id: EntryId) -> Result<usize, WsrfError> {
        self.entries
            .iter()
            .position(|e| e.id == id)
            .ok_or(WsrfError::NoSuchEntry { id: id.0 })
    }

    /// Drop all lapsed entries, returning how many were swept.
    pub fn sweep_stale(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.is_stale(now));
        before - self.entries.len()
    }

    /// Live entries at `now`.
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = &GroupEntry> {
        self.entries.iter().filter(move |e| !e.is_stale(now))
    }

    /// Number of live entries.
    pub fn len_live(&self, now: SimTime) -> usize {
        self.iter_live(now).count()
    }

    /// The earliest instant at which a currently-live entry lapses, if
    /// any. A materialized aggregate built at `now` stays faithful until
    /// this instant (or until a registration change).
    pub fn next_lapse(&self, now: SimTime) -> Option<SimTime> {
        self.iter_live(now)
            .map(|e| e.refreshed_at + e.lifetime)
            .min()
    }

    /// The `<Entry member=".." id="..">…</Entry>` element of the entry at
    /// position `at` (counting lapsed entries not yet swept; `add` appends,
    /// `refresh` and `remove` report the position), as the aggregate
    /// document holds it.
    pub fn entry_node(&self, at: usize) -> XmlNode {
        let e = &self.entries[at];
        XmlNode::new("Entry")
            .attr("member", &e.member)
            .attr("id", e.id.0.to_string())
            .child(e.content.clone())
    }

    /// Build the aggregate document
    /// (`<ServiceGroup name=".."><Entry member="..">…</Entry></ServiceGroup>`).
    ///
    /// This materializes the full document — the linear cost the Index
    /// Service pays on every XPath query.
    pub fn aggregate_document(&self, now: SimTime) -> XmlNode {
        let mut root = XmlNode::new("ServiceGroup").attr("name", &self.name);
        for (at, e) in self.entries.iter().enumerate() {
            if !e.is_stale(now) {
                root.children.push(self.entry_node(at));
            }
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::XPath;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn entry(name: &str) -> XmlNode {
        XmlNode::new("ActivityType").attr("name", name)
    }

    fn group() -> ServiceGroup {
        ServiceGroup::new("atr", SimDuration::from_secs(60))
    }

    /// How many nodes `xpath` selects in the aggregate document at `now`.
    fn hits(g: &ServiceGroup, xpath: &str, now: SimTime) -> usize {
        let compiled = XPath::compile(xpath).expect("valid XPath");
        compiled.select(&g.aggregate_document(now)).len()
    }

    #[test]
    fn add_and_query() {
        let mut g = group();
        g.add("site0", entry("JPOVray"), t(0));
        g.add("site1", entry("Wien2k"), t(0));
        assert_eq!(hits(&g, "//ActivityType[@name='JPOVray']", t(1)), 1);
        assert_eq!(g.len_live(t(1)), 2);
    }

    #[test]
    fn soft_state_lapses_without_refresh() {
        let mut g = group();
        let id = g.add("site0", entry("A"), t(0));
        assert_eq!(g.len_live(t(59)), 1);
        assert_eq!(g.len_live(t(60)), 0, "lapses at exactly lifetime");
        g.refresh(id, None, t(59)).unwrap();
        assert_eq!(g.len_live(t(100)), 1, "refresh extends the lease");
    }

    #[test]
    fn refresh_can_replace_content() {
        let mut g = group();
        let id = g.add("site0", entry("A"), t(0));
        g.refresh(id, Some(entry("B")), t(1)).unwrap();
        assert_eq!(hits(&g, "//ActivityType[@name='B']", t(2)), 1);
        assert_eq!(hits(&g, "//ActivityType[@name='A']", t(2)), 0);
    }

    #[test]
    fn sweep_removes_stale() {
        let mut g = group();
        g.add("site0", entry("A"), t(0));
        let keep = g.add("site1", entry("B"), t(0));
        g.refresh(keep, None, t(50)).unwrap();
        assert_eq!(g.sweep_stale(t(70)), 1);
        assert_eq!(g.len_live(t(70)), 1);
    }

    #[test]
    fn next_lapse_tracks_earliest_lease() {
        let mut g = group();
        assert_eq!(g.next_lapse(t(0)), None);
        g.add("site0", entry("A"), t(0));
        let b = g.add("site1", entry("B"), t(0));
        g.refresh(b, None, t(30)).unwrap();
        assert_eq!(g.next_lapse(t(1)), Some(t(60)), "A lapses first");
        // Once A has lapsed, only B's lease matters.
        assert_eq!(g.next_lapse(t(60)), Some(t(90)));
    }

    #[test]
    fn remove_unknown_errors() {
        let mut g = group();
        assert!(matches!(
            g.remove(EntryId(99)),
            Err(WsrfError::NoSuchEntry { id: 99 })
        ));
        assert!(g.refresh(EntryId(99), None, t(0)).is_err());
    }

    #[test]
    fn aggregate_document_carries_provenance() {
        let mut g = group();
        g.add("site7", entry("A"), t(0));
        let doc = g.aggregate_document(t(1));
        assert_eq!(doc.attribute("name"), Some("atr"));
        assert_eq!(doc.children[0].attribute("member"), Some("site7"));
    }

    #[test]
    fn invalid_query_is_reported() {
        assert!(XPath::compile("///").is_err());
    }

    #[test]
    fn entry_ids_are_unique_across_removals() {
        let mut g = group();
        let a = g.add("m", entry("A"), t(0));
        g.remove(a).unwrap();
        let b = g.add("m", entry("B"), t(0));
        assert_ne!(a, b);
    }
}
