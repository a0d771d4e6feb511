//! WSRF ServiceGroup: the aggregation framework.
//!
//! "Both registry services provide an aggregation of all locally registered
//! and cached resources, based on a WSRF service-group framework, in which
//! aggregated resources are periodically refreshed" (§3.1). GT4's Index
//! Service is built on the same framework — which is why the paper argues
//! the ATR-vs-Index comparison is fair.
//!
//! A [`ServiceGroup`] *is* its aggregate document: one
//! `<Entry member=".." id="..">` element per entry, holding the member's
//! content, in registration order. An entry lives until it is removed;
//! refreshing one replaces its content in place.

use crate::error::WsrfError;
use crate::xml::XmlNode;

/// Identifier of a service-group entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntryId(pub u64);

/// An aggregation of member-service content.
#[derive(Clone, Debug)]
pub struct ServiceGroup {
    /// `<ServiceGroup name="..">`, one `<Entry>` child per entry.
    doc: XmlNode,
    /// The id of each `<Entry>` child, in the same order. Ids are issued
    /// in increasing order and removal keeps the order, so this is sorted.
    ids: Vec<EntryId>,
    next_id: u64,
}

impl ServiceGroup {
    /// New, empty group.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceGroup {
            doc: XmlNode::new("ServiceGroup").attr("name", name),
            ids: Vec::new(),
            next_id: 0,
        }
    }

    /// Register content from a member, returning the entry id.
    pub fn add(&mut self, member: impl Into<String>, content: XmlNode) -> EntryId {
        let id = EntryId(self.next_id);
        self.next_id += 1;
        let entry = XmlNode::new("Entry")
            .attr("member", member)
            .attr("id", id.0.to_string())
            .child(content);
        self.doc.children.push(entry);
        self.ids.push(id);
        id
    }

    /// Replace an entry's content, if `content` is given; an id that names
    /// no entry is an error either way.
    pub fn update(&mut self, id: EntryId, content: Option<XmlNode>) -> Result<(), WsrfError> {
        let at = self.position(id)?;
        if let Some(content) = content {
            self.doc.children[at].children[0] = content;
        }
        Ok(())
    }

    /// Remove an entry; the entries after it move up by one.
    pub fn remove(&mut self, id: EntryId) -> Result<(), WsrfError> {
        let at = self.position(id)?;
        self.ids.remove(at);
        self.doc.children.remove(at);
        Ok(())
    }

    fn position(&self, id: EntryId) -> Result<usize, WsrfError> {
        self.ids
            .binary_search(&id)
            .map_err(|_| WsrfError::NoSuchEntry { id: id.0 })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the group has no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The aggregate document
    /// (`<ServiceGroup name=".."><Entry member=".." id="..">…</Entry></ServiceGroup>`)
    /// — what the Index Service walks on every XPath query.
    pub fn document(&self) -> &XmlNode {
        &self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xpath::XPath;

    fn entry(name: &str) -> XmlNode {
        XmlNode::new("ActivityType").attr("name", name)
    }

    fn group() -> ServiceGroup {
        ServiceGroup::new("atr")
    }

    /// How many nodes `xpath` selects in the aggregate document.
    fn hits(g: &ServiceGroup, xpath: &str) -> usize {
        let compiled = XPath::compile(xpath).expect("valid XPath");
        compiled.select(g.document()).len()
    }

    #[test]
    fn add_and_query() {
        let mut g = group();
        g.add("site0", entry("JPOVray"));
        g.add("site1", entry("Wien2k"));
        assert_eq!(hits(&g, "//ActivityType[@name='JPOVray']"), 1);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn refresh_can_replace_content() {
        let mut g = group();
        let id = g.add("site0", entry("A"));
        g.update(id, Some(entry("B"))).unwrap();
        assert_eq!(hits(&g, "//ActivityType[@name='B']"), 1);
        assert_eq!(hits(&g, "//ActivityType[@name='A']"), 0);
    }

    #[test]
    fn remove_unknown_errors() {
        let mut g = group();
        assert!(matches!(
            g.remove(EntryId(99)),
            Err(WsrfError::NoSuchEntry { id: 99 })
        ));
        assert!(g.update(EntryId(99), None).is_err());
    }

    #[test]
    fn aggregate_document_carries_provenance() {
        let mut g = group();
        g.add("site7", entry("A"));
        let doc = g.document();
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
        let a = g.add("m", entry("A"));
        g.remove(a).unwrap();
        let b = g.add("m", entry("B"));
        assert_ne!(a, b);
    }
}
