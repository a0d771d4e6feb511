//! Activity Type Registry (ATR).
//!
//! "Activity Type Registry maintains a set of named activity types in the
//! form of WS-Resources organized in a hierarchy" (§3.1). Two access
//! paths exist, and the difference between them is the paper's Fig. 10/11
//! result:
//!
//! * **named lookup** — "In order to answer queries for named resources
//!   faster, the registry services use hash tables to access named
//!   resources. This eliminates XPath-based search requirements for named
//!   resources and significantly improves the performance."
//! * **XPath query** — the same aggregate-document scan the Index Service
//!   performs, kept for the paper's XPath-style querying of the aggregated
//!   view. Fig. 10/11 time `lookup` against the Index Service's own
//!   `query_by_name`, not against this path.
//!
//! ## Concurrency
//!
//! Every method takes `&self`: the resource home is internally sharded
//! (see [`ResourceHome`]), the hierarchy index sits behind a single
//! `RwLock` (reads dominate; writes only on register/update/remove), and
//! the lookup counter is an atomic. Entries are shared `Arc`s: a named
//! lookup bumps a reference count instead of copying the type, and an
//! update swaps in an edited copy (copy-on-write), so a reader keeps the
//! version it was handed. A registry wrapped in `Arc` serves
//! concurrent client threads with no outer lock — named lookups from
//! different threads genuinely proceed in parallel, which is what the
//! Fig. 10 throughput harness exercises.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use glare_fabric::sync::RwLock;
use glare_fabric::{SimDuration, SimTime};
use glare_services::mds::{REQUEST_BASE_COST, SCAN_PER_ENTRY_COST};
use glare_services::Transport;
use glare_wsrf::{ResourceHome, WsrfError, XPathMemo, XmlNode};

use crate::error::GlareError;
use crate::hierarchy::TypeHierarchy;
use crate::model::ActivityType;

/// Approximate wire size of a type entry.
pub(crate) const TYPE_WIRE_BYTES: u64 = 1_400;

/// A named-lookup response with its modeled service cost.
#[derive(Clone, Debug)]
pub struct TypedResponse<T> {
    /// Payload.
    pub value: T,
    /// Modeled CPU cost of serving the request.
    pub cost: SimDuration,
}

/// The type registry of one GLARE site.
pub struct ActivityTypeRegistry {
    /// Service address (forms EPRs).
    pub address: String,
    /// Transport security.
    pub transport: Transport,
    home: ResourceHome<Arc<ActivityType>>,
    hierarchy: RwLock<TypeHierarchy>,
    xpath_memo: XPathMemo,
    lookups_served: AtomicU64,
}

impl Clone for ActivityTypeRegistry {
    fn clone(&self) -> Self {
        ActivityTypeRegistry {
            address: self.address.clone(),
            transport: self.transport,
            home: self.home.clone(),
            hierarchy: self.hierarchy.clone(),
            xpath_memo: self.xpath_memo.clone(),
            lookups_served: AtomicU64::new(self.lookups_served()),
        }
    }
}

impl fmt::Debug for ActivityTypeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivityTypeRegistry")
            .field("address", &self.address)
            .field("transport", &self.transport)
            .field("types", &self.home.len())
            .field("lookups_served", &self.lookups_served())
            .finish()
    }
}

impl ActivityTypeRegistry {
    /// New registry served at `address`.
    pub fn new(address: impl Into<String>, transport: Transport) -> Self {
        ActivityTypeRegistry {
            address: address.into(),
            transport,
            home: ResourceHome::new(),
            hierarchy: RwLock::new(TypeHierarchy::new()),
            xpath_memo: XPathMemo::new(),
            lookups_served: AtomicU64::new(0),
        }
    }

    /// Register a new activity type (dynamic registration, §3.1).
    ///
    /// The cycle check walks the would-be ancestor chain in place —
    /// O(ancestors), not the O(registry) full-hierarchy clone the naive
    /// trial-insert approach costs.
    pub fn register(&self, t: ActivityType, now: SimTime) -> Result<SimDuration, GlareError> {
        if t.name.is_empty() {
            return Err(GlareError::InvalidType {
                name: t.name.clone(),
                reason: "empty name".into(),
            });
        }
        // Hold the hierarchy write lock across check + create + insert so
        // two concurrent registrations cannot interleave into a cycle.
        let mut hierarchy = self.hierarchy.write();
        if hierarchy.would_cycle(&t.name, &t.base_types) {
            return Err(GlareError::InvalidType {
                name: t.name.clone(),
                reason: "extension cycle".into(),
            });
        }
        let t = Arc::new(t);
        self.home.create(t.name.clone(), Arc::clone(&t), now)?;
        hierarchy.insert(&t);
        Ok(REQUEST_BASE_COST + self.transport.overhead_cost(TYPE_WIRE_BYTES))
    }

    /// Named lookup — the hashtable fast path. Cost does *not* depend on
    /// registry size, and concurrent callers do not serialize. The entry
    /// comes back shared: a lookup bumps a reference count and copies
    /// nothing. `_now` is unread: an entry lives until it is removed, and
    /// the parameter stays only while `perf/` calls this read (ROADMAP 14(a)).
    pub fn lookup(&self, name: &str, _now: SimTime) -> Option<TypedResponse<Arc<ActivityType>>> {
        self.lookups_served.fetch_add(1, Ordering::Relaxed);
        let cost = REQUEST_BASE_COST + self.transport.overhead_cost(512 + TYPE_WIRE_BYTES);
        let value = self.home.with_resource(name, |r| Arc::clone(&r.payload))?;
        Some(TypedResponse { value, cost })
    }

    /// Resolve a (possibly abstract) type to the deployable concrete types
    /// at or below it, skipping revoked entries, keeping what `project`
    /// takes from each type found (the discovery ladder keeps only names).
    pub(crate) fn resolve_concrete<R>(
        &self,
        name: &str,
        mut project: impl FnMut(&ActivityType) -> R,
    ) -> TypedResponse<Vec<R>> {
        self.lookups_served.fetch_add(1, Ordering::Relaxed);
        let names = self.hierarchy.read().concrete_closure(name);
        let mut unrevoked = |t: &ActivityType| (!t.revoked).then(|| project(t));
        let found: Vec<R> = names
            .iter()
            .filter_map(|n| self.home.with_resource(n, |r| unrevoked(&r.payload)).flatten())
            .collect();
        // One hash lookup per hierarchy hop — still size-independent.
        let cost = REQUEST_BASE_COST
            + SimDuration::from_micros(40) * names.len().max(1) as u64
            + self
                .transport
                .overhead_cost(512 + TYPE_WIRE_BYTES * found.len().max(1) as u64);
        TypedResponse { value: found, cost }
    }

    /// XPath query over the aggregate document — the slow path, with the
    /// same per-entry scan cost as the Index Service (both sit on the same
    /// aggregation framework; §4 calls the comparison "logical").
    ///
    /// Compiled expressions are memoized by string; the per-entry document
    /// walk (the modeled cost) is still paid on every call.
    pub fn query_xpath(&self, expr: &str) -> Result<TypedResponse<Vec<XmlNode>>, GlareError> {
        let scanned = self.home.len();
        let doc = self.home.aggregate_document();
        let compiled = self.xpath_memo.get_or_compile(expr).map_err(|e| {
            GlareError::Wsrf(WsrfError::InvalidQuery {
                message: e.to_string(),
            })
        })?;
        let matches: Vec<XmlNode> = compiled.select(&doc).into_iter().cloned().collect();
        let cost = REQUEST_BASE_COST
            + SCAN_PER_ENTRY_COST * scanned as u64
            + self
                .transport
                .overhead_cost(512 + TYPE_WIRE_BYTES * matches.len().max(1) as u64);
        Ok(TypedResponse {
            value: matches,
            cost,
        })
    }

    /// Update a type (bumps its modification stamp). Copy-on-write: `f`
    /// edits a copy, which replaces the shared entry only if its base types
    /// close no extension cycle — the check `register` makes. A rejected
    /// edit leaves entry, stamp and hierarchy as they were.
    pub fn update<F>(&self, name: &str, now: SimTime, f: F) -> Result<(), GlareError>
    where
        F: FnOnce(&mut ActivityType),
    {
        // Held across read, check, swap and re-insert, as in `register`, so
        // no other edit lands in between.
        let mut hierarchy = self.hierarchy.write();
        let mut edited = self
            .home
            .with_resource(name, |r| Arc::clone(&r.payload))
            .ok_or_else(|| WsrfError::NoSuchResource {
                key: name.to_owned(),
            })?;
        f(Arc::make_mut(&mut edited));
        if hierarchy.would_cycle(&edited.name, &edited.base_types) {
            return Err(GlareError::InvalidType {
                name: edited.name.clone(),
                reason: "extension cycle".into(),
            });
        }
        self.home.update(name, now, |entry| {
            hierarchy.insert(&edited);
            *entry = edited;
        })?;
        Ok(())
    }

    /// Remove a type permanently. Returns the removed entry.
    pub fn remove(&self, name: &str) -> Result<ActivityType, GlareError> {
        let r = self.home.destroy(name)?;
        self.hierarchy.write().remove(name);
        Ok(Arc::unwrap_or_clone(r.payload))
    }

    /// Whether a type is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.home.contains(name)
    }

    /// Number of registered types. `_now` is unread; it stays only while
    /// `perf/` calls this read (ROADMAP 14(a)).
    pub fn len(&self, _now: SimTime) -> usize {
        self.home.len()
    }

    /// Names of all registered types.
    pub(crate) fn names(&self) -> Vec<String> {
        self.home.live_keys()
    }

    /// Total lookups served (for experiment accounting).
    pub fn lookups_served(&self) -> u64 {
        self.lookups_served.load(Ordering::Relaxed)
    }

    /// Run `f` against the hierarchy index under its read lock.
    pub(crate) fn with_hierarchy<R>(&self, f: impl FnOnce(&TypeHierarchy) -> R) -> R {
        f(&self.hierarchy.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::example_hierarchy;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn loaded() -> ActivityTypeRegistry {
        let r = ActivityTypeRegistry::new("https://site0/ATR", Transport::Http);
        for ty in example_hierarchy(SimTime::ZERO) {
            r.register(ty, t(0)).unwrap();
        }
        r
    }

    #[test]
    fn register_and_lookup() {
        let r = loaded();
        let resp = r.lookup("JPOVray", t(1)).unwrap();
        assert_eq!(resp.value.name, "JPOVray");
        assert!(r.lookup("Missing", t(1)).is_none());
        assert_eq!(r.lookups_served(), 2);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let r = loaded();
        let dup = ActivityType::concrete_type("JPOVray", "imaging", "jpovray");
        assert!(matches!(
            r.register(dup, t(1)),
            Err(GlareError::Wsrf(WsrfError::AlreadyExists { .. }))
        ));
    }

    #[test]
    fn lookup_cost_is_size_independent() {
        let small = ActivityTypeRegistry::new("a", Transport::Http);
        small
            .register(ActivityType::concrete_type("X", "d", "x"), t(0))
            .unwrap();
        let big = ActivityTypeRegistry::new("b", Transport::Http);
        for i in 0..500 {
            big.register(
                ActivityType::concrete_type(&format!("T{i}"), "d", "x"),
                t(0),
            )
            .unwrap();
        }
        big.register(ActivityType::concrete_type("X", "d", "x"), t(0))
            .unwrap();
        let c1 = small.lookup("X", t(1)).unwrap().cost;
        let c2 = big.lookup("X", t(1)).unwrap().cost;
        assert_eq!(c1, c2, "hashtable path must not scale with registry size");
    }

    #[test]
    fn xpath_cost_scales_with_size() {
        let r = loaded();
        let c_small = r
            .query_xpath("//ActivityTypeEntry[@name='Wien2k']")
            .unwrap()
            .cost;
        for i in 0..200 {
            r.register(
                ActivityType::concrete_type(&format!("Bulk{i}"), "d", "x"),
                t(0),
            )
            .unwrap();
        }
        let c_big = r
            .query_xpath("//ActivityTypeEntry[@name='Wien2k']")
            .unwrap()
            .cost;
        assert!(c_big > c_small, "XPath path pays per entry");
    }

    #[test]
    fn resolve_concrete_skips_revoked_and_expired() {
        let r = loaded();
        assert_eq!(
            r.resolve_concrete("Imaging", ActivityType::clone).value[0].name,
            "JPOVray"
        );
        r.update("JPOVray", t(1), |t| t.revoked = true).unwrap();
        assert!(r.resolve_concrete("Imaging", ActivityType::clone).value.is_empty());
        r.update("JPOVray", t(2), |t| t.revoked = false).unwrap();
        assert_eq!(r.resolve_concrete("Imaging", ActivityType::clone).value.len(), 1);
        r.remove("JPOVray").unwrap();
        assert!(r.resolve_concrete("Imaging", ActivityType::clone).value.is_empty());
    }

    #[test]
    fn cycle_rejected_at_registration() {
        let r = ActivityTypeRegistry::new("a", Transport::Http);
        r.register(ActivityType::abstract_type("A", "d").extends("B"), t(0))
            .unwrap();
        let err = r
            .register(ActivityType::abstract_type("B", "d").extends("A"), t(0))
            .unwrap_err();
        assert!(matches!(err, GlareError::InvalidType { .. }));
        assert!(!r.contains("B"));
    }

    #[test]
    fn self_extension_rejected() {
        let r = ActivityTypeRegistry::new("a", Transport::Http);
        let err = r
            .register(ActivityType::abstract_type("A", "d").extends("A"), t(0))
            .unwrap_err();
        assert!(matches!(err, GlareError::InvalidType { .. }));
    }

    #[test]
    fn https_lookup_costs_more() {
        let plain = loaded();
        let secure = ActivityTypeRegistry::new("s", Transport::Https);
        for ty in example_hierarchy(SimTime::ZERO) {
            secure.register(ty, t(0)).unwrap();
        }
        let c1 = plain.lookup("JPOVray", t(1)).unwrap().cost;
        let c2 = secure.lookup("JPOVray", t(1)).unwrap().cost;
        assert!(c2 > c1);
    }

    #[test]
    fn remove_and_names() {
        let r = loaded();
        let n = r.len(t(1));
        let removed = r.remove("Counter").unwrap();
        assert_eq!(removed.name, "Counter");
        assert_eq!(r.len(t(1)), n - 1);
        assert!(!r.names().contains(&"Counter".to_owned()));
        assert!(r.remove("Counter").is_err());
    }

    #[test]
    fn update_rebuilds_hierarchy() {
        let r = loaded();
        r.update("Wien2k", t(1), |t| {
            t.base_types.push("Imaging".into());
        })
        .unwrap();
        let resolved = r.resolve_concrete("Imaging", ActivityType::clone).value;
        let names: Vec<&str> = resolved.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"Wien2k"));
        assert!(names.contains(&"JPOVray"));
    }

    #[test]
    fn update_cannot_introduce_an_extension_cycle() {
        let r = ActivityTypeRegistry::new("a", Transport::Http);
        r.register(ActivityType::abstract_type("B", "d"), t(0)).unwrap();
        r.register(ActivityType::abstract_type("A", "d").extends("B"), t(0))
            .unwrap();
        let before = r.lookup("B", t(1)).unwrap().value;
        let err = r
            .update("B", t(2), |b| b.base_types.push("A".into()))
            .unwrap_err();
        assert!(
            matches!(&err, GlareError::InvalidType { reason, .. } if reason == "extension cycle"),
            "{err:?}"
        );
        assert!(!r.with_hierarchy(|h| h.has_cycle_from("A")));
        assert!(!r.with_hierarchy(|h| h.has_cycle_from("B")));
        assert_eq!(*r.lookup("B", t(3)).unwrap().value, *before, "payload unchanged");
        assert!(r.resolve_concrete("A", ActivityType::clone).value.is_empty());
        // A legal edit still lands, and a reader keeps the version it held.
        r.update("B", t(4), |b| b.domain = "e".into()).unwrap();
        assert_eq!(r.lookup("B", t(5)).unwrap().value.domain, "e");
        assert_eq!(before.domain, "d");
    }

    #[test]
    fn shared_reads_through_arc() {
        use std::sync::Arc;
        let r = Arc::new(loaded());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut found = 0;
                    for _ in 0..500 {
                        if r.lookup("JPOVray", t(1)).is_some() {
                            found += 1;
                        }
                    }
                    found
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 500);
        }
        assert_eq!(r.lookups_served(), 2000, "no lost counter updates");
    }
}
