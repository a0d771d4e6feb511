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
//!   performs, kept for non-named discovery (and for the ablation bench).
//!
//! ## Concurrency
//!
//! Every method takes `&self`: the resource home is internally sharded
//! (see [`ResourceHome`]), the hierarchy index sits behind a single
//! `RwLock` (reads dominate; writes only on register/update/remove), and
//! the lookup counter is an atomic. A registry wrapped in `Arc` serves
//! concurrent client threads with no outer lock — named lookups from
//! different threads genuinely proceed in parallel, which is what the
//! Fig. 10 throughput harness exercises.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use glare_fabric::sync::RwLock;
use glare_fabric::{SimDuration, SimTime};
use glare_services::mds::{REQUEST_BASE_COST, SCAN_PER_ENTRY_COST};
use glare_services::Transport;
use glare_wsrf::{ResourceHome, WsrfError, XPathMemo, XmlNode};

use crate::error::GlareError;
use crate::hierarchy::TypeHierarchy;
use crate::model::ActivityType;

/// Approximate wire size of a type entry.
pub const TYPE_WIRE_BYTES: u64 = 1_400;

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
    home: ResourceHome<ActivityType>,
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
            .field("types", &self.home.len_total())
            .field("lookups_served", &self.lookups_served())
            .finish()
    }
}

impl ActivityTypeRegistry {
    /// New registry served at `address`.
    pub fn new(address: &str, transport: Transport) -> Self {
        ActivityTypeRegistry {
            address: address.to_owned(),
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
        self.home.create(t.name.clone(), t.clone(), now)?;
        hierarchy.insert(&t);
        Ok(REQUEST_BASE_COST + self.transport.overhead_cost(TYPE_WIRE_BYTES))
    }

    /// Named lookup — the hashtable fast path. Cost does *not* depend on
    /// registry size, and concurrent callers do not serialize.
    pub fn lookup(&self, name: &str, now: SimTime) -> Option<TypedResponse<ActivityType>> {
        self.lookups_served.fetch_add(1, Ordering::Relaxed);
        let cost = REQUEST_BASE_COST + self.transport.overhead_cost(512 + TYPE_WIRE_BYTES);
        let value = self.home.with_resource(name, now, |r| r.payload.clone())?;
        Some(TypedResponse { value, cost })
    }

    /// Resolve a (possibly abstract) type to the deployable concrete types
    /// at or below it, skipping expired and revoked entries.
    pub fn resolve_concrete(&self, name: &str, now: SimTime) -> TypedResponse<Vec<ActivityType>> {
        self.resolve_concrete_with(name, now, ActivityType::clone)
    }

    /// The walk behind [`ActivityTypeRegistry::resolve_concrete`], keeping
    /// what `project` takes from each type found instead of a copy of it
    /// (the discovery ladder keeps only names).
    pub(crate) fn resolve_concrete_with<R>(
        &self,
        name: &str,
        now: SimTime,
        mut project: impl FnMut(&ActivityType) -> R,
    ) -> TypedResponse<Vec<R>> {
        self.lookups_served.fetch_add(1, Ordering::Relaxed);
        let names = self.hierarchy.read().concrete_closure(name);
        let mut unrevoked = |t: &ActivityType| (!t.revoked).then(|| project(t));
        let found: Vec<R> = names
            .iter()
            .filter_map(|n| self.home.with_resource(n, now, |r| unrevoked(&r.payload)).flatten())
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
    pub fn query_xpath(
        &self,
        expr: &str,
        now: SimTime,
    ) -> Result<TypedResponse<Vec<XmlNode>>, GlareError> {
        let scanned = self.home.len_live(now);
        let doc = self.home.aggregate_document(now);
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

    /// Discover types by offered function name — the semantic-description
    /// lookup sketched in the paper's §6 future work ("we plan to augment
    /// activity types with ontological description so that activity types
    /// can be searched for based on a semantic description"). A linear
    /// scan (costed like the XPath path), since functions are not named
    /// resources.
    pub fn find_by_function(&self, function: &str, now: SimTime) -> TypedResponse<Vec<ActivityType>> {
        let entries = self.home.snapshot_live(now);
        let scanned = entries.len();
        let hierarchy = self.hierarchy.read();
        let hits: Vec<ActivityType> = entries
            .into_iter()
            .map(|r| r.payload)
            .filter(|t| {
                // A type offers a function if it or any ancestor declares it.
                t.functions.iter().any(|f| f.name == function)
                    || hierarchy.ancestors(&t.name).iter().any(|a| {
                        self.home
                            .with_resource(a, now, |b| {
                                b.payload.functions.iter().any(|f| f.name == function)
                            })
                            .unwrap_or(false)
                    })
            })
            .collect();
        let cost = REQUEST_BASE_COST
            + SCAN_PER_ENTRY_COST * scanned as u64
            + self
                .transport
                .overhead_cost(512 + TYPE_WIRE_BYTES * hits.len().max(1) as u64);
        TypedResponse { value: hits, cost }
    }

    /// Discover types by application domain (same scan cost model).
    pub fn find_by_domain(&self, domain: &str, now: SimTime) -> TypedResponse<Vec<ActivityType>> {
        let mut hits: Vec<ActivityType> = Vec::new();
        let mut scanned = 0usize;
        self.home.for_each_live(now, |r| {
            scanned += 1;
            if r.payload.domain == domain {
                hits.push(r.payload.clone());
            }
        });
        let cost = REQUEST_BASE_COST
            + SCAN_PER_ENTRY_COST * scanned as u64
            + self
                .transport
                .overhead_cost(512 + TYPE_WIRE_BYTES * hits.len().max(1) as u64);
        TypedResponse { value: hits, cost }
    }

    /// Update a type in place (bumps its modification stamp).
    pub fn update<F>(&self, name: &str, now: SimTime, f: F) -> Result<(), GlareError>
    where
        F: FnOnce(&mut ActivityType),
    {
        self.home.update(name, now, f)?;
        // Rebuild hierarchy edges in case base types changed.
        if let Some(t) = self.home.with_resource(name, now, |r| r.payload.clone()) {
            self.hierarchy.write().insert(&t);
        }
        Ok(())
    }

    /// Revoke / un-revoke a type (§3.3: "revoking for certain time").
    pub fn set_revoked(&self, name: &str, revoked: bool, now: SimTime) -> Result<(), GlareError> {
        self.update(name, now, |t| t.revoked = revoked)
    }

    /// Schedule (or clear) expiry of a type.
    pub fn set_expiry(
        &self,
        name: &str,
        when: Option<SimTime>,
        now: SimTime,
    ) -> Result<(), GlareError> {
        self.home.set_termination_time(name, when, now)?;
        Ok(())
    }

    /// Remove a type permanently. Returns the removed entry.
    pub fn remove(&self, name: &str) -> Result<ActivityType, GlareError> {
        let r = self.home.destroy(name)?;
        self.hierarchy.write().remove(name);
        Ok(r.payload)
    }

    /// Sweep expired types out of the hierarchy; returns their names (the
    /// RDM cascades expiry to their deployments).
    pub fn sweep_expired(&self, now: SimTime) -> Vec<String> {
        let dead = self.home.sweep_expired(now);
        if !dead.is_empty() {
            let mut hierarchy = self.hierarchy.write();
            for name in &dead {
                hierarchy.remove(name);
            }
        }
        dead
    }

    /// Whether a live type exists.
    pub fn contains(&self, name: &str, now: SimTime) -> bool {
        self.home.contains(name, now)
    }

    /// Number of live types.
    pub fn len(&self, now: SimTime) -> usize {
        self.home.len_live(now)
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self, now: SimTime) -> bool {
        self.len(now) == 0
    }

    /// Names of all live types.
    pub fn names(&self, now: SimTime) -> Vec<String> {
        self.home.live_keys(now)
    }

    /// Total lookups served (for experiment accounting).
    pub fn lookups_served(&self) -> u64 {
        self.lookups_served.load(Ordering::Relaxed)
    }

    /// Run `f` against the hierarchy index under its read lock.
    pub fn with_hierarchy<R>(&self, f: impl FnOnce(&TypeHierarchy) -> R) -> R {
        f(&self.hierarchy.read())
    }

    /// The full aggregate document (what super-peers exchange).
    pub fn aggregate(&self, now: SimTime) -> XmlNode {
        self.home.aggregate_document(now)
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
            .query_xpath("//ActivityTypeEntry[@name='Wien2k']", t(1))
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
            .query_xpath("//ActivityTypeEntry[@name='Wien2k']", t(1))
            .unwrap()
            .cost;
        assert!(c_big > c_small, "XPath path pays per entry");
    }

    #[test]
    fn resolve_concrete_skips_revoked_and_expired() {
        let r = loaded();
        assert_eq!(
            r.resolve_concrete("Imaging", t(1)).value[0].name,
            "JPOVray"
        );
        r.set_revoked("JPOVray", true, t(1)).unwrap();
        assert!(r.resolve_concrete("Imaging", t(2)).value.is_empty());
        r.set_revoked("JPOVray", false, t(2)).unwrap();
        r.set_expiry("JPOVray", Some(t(10)), t(2)).unwrap();
        assert_eq!(r.resolve_concrete("Imaging", t(9)).value.len(), 1);
        assert!(r.resolve_concrete("Imaging", t(11)).value.is_empty());
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
        assert!(!r.contains("B", t(1)));
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
    fn sweep_cascade_names() {
        let r = loaded();
        r.set_expiry("Wien2k", Some(t(5)), t(0)).unwrap();
        r.set_expiry("Invmod", Some(t(5)), t(0)).unwrap();
        let mut dead = r.sweep_expired(t(6));
        dead.sort();
        assert_eq!(dead, vec!["Invmod", "Wien2k"]);
        assert!(!r.contains("Wien2k", t(6)));
        assert!(r.resolve_concrete("Wien2k", t(6)).value.is_empty());
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
        assert!(!r.names(t(1)).contains(&"Counter".to_owned()));
        assert!(r.remove("Counter").is_err());
    }

    #[test]
    fn semantic_discovery_by_function_and_domain() {
        let r = loaded();
        // 'render' is declared on the abstract Imaging type; JPOVray
        // inherits it through the hierarchy.
        let hits = r.find_by_function("render", t(1)).value;
        let names: Vec<&str> = hits.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"Imaging"), "{names:?}");
        assert!(names.contains(&"JPOVray"), "inherited function: {names:?}");
        assert!(r.find_by_function("transmogrify", t(1)).value.is_empty());

        let domain_hits = r.find_by_domain("imaging", t(1)).value;
        assert!(domain_hits.len() >= 3, "Imaging, POVray, JPOVray");
        assert!(r.find_by_domain("astrology", t(1)).value.is_empty());
        // Scan-cost model: grows with registry size.
        let c1 = r.find_by_domain("imaging", t(1)).cost;
        for i in 0..100 {
            r.register(ActivityType::concrete_type(&format!("B{i}"), "bulk", "x"), t(0))
                .unwrap();
        }
        let c2 = r.find_by_domain("imaging", t(1)).cost;
        assert!(c2 > c1);
    }

    #[test]
    fn update_rebuilds_hierarchy() {
        let r = loaded();
        r.update("Wien2k", t(1), |t| {
            t.base_types.push("Imaging".into());
        })
        .unwrap();
        let resolved = r.resolve_concrete("Imaging", t(2)).value;
        let names: Vec<&str> = resolved.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"Wien2k"));
        assert!(names.contains(&"JPOVray"));
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
