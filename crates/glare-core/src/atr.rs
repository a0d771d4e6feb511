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
//! Every method takes `&self`. Each type is stored once, as a shared
//! `Arc` in one `RwLock`-protected resource home (see
//! [`ResourceHome`](glare_wsrf::ResourceHome)); the hierarchy index beside
//! it, behind its own `RwLock`, keeps only the reverse extension edges and
//! the memoised closures, and reads a type's kind and base types from the
//! home. Every write and every closure walk
//! takes the hierarchy lock before the home's, so the two never deadlock.
//! A named lookup takes only the home's read lock and bumps a reference
//! count instead of copying the type; an update swaps in an edited copy
//! (copy-on-write), so a reader keeps the version it was handed. A
//! registry wrapped in `Arc` serves concurrent client threads with no
//! outer lock, which is what the Fig. 10 throughput harness exercises.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use glare_fabric::sync::RwLock;
use glare_fabric::{SimDuration, SimTime};
use glare_services::mds::{REQUEST_BASE_COST, SCAN_PER_ENTRY_COST};
use glare_services::Transport;
use glare_wsrf::{WsrfError, XPathMemo, XmlNode};

use crate::error::GlareError;
use crate::hierarchy::{TypeHierarchy, TypeHome};
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
    home: TypeHome,
    hierarchy: RwLock<TypeHierarchy>,
    xpath_memo: XPathMemo,
    lookups_served: AtomicU64,
}

impl Clone for ActivityTypeRegistry {
    fn clone(&self) -> Self {
        // Hierarchy, then home: the copy is one consistent snapshot.
        let hierarchy = self.hierarchy.read();
        ActivityTypeRegistry {
            address: self.address.clone(),
            transport: self.transport,
            home: self.home.clone(),
            hierarchy: RwLock::new(hierarchy.clone()),
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
            home: TypeHome::new(),
            hierarchy: RwLock::default(),
            xpath_memo: XPathMemo::new(),
            lookups_served: AtomicU64::new(0),
        }
    }

    /// Register a new activity type (dynamic registration, §3.1). A
    /// shared `Arc` is stored as is, so sites that register one value
    /// hold one copy of it.
    pub fn register(
        &self,
        t: impl Into<Arc<ActivityType>>,
        now: SimTime,
    ) -> Result<SimDuration, GlareError> {
        let t = t.into();
        if t.name.is_empty() {
            return Err(invalid(&t.name, "empty name"));
        }
        // Held across check, create and link so two concurrent
        // registrations cannot interleave into a cycle.
        let mut hierarchy = self.hierarchy.write();
        if self.would_cycle(&t.name, &t.base_types) {
            return Err(invalid(&t.name, "extension cycle"));
        }
        self.home.create(t.name.clone(), Arc::clone(&t), now)?;
        hierarchy.link(&t);
        Ok(REQUEST_BASE_COST + self.transport.overhead_cost(TYPE_WIRE_BYTES))
    }

    /// Would `name` extending `bases` close an extension cycle? Walks up
    /// the would-be ancestors through the home: O(ancestors of the
    /// bases), not O(registry). A base nothing is registered under is a
    /// dangling edge, never a cycle.
    fn would_cycle(&self, name: &str, bases: &[String]) -> bool {
        // The registered types above `name` still to walk up from, and the
        // names of every one found, so a diamond is walked once.
        let mut above: Vec<Arc<ActivityType>> = Vec::new();
        let mut seen = HashSet::new();
        let mut reaches = |base: &String, above: &mut Vec<Arc<ActivityType>>| {
            if base == name {
                return true;
            }
            if !seen.contains(base) {
                if let Some(t) = self.home.with_resource(base, |r| Arc::clone(&r.payload)) {
                    seen.insert(base.clone());
                    above.push(t);
                }
            }
            false
        };
        if bases.iter().any(|b| reaches(b, &mut above)) {
            return true;
        }
        while let Some(t) = above.pop() {
            if t.base_types.iter().any(|b| reaches(b, &mut above)) {
                return true;
            }
        }
        false
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
        let names = self.concrete_closure(name);
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

    /// All *concrete* types at or below `name` (the §2.2 "iterative
    /// lookup"), deduplicated, in discovery order: breadth first down the
    /// extension edges, a type's extending types in the order they were
    /// last (re)registered. Revoked types are listed; unknown names yield
    /// an empty list. Memoised per name between edge changes.
    pub fn concrete_closure(&self, name: &str) -> Arc<[String]> {
        self.hierarchy.read().concrete_closure(name, &self.home)
    }

    /// Update a type (bumps its modification stamp). Copy-on-write: `f`
    /// edits a copy, which replaces the shared entry only if it keeps its
    /// name and its base types close no extension cycle — the check
    /// `register` makes. A rejected edit leaves entry, stamp and hierarchy
    /// as they were.
    pub fn update<F>(&self, name: &str, now: SimTime, f: F) -> Result<(), GlareError>
    where
        F: FnOnce(&mut ActivityType),
    {
        // Held across read, check, swap and relink, as in `register`, so
        // no other edit lands in between.
        let mut hierarchy = self.hierarchy.write();
        let old = self
            .home
            .with_resource(name, |r| Arc::clone(&r.payload))
            .ok_or_else(|| WsrfError::NoSuchResource {
                key: name.to_owned(),
            })?;
        let mut edited = Arc::clone(&old);
        f(Arc::make_mut(&mut edited));
        if edited.name != name {
            return Err(invalid(name, "an update cannot rename a type"));
        }
        if self.would_cycle(name, &edited.base_types) {
            return Err(invalid(name, "extension cycle"));
        }
        hierarchy.unlink(&old);
        hierarchy.link(&edited);
        self.home.update(name, now, |entry| *entry = edited)?;
        Ok(())
    }

    /// Remove a type permanently. Returns the removed entry.
    pub fn remove(&self, name: &str) -> Result<ActivityType, GlareError> {
        let mut hierarchy = self.hierarchy.write();
        let r = self.home.destroy(name)?;
        hierarchy.unlink(&r.payload);
        drop(hierarchy);
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

    /// The hierarchy index under its read lock, for its tests.
    #[cfg(test)]
    pub(crate) fn hierarchy(&self) -> std::sync::RwLockReadGuard<'_, TypeHierarchy> {
        self.hierarchy.read()
    }
}

fn invalid(name: &str, reason: &str) -> GlareError {
    GlareError::InvalidType {
        name: name.to_owned(),
        reason: reason.to_owned(),
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
        assert_eq!(r.lookup("A", t(1)).unwrap().value.base_types, ["B"]);
        assert!(
            r.lookup("B", t(1)).unwrap().value.base_types.is_empty(),
            "no edge closes the loop"
        );
        assert_eq!(*r.lookup("B", t(3)).unwrap().value, *before, "payload unchanged");
        assert!(r.resolve_concrete("A", ActivityType::clone).value.is_empty());
        // A legal edit still lands, and a reader keeps the version it held.
        r.update("B", t(4), |b| b.domain = "e".into()).unwrap();
        assert_eq!(r.lookup("B", t(5)).unwrap().value.domain, "e");
        assert_eq!(before.domain, "d");
    }

    /// An edit that renames the type is refused: the entry would sit under
    /// a key that is not its name, and the index would keep edges for a
    /// name nothing is registered under.
    #[test]
    fn update_refuses_a_rename() {
        let r = loaded();
        let stamp = |r: &ActivityTypeRegistry| r.home.with_resource("JPOVray", |e| e.modified_at);
        let err = r
            .update("JPOVray", t(5), |ty| ty.name = "Other".into())
            .unwrap_err();
        assert!(
            matches!(&err, GlareError::InvalidType { name, .. } if name == "JPOVray"),
            "{err:?}"
        );
        assert_eq!(r.lookup("JPOVray", t(6)).unwrap().value.name, "JPOVray");
        assert!(r.lookup("Other", t(6)).is_none());
        assert_eq!(stamp(&r), Some(t(0)), "a refused edit leaves the stamp");
        assert_eq!(*r.concrete_closure("Imaging"), ["JPOVray".to_owned()]);
        r.remove("JPOVray").unwrap();
        assert!(r.concrete_closure("Imaging").is_empty(), "no name outlives its entry");
        assert!(r.concrete_closure("Other").is_empty());
    }

    /// Four threads mix every write and read on one registry. A thread
    /// writes only its own names, whose bases are its own names or one
    /// dangling name of its own, so which of its writes are accepted and
    /// what the closures end as depend on its own order alone: replaying
    /// each thread's writes in turn on a fresh registry must end in the
    /// same entries, stamps and closures. Writes and closure walks take the
    /// hierarchy lock before the home's; one that took them the other way
    /// round could deadlock here, which the watchdog turns into a failure.
    #[test]
    fn concurrent_writes_and_walks_match_a_sequential_replay() {
        use glare_fabric::SimRng;
        use std::sync::mpsc;
        use std::time::Duration;

        const THREADS: u64 = 4;
        const NAMES: u64 = 6;
        const OPS: u64 = 600;
        enum Op {
            Register(Arc<ActivityType>),
            Update(String, Vec<String>, bool),
            Remove(String),
        }
        let name = |th: u64, i: u64| format!("P{th}.{i}");
        let ops = move |th: u64| -> Vec<Op> {
            let mut rng = SimRng::from_seed(0xA7_0000 + th);
            let bases = |rng: &mut SimRng| -> Vec<String> {
                let n = rng.range(0, 3);
                let mut out: Vec<String> = (0..n).map(|_| name(th, rng.range(0, NAMES + 1))).collect();
                out.dedup();
                out
            };
            (0..OPS)
                .map(|_| {
                    let n = name(th, rng.range(0, NAMES));
                    match rng.range(0, 10) {
                        0..=3 => {
                            let mut ty = match rng.chance(0.5) {
                                true => ActivityType::concrete_type(&n, "d", "x"),
                                false => ActivityType::abstract_type(&n, "d"),
                            };
                            ty.base_types = bases(&mut rng);
                            Op::Register(Arc::new(ty))
                        }
                        4..=7 => Op::Update(n, bases(&mut rng), rng.chance(0.3)),
                        _ => Op::Remove(n),
                    }
                })
                .collect()
        };
        let apply = |r: &ActivityTypeRegistry, op: Op, now: SimTime| match op {
            Op::Register(ty) => r.register(ty, now).is_ok(),
            Op::Update(n, bases, revoked) => r
                .update(&n, now, |ty| {
                    ty.base_types = bases;
                    ty.revoked = revoked;
                })
                .is_ok(),
            Op::Remove(n) => r.remove(&n).is_ok(),
        };
        let all_names: Vec<String> = (0..THREADS)
            .flat_map(|th| (0..=NAMES).map(move |i| name(th, i)))
            .collect();

        let shared = Arc::new(ActivityTypeRegistry::new("a", Transport::Http));
        let (done, finished) = mpsc::channel();
        for th in 0..THREADS {
            let (r, done, names) = (Arc::clone(&shared), done.clone(), all_names.clone());
            std::thread::spawn(move || {
                let mut rng = SimRng::from_seed(th);
                let mut accepted = 0;
                for (k, op) in ops(th).into_iter().enumerate() {
                    accepted += usize::from(apply(&r, op, t(k as u64)));
                    let probe = &names[rng.index(names.len())];
                    let _ = r.lookup(probe, t(0));
                    let _ = r.resolve_concrete(probe, |ty| ty.name.clone());
                }
                done.send(accepted).unwrap();
            });
        }
        let mut accepted = 0;
        for _ in 0..THREADS {
            let n = finished
                .recv_timeout(Duration::from_secs(30))
                .expect("every thread finishes: no lock-order deadlock");
            accepted += n;
        }

        let replay = ActivityTypeRegistry::new("b", Transport::Http);
        let mut replayed = 0;
        for th in 0..THREADS {
            for (k, op) in ops(th).into_iter().enumerate() {
                replayed += usize::from(apply(&replay, op, t(k as u64)));
            }
        }
        assert_eq!(accepted, replayed, "the same writes are accepted");
        assert!(replayed > 400, "{replayed} writes accepted");
        let mut names = shared.names();
        names.sort();
        let mut want = replay.names();
        want.sort();
        assert_eq!(names, want);
        let entry = |r: &ActivityTypeRegistry, n: &str| {
            r.home.with_resource(n, |e| (ActivityType::clone(&e.payload), e.modified_at))
        };
        for n in &all_names {
            assert_eq!(entry(&shared, n), entry(&replay, n), "entry {n}");
            assert_eq!(*shared.concrete_closure(n), *replay.concrete_closure(n), "closure of {n}");
        }
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
