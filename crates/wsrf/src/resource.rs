//! WS-Resources: stateful, keyed, lifecycle-managed resources.
//!
//! "Each occurrence of an activity type and deployment in a registry
//! service is represented as a WS-Resource. A WS-Resource is a stateful web
//! service which provides mechanisms including service lifecycle
//! management, event registration and notification" (§3.1).
//!
//! A [`ResourceHome<T>`] stores typed payloads under string keys with
//! WSRF-style lifecycle management: creation, explicit destruction, and a
//! last-modified stamp that feeds GLARE's LUT-based cache refresh. An
//! entry lives until it is destroyed; WSRF's scheduled termination is not
//! modelled (DESIGN.md §2), so no read depends on the clock.
//!
//! ## Concurrency
//!
//! The home is one `RwLock`-protected hash table, so every operation takes
//! `&self` and named lookups from different client threads proceed in
//! parallel under the shared read lock; only a write excludes them. This
//! is what lets the registries expose a concurrent read path — the
//! paper's hashtable named-lookup argument — instead of hiding behind one
//! big service lock. An empty `HashMap` allocates nothing, so a home that
//! was never written holds no table storage.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use glare_fabric::sync::RwLock;
use glare_fabric::SimTime;

use crate::error::WsrfError;
use crate::xml::XmlNode;

/// Payloads stored in a [`ResourceHome`] render themselves as a WSRF
/// resource property document for XPath queries and aggregation.
pub trait ResourceProperties {
    /// Produce the resource property document.
    fn to_property_document(&self) -> XmlNode;
}

/// A home of shared entries (`ResourceHome<Arc<T>>`) renders each one as
/// `T` does: a read hands out the `Arc`, not a copy.
impl<T: ResourceProperties> ResourceProperties for Arc<T> {
    fn to_property_document(&self) -> XmlNode {
        T::to_property_document(self)
    }
}

/// One WS-Resource. Its key is the one it is stored under in its home.
#[derive(Clone, Debug)]
pub struct WsResource<T> {
    /// Typed payload.
    pub payload: T,
    /// Last modification instant (the LUT source).
    pub modified_at: SimTime,
}

/// A keyed collection of WS-Resources with lifecycle management and an
/// interior-mutable concurrent access path.
#[derive(Clone)]
pub struct ResourceHome<T> {
    map: RwLock<HashMap<String, WsResource<T>>>,
}

impl<T> Default for ResourceHome<T> {
    fn default() -> Self {
        ResourceHome {
            map: RwLock::default(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ResourceHome<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.map.read().iter()).finish()
    }
}

fn no_such(key: &str) -> WsrfError {
    WsrfError::NoSuchResource {
        key: key.to_owned(),
    }
}

impl<T> ResourceHome<T> {
    /// Empty home.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a resource. Fails if the key exists.
    pub fn create(
        &self,
        key: impl Into<String>,
        payload: T,
        now: SimTime,
    ) -> Result<(), WsrfError> {
        let key = key.into();
        let mut map = self.map.write();
        if map.contains_key(&key) {
            return Err(WsrfError::AlreadyExists { key });
        }
        map.insert(key, WsResource { payload, modified_at: now });
        Ok(())
    }

    /// Read access to a resource through a closure (no clone; the read
    /// lock is held only for the closure's duration).
    pub fn with_resource<R>(&self, key: &str, f: impl FnOnce(&WsResource<T>) -> R) -> Option<R> {
        self.map.read().get(key).map(f)
    }

    /// Mutate a resource's payload and bump its modification stamp, under
    /// the write lock.
    pub fn update<F, R>(&self, key: &str, now: SimTime, f: F) -> Result<R, WsrfError>
    where
        F: FnOnce(&mut T) -> R,
    {
        let mut map = self.map.write();
        let r = map.get_mut(key).ok_or_else(|| no_such(key))?;
        r.modified_at = now;
        Ok(f(&mut r.payload))
    }

    /// Touch a resource: bump `modified_at` without changing the payload
    /// (the Deployment Status Monitor's heartbeat).
    pub fn touch(&self, key: &str, now: SimTime) -> Result<(), WsrfError> {
        self.update(key, now, |_| ())
    }

    /// Explicitly destroy a resource.
    pub fn destroy(&self, key: &str) -> Result<WsResource<T>, WsrfError> {
        self.map.write().remove(key).ok_or_else(|| no_such(key))
    }

    /// Visit every resource with its key, under the read lock.
    pub(crate) fn for_each_live(&self, mut f: impl FnMut(&str, &WsResource<T>)) {
        for (k, r) in self.map.read().iter() {
            f(k, r);
        }
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the home holds no resource.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a resource exists under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.with_resource(key, |_| ()).is_some()
    }

    /// Keys of all resources (unordered).
    pub fn live_keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        self.for_each_live(|k, _| keys.push(k.to_owned()));
        keys
    }
}

impl<T: ResourceProperties> ResourceHome<T> {
    /// Aggregate all resources into one queryable document
    /// (`<Resources><Resource key="..">…</Resource>…</Resources>`), in
    /// deterministic key order.
    pub fn aggregate_document(&self) -> XmlNode {
        let mut live: Vec<XmlNode> = Vec::new();
        self.for_each_live(|k, r| {
            live.push(
                XmlNode::new("Resource")
                    .attr("key", k)
                    .attr("modified", r.modified_at.as_nanos().to_string())
                    .child(r.payload.to_property_document()),
            );
        });
        live.sort_by(|a, b| a.attribute("key").cmp(&b.attribute("key")));
        let mut root = XmlNode::new("Resources");
        root.children = live;
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn create_get_destroy() {
        let home: ResourceHome<u32> = ResourceHome::new();
        home.create("a", 1, t(0)).unwrap();
        assert_eq!(home.with_resource("a", WsResource::clone).unwrap().payload, 1);
        assert!(home.contains("a"));
        home.destroy("a").unwrap();
        assert!(!home.contains("a"));
        assert!(matches!(
            home.destroy("a"),
            Err(WsrfError::NoSuchResource { .. })
        ));
    }

    #[test]
    fn duplicate_keys_rejected_until_expiry() {
        let home: ResourceHome<u32> = ResourceHome::new();
        home.create("a", 1, t(0)).unwrap();
        assert!(matches!(
            home.create("a", 2, t(1)),
            Err(WsrfError::AlreadyExists { .. })
        ));
        assert!(matches!(
            home.create("a", 2, t(100)),
            Err(WsrfError::AlreadyExists { .. })
        ), "an entry lives until it is destroyed");
        assert_eq!(home.with_resource("a", WsResource::clone).unwrap().payload, 1);
        // After destruction the key can be re-created.
        home.destroy("a").unwrap();
        home.create("a", 3, t(10)).unwrap();
        assert_eq!(home.with_resource("a", WsResource::clone).unwrap().payload, 3);
    }

    #[test]
    fn update_bumps_modified() {
        let home: ResourceHome<u32> = ResourceHome::new();
        home.create("a", 1, t(0)).unwrap();
        home.update("a", t(7), |v| *v = 9).unwrap();
        let r = home.with_resource("a", WsResource::clone).unwrap();
        assert_eq!(r.payload, 9);
        assert_eq!(r.modified_at, t(7));
    }

    #[test]
    fn touch_is_heartbeat() {
        let home: ResourceHome<u32> = ResourceHome::new();
        home.create("a", 1, t(0)).unwrap();
        home.touch("a", t(3)).unwrap();
        assert_eq!(home.with_resource("a", WsResource::clone).unwrap().modified_at, t(3));
        assert!(home.touch("missing", t(3)).is_err());
    }

    #[derive(Clone, Debug)]
    struct Named(&'static str);
    impl ResourceProperties for Named {
        fn to_property_document(&self) -> XmlNode {
            XmlNode::new("Named").attr("v", self.0)
        }
    }

    #[test]
    fn aggregate_document_is_deterministic_and_live_only() {
        let home: ResourceHome<Named> = ResourceHome::new();
        home.create("z", Named("zz"), t(0)).unwrap();
        home.create("a", Named("aa"), t(0)).unwrap();
        home.create("m", Named("mm"), t(0)).unwrap();
        home.destroy("m").unwrap();
        let doc = home.aggregate_document();
        let keys: Vec<_> = doc
            .children
            .iter()
            .map(|c| c.attribute("key").unwrap())
            .collect();
        assert_eq!(keys, vec!["a", "z"], "sorted, destroyed omitted");
        assert_eq!(doc.children[0].children[0].attribute("v"), Some("aa"));
    }

    #[test]
    fn with_resource_does_not_clone() {
        let home: ResourceHome<String> = ResourceHome::new();
        home.create("k", "payload".to_owned(), t(0)).unwrap();
        let len = home.with_resource("k", |r| r.payload.len());
        assert_eq!(len, Some(7));
        assert_eq!(home.with_resource("missing", |_| ()), None);
    }

    #[test]
    fn concurrent_reads_while_writing() {
        let home: Arc<ResourceHome<u64>> = Arc::new(ResourceHome::new());
        for i in 0..64 {
            home.create(format!("k{i}"), i, t(0)).unwrap();
        }
        let mut handles = Vec::new();
        for reader in 0..4 {
            let home = home.clone();
            handles.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                for round in 0..2_000u64 {
                    let k = format!("k{}", (round + reader) % 64);
                    if let Some(r) = home.with_resource(&k, WsResource::clone) {
                        seen += r.payload;
                    }
                }
                seen
            }));
        }
        let writer = {
            let home = home.clone();
            std::thread::spawn(move || {
                for i in 64..256u64 {
                    home.create(format!("k{i}"), i, t(0)).unwrap();
                }
            })
        };
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        writer.join().unwrap();
        assert_eq!(home.len(), 256);
    }

    #[test]
    fn a_never_written_home_is_empty_to_every_method() {
        let home: ResourceHome<Named> = ResourceHome::new();
        assert_eq!(home.with_resource("a", |_| ()), None);
        assert!(!home.contains("a"));
        for err in [
            home.update("a", t(0), |_| ()).unwrap_err(),
            home.touch("a", t(0)).unwrap_err(),
            home.destroy("a").unwrap_err(),
        ] {
            assert!(matches!(err, WsrfError::NoSuchResource { ref key } if key == "a"));
        }
        assert_eq!(home.len(), 0);
        assert!(home.is_empty());
        assert!(home.live_keys().is_empty());
        let doc = home.aggregate_document();
        assert_eq!((doc.name.as_ref(), doc.children.len()), ("Resources", 0));
        let copy = home.clone();
        assert!(copy.is_empty(), "a clone of an empty home is empty");
        assert_eq!(format!("{home:?} {copy:?}"), "{} {}");
    }

    #[test]
    fn racing_first_creates_all_land() {
        let home: Arc<ResourceHome<u64>> = Arc::new(ResourceHome::new());
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let (home, barrier) = (home.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    home.create(format!("k{i}"), i, t(0)).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(home.len(), 4);
        for i in 0..4u64 {
            assert_eq!(home.with_resource(&format!("k{i}"), WsResource::clone).unwrap().payload, i);
        }
    }

    #[test]
    fn a_home_emptied_by_destroy_stays_usable() {
        let home: ResourceHome<Named> = ResourceHome::new();
        home.create("a", Named("aa"), t(0)).unwrap();
        assert_eq!(home.destroy("a").unwrap().payload.0, "aa");
        assert_eq!((home.len(), home.live_keys().len()), (0, 0));
        assert!(home.is_empty());
        assert!(home.aggregate_document().children.is_empty());
        assert!(home.touch("a", t(1)).is_err());
        home.create("a", Named("again"), t(2)).unwrap();
        home.create("b", Named("bb"), t(2)).unwrap();
        let mut keys = home.live_keys();
        keys.sort();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(home.with_resource("a", WsResource::clone).unwrap().payload.0, "again");
    }

    #[test]
    fn debug_and_for_each_live_read_the_map_key() {
        let home: ResourceHome<Named> = ResourceHome::new();
        home.create("k1", Named("v"), t(0)).unwrap();
        let debug = format!("{home:?}");
        assert!(
            debug.starts_with("{\"k1\": WsResource { payload: Named(\"v\")"),
            "{debug}"
        );
        let mut seen = Vec::new();
        home.for_each_live(|k, r| seen.push((k.to_owned(), r.payload.0)));
        assert_eq!(seen, [("k1".to_owned(), "v")]);
    }
}
