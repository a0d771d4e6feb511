//! The two-level registry cache with LUT-driven refresh.
//!
//! "To ensure an efficient on-demand provision, GLARE supports a two-level
//! cache; cache at normal Grid site and cache at super-peer Grid site, and
//! provides a mechanism to refresh cache of updated resources. ... the
//! Cache Refresher updates cached resources if and when they change on the
//! source Grid site. Outdated resources are discarded automatically"
//! (§3.2). Change detection rides on the deployment EPR's
//! `LastUpdateTime`: "each time it changes, cached activity deployment
//! resources are revived."
//!
//! Both cache levels are instances of [`RegistryCache`]; the super-peer
//! simply holds one fed by inter-group traffic.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use glare_fabric::{SimDuration, SimTime};
use glare_wsrf::EndpointReference;

use crate::model::ActivityDeployment;

/// A cached remote resource with provenance.
#[derive(Clone, Debug)]
pub struct CachedEntry<T> {
    /// The cached value.
    pub value: T,
    /// Site the resource lives on.
    pub origin_site: String,
    /// EPR snapshot at caching time (its LUT dates the copy).
    pub epr: EndpointReference,
    /// When this copy was taken.
    pub cached_at: SimTime,
}

/// Outcome of comparing a cached copy against the origin's current EPR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Freshness {
    /// Cached copy is current.
    Fresh,
    /// Origin has a newer LUT; the copy must be revived.
    Stale,
}

/// One level of the GLARE cache.
#[derive(Clone, Debug)]
pub struct RegistryCache {
    max_age: SimDuration,
    /// Shared: a hit hands out the entry, not a copy of it.
    deployments: HashMap<String, CachedEntry<Arc<ActivityDeployment>>>,
    /// type name -> deployment keys known for it (possibly from many
    /// sites). An indexed set: keys cannot duplicate and list out in
    /// deterministic order.
    by_type: HashMap<String, BTreeSet<String>>,
    hits: u64,
    misses: u64,
}

impl RegistryCache {
    /// New cache whose entries are discarded `max_age` after caching
    /// unless refreshed.
    pub(crate) fn new(max_age: SimDuration) -> Self {
        assert!(max_age > SimDuration::ZERO, "max_age must be positive");
        RegistryCache {
            max_age,
            deployments: HashMap::new(),
            by_type: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Cache a remote deployment.
    pub fn put_deployment(
        &mut self,
        value: impl Into<Arc<ActivityDeployment>>,
        origin_site: &str,
        epr: EndpointReference,
        now: SimTime,
    ) {
        let value = value.into();
        let key = value.key.clone();
        let type_name = value.type_name.clone();
        let previous = self.deployments.insert(
            key.clone(),
            CachedEntry {
                value,
                origin_site: origin_site.to_owned(),
                epr,
                cached_at: now,
            },
        );
        // A re-cached deployment may have moved to another type (e.g. a
        // re-install under a renamed concrete type); drop the old mapping
        // so `deployments_of` never reports it under both.
        if let Some(prev) = previous {
            if prev.value.type_name != type_name {
                if let Some(keys) = self.by_type.get_mut(&prev.value.type_name) {
                    keys.remove(&key);
                    if keys.is_empty() {
                        self.by_type.remove(&prev.value.type_name);
                    }
                }
            }
        }
        self.by_type.entry(type_name).or_default().insert(key);
    }

    /// All non-aged cached deployments of a type (deterministic key
    /// order), shared with the cache.
    pub(crate) fn deployments_of(
        &mut self,
        type_name: &str,
        now: SimTime,
    ) -> Vec<Arc<ActivityDeployment>> {
        let out: Vec<Arc<ActivityDeployment>> = self
            .by_type
            .get(type_name)
            .into_iter()
            .flatten()
            .filter_map(|k| self.deployments.get(k))
            .filter(|e| now.saturating_since(e.cached_at) < self.max_age)
            .map(|e| Arc::clone(&e.value))
            .collect();
        if out.is_empty() {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        out
    }

    /// Degraded read: every cached deployment of a type *regardless of
    /// age*, paired with the copy's age at `now` (deterministic key
    /// order). This is the fallback when retries against the origin
    /// exhaust — the caller serves the possibly-stale copies explicitly
    /// marked degraded instead of erroring. Does not count hit/miss (it is
    /// not part of the normal lookup ladder).
    pub(crate) fn deployments_of_degraded(
        &self,
        type_name: &str,
        now: SimTime,
    ) -> Vec<(Arc<ActivityDeployment>, SimDuration)> {
        self.by_type
            .get(type_name)
            .into_iter()
            .flatten()
            .filter_map(|k| self.deployments.get(k))
            .map(|e| (Arc::clone(&e.value), now.saturating_since(e.cached_at)))
            .collect()
    }

    /// Compare a cached deployment against the origin's current EPR.
    pub(crate) fn freshness(&self, key: &str, current: &EndpointReference) -> Option<Freshness> {
        self.deployments.get(key).map(|e| {
            if current.is_newer_than(&e.epr) {
                Freshness::Stale
            } else {
                Freshness::Fresh
            }
        })
    }

    /// Revive a stale deployment copy (the Cache Refresher's job): replace
    /// value + EPR and reset its age.
    pub(crate) fn revive_deployment(
        &mut self,
        value: impl Into<Arc<ActivityDeployment>>,
        epr: EndpointReference,
        now: SimTime,
    ) {
        let value = value.into();
        if let Some(e) = self.deployments.get_mut(&value.key) {
            e.value = value;
            e.epr = epr;
            e.cached_at = now;
        }
    }

    /// Drop entries older than `max_age` ("outdated resources are
    /// discarded automatically"). Returns how many were discarded.
    pub(crate) fn discard_outdated(&mut self, now: SimTime) -> usize {
        self.discard_outdated_keys(now).len()
    }

    /// Like [`RegistryCache::discard_outdated`], but returns the discarded
    /// deployment keys in sorted order so the
    /// Cache Refresher can emit one deterministic event per discard.
    pub(crate) fn discard_outdated_keys(&mut self, now: SimTime) -> Vec<String> {
        let max_age = self.max_age;
        let mut discarded = Vec::new();
        self.deployments.retain(|key, e| {
            let keep = now.saturating_since(e.cached_at) < max_age;
            if !keep {
                discarded.push(key.clone());
            }
            keep
        });
        let deployments = &self.deployments;
        for keys in self.by_type.values_mut() {
            keys.retain(|k| deployments.contains_key(k));
        }
        self.by_type.retain(|_, v| !v.is_empty());
        discarded.sort();
        discarded
    }

    /// Age of a cached deployment copy at `now` (how long since the copy
    /// was taken or last revived) — the Cache Refresher's LUT-staleness
    /// sample.
    pub(crate) fn age_of(&self, key: &str, now: SimTime) -> Option<SimDuration> {
        self.deployments
            .get(key)
            .map(|e| now.saturating_since(e.cached_at))
    }

    /// Peek a cached deployment without touching hit/miss tallies or the
    /// freshness gate (anti-entropy reads raw cache contents, which must
    /// not perturb the Fig. 12 cache-effect metrics).
    pub fn peek_deployment(&self, key: &str) -> Option<&CachedEntry<Arc<ActivityDeployment>>> {
        self.deployments.get(key)
    }

    /// Drop a specific deployment (e.g. origin reported it destroyed).
    pub(crate) fn evict_deployment(&mut self, key: &str) {
        if let Some(e) = self.deployments.remove(key) {
            if let Some(keys) = self.by_type.get_mut(&e.value.type_name) {
                keys.remove(key);
                if keys.is_empty() {
                    self.by_type.remove(&e.value.type_name);
                }
            }
        }
    }

    /// All cached deployment keys with their origin sites (what the Cache
    /// Refresher iterates).
    pub(crate) fn deployment_origins(&self) -> Vec<(String, String)> {
        self.deployments
            .iter()
            .map(|(k, e)| (k.clone(), e.origin_site.clone()))
            .collect()
    }

    /// Cache hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio in `[0,1]`; `None` before any access.
    pub(crate) fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Number of cached deployments.
    pub(crate) fn len(&self) -> usize {
        self.deployments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn epr(lut: u64) -> EndpointReference {
        EndpointReference::new("https://s1/ADR", "ActivityDeploymentKey", "jpovray@s1", t(lut))
    }

    fn jpov() -> ActivityDeployment {
        ActivityDeployment::executable("JPOVray", "s1", "/opt/j/bin/jpovray", "/opt/j")
    }

    fn cache() -> RegistryCache {
        RegistryCache::new(SimDuration::from_secs(60))
    }

    #[test]
    fn age_expires_entries() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        assert_eq!(c.hit_ratio(), None);
        assert_eq!(c.deployments_of("JPOVray", t(59)).len(), 1);
        assert!(c.deployments_of("JPOVray", t(60)).is_empty(), "aged out");
        assert_eq!((c.hits(), c.misses(), c.hit_ratio()), (1, 1, Some(0.5)));
        assert_eq!(c.discard_outdated(t(60)), 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn deployments_of_lists_by_type() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        let mut d2 = jpov();
        d2.key = "jpovray@s2".into();
        d2.site = "s2".into();
        c.put_deployment(d2, "s2", epr(0), t(0));
        assert_eq!(c.deployments_of("JPOVray", t(1)).len(), 2);
        assert!(c.deployments_of("Wien2k", t(1)).is_empty());
    }

    #[test]
    fn recache_does_not_duplicate_index() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        c.put_deployment(jpov(), "s1", epr(5), t(5));
        c.put_deployment(jpov(), "s1", epr(9), t(9));
        assert_eq!(c.deployments_of("JPOVray", t(10)).len(), 1);
    }

    #[test]
    fn recache_under_new_type_drops_old_mapping() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        let mut renamed = jpov();
        renamed.type_name = "JPOVray2".into();
        c.put_deployment(renamed, "s1", epr(5), t(5));
        assert!(
            c.deployments_of("JPOVray", t(6)).is_empty(),
            "old type mapping must not survive re-cache"
        );
        assert_eq!(c.deployments_of("JPOVray2", t(6)).len(), 1);
    }

    #[test]
    fn degraded_read_serves_aged_entries_with_age() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        // Normal path refuses the aged entry; the degraded path serves it.
        assert!(c.deployments_of("JPOVray", t(120)).is_empty());
        let (hits, misses) = (c.hits(), c.misses());
        let degraded = c.deployments_of_degraded("JPOVray", t(120));
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].0.key, "jpovray@s1");
        assert_eq!(degraded[0].1, SimDuration::from_secs(120));
        assert_eq!((c.hits(), c.misses()), (hits, misses), "no hit/miss count");
        assert!(c.deployments_of_degraded("Ghost", t(120)).is_empty());
    }

    #[test]
    fn lut_freshness_and_revival() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(10), t(10));
        assert_eq!(c.freshness("jpovray@s1", &epr(10)), Some(Freshness::Fresh));
        assert_eq!(c.freshness("jpovray@s1", &epr(5)), Some(Freshness::Fresh));
        assert_eq!(c.freshness("jpovray@s1", &epr(20)), Some(Freshness::Stale));
        assert_eq!(c.freshness("ghost", &epr(20)), None);

        let mut newer = jpov();
        newer.metrics.invocations = 7;
        c.revive_deployment(newer, epr(20), t(20));
        let e = c.peek_deployment("jpovray@s1").unwrap();
        assert_eq!(e.value.metrics.invocations, 7);
        assert_eq!(c.freshness("jpovray@s1", &epr(20)), Some(Freshness::Fresh));
    }

    #[test]
    fn revive_ignores_unknown_keys() {
        let mut c = cache();
        c.revive_deployment(jpov(), epr(1), t(1));
        assert_eq!(c.len(), 0, "revive must not insert");
    }

    #[test]
    fn evict_cleans_type_index() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        c.evict_deployment("jpovray@s1");
        assert!(c.deployments_of("JPOVray", t(1)).is_empty());
    }

    #[test]
    fn refresh_resets_age() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        c.revive_deployment(jpov(), epr(50), t(50));
        // Would have aged at t(60) from original; refresh extends to t(110).
        assert_eq!(c.deployments_of("JPOVray", t(100)).len(), 1);
        assert!(c.deployments_of("JPOVray", t(110)).is_empty());
    }

    #[test]
    fn origins_enumerate_for_refresher() {
        let mut c = cache();
        c.put_deployment(jpov(), "s1", epr(0), t(0));
        let origins = c.deployment_origins();
        assert_eq!(origins, vec![("jpovray@s1".to_owned(), "s1".to_owned())]);
    }
}
