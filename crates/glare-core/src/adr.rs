//! Activity Deployment Registry (ADR).
//!
//! "Activity Deployment Registry complements Type Registry and maintains a
//! set of activity deployments of concrete activity types as WS-Resources.
//! ... The Endpoint Reference (EPR) of each activity deployment resource
//! is registered in its type resource ... Moreover, an activity type must
//! be present in the type registry before registration of its
//! deployments" (§3.1). Status updates from the Deployment Status Monitor
//! bump the EPR's `LastUpdateTime`, which drives cache revival (§3.2).
//!
//! Like the type registry, every method takes `&self`: the resource home
//! and the `type -> deployment keys` index each sit behind an `RwLock`. The index stores keys in a `BTreeSet`, so a type can never
//! accumulate duplicate entries and listings come out in deterministic
//! order.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use glare_fabric::sync::RwLock;
use glare_fabric::{SimDuration, SimTime};
use glare_services::mds::REQUEST_BASE_COST;
use glare_services::Transport;
use glare_wsrf::{EndpointReference, ResourceHome};

use crate::atr::{ActivityTypeRegistry, TypedResponse};
use crate::error::GlareError;
use crate::model::{ActivityDeployment, DeploymentStatus};

/// Approximate wire size of one deployment entry.
pub(crate) const DEPLOYMENT_WIRE_BYTES: u64 = 900;

/// The deployment registry of one GLARE site.
#[derive(Clone, Debug)]
pub struct ActivityDeploymentRegistry {
    /// Service address (forms EPRs).
    pub address: String,
    /// Transport security.
    pub transport: Transport,
    home: ResourceHome<ActivityDeployment>,
    /// type name -> deployment keys (the "EPR registered in its type
    /// resource" index).
    by_type: RwLock<HashMap<String, BTreeSet<String>>>,
    /// Uninstall tombstones: key -> uninstall instant. Anti-entropy uses
    /// these so deletes win over stale peer copies and never resurrect.
    tombstones: RwLock<BTreeMap<String, SimTime>>,
}

impl ActivityDeploymentRegistry {
    /// New registry at `address`.
    pub fn new(address: impl Into<String>, transport: Transport) -> Self {
        ActivityDeploymentRegistry {
            address: address.into(),
            transport,
            home: ResourceHome::new(),
            by_type: RwLock::new(HashMap::new()),
            tombstones: RwLock::new(BTreeMap::new()),
        }
    }

    /// Register a deployment. The concrete type must already exist in the
    /// site's type registry; otherwise the caller receives
    /// [`GlareError::TypeNotRegistered`] and is expected to dynamically
    /// register the type first (§3.1).
    pub fn register(
        &self,
        deployment: ActivityDeployment,
        atr: &ActivityTypeRegistry,
        now: SimTime,
    ) -> Result<SimDuration, GlareError> {
        if !atr.contains(&deployment.type_name) {
            return Err(GlareError::TypeNotRegistered {
                type_name: deployment.type_name.clone(),
            });
        }
        self.insert(deployment, now)
    }

    /// [`register`](Self::register) without the type check: how a snapshot
    /// gives a site back a deployment whose type was removed after it was
    /// registered, as the live registry kept it.
    pub(crate) fn insert(
        &self,
        deployment: ActivityDeployment,
        now: SimTime,
    ) -> Result<SimDuration, GlareError> {
        let key = deployment.key.clone();
        let type_name = deployment.type_name.clone();
        // Deletes win: a tombstone at least as new as the registration
        // instant rejects it, so anti-entropy can never resurrect an
        // uninstalled deployment. A genuinely newer registration clears
        // the tombstone below.
        if let Some(at) = self.tombstone_of(&key) {
            if at >= now {
                return Err(GlareError::Tombstoned { key, at });
            }
        }
        // Hold the index write lock across replace + create + index so a
        // concurrent re-registration of the same key cannot interleave.
        let mut by_type = self.by_type.write();
        // Re-registration replaces any previous record under the key
        // (a re-install on the same site supersedes a failed/stale one).
        if let Ok(old) = self.home.destroy(&key) {
            if let Some(keys) = by_type.get_mut(&old.payload.type_name) {
                keys.remove(&key);
            }
        }
        self.home.create(key.clone(), deployment, now)?;
        by_type.entry(type_name).or_default().insert(key.clone());
        self.tombstones.write().remove(&key);
        Ok(REQUEST_BASE_COST + self.transport.overhead_cost(DEPLOYMENT_WIRE_BYTES))
    }

    /// Named lookup of one deployment (hashtable fast path). `_now` is
    /// unread: an entry lives until it is removed, and the parameter stays
    /// only while `perf/` calls this read (ROADMAP 14(a)).
    pub fn lookup(&self, key: &str, _now: SimTime) -> Option<TypedResponse<ActivityDeployment>> {
        let cost = REQUEST_BASE_COST + self.transport.overhead_cost(512 + DEPLOYMENT_WIRE_BYTES);
        let value = self.home.with_resource(key, |r| r.payload.clone())?;
        Some(TypedResponse { value, cost })
    }

    /// All usable deployments of a concrete type. `_now` is unread; it
    /// stays only while `perf/` calls this read (ROADMAP 14(a)).
    pub fn deployments_of(
        &self,
        type_name: &str,
        _now: SimTime,
    ) -> TypedResponse<Vec<ActivityDeployment>> {
        // The home is read under the index read lock, walking its key set
        // in place: index before home is the order `register` takes them
        // in.
        let by_type = self.by_type.read();
        let usable = |d: &ActivityDeployment| d.is_usable().then(|| d.clone());
        let list: Vec<ActivityDeployment> = by_type
            .get(type_name)
            .into_iter()
            .flatten()
            .filter_map(|k| self.home.with_resource(k, |r| usable(&r.payload)).flatten())
            .collect();
        drop(by_type);
        let cost = REQUEST_BASE_COST
            + self
                .transport
                .overhead_cost(512 + DEPLOYMENT_WIRE_BYTES * list.len().max(1) as u64);
        TypedResponse { value: list, cost }
    }

    /// Whether the type index holds no name at all, so that
    /// [`ActivityDeploymentRegistry::deployments_of`] is empty whatever it
    /// is asked. A type whose last deployment went keeps its (empty) entry
    /// and reads as indexed.
    pub(crate) fn indexes_nothing(&self) -> bool {
        self.by_type.read().is_empty()
    }

    /// Count of usable deployments of a type (for provider limits): the
    /// entries [`ActivityDeploymentRegistry::deployments_of`] would list,
    /// counted in place under the index read lock.
    pub(crate) fn count_of(&self, type_name: &str) -> usize {
        let by_type = self.by_type.read();
        let usable = |k: &String| self.home.with_resource(k, |r| r.payload.is_usable());
        by_type
            .get(type_name)
            .into_iter()
            .flatten()
            .filter(|k| usable(k) == Some(true))
            .count()
    }

    /// The current EPR of a deployment (address + key + LUT from the
    /// resource's modification stamp).
    pub fn epr_of(&self, key: &str) -> Option<EndpointReference> {
        self.home
            .with_resource(key, |r| r.payload.epr(&self.address, r.modified_at))
    }

    /// Status-monitor heartbeat: bump the LUT without changing payload.
    pub fn touch(&self, key: &str, now: SimTime) -> Result<(), GlareError> {
        self.home.touch(key, now)?;
        Ok(())
    }

    /// Update deployment status (bumps LUT).
    pub fn set_status(
        &self,
        key: &str,
        status: DeploymentStatus,
        now: SimTime,
    ) -> Result<(), GlareError> {
        self.home.update(key, now, |d| d.status = status)?;
        Ok(())
    }

    /// Record an invocation against a deployment (bumps LUT).
    pub fn record_invocation(
        &self,
        key: &str,
        at: SimTime,
        runtime: SimDuration,
        return_code: i32,
    ) -> Result<(), GlareError> {
        self.home
            .update(key, at, |d| d.record_invocation(at, runtime, return_code))?;
        Ok(())
    }

    /// Remove a deployment permanently (e.g. after migration).
    pub(crate) fn remove(&self, key: &str) -> Result<ActivityDeployment, GlareError> {
        let r = self.home.destroy(key)?;
        if let Some(keys) = self.by_type.write().get_mut(&r.payload.type_name) {
            keys.remove(key);
        }
        Ok(r.payload)
    }

    /// Uninstall a deployment: remove it and record a tombstone at `now`
    /// so a stale peer copy can never resurrect it through anti-entropy.
    pub fn uninstall(&self, key: &str, now: SimTime) -> Result<ActivityDeployment, GlareError> {
        let removed = self.remove(key)?;
        self.tombstones.write().insert(key.to_owned(), now);
        Ok(removed)
    }

    /// Whether a live deployment is registered under `key`.
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.home.contains(key)
    }

    /// The tombstone instant for `key`, if it was uninstalled.
    pub fn tombstone_of(&self, key: &str) -> Option<SimTime> {
        self.tombstones.read().get(key).copied()
    }

    /// All tombstones, sorted by key.
    pub(crate) fn tombstones(&self) -> Vec<(String, SimTime)> {
        self.tombstones
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Apply a tombstone learned from a peer (anti-entropy). Keeps the
    /// newest tombstone instant per key and evicts a live entry whose LUT
    /// is not newer than the tombstone. Returns whether an entry was
    /// evicted (i.e. a resurrection was prevented).
    pub(crate) fn apply_tombstone(&self, key: &str, at: SimTime) -> bool {
        {
            let mut tombs = self.tombstones.write();
            let entry = tombs.entry(key.to_owned()).or_insert(at);
            if *entry < at {
                *entry = at;
            }
        }
        let stale = self
            .home
            .with_resource(key, |r| r.modified_at <= at)
            .unwrap_or(false);
        stale && self.remove(key).is_ok()
    }

    /// Restore tombstones wholesale (snapshot replay after a crash).
    pub(crate) fn restore_tombstones(&self, tombs: impl IntoIterator<Item = (String, SimTime)>) {
        self.tombstones.write().extend(tombs);
    }

    /// Number of registered deployments. `_now` is unread; it stays only
    /// while `perf/` calls this read (ROADMAP 14(a)), as on the two below.
    pub fn len(&self, _now: SimTime) -> usize {
        self.home.len()
    }

    /// Whether no deployment is registered.
    pub fn is_empty(&self, _now: SimTime) -> bool {
        self.home.is_empty()
    }

    /// Keys of all registered deployments.
    pub fn keys(&self, _now: SimTime) -> Vec<String> {
        self.home.live_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{example_hierarchy, ActivityType};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn registries() -> (ActivityTypeRegistry, ActivityDeploymentRegistry) {
        let atr = ActivityTypeRegistry::new("https://s0/ATR", Transport::Http);
        for ty in example_hierarchy(SimTime::ZERO) {
            atr.register(ty, t(0)).unwrap();
        }
        let adr = ActivityDeploymentRegistry::new("https://s0/ADR", Transport::Http);
        (atr, adr)
    }

    fn jpov_exec(site: &str) -> ActivityDeployment {
        ActivityDeployment::executable(
            "JPOVray",
            site,
            "/opt/deployments/jpovray/bin/jpovray",
            "/opt/deployments/jpovray",
        )
    }

    #[test]
    fn register_requires_type() {
        let (atr, adr) = registries();
        let orphan = ActivityDeployment::executable("Ghost", "s1", "/x", "/x");
        assert!(matches!(
            adr.register(orphan, &atr, t(1)),
            Err(GlareError::TypeNotRegistered { .. })
        ));
        adr.register(jpov_exec("s1"), &atr, t(1)).unwrap();
        assert_eq!(adr.len(t(2)), 1);
    }

    #[test]
    fn deployments_by_type_and_multiple_sites() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(0)).unwrap();
        adr.register(jpov_exec("s2"), &atr, t(0)).unwrap();
        adr.register(
            ActivityDeployment::service("JPOVray", "s1", "WS-JPOVray", "https://s1/WS-JPOVray"),
            &atr,
            t(0),
        )
        .unwrap();
        let resp = adr.deployments_of("JPOVray", t(1));
        assert_eq!(resp.value.len(), 3);
        assert!(adr.deployments_of("Wien2k", t(1)).value.is_empty());
        assert_eq!(adr.count_of("JPOVray"), 3);
    }

    #[test]
    fn reregistration_does_not_duplicate_index() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(0)).unwrap();
        // Same key re-registered (re-install): index must stay at one
        // entry, and the payload must be the newer record.
        adr.register(jpov_exec("s1"), &atr, t(5)).unwrap();
        assert_eq!(adr.count_of("JPOVray"), 1);
        assert_eq!(adr.len(t(6)), 1);
    }

    #[test]
    fn status_gates_listing_and_bumps_lut() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(0)).unwrap();
        let epr0 = adr.epr_of("jpovray@s1").unwrap();
        adr.set_status("jpovray@s1", DeploymentStatus::Failed, t(5))
            .unwrap();
        assert!(adr.deployments_of("JPOVray", t(6)).value.is_empty());
        let epr1 = adr.epr_of("jpovray@s1").unwrap();
        assert!(epr1.is_newer_than(&epr0), "status change must bump LUT");
        adr.set_status("jpovray@s1", DeploymentStatus::Available, t(7))
            .unwrap();
        assert_eq!(adr.deployments_of("JPOVray", t(8)).value.len(), 1);
    }

    #[test]
    fn touch_is_monitor_heartbeat() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(0)).unwrap();
        let epr0 = adr.epr_of("jpovray@s1").unwrap();
        adr.touch("jpovray@s1", t(30)).unwrap();
        let epr1 = adr.epr_of("jpovray@s1").unwrap();
        assert!(epr1.is_newer_than(&epr0));
        assert!(adr.touch("missing", t(31)).is_err());
    }

    #[test]
    fn count_of_counts_what_deployments_of_lists() {
        let (atr, adr) = registries();
        let counts_agree = |now: SimTime| {
            for ty in ["JPOVray", "Wien2k", "Ghost"] {
                assert_eq!(
                    adr.count_of(ty),
                    adr.deployments_of(ty, now).value.len(),
                    "{ty}"
                );
            }
        };
        for site in ["s1", "s2", "s3", "s4"] {
            adr.register(jpov_exec(site), &atr, t(0)).unwrap();
        }
        counts_agree(t(1));
        adr.set_status("jpovray@s2", DeploymentStatus::Failed, t(2))
            .unwrap();
        adr.set_status("jpovray@s3", DeploymentStatus::Unavailable, t(2))
            .unwrap();
        adr.remove("jpovray@s4").unwrap();
        counts_agree(t(3));
        assert_eq!(adr.count_of("JPOVray"), 1, "only s1 is usable");
        adr.uninstall("jpovray@s1", t(4)).unwrap();
        counts_agree(t(5));
        assert_eq!(adr.count_of("JPOVray"), 0, "uninstalled");
    }

    #[test]
    fn invocation_metrics_via_registry() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(0)).unwrap();
        adr.record_invocation("jpovray@s1", t(10), SimDuration::from_secs(3), 0)
            .unwrap();
        let d = adr.lookup("jpovray@s1", t(11)).unwrap().value;
        assert_eq!(d.metrics.invocations, 1);
        assert_eq!(d.metrics.last_return_code, Some(0));
    }

    #[test]
    fn remove_cleans_index() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(0)).unwrap();
        let removed = adr.remove("jpovray@s1").unwrap();
        assert_eq!(removed.site, "s1");
        assert!(adr.deployments_of("JPOVray", t(1)).value.is_empty());
        assert!(adr.remove("jpovray@s1").is_err());
    }

    #[test]
    fn uninstall_tombstones_and_newer_registration_supersedes() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(0)).unwrap();
        let removed = adr.uninstall("jpovray@s1", t(10)).unwrap();
        assert_eq!(removed.site, "s1");
        assert_eq!(adr.tombstone_of("jpovray@s1"), Some(t(10)));
        // Registration at (or before) the tombstone instant loses.
        assert!(matches!(
            adr.register(jpov_exec("s1"), &atr, t(10)),
            Err(GlareError::Tombstoned { .. })
        ));
        // A genuinely newer install wins and clears the tombstone.
        adr.register(jpov_exec("s1"), &atr, t(11)).unwrap();
        assert_eq!(adr.tombstone_of("jpovray@s1"), None);
        assert_eq!(adr.count_of("JPOVray"), 1);
    }

    #[test]
    fn apply_tombstone_evicts_stale_entry_only() {
        let (atr, adr) = registries();
        adr.register(jpov_exec("s1"), &atr, t(5)).unwrap();
        // Peer tombstone newer than the local entry: evict.
        assert!(adr.apply_tombstone("jpovray@s1", t(7)));
        assert!(adr.lookup("jpovray@s1", t(8)).is_none());
        assert_eq!(adr.tombstone_of("jpovray@s1"), Some(t(7)));
        // Re-applying on an absent entry evicts nothing but keeps the
        // newest tombstone instant.
        assert!(!adr.apply_tombstone("jpovray@s1", t(6)));
        assert_eq!(adr.tombstone_of("jpovray@s1"), Some(t(7)));
        // A tombstone older than a live entry leaves the entry alone.
        adr.register(jpov_exec("s2"), &atr, t(20)).unwrap();
        assert!(!adr.apply_tombstone("jpovray@s2", t(15)));
        assert!(adr.lookup("jpovray@s2", t(21)).is_some());
    }

    #[test]
    fn type_registered_after_deployment_attempt() {
        // The §3.1 flow: deployment registration fails, the RDM registers
        // the type dynamically, then the deployment registers fine.
        let (atr, adr) = registries();
        let d = ActivityDeployment::executable("NewApp", "s1", "/x/bin/a", "/x");
        let err = adr.register(d.clone(), &atr, t(0)).unwrap_err();
        assert!(matches!(err, GlareError::TypeNotRegistered { .. }));
        atr.register(ActivityType::concrete_type("NewApp", "d", "wien2k"), t(0))
            .unwrap();
        adr.register(d, &atr, t(1)).unwrap();
        assert_eq!(adr.count_of("NewApp"), 1);
    }
}
