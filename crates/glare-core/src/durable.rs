//! Durable-state codec for crash-consistent registries.
//!
//! ATR/ADR mutations and lease grants are journaled to the per-site
//! [`glare_fabric::store`] write-ahead log as *strings*; this module
//! defines the encoding. The format is a flat netstring-style token
//! stream (`len:bytes` per token), which is:
//!
//! * **full fidelity** — every field round-trips (benchmarks, limits,
//!   provider contact, revocation flag),
//! * **deterministic** — no hash-map iteration order leaks in; identical
//!   values encode to identical bytes, which is what makes the
//!   crash-replay byte-identity gate in `scripts/verify.sh` meaningful,
//! * **self-delimiting** — decoding is length-directed, so payloads may
//!   contain any byte (torn-tail corruption is caught by the store's
//!   per-record checksum, not by the codec).
//!
//! Each durable type states its format once, as a private `Wire` impl that
//! both writes and reads it: a struct is its fields in the order its
//! `record!` line lists them, an enum a one-letter tag (`tags!`), an
//! `Option` a presence flag and the value, a `Vec` a count and the items.
//!
//! [`RegistryMutation`] is the journal record vocabulary; snapshots use
//! `encode_snapshot`/`decode_snapshot` over a [`SnapshotState`]. The
//! [`registry_digest`] helper condenses registry contents into one `u64`
//! for convergence checks; it deliberately excludes volatile invocation
//! metrics and LUTs so that a recovered-and-rejoined site can compare
//! equal to a never-crashed one.

use std::fmt::Write as _;
use std::str::FromStr;

use glare_fabric::store::fnv1a;
use glare_fabric::{Platform, RecoveredState, SimDuration, SimTime};

use crate::adr::ActivityDeploymentRegistry;
use crate::atr::ActivityTypeRegistry;
use crate::lease::{LeaseKind, LeaseManager, LeaseTicket};
use crate::model::{
    ActivityDeployment, ActivityFunction, ActivityType, DeploymentAccess, DeploymentLimits,
    DeploymentMetrics, DeploymentStatus, InstallConstraints, InstallMode, InstallationSpec,
    TypeBenchmark, TypeKind,
};

// ---------------------------------------------------------------------------
// Token stream primitives
// ---------------------------------------------------------------------------

/// Streaming encoder: appends `len:bytes` tokens to a string buffer.
#[derive(Default)]
struct Enc {
    buf: String,
}

impl Enc {
    fn s(&mut self, v: &str) {
        let _ = write!(self.buf, "{}:{v}", v.len());
    }

    /// A number's token: its length is its digit count, so no `String` is built first.
    fn u(&mut self, v: u64) {
        let _ = write!(self.buf, "{}:{v}", v.checked_ilog10().map_or(1, |d| d + 1));
    }

    fn i(&mut self, v: i64) {
        let digits = v.unsigned_abs().checked_ilog10().map_or(1, |d| d + 1);
        let _ = write!(self.buf, "{}:{v}", digits + u32::from(v < 0));
    }
}

/// Streaming decoder over a token stream. Every accessor returns `None`
/// on malformed input (decoding never panics).
struct Dec<'a> {
    rest: &'a str,
}

impl<'a> Dec<'a> {
    fn s(&mut self) -> Option<&'a str> {
        let colon = self.rest.find(':')?;
        let len: usize = self.rest[..colon].parse().ok()?;
        let start = colon + 1;
        let end = start.checked_add(len)?;
        let tok = self.rest.get(start..end)?;
        self.rest = &self.rest[end..];
        Some(tok)
    }

    /// A number token, `None` if it does not parse or fit `T`.
    fn num<T: FromStr>(&mut self) -> Option<T> {
        self.s()?.parse().ok()
    }
}

// ---------------------------------------------------------------------------
// The format, one impl per type
// ---------------------------------------------------------------------------

/// A durable type's wire format: `take` reads exactly what `put` writes.
trait Wire: Sized {
    fn put(&self, e: &mut Enc);
    fn take(d: &mut Dec<'_>) -> Option<Self>;
}

/// `v` as one payload.
fn encode<T: Wire>(v: &T) -> String {
    let mut e = Enc::default();
    v.put(&mut e);
    e.buf
}

/// One `T` that is the whole of `input`; `None` on malformed input.
fn decode<T: Wire>(input: &str) -> Option<T> {
    let mut d = Dec { rest: input };
    let v = T::take(&mut d)?;
    d.rest.is_empty().then_some(v)
}

impl Wire for String {
    fn put(&self, e: &mut Enc) {
        e.s(self);
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        d.s().map(str::to_owned)
    }
}

impl Wire for u64 {
    fn put(&self, e: &mut Enc) {
        e.u(*self);
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        d.num()
    }
}

impl Wire for u32 {
    fn put(&self, e: &mut Enc) {
        e.u(u64::from(*self));
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        d.num()
    }
}

impl Wire for i32 {
    fn put(&self, e: &mut Enc) {
        e.i(i64::from(*self));
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        d.num()
    }
}

impl Wire for bool {
    fn put(&self, e: &mut Enc) {
        e.s(if *self { "1" } else { "0" });
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        match d.s()? {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    }
}

impl Wire for SimTime {
    fn put(&self, e: &mut Enc) {
        e.u(self.as_nanos());
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        d.num().map(SimTime::from_nanos)
    }
}

impl Wire for SimDuration {
    fn put(&self, e: &mut Enc) {
        e.u(self.as_nanos());
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        d.num().map(SimDuration::from_nanos)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Enc) {
        self.is_some().put(e);
        if let Some(v) = self {
            v.put(e);
        }
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        if bool::take(d)? { T::take(d).map(Some) } else { Some(None) }
    }
}

/// A count, then the items: how every sequence is written.
fn put_all<'a, T: Wire + 'a, I>(e: &mut Enc, items: I)
where
    I: IntoIterator<Item = &'a T, IntoIter: ExactSizeIterator>,
{
    let items = items.into_iter();
    e.u(items.len() as u64);
    for item in items {
        item.put(e);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Enc) {
        put_all(e, self);
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        let n: usize = d.num()?;
        // Each item is at least one `0:` token: a count is never trusted past the input.
        let mut items = Vec::with_capacity(n.min(d.rest.len() / 2));
        for _ in 0..n {
            items.push(T::take(d)?);
        }
        Some(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, e: &mut Enc) {
        self.0.put(e);
        self.1.put(e);
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        Some((A::take(d)?, B::take(d)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, e: &mut Enc) {
        T::put(self, e);
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        T::take(d).map(Box::new)
    }
}

/// A struct's format: its fields, in the order listed. Reordering a list
/// changes the format, and journals written before will not replay.
macro_rules! record {
    ($ty:ty { $($field:ident),+ }) => {
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                $(self.$field.put(e);)+
            }
            fn take(d: &mut Dec<'_>) -> Option<Self> {
                Some(Self { $($field: Wire::take(d)?),+ })
            }
        }
    };
}

record!(Platform { platform, os, arch });
record!(ActivityFunction { name, inputs, outputs });
record!(TypeBenchmark { platform, reference_ms });
record!(InstallConstraints { platform, os, arch });
record!(InstallationSpec { mode, constraints, deploy_file_url, deploy_file_md5, package });
record!(DeploymentLimits { min, max });
record!(ActivityType {
    name, kind, base_types, domain, functions, benchmarks, dependencies, installation, limits,
    provider_contact, revoked
});
record!(DeploymentMetrics { last_execution_time, last_return_code, last_invocation, invocations });
record!(ActivityDeployment { key, type_name, site, access, status, metrics });
record!(LeaseTicket { id, deployment, client, kind, from, until });

/// A field-less enum's format: one token, the variant's letter.
macro_rules! tags {
    ($ty:ident { $($variant:ident = $tag:literal),+ }) => {
        impl Wire for $ty {
            fn put(&self, e: &mut Enc) {
                e.s(match self { $($ty::$variant => $tag),+ });
            }
            fn take(d: &mut Dec<'_>) -> Option<Self> {
                match d.s()? {
                    $($tag => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

tags!(TypeKind { Abstract = "A", Concrete = "C" });
tags!(InstallMode { OnDemand = "O", Manual = "M" });
tags!(DeploymentStatus { Available = "A", Unavailable = "U", Failed = "F" });
tags!(LeaseKind { Exclusive = "X", Shared = "S" });

/// The tag, then the variant's fields.
impl Wire for DeploymentAccess {
    fn put(&self, e: &mut Enc) {
        match self {
            DeploymentAccess::Executable { path, home } => {
                e.s("E");
                e.s(path);
                e.s(home);
            }
            DeploymentAccess::Service { address } => {
                e.s("S");
                e.s(address);
            }
        }
    }
    fn take(d: &mut Dec<'_>) -> Option<Self> {
        Some(match d.s()? {
            "E" => DeploymentAccess::Executable { path: Wire::take(d)?, home: Wire::take(d)? },
            "S" => DeploymentAccess::Service { address: Wire::take(d)? },
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Journal mutations
// ---------------------------------------------------------------------------

/// One journaled registry mutation: the write-ahead-log vocabulary of a
/// durable GLARE site. `kind()`/`payload()` map onto the store's
/// `(kind, payload)` record pair; `RegistryMutation::decode` is the
/// replay path.
#[derive(Clone, Debug)]
pub enum RegistryMutation {
    /// An activity type was registered (or re-registered) in the ATR.
    AtrRegister(Box<ActivityType>),
    /// An activity type was removed from the ATR.
    AtrRemove(String),
    /// A deployment was registered (or replaced) in the ADR.
    AdrRegister(Box<ActivityDeployment>),
    /// A deployment record was dropped *without* a tombstone (failed-record
    /// cleanup, undeploy of a retired type) — replay removes, nothing more.
    AdrRemove(String),
    /// A deployment was uninstalled; the instant becomes its tombstone.
    AdrUninstall {
        /// Deployment key.
        key: String,
        /// Uninstall instant (tombstone timestamp).
        at: SimTime,
    },
    /// A lease was granted.
    LeaseGrant(LeaseTicket),
    /// A lease was released early.
    LeaseRelease(u64),
}

/// Journal record kind for [`RegistryMutation::AtrRegister`].
pub(crate) const KIND_ATR_REGISTER: &str = "atr.register";
/// Journal record kind for [`RegistryMutation::AtrRemove`].
pub(crate) const KIND_ATR_REMOVE: &str = "atr.remove";
/// Journal record kind for [`RegistryMutation::AdrRegister`].
pub(crate) const KIND_ADR_REGISTER: &str = "adr.register";
/// Journal record kind for [`RegistryMutation::AdrRemove`].
pub(crate) const KIND_ADR_REMOVE: &str = "adr.remove";
/// Journal record kind for [`RegistryMutation::AdrUninstall`].
pub(crate) const KIND_ADR_UNINSTALL: &str = "adr.uninstall";
/// Journal record kind for [`RegistryMutation::LeaseGrant`].
pub(crate) const KIND_LEASE_GRANT: &str = "lease.grant";
/// Journal record kind for [`RegistryMutation::LeaseRelease`].
pub(crate) const KIND_LEASE_RELEASE: &str = "lease.release";

impl RegistryMutation {
    /// The journal record kind for this mutation.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            RegistryMutation::AtrRegister(_) => KIND_ATR_REGISTER,
            RegistryMutation::AtrRemove(_) => KIND_ATR_REMOVE,
            RegistryMutation::AdrRegister(_) => KIND_ADR_REGISTER,
            RegistryMutation::AdrRemove(_) => KIND_ADR_REMOVE,
            RegistryMutation::AdrUninstall { .. } => KIND_ADR_UNINSTALL,
            RegistryMutation::LeaseGrant(_) => KIND_LEASE_GRANT,
            RegistryMutation::LeaseRelease(_) => KIND_LEASE_RELEASE,
        }
    }

    /// The journal record payload for this mutation.
    pub(crate) fn payload(&self) -> String {
        let mut e = Enc::default();
        match self {
            RegistryMutation::AtrRegister(t) => t.put(&mut e),
            RegistryMutation::AtrRemove(name) => name.put(&mut e),
            RegistryMutation::AdrRegister(dep) => dep.put(&mut e),
            RegistryMutation::AdrRemove(key) => key.put(&mut e),
            RegistryMutation::AdrUninstall { key, at } => {
                key.put(&mut e);
                at.put(&mut e);
            }
            RegistryMutation::LeaseGrant(l) => l.put(&mut e),
            RegistryMutation::LeaseRelease(id) => id.put(&mut e),
        }
        e.buf
    }

    /// Decode a replayed `(kind, payload)` record; `None` for unknown
    /// kinds or malformed payloads (replay skips such records).
    pub(crate) fn decode(kind: &str, payload: &str) -> Option<RegistryMutation> {
        Some(match kind {
            KIND_ATR_REGISTER => RegistryMutation::AtrRegister(decode(payload)?),
            KIND_ATR_REMOVE => RegistryMutation::AtrRemove(decode(payload)?),
            KIND_ADR_REGISTER => RegistryMutation::AdrRegister(decode(payload)?),
            KIND_ADR_REMOVE => RegistryMutation::AdrRemove(decode(payload)?),
            KIND_ADR_UNINSTALL => {
                let (key, at) = decode(payload)?;
                RegistryMutation::AdrUninstall { key, at }
            }
            KIND_LEASE_GRANT => RegistryMutation::LeaseGrant(decode(payload)?),
            KIND_LEASE_RELEASE => RegistryMutation::LeaseRelease(decode(payload)?),
            _ => return None,
        })
    }

    /// Replay this mutation into a site's registries (and its lease table,
    /// for the substrate that keeps one; lease records are skipped
    /// without). Journal order, not timestamps, is the source of truth
    /// during replay: an uninstall removes the live entry and tombstones
    /// unconditionally — if the entry never made it back (a torn
    /// register) the tombstone is kept regardless — and a later replayed
    /// register legitimately supersedes it.
    pub(crate) fn apply(
        self,
        atr: &ActivityTypeRegistry,
        adr: &ActivityDeploymentRegistry,
        leases: Option<&mut LeaseManager>,
        now: SimTime,
    ) {
        match self {
            RegistryMutation::AtrRegister(t) => {
                let _ = atr.register(*t, now);
            }
            RegistryMutation::AtrRemove(name) => {
                let _ = atr.remove(&name);
            }
            RegistryMutation::AdrRegister(d) => {
                let _ = adr.register(*d, atr, now);
            }
            RegistryMutation::AdrRemove(key) => {
                let _ = adr.remove(&key);
            }
            RegistryMutation::AdrUninstall { key, at } => {
                if adr.uninstall(&key, at).is_err() {
                    adr.restore_tombstones([(key, at)]);
                }
            }
            RegistryMutation::LeaseGrant(ticket) => {
                if let Some(leases) = leases {
                    leases.restore(ticket);
                }
            }
            RegistryMutation::LeaseRelease(id) => {
                if let Some(leases) = leases {
                    let _ = leases.release(id);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Full durable state of one site at snapshot time: live types, live
/// deployments, uninstall tombstones and (Grid harness only) live leases.
#[derive(Clone, Debug, Default)]
pub struct SnapshotState {
    /// Live activity types.
    pub types: Vec<ActivityType>,
    /// Live activity deployments.
    pub deployments: Vec<ActivityDeployment>,
    /// Uninstall tombstones: deployment key → uninstall instant.
    pub tombstones: Vec<(String, SimTime)>,
    /// Live lease tickets (empty for the distributed-node harness, which
    /// keeps leasing on the synchronous Grid side).
    pub leases: Vec<LeaseTicket>,
}

/// Every live deployment of `adr` at `now`, in registry order.
pub(crate) fn live_deployments(
    adr: &ActivityDeploymentRegistry,
    now: SimTime,
) -> Vec<ActivityDeployment> {
    let keys = adr.keys(now);
    keys.iter()
        .filter_map(|k| adr.lookup(k, now))
        .map(|r| r.value)
        .collect()
}

impl SnapshotState {
    /// The durable state of one site's registries at `now`: live types,
    /// live deployments and uninstall tombstones. `leases` is left empty
    /// for the substrate that keeps a lease table to fill in.
    pub(crate) fn capture(
        atr: &ActivityTypeRegistry,
        adr: &ActivityDeploymentRegistry,
        now: SimTime,
    ) -> SnapshotState {
        let names = atr.names();
        SnapshotState {
            types: names
                .iter()
                .filter_map(|n| atr.lookup(n, now))
                .map(|r| ActivityType::clone(&r.value))
                .collect(),
            deployments: live_deployments(adr, now),
            tombstones: adr.tombstones(),
            leases: Vec::new(),
        }
    }

    /// Load this snapshot into a site's (empty, post-crash) registries:
    /// types before the deployments checked against them, tombstones
    /// before the deployments that may supersede them, lease tickets into
    /// the lease table if the substrate keeps one.
    pub(crate) fn restore(
        self,
        atr: &ActivityTypeRegistry,
        adr: &ActivityDeploymentRegistry,
        leases: Option<&mut LeaseManager>,
        now: SimTime,
    ) {
        for t in self.types {
            let _ = atr.register(t, now);
        }
        adr.restore_tombstones(self.tombstones);
        for d in self.deployments {
            let _ = adr.register(d, atr, now);
        }
        if let Some(leases) = leases {
            for l in self.leases {
                leases.restore(l);
            }
        }
    }
}

/// Rebuild a site's registries from what its store recovered after a
/// crash: the snapshot first, then the journal *in record order*, skipping
/// records that do not decode. Returns whether a snapshot was loaded.
pub(crate) fn replay(
    recovered: &RecoveredState,
    atr: &ActivityTypeRegistry,
    adr: &ActivityDeploymentRegistry,
    mut leases: Option<&mut LeaseManager>,
    now: SimTime,
) -> bool {
    let snapshot = recovered.snapshot.as_deref().and_then(decode_snapshot);
    let had_snapshot = snapshot.is_some();
    if let Some(state) = snapshot {
        state.restore(atr, adr, leases.as_deref_mut(), now);
    }
    for (kind, payload) in &recovered.records {
        if let Some(m) = RegistryMutation::decode(kind, payload) {
            m.apply(atr, adr, leases.as_deref_mut(), now);
        }
    }
    had_snapshot
}

/// Encode a snapshot blob: types, deployments, tombstones and leases,
/// each sorted by key so the blob is deterministic regardless of registry
/// iteration order.
pub(crate) fn encode_snapshot(state: &SnapshotState) -> String {
    let mut types: Vec<&ActivityType> = state.types.iter().collect();
    types.sort_by(|a, b| a.name.cmp(&b.name));
    let mut deployments: Vec<&ActivityDeployment> = state.deployments.iter().collect();
    deployments.sort_by(|a, b| a.key.cmp(&b.key));
    let mut tombstones: Vec<&(String, SimTime)> = state.tombstones.iter().collect();
    tombstones.sort();
    let mut leases: Vec<&LeaseTicket> = state.leases.iter().collect();
    leases.sort_by_key(|l| l.id);

    let mut e = Enc::default();
    put_all(&mut e, types);
    put_all(&mut e, deployments);
    put_all(&mut e, tombstones);
    put_all(&mut e, leases);
    e.buf
}

/// Decode a snapshot blob; `None` on malformed input.
pub(crate) fn decode_snapshot(input: &str) -> Option<SnapshotState> {
    let (types, (deployments, (tombstones, leases))) = decode(input)?;
    Some(SnapshotState {
        types,
        deployments,
        tombstones,
        leases,
    })
}

// ---------------------------------------------------------------------------
// Convergence digest
// ---------------------------------------------------------------------------

/// Digest of registry *contents*: live types, live deployments (with
/// volatile invocation metrics and status zeroed out) and tombstone keys,
/// each sorted by key. LUTs and metrics are deliberately excluded so a
/// crashed/recovered/rejoined site digests equal to a never-crashed
/// same-seed run once anti-entropy has converged. Today only a node unit
/// test compares it (through [`GlareNode::registry_digest`]); it stays
/// public for the sequential reference registry of ROADMAP item 8, whose
/// model must digest equal to every live site.
///
/// [`GlareNode::registry_digest`]: crate::node::GlareNode::registry_digest
pub fn registry_digest(
    types: &[ActivityType],
    deployments: &[ActivityDeployment],
    tombstone_keys: &[String],
) -> u64 {
    let mut type_blobs: Vec<String> = types.iter().map(encode).collect();
    type_blobs.sort();
    let mut dep_blobs: Vec<String> = deployments
        .iter()
        .map(|d| {
            let mut stable = d.clone();
            stable.status = DeploymentStatus::Available;
            stable.metrics = DeploymentMetrics::default();
            encode(&stable)
        })
        .collect();
    dep_blobs.sort();
    let mut tombs: Vec<&String> = tombstone_keys.iter().collect();
    tombs.sort();

    let mut buf = String::new();
    buf.push_str("types|");
    for b in &type_blobs {
        buf.push_str(b);
        buf.push('\u{1f}');
    }
    buf.push_str("deps|");
    for b in &dep_blobs {
        buf.push_str(b);
        buf.push('\u{1f}');
    }
    buf.push_str("tombs|");
    for t in &tombs {
        buf.push_str(t);
        buf.push('\u{1f}');
    }
    fnv1a(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::example_hierarchy;
    use glare_fabric::SimTime;
    use glare_services::Transport;

    fn sample_types() -> Vec<ActivityType> {
        example_hierarchy(SimTime::ZERO)
    }

    fn sample_deployment() -> ActivityDeployment {
        let mut d = ActivityDeployment::executable(
            "JPOVray",
            "site3",
            "/opt/jpovray/bin/jpovray",
            "/opt/jpovray",
        );
        d.record_invocation(SimTime::from_secs(5), SimDuration::from_millis(120), 0);
        d.status = DeploymentStatus::Unavailable;
        d
    }

    #[test]
    fn type_roundtrip_is_full_fidelity() {
        for t in sample_types() {
            let blob = encode(&t);
            let back: ActivityType = decode(&blob).expect("decodes");
            assert_eq!(encode(&back), blob, "{} re-encodes identically", t.name);
            assert_eq!(back.name, t.name);
            assert_eq!(back.benchmarks.len(), t.benchmarks.len());
            assert_eq!(back.limits.min, t.limits.min);
            assert_eq!(back.limits.max, t.limits.max);
            assert_eq!(back.provider_contact, t.provider_contact);
            assert_eq!(back.revoked, t.revoked);
        }
    }

    #[test]
    fn deployment_roundtrip_keeps_metrics() {
        let d = sample_deployment();
        let blob = encode(&d);
        let back: ActivityDeployment = decode(&blob).expect("decodes");
        assert_eq!(encode(&back), blob);
        assert_eq!(back.metrics.invocations, 1);
        assert_eq!(back.metrics.last_return_code, Some(0));
        assert_eq!(back.status, DeploymentStatus::Unavailable);
    }

    #[test]
    fn lease_roundtrip() {
        let l = LeaseTicket {
            id: 42,
            deployment: "jpovray@site3".into(),
            client: "alice".into(),
            kind: LeaseKind::Exclusive,
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        };
        let blob = encode(&l);
        assert_eq!(decode::<LeaseTicket>(&blob).expect("decodes"), l);
    }

    #[test]
    fn mutation_kinds_roundtrip() {
        let muts = vec![
            RegistryMutation::AtrRegister(Box::new(sample_types().remove(0))),
            RegistryMutation::AtrRemove("POVray".into()),
            RegistryMutation::AdrRegister(Box::new(sample_deployment())),
            RegistryMutation::AdrRemove("jpovray@site3".into()),
            RegistryMutation::AdrUninstall {
                key: "jpovray@site3".into(),
                at: SimTime::from_secs(99),
            },
            RegistryMutation::LeaseGrant(LeaseTicket {
                id: 7,
                deployment: "d".into(),
                client: "c".into(),
                kind: LeaseKind::Shared,
                from: SimTime::ZERO,
                until: SimTime::from_secs(1),
            }),
            RegistryMutation::LeaseRelease(7),
        ];
        for m in muts {
            let back = RegistryMutation::decode(m.kind(), &m.payload())
                .unwrap_or_else(|| panic!("{} decodes", m.kind()));
            assert_eq!(back.kind(), m.kind());
            assert_eq!(back.payload(), m.payload());
        }
        assert!(RegistryMutation::decode("bogus.kind", "").is_none());
        assert!(RegistryMutation::decode(KIND_ADR_UNINSTALL, "trailing").is_none());
    }

    #[test]
    fn snapshot_roundtrip_and_determinism() {
        let mut state = SnapshotState {
            types: sample_types(),
            deployments: vec![sample_deployment()],
            tombstones: vec![("old@site1".into(), SimTime::from_secs(3))],
            leases: vec![LeaseTicket {
                id: 1,
                deployment: "jpovray@site3".into(),
                client: "bob".into(),
                kind: LeaseKind::Shared,
                from: SimTime::ZERO,
                until: SimTime::from_secs(60),
            }],
        };
        let blob = encode_snapshot(&state);
        let back = decode_snapshot(&blob).expect("decodes");
        assert_eq!(back.types.len(), state.types.len());
        assert_eq!(back.deployments.len(), 1);
        assert_eq!(back.tombstones, state.tombstones);
        assert_eq!(back.leases, state.leases);
        // Insertion order must not leak into the blob.
        state.types.reverse();
        assert_eq!(encode_snapshot(&state), blob);
        assert!(decode_snapshot("7:garbage").is_none());
    }

    #[test]
    fn digest_ignores_volatile_metrics_but_not_contents() {
        let types = sample_types();
        let fresh = ActivityDeployment::executable(
            "JPOVray",
            "site3",
            "/opt/jpovray/bin/jpovray",
            "/opt/jpovray",
        );
        let mut invoked = fresh.clone();
        invoked.record_invocation(SimTime::from_secs(9), SimDuration::from_millis(50), 0);
        let d0 = registry_digest(&types, std::slice::from_ref(&fresh), &[]);
        assert_eq!(
            d0,
            registry_digest(&types, &[invoked], &[]),
            "invocation metrics are volatile"
        );
        assert_ne!(
            d0,
            registry_digest(&types, &[], &[]),
            "missing deployment changes the digest"
        );
        assert_ne!(
            d0,
            registry_digest(&types, &[fresh], &["gone@site1".into()]),
            "tombstones are part of the digest"
        );
    }

    /// `Enc::s` as it was before tokens were written in place: the length
    /// rendered to a `String` first (and `u`/`i` rendered their number to
    /// one before that).
    fn concatenating_s(buf: &mut String, v: &str) {
        buf.push_str(&v.len().to_string());
        buf.push(':');
        buf.push_str(v);
    }

    #[test]
    fn tokens_written_in_place_equal_the_concatenating_encoder() {
        const TEXT: [&str; 7] = ["", ":", "12:", "3:abc", "0", "é:9", "\u{1f}"];
        const U: [u64; 8] = [0, 9, 10, 99, 100, 9_999_999_999_999_999_999, u64::MAX - 1, u64::MAX];
        const I: [i64; 8] = [0, -1, 9, -9, -10, i64::MIN, i64::MIN + 1, i64::MAX];
        let mut rng = glare_fabric::SimRng::from_seed(29);
        let (mut e, mut old) = (Enc::default(), String::new());
        for _ in 0..4000 {
            // A random number keeps a random count of its top bits, so
            // every digit count comes up; the listed ones are the edges.
            let (listed, shift) = (rng.chance(0.5), rng.range(0, 64));
            match rng.index(3) {
                0 => {
                    let pieces = (0..rng.range(0, 4)).map(|_| TEXT[rng.index(TEXT.len())]);
                    let v: String = pieces.collect();
                    e.s(&v);
                    concatenating_s(&mut old, &v);
                }
                1 => {
                    let drawn = rng.next_u64() >> shift;
                    let v = if listed { U[rng.index(U.len())] } else { drawn };
                    e.u(v);
                    concatenating_s(&mut old, &v.to_string());
                }
                _ => {
                    let drawn = rng.next_u64() as i64 >> shift;
                    let v = if listed { I[rng.index(I.len())] } else { drawn };
                    e.i(v);
                    concatenating_s(&mut old, &v.to_string());
                }
            }
        }
        assert_eq!(e.buf, old);
    }

    /// A concrete type that sets every field the codec writes.
    fn pinned_type() -> ActivityType {
        ActivityType {
            name: "JPOVray".into(),
            kind: TypeKind::Concrete,
            base_types: vec!["POVray".into()],
            domain: "Imaging".into(),
            functions: vec![ActivityFunction {
                name: "render".into(),
                inputs: vec!["scene".into(), "ini".into()],
                outputs: vec!["image".into()],
            }],
            benchmarks: vec![TypeBenchmark {
                platform: Platform::new("Intel", "Linux", "32bit"),
                reference_ms: 1500,
            }],
            dependencies: vec!["Java".into()],
            installation: Some(InstallationSpec {
                mode: InstallMode::Manual,
                constraints: InstallConstraints {
                    platform: Some("Intel".into()),
                    os: None,
                    arch: Some("32bit".into()),
                },
                deploy_file_url: "gsiftp://repo/jpovray.xml".into(),
                deploy_file_md5: Some("d41d8cd9".into()),
                package: "jpovray".into(),
            }),
            limits: DeploymentLimits { min: 1, max: 12 },
            provider_contact: "ops@site3".into(),
            revoked: false,
        }
    }

    /// An abstract type with nothing optional set.
    fn pinned_abstract_type() -> ActivityType {
        ActivityType {
            name: "POVray".into(),
            kind: TypeKind::Abstract,
            base_types: Vec::new(),
            domain: "Imaging".into(),
            functions: Vec::new(),
            benchmarks: Vec::new(),
            dependencies: Vec::new(),
            installation: None,
            limits: DeploymentLimits { min: 0, max: u32::MAX },
            provider_contact: String::new(),
            revoked: true,
        }
    }

    fn pinned_executable() -> ActivityDeployment {
        ActivityDeployment {
            key: "jpovray@site3".into(),
            type_name: "JPOVray".into(),
            site: "site3".into(),
            access: DeploymentAccess::Executable {
                path: "/opt/jpovray/bin/jpovray".into(),
                home: "/opt/jpovray".into(),
            },
            status: DeploymentStatus::Failed,
            metrics: DeploymentMetrics {
                last_execution_time: Some(SimDuration::from_millis(120)),
                last_return_code: Some(-11),
                last_invocation: Some(SimTime::from_secs(5)),
                invocations: 3,
            },
        }
    }

    fn pinned_service() -> ActivityDeployment {
        ActivityDeployment {
            key: "wien2k@site1".into(),
            type_name: "Wien2k".into(),
            site: "site1".into(),
            access: DeploymentAccess::Service {
                address: "https://site1/Wien2k".into(),
            },
            status: DeploymentStatus::Unavailable,
            metrics: DeploymentMetrics::default(),
        }
    }

    fn pinned_lease(id: u64, kind: LeaseKind) -> LeaseTicket {
        LeaseTicket {
            id,
            deployment: "jpovray@site3".into(),
            client: "alice".into(),
            kind,
            from: SimTime::from_secs(10),
            until: SimTime::from_millis(20_500),
        }
    }

    /// The journal and snapshot bytes, written out: a format change fails
    /// here even when encoder and decoder drift together.
    #[test]
    fn wire_format_is_pinned() {
        let payloads = [
            (
                RegistryMutation::AtrRegister(Box::new(pinned_type())),
                concat!(
                    "7:JPOVray1:C",
                    "1:16:POVray7:Imaging",
                    "1:16:render1:25:scene3:ini1:15:image",
                    "1:15:Intel5:Linux5:32bit4:1500",
                    "1:14:Java",
                    "1:11:M1:15:Intel1:01:15:32bit25:gsiftp://repo/jpovray.xml1:18:d41d8cd97:jpovray",
                    "1:12:129:ops@site31:0",
                ),
            ),
            (
                RegistryMutation::AdrRegister(Box::new(pinned_executable())),
                concat!(
                    "13:jpovray@site37:JPOVray5:site3",
                    "1:E24:/opt/jpovray/bin/jpovray12:/opt/jpovray",
                    "1:F1:19:1200000001:13:-111:110:50000000001:3",
                ),
            ),
            (
                RegistryMutation::AdrRegister(Box::new(pinned_service())),
                "12:wien2k@site16:Wien2k5:site11:S20:https://site1/Wien2k1:U1:01:01:01:0",
            ),
            (
                RegistryMutation::LeaseGrant(pinned_lease(42, LeaseKind::Exclusive)),
                "2:4213:jpovray@site35:alice1:X11:1000000000011:20500000000",
            ),
            (RegistryMutation::AtrRemove("POVray".into()), "6:POVray"),
            (RegistryMutation::AdrRemove("wien2k@site1".into()), "12:wien2k@site1"),
            (
                RegistryMutation::AdrUninstall {
                    key: "jpovray@site3".into(),
                    at: SimTime::from_secs(99),
                },
                "13:jpovray@site311:99000000000",
            ),
            (RegistryMutation::LeaseRelease(42), "2:42"),
        ];
        for (m, pinned) in payloads {
            assert_eq!(m.payload(), pinned, "{} payload", m.kind());
            let back = RegistryMutation::decode(m.kind(), pinned).expect("pinned payload decodes");
            assert_eq!(back.payload(), pinned, "{} decodes to what it pins", m.kind());
        }

        // Built unsorted: the blob sorts types, deployments, tombstones and leases.
        let state = SnapshotState {
            types: vec![pinned_type(), pinned_abstract_type()],
            deployments: vec![pinned_service(), pinned_executable()],
            tombstones: vec![
                ("zeta@site2".into(), SimTime::from_secs(4)),
                ("alpha@site1".into(), SimTime::from_secs(7)),
            ],
            leases: vec![
                pinned_lease(9, LeaseKind::Shared),
                pinned_lease(2, LeaseKind::Exclusive),
            ],
        };
        let pinned = concat!(
            "1:2",
            "7:JPOVray1:C1:16:POVray7:Imaging1:16:render1:25:scene3:ini1:15:image",
            "1:15:Intel5:Linux5:32bit4:15001:14:Java",
            "1:11:M1:15:Intel1:01:15:32bit25:gsiftp://repo/jpovray.xml1:18:d41d8cd97:jpovray",
            "1:12:129:ops@site31:0",
            "6:POVray1:A1:07:Imaging1:01:01:01:01:010:42949672950:1:1",
            "1:2",
            "13:jpovray@site37:JPOVray5:site31:E24:/opt/jpovray/bin/jpovray12:/opt/jpovray",
            "1:F1:19:1200000001:13:-111:110:50000000001:3",
            "12:wien2k@site16:Wien2k5:site11:S20:https://site1/Wien2k1:U1:01:01:01:0",
            "1:2",
            "11:alpha@site110:7000000000",
            "10:zeta@site210:4000000000",
            "1:2",
            "1:213:jpovray@site35:alice1:X11:1000000000011:20500000000",
            "1:913:jpovray@site35:alice1:S11:1000000000011:20500000000",
        );
        assert_eq!(encode_snapshot(&state), pinned);
        let back = decode_snapshot(pinned).expect("pinned snapshot decodes");
        assert_eq!(encode_snapshot(&back), pinned);

        let tombs = ["zeta@site2".to_owned(), "alpha@site1".to_owned()];
        let digest = registry_digest(&state.types, &state.deployments, &tombs);
        assert_eq!(digest, 0x5773_9353_1f99_971b);
    }

    /// Replay loads what decodes and passes over the rest: a snapshot blob
    /// that does not decode, a record of unknown kind and one with a
    /// malformed payload. The valid records apply in journal order.
    #[test]
    fn replay_skips_what_it_cannot_read() {
        let record = |m: RegistryMutation| (m.kind().to_owned(), m.payload());
        let lease = pinned_lease(42, LeaseKind::Exclusive);
        let mut recovered = RecoveredState {
            snapshot: Some("7:garbage".into()),
            records: vec![
                record(RegistryMutation::AtrRegister(Box::new(pinned_type()))),
                ("atr.purge".into(), "7:JPOVray".into()),
                (KIND_ATR_REMOVE.into(), "7:JPOVrayEXTRA".into()),
                record(RegistryMutation::AdrRegister(Box::new(pinned_executable()))),
                record(RegistryMutation::LeaseGrant(lease.clone())),
                record(RegistryMutation::AdrUninstall {
                    key: "jpovray@site3".into(),
                    at: SimTime::from_secs(99),
                }),
            ],
            truncated_records: 0,
        };
        let registries = || {
            let atr = ActivityTypeRegistry::new("https://site3/ATR", Transport::Http);
            (atr, ActivityDeploymentRegistry::new("https://site3/ADR", Transport::Http))
        };
        let now = SimTime::from_secs(100);

        let (atr, adr) = registries();
        assert!(!replay(&recovered, &atr, &adr, None, now), "the blob does not decode");
        assert_eq!(atr.names(), ["JPOVray"], "neither skipped record removed the type");
        assert!(adr.keys(now).is_empty(), "the uninstall applied after the register");
        assert_eq!(adr.tombstones(), [("jpovray@site3".to_owned(), SimTime::from_secs(99))]);

        let (atr, adr) = registries();
        let mut leases = LeaseManager::new();
        assert!(!replay(&recovered, &atr, &adr, Some(&mut leases), now));
        assert_eq!(leases.tickets(), [lease], "a lease table takes the grant");

        recovered.snapshot = Some(encode_snapshot(&SnapshotState::default()));
        let (atr, adr) = registries();
        assert!(replay(&recovered, &atr, &adr, None, now), "an empty snapshot still loads");
    }

    #[test]
    fn malformed_tokens_are_rejected_not_panicked() {
        for bad in ["", "5:abc", "x:abc", "999999999999999999999:a", "3:abcEXTRA"] {
            assert!(decode::<ActivityType>(bad).is_none(), "{bad:?}");
            assert!(decode::<ActivityDeployment>(bad).is_none(), "{bad:?}");
            assert!(decode::<LeaseTicket>(bad).is_none(), "{bad:?}");
        }
        // A count the input cannot hold is refused, not reserved: at the
        // snapshot's type count, a type's base-type count and a function's
        // input count.
        for huge in ["20:18446744073709551615", "13:1000000000000"] {
            let types = huge.to_owned();
            let base_types = format!("1:17:JPOVray1:C{huge}");
            let inputs = format!("1:17:JPOVray1:C1:07:Imaging1:16:render{huge}");
            for bad in [types, base_types, inputs] {
                assert!(decode_snapshot(&bad).is_none(), "{bad:?}");
            }
        }
    }
}
