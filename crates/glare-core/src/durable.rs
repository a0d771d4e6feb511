//! Durable-state codec for crash-consistent registries.
//!
//! ATR/ADR mutations and lease grants are journaled to the per-site
//! [`glare_fabric::store`] write-ahead log as *strings*; this module
//! defines the encoding. The format is a flat netstring-style token
//! stream (`len:bytes` per token), which is:
//!
//! * **full fidelity** — unlike [`ActivityType::from_xml`], every field
//!   round-trips (benchmarks, limits, provider contact, revocation flag),
//! * **deterministic** — no hash-map iteration order leaks in; identical
//!   values encode to identical bytes, which is what makes the
//!   crash-replay byte-identity gate in `scripts/verify.sh` meaningful,
//! * **self-delimiting** — decoding is length-directed, so payloads may
//!   contain any byte (torn-tail corruption is caught by the store's
//!   per-record checksum, not by the codec).
//!
//! [`RegistryMutation`] is the journal record vocabulary; snapshots use
//! [`encode_snapshot`]/[`decode_snapshot`] over a [`SnapshotState`]. The
//! [`registry_digest`] helper condenses registry contents into one `u64`
//! for convergence checks; it deliberately excludes volatile invocation
//! metrics and LUTs so that a recovered-and-rejoined site can compare
//! equal to a never-crashed one.

use std::fmt::Write as _;

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

    fn flag(&mut self, v: bool) {
        self.s(if v { "1" } else { "0" });
    }

    fn opt_s(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.flag(true);
                self.s(s);
            }
            None => self.flag(false),
        }
    }

    fn opt_u(&mut self, v: Option<u64>) {
        match v {
            Some(u) => {
                self.flag(true);
                self.u(u);
            }
            None => self.flag(false),
        }
    }

    fn done(self) -> String {
        self.buf
    }
}

/// Streaming decoder over a token stream. Every accessor returns `None`
/// on malformed input (decoding never panics).
struct Dec<'a> {
    rest: &'a str,
}

impl<'a> Dec<'a> {
    fn new(input: &'a str) -> Self {
        Dec { rest: input }
    }

    fn s(&mut self) -> Option<&'a str> {
        let colon = self.rest.find(':')?;
        let len: usize = self.rest[..colon].parse().ok()?;
        let start = colon + 1;
        let end = start.checked_add(len)?;
        let tok = self.rest.get(start..end)?;
        self.rest = &self.rest[end..];
        Some(tok)
    }

    fn u(&mut self) -> Option<u64> {
        self.s()?.parse().ok()
    }

    fn i(&mut self) -> Option<i64> {
        self.s()?.parse().ok()
    }

    fn flag(&mut self) -> Option<bool> {
        match self.s()? {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    }

    fn opt_s(&mut self) -> Option<Option<String>> {
        if self.flag()? {
            Some(Some(self.s()?.to_owned()))
        } else {
            Some(None)
        }
    }

    fn opt_u(&mut self) -> Option<Option<u64>> {
        if self.flag()? { Some(Some(self.u()?)) } else { Some(None) }
    }

    fn finished(&self) -> bool {
        self.rest.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Activity types
// ---------------------------------------------------------------------------

fn enc_platform(e: &mut Enc, p: &Platform) {
    e.s(&p.platform);
    e.s(&p.os);
    e.s(&p.arch);
}

fn dec_platform(d: &mut Dec<'_>) -> Option<Platform> {
    let platform = d.s()?.to_owned();
    let os = d.s()?.to_owned();
    let arch = d.s()?.to_owned();
    Some(Platform::new(&platform, &os, &arch))
}

fn enc_type(e: &mut Enc, t: &ActivityType) {
    e.s(&t.name);
    e.s(match t.kind {
        TypeKind::Abstract => "A",
        TypeKind::Concrete => "C",
    });
    e.u(t.base_types.len() as u64);
    for b in &t.base_types {
        e.s(b);
    }
    e.s(&t.domain);
    e.u(t.functions.len() as u64);
    for f in &t.functions {
        e.s(&f.name);
        e.u(f.inputs.len() as u64);
        for i in &f.inputs {
            e.s(i);
        }
        e.u(f.outputs.len() as u64);
        for o in &f.outputs {
            e.s(o);
        }
    }
    e.u(t.benchmarks.len() as u64);
    for b in &t.benchmarks {
        enc_platform(e, &b.platform);
        e.u(b.reference_ms);
    }
    e.u(t.dependencies.len() as u64);
    for dep in &t.dependencies {
        e.s(dep);
    }
    match &t.installation {
        Some(spec) => {
            e.flag(true);
            e.s(match spec.mode {
                InstallMode::OnDemand => "O",
                InstallMode::Manual => "M",
            });
            e.opt_s(spec.constraints.platform.as_deref());
            e.opt_s(spec.constraints.os.as_deref());
            e.opt_s(spec.constraints.arch.as_deref());
            e.s(&spec.deploy_file_url);
            e.opt_s(spec.deploy_file_md5.as_deref());
            e.s(&spec.package);
        }
        None => e.flag(false),
    }
    e.u(u64::from(t.limits.min));
    e.u(u64::from(t.limits.max));
    e.s(&t.provider_contact);
    e.flag(t.revoked);
}

fn dec_type(d: &mut Dec<'_>) -> Option<ActivityType> {
    let name = d.s()?.to_owned();
    let kind = match d.s()? {
        "A" => TypeKind::Abstract,
        "C" => TypeKind::Concrete,
        _ => return None,
    };
    let n_base = d.u()? as usize;
    let mut base_types = Vec::with_capacity(n_base);
    for _ in 0..n_base {
        base_types.push(d.s()?.to_owned());
    }
    let domain = d.s()?.to_owned();
    let n_funcs = d.u()? as usize;
    let mut functions = Vec::with_capacity(n_funcs);
    for _ in 0..n_funcs {
        let fname = d.s()?.to_owned();
        let n_in = d.u()? as usize;
        let mut inputs = Vec::with_capacity(n_in);
        for _ in 0..n_in {
            inputs.push(d.s()?.to_owned());
        }
        let n_out = d.u()? as usize;
        let mut outputs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            outputs.push(d.s()?.to_owned());
        }
        functions.push(ActivityFunction {
            name: fname,
            inputs,
            outputs,
        });
    }
    let n_bench = d.u()? as usize;
    let mut benchmarks = Vec::with_capacity(n_bench);
    for _ in 0..n_bench {
        let platform = dec_platform(d)?;
        let reference_ms = d.u()?;
        benchmarks.push(TypeBenchmark {
            platform,
            reference_ms,
        });
    }
    let n_deps = d.u()? as usize;
    let mut dependencies = Vec::with_capacity(n_deps);
    for _ in 0..n_deps {
        dependencies.push(d.s()?.to_owned());
    }
    let installation = if d.flag()? {
        let mode = match d.s()? {
            "O" => InstallMode::OnDemand,
            "M" => InstallMode::Manual,
            _ => return None,
        };
        let constraints = InstallConstraints {
            platform: d.opt_s()?,
            os: d.opt_s()?,
            arch: d.opt_s()?,
        };
        let deploy_file_url = d.s()?.to_owned();
        let deploy_file_md5 = d.opt_s()?;
        let package = d.s()?.to_owned();
        Some(InstallationSpec {
            mode,
            constraints,
            deploy_file_url,
            deploy_file_md5,
            package,
        })
    } else {
        None
    };
    let limits = DeploymentLimits {
        min: u32::try_from(d.u()?).ok()?,
        max: u32::try_from(d.u()?).ok()?,
    };
    let provider_contact = d.s()?.to_owned();
    let revoked = d.flag()?;
    Some(ActivityType {
        name,
        kind,
        base_types,
        domain,
        functions,
        benchmarks,
        dependencies,
        installation,
        limits,
        provider_contact,
        revoked,
    })
}

/// Encode an activity type with full fidelity (every field round-trips).
pub fn encode_type(t: &ActivityType) -> String {
    let mut e = Enc::default();
    enc_type(&mut e, t);
    e.done()
}

/// Decode an activity type; `None` on malformed input.
pub fn decode_type(input: &str) -> Option<ActivityType> {
    let mut d = Dec::new(input);
    let t = dec_type(&mut d)?;
    d.finished().then_some(t)
}

// ---------------------------------------------------------------------------
// Deployments
// ---------------------------------------------------------------------------

fn enc_deployment(e: &mut Enc, dep: &ActivityDeployment) {
    e.s(&dep.key);
    e.s(&dep.type_name);
    e.s(&dep.site);
    match &dep.access {
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
    e.s(match dep.status {
        DeploymentStatus::Available => "A",
        DeploymentStatus::Unavailable => "U",
        DeploymentStatus::Failed => "F",
    });
    e.opt_u(dep.metrics.last_execution_time.map(|t| t.as_nanos()));
    match dep.metrics.last_return_code {
        Some(rc) => {
            e.flag(true);
            e.i(i64::from(rc));
        }
        None => e.flag(false),
    }
    e.opt_u(dep.metrics.last_invocation.map(|t| t.as_nanos()));
    e.u(dep.metrics.invocations);
}

fn dec_deployment(d: &mut Dec<'_>) -> Option<ActivityDeployment> {
    let key = d.s()?.to_owned();
    let type_name = d.s()?.to_owned();
    let site = d.s()?.to_owned();
    let access = match d.s()? {
        "E" => DeploymentAccess::Executable {
            path: d.s()?.to_owned(),
            home: d.s()?.to_owned(),
        },
        "S" => DeploymentAccess::Service {
            address: d.s()?.to_owned(),
        },
        _ => return None,
    };
    let status = match d.s()? {
        "A" => DeploymentStatus::Available,
        "U" => DeploymentStatus::Unavailable,
        "F" => DeploymentStatus::Failed,
        _ => return None,
    };
    let last_execution_time = d.opt_u()?.map(SimDuration::from_nanos);
    let last_return_code = if d.flag()? {
        Some(i32::try_from(d.i()?).ok()?)
    } else {
        None
    };
    let last_invocation = d.opt_u()?.map(SimTime::from_nanos);
    let invocations = d.u()?;
    Some(ActivityDeployment {
        key,
        type_name,
        site,
        access,
        status,
        metrics: DeploymentMetrics {
            last_execution_time,
            last_return_code,
            last_invocation,
            invocations,
        },
    })
}

/// Encode a deployment with full fidelity (access, status, metrics).
pub fn encode_deployment(dep: &ActivityDeployment) -> String {
    let mut e = Enc::default();
    enc_deployment(&mut e, dep);
    e.done()
}

/// Decode a deployment; `None` on malformed input.
pub fn decode_deployment(input: &str) -> Option<ActivityDeployment> {
    let mut d = Dec::new(input);
    let dep = dec_deployment(&mut d)?;
    d.finished().then_some(dep)
}

// ---------------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------------

fn enc_lease(e: &mut Enc, l: &LeaseTicket) {
    e.u(l.id);
    e.s(&l.deployment);
    e.s(&l.client);
    e.s(match l.kind {
        LeaseKind::Exclusive => "X",
        LeaseKind::Shared => "S",
    });
    e.u(l.from.as_nanos());
    e.u(l.until.as_nanos());
}

fn dec_lease(d: &mut Dec<'_>) -> Option<LeaseTicket> {
    let id = d.u()?;
    let deployment = d.s()?.to_owned();
    let client = d.s()?.to_owned();
    let kind = match d.s()? {
        "X" => LeaseKind::Exclusive,
        "S" => LeaseKind::Shared,
        _ => return None,
    };
    let from = SimTime::from_nanos(d.u()?);
    let until = SimTime::from_nanos(d.u()?);
    Some(LeaseTicket {
        id,
        deployment,
        client,
        kind,
        from,
        until,
    })
}

/// Encode a lease ticket.
pub fn encode_lease(l: &LeaseTicket) -> String {
    let mut e = Enc::default();
    enc_lease(&mut e, l);
    e.done()
}

/// Decode a lease ticket; `None` on malformed input.
pub fn decode_lease(input: &str) -> Option<LeaseTicket> {
    let mut d = Dec::new(input);
    let l = dec_lease(&mut d)?;
    d.finished().then_some(l)
}

// ---------------------------------------------------------------------------
// Journal mutations
// ---------------------------------------------------------------------------

/// One journaled registry mutation: the write-ahead-log vocabulary of a
/// durable GLARE site. `kind()`/`payload()` map onto the store's
/// `(kind, payload)` record pair; [`RegistryMutation::decode`] is the
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
pub const KIND_ATR_REGISTER: &str = "atr.register";
/// Journal record kind for [`RegistryMutation::AtrRemove`].
pub const KIND_ATR_REMOVE: &str = "atr.remove";
/// Journal record kind for [`RegistryMutation::AdrRegister`].
pub const KIND_ADR_REGISTER: &str = "adr.register";
/// Journal record kind for [`RegistryMutation::AdrRemove`].
pub const KIND_ADR_REMOVE: &str = "adr.remove";
/// Journal record kind for [`RegistryMutation::AdrUninstall`].
pub const KIND_ADR_UNINSTALL: &str = "adr.uninstall";
/// Journal record kind for [`RegistryMutation::LeaseGrant`].
pub const KIND_LEASE_GRANT: &str = "lease.grant";
/// Journal record kind for [`RegistryMutation::LeaseRelease`].
pub const KIND_LEASE_RELEASE: &str = "lease.release";

impl RegistryMutation {
    /// The journal record kind for this mutation.
    pub fn kind(&self) -> &'static str {
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
    pub fn payload(&self) -> String {
        let mut e = Enc::default();
        match self {
            RegistryMutation::AtrRegister(t) => enc_type(&mut e, t),
            RegistryMutation::AtrRemove(name) => e.s(name),
            RegistryMutation::AdrRegister(dep) => enc_deployment(&mut e, dep),
            RegistryMutation::AdrRemove(key) => e.s(key),
            RegistryMutation::AdrUninstall { key, at } => {
                e.s(key);
                e.u(at.as_nanos());
            }
            RegistryMutation::LeaseGrant(l) => enc_lease(&mut e, l),
            RegistryMutation::LeaseRelease(id) => e.u(*id),
        }
        e.done()
    }

    /// Decode a replayed `(kind, payload)` record; `None` for unknown
    /// kinds or malformed payloads (replay skips such records).
    pub fn decode(kind: &str, payload: &str) -> Option<RegistryMutation> {
        let mut d = Dec::new(payload);
        let m = match kind {
            KIND_ATR_REGISTER => RegistryMutation::AtrRegister(Box::new(dec_type(&mut d)?)),
            KIND_ATR_REMOVE => RegistryMutation::AtrRemove(d.s()?.to_owned()),
            KIND_ADR_REGISTER => RegistryMutation::AdrRegister(Box::new(dec_deployment(&mut d)?)),
            KIND_ADR_REMOVE => RegistryMutation::AdrRemove(d.s()?.to_owned()),
            KIND_ADR_UNINSTALL => RegistryMutation::AdrUninstall {
                key: d.s()?.to_owned(),
                at: SimTime::from_nanos(d.u()?),
            },
            KIND_LEASE_GRANT => RegistryMutation::LeaseGrant(dec_lease(&mut d)?),
            KIND_LEASE_RELEASE => RegistryMutation::LeaseRelease(d.u()?),
            _ => return None,
        };
        d.finished().then_some(m)
    }

    /// Replay this mutation into a site's registries (and its lease table,
    /// for the substrate that keeps one; lease records are skipped
    /// without). Journal order, not timestamps, is the source of truth
    /// during replay: an uninstall removes the live entry and tombstones
    /// unconditionally — if the entry never made it back (a torn
    /// register) the tombstone is kept regardless — and a later replayed
    /// register legitimately supersedes it.
    pub fn apply(
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
    pub fn capture(
        atr: &ActivityTypeRegistry,
        adr: &ActivityDeploymentRegistry,
        now: SimTime,
    ) -> SnapshotState {
        let names = atr.names(now);
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
    pub fn restore(
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
pub fn replay(
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

/// Encode a snapshot blob. Entries are sorted by key so the blob is
/// deterministic regardless of registry iteration order.
pub fn encode_snapshot(state: &SnapshotState) -> String {
    let mut types: Vec<&ActivityType> = state.types.iter().collect();
    types.sort_by(|a, b| a.name.cmp(&b.name));
    let mut deployments: Vec<&ActivityDeployment> = state.deployments.iter().collect();
    deployments.sort_by(|a, b| a.key.cmp(&b.key));
    let mut tombstones: Vec<&(String, SimTime)> = state.tombstones.iter().collect();
    tombstones.sort();
    let mut leases: Vec<&LeaseTicket> = state.leases.iter().collect();
    leases.sort_by_key(|l| l.id);

    let mut e = Enc::default();
    e.u(types.len() as u64);
    for t in &types {
        enc_type(&mut e, t);
    }
    e.u(deployments.len() as u64);
    for dep in &deployments {
        enc_deployment(&mut e, dep);
    }
    e.u(tombstones.len() as u64);
    for (key, at) in &tombstones {
        e.s(key);
        e.u(at.as_nanos());
    }
    e.u(leases.len() as u64);
    for l in &leases {
        enc_lease(&mut e, l);
    }
    e.done()
}

/// Decode a snapshot blob; `None` on malformed input.
pub fn decode_snapshot(input: &str) -> Option<SnapshotState> {
    let mut d = Dec::new(input);
    let n_types = d.u()? as usize;
    let mut types = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        types.push(dec_type(&mut d)?);
    }
    let n_deps = d.u()? as usize;
    let mut deployments = Vec::with_capacity(n_deps);
    for _ in 0..n_deps {
        deployments.push(dec_deployment(&mut d)?);
    }
    let n_tombs = d.u()? as usize;
    let mut tombstones = Vec::with_capacity(n_tombs);
    for _ in 0..n_tombs {
        let key = d.s()?.to_owned();
        let at = SimTime::from_nanos(d.u()?);
        tombstones.push((key, at));
    }
    let n_leases = d.u()? as usize;
    let mut leases = Vec::with_capacity(n_leases);
    for _ in 0..n_leases {
        leases.push(dec_lease(&mut d)?);
    }
    d.finished().then_some(SnapshotState {
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
/// same-seed run once anti-entropy has converged — the byte-identity
/// gate of `scripts/verify.sh`.
pub fn registry_digest(
    types: &[ActivityType],
    deployments: &[ActivityDeployment],
    tombstone_keys: &[String],
) -> u64 {
    let mut type_blobs: Vec<String> = types.iter().map(encode_type).collect();
    type_blobs.sort();
    let mut dep_blobs: Vec<String> = deployments
        .iter()
        .map(|d| {
            let mut stable = d.clone();
            stable.status = DeploymentStatus::Available;
            stable.metrics = DeploymentMetrics::default();
            encode_deployment(&stable)
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
            let blob = encode_type(&t);
            let back = decode_type(&blob).expect("decodes");
            assert_eq!(encode_type(&back), blob, "{} re-encodes identically", t.name);
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
        let blob = encode_deployment(&d);
        let back = decode_deployment(&blob).expect("decodes");
        assert_eq!(encode_deployment(&back), blob);
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
        let blob = encode_lease(&l);
        assert_eq!(decode_lease(&blob).expect("decodes"), l);
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
        assert_eq!(e.done(), old);
    }

    #[test]
    fn malformed_tokens_are_rejected_not_panicked() {
        for bad in ["", "5:abc", "x:abc", "999999999999999999999:a", "3:abcEXTRA"] {
            assert!(decode_type(bad).is_none(), "{bad:?}");
            assert!(decode_deployment(bad).is_none(), "{bad:?}");
            assert!(decode_lease(bad).is_none(), "{bad:?}");
        }
    }
}
