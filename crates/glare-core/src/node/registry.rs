//! The node's registries over time: provider updates, the durable journal
//! and snapshot behind them, recovery after a crash and the anti-entropy
//! rounds that bring a restarted member back in sync ([`Rejoin`]), plus
//! the §3.2 Deployment Status Monitor and Cache Refresher loops. Every
//! durability path is gated on the store.

use std::collections::HashSet;

use glare_fabric::store::{replay_cost, COMPACT_EVERY};
use glare_fabric::{ActorId, Ctx, SimTime};

use super::msg::NodeMsg;
use super::{GlareNode, Loop};
use crate::adr::DEPLOYMENT_WIRE_BYTES;
use crate::durable::{self, RegistryMutation};
use crate::model::{ActivityDeployment, ActivityType};
use crate::superpeer::Role;

/// What a node restarted from its store still owes before it is back in
/// sync with its group.
#[derive(Default)]
pub(super) struct Rejoin {
    /// Set by [`GlareNode::recover_from_store`]: the node owes its next
    /// super-peer an anti-entropy round.
    pending: bool,
    /// When the post-crash recovery began; taken when the node is back in
    /// sync (first anti-entropy response, or winning office) to feed
    /// `glare_recovery_ms`.
    recovery_started: Option<SimTime>,
}

impl GlareNode {
    /// Append one registry mutation to the site's durable journal,
    /// compacting once the journal reaches [`COMPACT_EVERY`] records.
    /// No-op — no appends, no metrics — when the store is disabled.
    fn journal(&mut self, ctx: &mut Ctx<'_>, m: &RegistryMutation) {
        if !ctx.store_enabled() {
            return;
        }
        if ctx.store_append(m.kind(), &m.payload()).is_some() {
            self.tele.count(ctx, "glare_store_appends_total", 1);
        }
        if ctx.store_journal_len() >= COMPACT_EVERY {
            self.write_snapshot(ctx);
        }
    }

    /// Serialize the node's full registry state — types, deployments,
    /// uninstall tombstones — into the store's snapshot slot, clearing
    /// the journal.
    pub(super) fn write_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.store_enabled() {
            return;
        }
        let state = durable::SnapshotState::capture(&self.atr, &self.adr, ctx.now());
        if let Some(compacted) = ctx.store_snapshot(&durable::encode_snapshot(&state)) {
            self.tele.count(ctx, "glare_store_snapshots_total", 1);
            ctx.emit_event("store.compacted", "store", &[("records", &compacted.to_string())]);
        }
    }

    /// Rebuild the registries from the durable store after a crash
    /// ([`durable::replay`]), publish what the replay cost, and owe the
    /// next super-peer an anti-entropy round.
    pub(super) fn recover_from_store(&mut self, ctx: &mut Ctx<'_>) {
        let Some(recovered) = ctx.store_recover() else {
            return;
        };
        let now = ctx.now();
        // Lease records belong to the synchronous Grid harness; the
        // distributed node keeps no lease table.
        let had_snapshot = durable::replay(&recovered, &self.atr, &self.adr, None, now);
        let replayed = recovered.replayed_records();
        let labels = &self.tele.labels(ctx.self_site).site;
        ctx.metrics()
            .counter_labeled("glare_store_replayed_records_total", labels)
            .add(replayed);
        if recovered.truncated_records > 0 {
            ctx.metrics()
                .counter_labeled("glare_store_truncated_records_total", labels)
                .add(recovered.truncated_records);
        }
        // Mirror the modeled replay cost (already charged to the site's
        // CPU by the kernel) into an observable latency distribution.
        ctx.metrics()
            .histogram_labeled("glare_store_replay_ms", labels)
            .record(replay_cost(replayed, had_snapshot));
        ctx.emit_event(
            "store.recovered",
            "store",
            &[
                ("replayed", &replayed.to_string()),
                ("truncated_records", &recovered.truncated_records.to_string()),
                ("snapshot", if had_snapshot { "1" } else { "0" }),
            ],
        );
        self.rejoin = Rejoin {
            pending: true,
            recovery_started: Some(now),
        };
        // Re-snapshot the rebuilt state so the next crash replays from a
        // compact journal.
        self.write_snapshot(ctx);
    }

    /// This node's uninstall tombstones as anti-entropy ships them:
    /// `(key, nanos)`.
    fn tombstones_on_the_wire(&self) -> Vec<(String, u64)> {
        let tombstones = self.adr.tombstones().into_iter();
        tombstones.map(|(k, t)| (k, t.as_nanos())).collect()
    }

    /// Member → super-peer: open an anti-entropy round by shipping the
    /// member's full durable ADR view (live entries with their LUTs, and
    /// uninstall tombstones). No-op for super-peers, ungrouped nodes and
    /// disabled stores.
    fn start_antientropy(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.store_enabled() {
            return;
        }
        let Some(sp) = self.view.remote_super_peer(self.me) else {
            return;
        };
        let now = ctx.now();
        let mut live = durable::live_deployments(&self.adr, now);
        live.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        let entries: Vec<(ActivityDeployment, u64)> = live
            .into_iter()
            .map(|d| {
                let lut = self
                    .adr
                    .epr_of(&d.key, now)
                    .map_or(0, |e| e.last_update_time.as_nanos());
                (d, lut)
            })
            .collect();
        let tombstones = self.tombstones_on_the_wire();
        self.tele.count(ctx, "glare_antientropy_rounds_total", 1);
        ctx.emit_event(
            "antientropy.round",
            "node",
            &[
                ("entries", &entries.len().to_string()),
                ("tombstones", &tombstones.len().to_string()),
            ],
        );
        let bytes = 256 + DEPLOYMENT_WIRE_BYTES * entries.len().max(1) as u64;
        ctx.send_sized(sp, NodeMsg::AntiEntropySummary { entries, tombstones }, bytes);
    }

    /// Deterministic digest over the node's registry state: types,
    /// deployments (volatile status/metrics masked) and tombstone keys.
    /// The crash-replay verification gate compares this between a
    /// crashed-recovered-rejoined run and a never-crashed run of the same
    /// seed.
    pub fn registry_digest(&self, now: SimTime) -> u64 {
        let state = durable::SnapshotState::capture(&self.atr, &self.adr, now);
        let tomb_keys: Vec<String> = state.tombstones.into_iter().map(|(k, _)| k).collect();
        durable::registry_digest(&state.types, &state.deployments, &tomb_keys)
    }

    /// This node has a super-peer again. Restarted from its store, it owes
    /// that super-peer an anti-entropy round — unless it `won` the office
    /// itself: then it is the group's authority again, there is nobody to
    /// pull from, and recovery is over.
    pub(super) fn rejoin_group(&mut self, ctx: &mut Ctx<'_>, won: bool) {
        if !(self.rejoin.pending && ctx.store_enabled()) {
            return;
        }
        self.rejoin.pending = false;
        if won {
            self.record_recovered(ctx);
        } else {
            self.start_antientropy(ctx);
        }
    }

    /// Recovery is over (once per restart): publish how long it took.
    fn record_recovered(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(started) = self.rejoin.recovery_started.take() {
            let elapsed = ctx.now().saturating_since(started);
            let labels = self.tele.labels(ctx.self_site);
            ctx.metrics()
                .histogram_labeled("glare_recovery_ms", &labels.site)
                .record(elapsed);
        }
    }

    /// Register `item` and, once it is in, journal it. The journal's copy
    /// is taken first, and only when there is a store to write it to.
    fn register_then_journal<T: Clone>(
        &mut self,
        ctx: &mut Ctx<'_>,
        item: Box<T>,
        register: impl FnOnce(&GlareNode, T, SimTime) -> bool,
        mutation: fn(Box<T>) -> RegistryMutation,
    ) -> bool {
        let journal = ctx.store_enabled().then(|| item.clone());
        let ok = register(self, *item, ctx.now());
        if let Some(item) = journal.filter(|_| ok) {
            self.journal(ctx, &mutation(item));
        }
        ok
    }

    /// Provider update: register a type here; sinks hear of it with the
    /// next notification round.
    pub(super) fn register_type(&mut self, ctx: &mut Ctx<'_>, t: Box<ActivityType>) {
        let register = |n: &GlareNode, t, now| n.atr.register(t, now).is_ok();
        self.register_then_journal(ctx, t, register, RegistryMutation::AtrRegister);
        self.notifier.notify_seq += 1;
    }

    /// Register a deployment here; whether the ADR accepted it.
    pub(super) fn register_deployment(
        &mut self,
        ctx: &mut Ctx<'_>,
        d: Box<ActivityDeployment>,
    ) -> bool {
        let register = |n: &GlareNode, d, now| n.adr.register(d, &n.atr, now).is_ok();
        self.register_then_journal(ctx, d, register, RegistryMutation::AdrRegister)
    }

    /// Uninstall a deployment here. Remove (if live) and tombstone
    /// unconditionally: deletes win even when the entry is unknown here,
    /// so a concurrent register elsewhere cannot resurrect it via
    /// anti-entropy.
    pub(super) fn uninstall_deployment(&mut self, ctx: &mut Ctx<'_>, key: String) {
        let now = ctx.now();
        if self.adr.uninstall(&key, now).is_err() {
            self.adr.restore_tombstones([(key.clone(), now)]);
        }
        self.cache.evict_deployment(&key);
        ctx.emit_event("deployment.tombstoned", "node", &[("key", &key)]);
        self.journal(ctx, &RegistryMutation::AdrUninstall { key, at: now });
    }

    /// Either side of an anti-entropy round taking in the other's
    /// tombstones: keep the newest instant per key, evict what it kills
    /// from registry and cache, and journal and count
    /// (`glare_antientropy_tombstones_total`) each one that is news here.
    fn merge_tombstones(&mut self, ctx: &mut Ctx<'_>, tombstones: Vec<(String, u64)>) {
        let now = ctx.now();
        let mut news = 0u64;
        for (key, at_ns) in tombstones {
            let at = SimTime::from_nanos(at_ns);
            let newly = self.adr.tombstone_of(&key).is_none_or(|t| t < at);
            if self.adr.apply_tombstone(&key, at, now) {
                ctx.emit_event("deployment.tombstoned", "node", &[("key", &key)]);
            }
            self.cache.evict_deployment(&key);
            if newly {
                news += 1;
                self.journal(ctx, &RegistryMutation::AdrUninstall { key, at });
            }
        }
        if news > 0 {
            self.tele.count(ctx, "glare_antientropy_tombstones_total", news);
        }
    }

    /// Super-peer side of an anti-entropy round: absorb the member's
    /// durable view into the group cache, apply its tombstones, and push
    /// back the member-origin entries the group still holds but the member
    /// lost (torn tail, pre-snapshot crash).
    pub(super) fn on_antientropy_summary(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ActorId,
        entries: Vec<(ActivityDeployment, u64)>,
        tombstones: Vec<(String, u64)>,
    ) {
        let now = ctx.now();
        let member_site = format!("site{}", from.0);
        let member_keys: HashSet<String> = entries.iter().map(|(d, _)| d.key.clone()).collect();
        let mut absorbed = 0u64;
        for (d, lut) in entries {
            let key = d.key.clone();
            // A local tombstone at least as new as the entry wins.
            if self.adr.tombstone_of(&key).is_some_and(|t| t.as_nanos() >= lut) {
                continue;
            }
            if self.cfg.use_cache && self.cache.peek_deployment(&key).is_none() {
                let epr = d.epr(&self.adr.address, SimTime::from_nanos(lut));
                let origin = d.site.clone();
                self.cache.put_deployment(d, &origin, epr, now);
                absorbed += 1;
            }
        }
        self.merge_tombstones(ctx, tombstones);
        let mut push = Vec::new();
        let mut origins = self.cache.deployment_origins();
        origins.sort_unstable();
        for (key, origin) in origins {
            if origin != member_site
                || member_keys.contains(&key)
                || self.adr.tombstone_of(&key).is_some()
            {
                continue;
            }
            if let Some(entry) = self.cache.peek_deployment(&key) {
                push.push(entry.value.clone());
            }
        }
        if absorbed > 0 {
            self.tele.count(ctx, "glare_antientropy_pushes_total", absorbed);
        }
        let tombstones = self.tombstones_on_the_wire();
        let bytes = 256 + DEPLOYMENT_WIRE_BYTES * push.len().max(1) as u64;
        ctx.send_sized(from, NodeMsg::AntiEntropyResponse { push, tombstones }, bytes);
    }

    /// Member side: tombstones first (a pushed entry must never outrun
    /// the delete that killed it), then restore lost entries the group
    /// preserved.
    pub(super) fn on_antientropy_response(
        &mut self,
        ctx: &mut Ctx<'_>,
        push: Vec<ActivityDeployment>,
        tombstones: Vec<(String, u64)>,
    ) {
        let now = ctx.now();
        self.merge_tombstones(ctx, tombstones);
        let mut pulls = 0u64;
        for d in push {
            let key = d.key.clone();
            if self.adr.tombstone_of(&key).is_some() || self.adr.lookup(&key, now).is_some() {
                continue;
            }
            pulls += u64::from(self.register_deployment(ctx, Box::new(d)));
        }
        if pulls > 0 {
            self.tele.count(ctx, "glare_antientropy_pulls_total", pulls);
        }
        // First anti-entropy answer after a rejoin: the node is converged
        // with its group — recovery is over.
        self.record_recovered(ctx);
    }

    /// Deployment Status Monitor (§3.2): drop expired entries and
    /// heartbeat the survivors' LUTs so peers can judge cached copies'
    /// freshness.
    pub(super) fn monitor_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let swept = self.adr.sweep_expired(now);
        let mut keys = self.adr.keys(now);
        keys.sort_unstable();
        for k in &keys {
            let _ = self.adr.touch(k, now);
        }
        self.tele.count(ctx, "glare_monitor_ticks_total", 1);
        ctx.emit_event(
            "monitor.tick",
            "node",
            &[
                ("live", &keys.len().to_string()),
                ("swept", &swept.len().to_string()),
            ],
        );
        self.arm(ctx, Loop::StatusMonitor);
    }

    /// Cache Refresher (§3.2): age out stale entries; with the durable
    /// store on, members also run a periodic anti-entropy round so
    /// divergence heals without waiting for the next crash.
    pub(super) fn refresh_cache(&mut self, ctx: &mut Ctx<'_>) {
        self.cache.discard_outdated(ctx.now());
        if self.view.role == Role::Member {
            self.start_antientropy(ctx);
        }
        self.arm(ctx, Loop::CacheRefresh);
    }
}
