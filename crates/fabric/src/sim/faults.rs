//! What the kernel does to a message or a site on a fault script's behalf:
//! loss, partitions, gray degradation of sites and links, crash and
//! restart. [`FaultPlan`](crate::fault::FaultPlan) says *when*; this says
//! *how*.

use std::collections::{HashMap, HashSet};

use super::kernel::{EventKind, Kernel};
use super::Simulation;
use crate::events::FieldValue;
use crate::metrics::Labels;
use crate::time::{SimDuration, SimTime};
use crate::topology::SiteId;

/// Why the kernel dropped a message.
#[derive(Clone, Copy)]
pub(super) enum DropReason {
    Partition,
    Loss,
    SiteDown,
}

/// By [`DropReason`]: the `reason` label value and the flat counter of all
/// drops for that reason.
const DROP_NAMES: [(&str, &str); 3] = [
    ("partition", "net.msgs_dropped.partition"),
    ("loss", "net.msgs_dropped.loss"),
    ("site_down", "net.msgs_dropped.site_down"),
];

/// The network faults in force.
#[derive(Default)]
pub(super) struct Faults {
    /// Probability that any inter-site message is silently lost, unless
    /// the pair has an entry in `link_drop`.
    drop_probability: f64,
    link_drop: HashMap<(SiteId, SiteId), f64>,
    /// Gray-failure latency multipliers per *directed* site pair. Consulted
    /// after the base+jitter delay is computed and consuming no randomness,
    /// so runs without any degradation are event-identical to a kernel
    /// without the feature.
    link_degrade: HashMap<(SiteId, SiteId), f64>,
    partitions: HashSet<(SiteId, SiteId)>,
}

/// The unordered pair `{a, b}`, as partitions and loss overrides key it.
fn pair(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
    (a.min(b), a.max(b))
}

/// `p`, checked to be a probability.
fn probability(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    p
}

impl Kernel {
    /// What the network does to one message of `bytes` from `from` to
    /// `to`: `None` when a partition cuts it or loss takes it (the drop is
    /// counted), else its wire time — the link's base delay with jitter,
    /// stretched by any gray degradation of the directed link.
    pub(super) fn transit(&mut self, from: SiteId, to: SiteId, bytes: u64) -> Option<SimDuration> {
        let faults = &self.faults;
        if from != to && faults.partitions.contains(&pair(from, to)) {
            self.count_drop(from, DropReason::Partition);
            return None;
        }
        let drop_p = faults.link_drop.get(&pair(from, to)).copied();
        if from != to && self.rng.chance(drop_p.unwrap_or(faults.drop_probability)) {
            self.count_drop(from, DropReason::Loss);
            return None;
        }
        let link = self.topology.link(from, to);
        let base = link.transfer_time(bytes);
        let delay = if link.jitter > 0.0 {
            let j = self.rng.jitter(link.jitter);
            base.mul_f64((1.0 + j).max(0.01))
        } else {
            base
        };
        // Gray-failure inflation last, after base+jitter, drawing no
        // randomness: a degraded trunk stretches every traversal by the
        // same factor while untouched pairs keep the exact RNG pattern.
        let stretch = self.faults.link_degrade.get(&(from, to));
        Some(stretch.map_or(delay, |&f| delay.mul_f64(f)))
    }

    /// Count one dropped message: the flat per-reason counter and the
    /// per-site labeled one, so the health report can show which links
    /// degrade. Only the first drop of a `(site, reason)` builds its label
    /// set and searches the registry.
    pub(super) fn count_drop(&mut self, site: SiteId, reason: DropReason) {
        let (metrics, (label, flat_name)) = (&mut self.metrics, DROP_NAMES[reason as usize]);
        let flat = *self.ids.dropped[reason as usize]
            .get_or_insert_with(|| metrics.counter_id(flat_name));
        metrics.counter_at(flat).inc();
        let labeled =
            *self.ids.dropped_at[site.index()][reason as usize].get_or_insert_with(|| {
                let labels = Labels::of(&[("reason", label), ("site", &site.to_string())]);
                metrics.counter_labeled_id("glare_net_dropped_total", &labels)
            });
        metrics.counter_at(labeled).inc();
    }
}

impl Simulation {
    /// Probability that any inter-site message is silently lost (0.0 until
    /// set): the global default, which individual site pairs override with
    /// [`Simulation::set_link_drop_probability`] so chaos sweeps can target
    /// WAN links while loopback-adjacent pairs stay clean.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.kernel.faults.drop_probability = probability(p);
    }

    /// Override the loss probability for one site pair (both directions),
    /// taking precedence over [`Simulation::set_drop_probability`]. Pass
    /// `None` to remove the override and fall back to the global value.
    ///
    /// With no overrides installed the kernel's RNG stream is untouched:
    /// the per-link lookup falls through to the global probability and the
    /// draw pattern matches a pre-override kernel exactly.
    pub fn set_link_drop_probability(&mut self, a: SiteId, b: SiteId, p: Option<f64>) {
        let link_drop = &mut self.kernel.faults.link_drop;
        match p {
            Some(p) => link_drop.insert(pair(a, b), probability(p)),
            None => link_drop.remove(&pair(a, b)),
        };
    }

    /// Partition (or heal) the pair of sites.
    pub fn set_partitioned(&mut self, a: SiteId, b: SiteId, partitioned: bool) {
        let partitions = &mut self.kernel.faults.partitions;
        if partitioned {
            partitions.insert(pair(a, b));
        } else {
            partitions.remove(&pair(a, b));
        }
    }

    /// Install (or clear, with `None`) a gray-failure compute slowdown on a
    /// site: subsequent CPU work costs `factor ×` its healthy price. Emits
    /// `site.degraded` / `site.recovered` and keeps the
    /// `glare_degraded_sites` gauge current. Draws no randomness.
    pub fn set_site_degraded(&mut self, site: SiteId, factor: Option<f64>) {
        let f = factor.unwrap_or(1.0);
        let runtime = &mut self.kernel.sites[site.index()];
        let was = runtime.is_degraded();
        runtime.set_degrade_factor(f);
        let is = runtime.is_degraded();
        if was != is || is {
            let kind = if is { "site.degraded" } else { "site.recovered" };
            self.kernel.emit_with(kind, site, "fault", || {
                [("site", FieldValue::from(site.to_string())), ("factor_permille", permille(f))]
            });
        }
        self.publish_degraded_gauges();
    }

    /// Install (or clear, with `None`) a gray-failure latency multiplier on
    /// the *directed* link `from → to`: every message traversing it takes
    /// `factor ×` its base+jitter delay. Call once per direction for a
    /// symmetric degradation (see [`Fault::DegradeLink`](crate::fault::Fault)).
    /// Emits `link.degraded` / `link.recovered`. Draws no randomness.
    pub(crate) fn set_link_degraded(&mut self, from: SiteId, to: SiteId, factor: Option<f64>) {
        let link_degrade = &mut self.kernel.faults.link_degrade;
        let (kind, f) = match factor {
            Some(f) => {
                assert!(f >= 1.0, "link degrade factor must be ≥ 1.0");
                link_degrade.insert((from, to), f);
                ("link.degraded", f)
            }
            None => {
                link_degrade.remove(&(from, to));
                ("link.recovered", 1.0)
            }
        };
        self.kernel.emit_with(kind, from, "fault", || {
            [
                ("from", FieldValue::from(from.to_string())),
                ("to", to.to_string().into()),
                ("factor_permille", permille(f)),
            ]
        });
        self.publish_degraded_gauges();
    }

    /// Refresh the `glare_degraded_sites` gauge family: currently degraded
    /// site count (`scope="sites"`) and degraded directed-link count
    /// (`scope="links"`).
    fn publish_degraded_gauges(&mut self) {
        let now = self.kernel.now;
        let sites = self.kernel.sites.iter().filter(|s| s.is_degraded()).count();
        let links = self.kernel.faults.link_degrade.len();
        for (scope, value) in [("sites", sites), ("links", links)] {
            let labels = Labels::of(&[("scope", scope)]);
            self.kernel
                .metrics
                .gauge("glare_degraded_sites", &labels)
                .set(now, value as f64);
        }
    }

    /// Schedule a site crash at `at`.
    pub fn schedule_crash(&mut self, at: SimTime, site: SiteId) {
        self.schedule_crash_torn(at, site, 0);
    }

    /// Schedule a site crash at `at` that additionally tears the last
    /// `torn_records` records off the site's journal — the partial write a
    /// real crash leaves behind. Recovery truncates at the last valid
    /// record. With durability disabled this is an ordinary crash.
    pub(crate) fn schedule_crash_torn(&mut self, at: SimTime, site: SiteId, torn_records: usize) {
        let crash = EventKind::SiteCrash { site, torn: torn_records };
        self.kernel.schedule(at, crash, None);
    }

    /// Schedule a site restart at `at`.
    pub fn schedule_restart(&mut self, at: SimTime, site: SiteId) {
        self.kernel.schedule(at, EventKind::SiteRestart(site), None);
    }

    /// The site goes down: its epoch voids the compute in flight, `torn`
    /// records come off its journal, and then every actor on it gets its
    /// last gasp, [`Actor::on_site_crash`](super::Actor::on_site_crash).
    pub(super) fn crash_site(&mut self, site: SiteId, torn: usize) {
        let now = self.kernel.now;
        self.kernel.sites[site.index()].crash(now);
        self.kernel.metrics.counter("fabric.crashes").inc();
        // Tear before the last gasp, so on_site_crash sees the post-crash disk.
        let store = self.kernel.stores.get_mut(&site);
        let torn = store.map_or(0, |store| store.tear_tail(torn));
        if torn > 0 {
            let counter = self.kernel.metrics.counter("fabric.store.torn_records");
            counter.add(torn as u64);
            self.kernel.emit_with("store.torn", site, "store", || {
                [("site", FieldValue::from(site.to_string())), ("records", (torn as u64).into())]
            });
        }
        self.kernel.emit_with("site.crashed", site, "fault", || [("site", site.to_string())]);
        self.for_actors_on(site, |a, ctx| a.on_site_crash(ctx));
    }

    /// The site comes back up and every actor on it gets
    /// [`Actor::on_site_restart`](super::Actor::on_site_restart).
    pub(super) fn restart_site(&mut self, site: SiteId) {
        self.kernel.sites[site.index()].restart();
        self.kernel.metrics.counter("fabric.restarts").inc();
        self.kernel.emit_with("site.restarted", site, "fault", || [("site", site.to_string())]);
        self.for_actors_on(site, |a, ctx| a.on_site_restart(ctx));
    }
}

/// A degradation factor as the integer permille its events record.
fn permille(factor: f64) -> FieldValue {
    ((factor * 1000.0).round() as u64).into()
}
