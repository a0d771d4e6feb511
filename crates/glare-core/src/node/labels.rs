//! The names a node records its metrics under, interned, and the handles
//! of the instruments a request records into ([`Telemetry`]).

use glare_fabric::{
    ActorId, CounterId, Ctx, GaugeId, Labels, MetricsRegistry, SimTime, SiteId, TenantLabels,
};

use crate::admission::TenantClass;

/// One node's telemetry state. It survives amnesia: the instruments it
/// names live in the simulation's registry, not in the crashed process,
/// and a rebuilt handle would find the same instrument again.
#[derive(Default)]
pub(super) struct Telemetry {
    /// Interned metric names and label sets (`None` until first used).
    labels: Option<Box<NodeLabels>>,
    /// Handle of `glare.requests`, from this node's first request on.
    pub(super) requests_id: Option<CounterId>,
    /// Handle of `glare.cache_answers`, from its first cache answer on.
    pub(super) cache_answers_id: Option<CounterId>,
}

impl Telemetry {
    /// The node's interned names ([`NodeLabels::of`]).
    pub(super) fn labels(&mut self, site: SiteId) -> &mut NodeLabels {
        NodeLabels::of(&mut self.labels, site)
    }

    /// Add `n` to this site's counter in the `{site}`-keyed `family`.
    pub(super) fn count(&mut self, ctx: &mut Ctx<'_>, family: &str, n: u64) {
        let labels = self.labels(ctx.self_site);
        ctx.metrics().counter_labeled(family, &labels.site).add(n);
    }
}

/// Everything a node names its metrics by, interned so that a record
/// formats nothing: the `{site}` label set nearly every family is keyed
/// on, and the names of the cache and admission families.
///
/// Each part is built the first time something is recorded under it (a
/// node that never records holds none; one with the cache or admission off
/// never builds that part), from the strings the call sites used to format
/// per record, so exposition is unchanged.
///
/// The instruments a request records into keep their registry handle
/// beside the name: filled by the first record (never earlier, or the
/// instrument would appear before it counted anything), used by every
/// later one in place of the name search.
pub(super) struct NodeLabels {
    /// `{site="site{N}"}`.
    pub(super) site: Labels,
    /// `glare_cache_hit_ratio{site}`.
    hit_ratio: Option<GaugeId>,
    /// `glare_inbox_occupancy{site}`.
    inbox_occupancy: Option<GaugeId>,
    /// Names of the cache tallies.
    pub(super) cache: Option<Box<CacheLabels>>,
    /// `{class, site}` sets of the admission families.
    pub(super) tenant: Option<Box<AdmissionLabels>>,
}

/// The `{class, site}` sets one node's admission decisions are counted
/// under, with the handles of the two counters of each class once
/// recorded, by [`TenantClass::index`].
pub(super) struct AdmissionLabels {
    pub(super) sets: TenantLabels,
    /// `glare_admission_admitted_total{class, site}`.
    admitted: [Option<CounterId>; 3],
    /// `glare_admission_shed_total{class, site}`.
    shed: [Option<CounterId>; 3],
}

/// The names one node's cache tallies are recorded under, each with the
/// handle of its counter once recorded. Rebuilt as a whole, so a stale
/// `{peer_group, site}` set takes its handles with it.
pub(super) struct CacheLabels {
    /// `site{N}.cache.hits`.
    pub(super) hits: String,
    hits_id: Option<CounterId>,
    /// `site{N}.cache.misses`.
    pub(super) misses: String,
    pub(super) misses_id: Option<CounterId>,
    /// `{peer_group, site}` as of `peer_group_of`.
    pub(super) peer_group: Labels,
    /// `glare_cache_hits_total{peer_group, site}`.
    pub(super) group_hits_id: Option<CounterId>,
    /// `glare_cache_misses_total{peer_group, site}`.
    group_misses_id: Option<CounterId>,
    /// The super-peer these were built under.
    peer_group_of: Option<ActorId>,
}

impl CacheLabels {
    /// Add `hits` and `misses` (whichever is nonzero) to the flat and the
    /// per-group tallies.
    pub(super) fn tally(&mut self, m: &mut MetricsRegistry, hits: u64, misses: u64) {
        let group = &self.peer_group;
        for (n, name, flat_id, family, group_id) in [
            (
                hits,
                &self.hits,
                &mut self.hits_id,
                "glare_cache_hits_total",
                &mut self.group_hits_id,
            ),
            (
                misses,
                &self.misses,
                &mut self.misses_id,
                "glare_cache_misses_total",
                &mut self.group_misses_id,
            ),
        ] {
            if n > 0 {
                let flat = *flat_id.get_or_insert_with(|| m.counter_id(name));
                m.counter_at(flat).add(n);
                let labeled = *group_id.get_or_insert_with(|| m.counter_labeled_id(family, group));
                m.counter_at(labeled).add(n);
            }
        }
    }
}

impl NodeLabels {
    /// The node's interned names, the `{site}` set built now if this is
    /// its first record. Takes the slot, not the node, so callers keep the
    /// node's other fields while they hold the result.
    pub(super) fn of(slot: &mut Option<Box<NodeLabels>>, site: SiteId) -> &mut NodeLabels {
        slot.get_or_insert_with(|| {
            Box::new(NodeLabels {
                site: Labels::of(&[("site", &format!("site{}", site.0))]),
                hit_ratio: None,
                inbox_occupancy: None,
                cache: None,
                tenant: None,
            })
        })
    }

    /// `site{N}`.
    fn site_name(&self) -> &str {
        self.site.get("site").expect("built with a site label")
    }

    /// `{site, key=value}`, for the few families keyed on a second label.
    /// Built per call: they record on elections, retries and breaker
    /// trips, not per request.
    pub(super) fn site_and(&self, key: &str, value: &str) -> Labels {
        Labels::of(&[("site", self.site_name()), (key, value)])
    }

    /// The cache tallies' names, with `{peer_group, site}` naming the
    /// node's current peer group: the super-peer's actor id (`g{N}`), or
    /// `ungrouped` before the first appointment. Rebuilt only when the
    /// super-peer differs from the one the held set names.
    ///
    /// Group membership changes over time (elections, takeovers); labeled
    /// tallies are attributed to the group at access time, which is what
    /// the paper's two-level cache question — "how effective is this
    /// super-peer's cache domain" — needs.
    pub(super) fn cache(&mut self, super_peer: Option<ActorId>) -> &mut CacheLabels {
        if self.cache.as_ref().is_none_or(|c| c.peer_group_of != super_peer) {
            let site = self.site_name();
            let group = match super_peer {
                Some(sp) => format!("g{}", sp.0),
                None => "ungrouped".to_owned(),
            };
            self.cache = Some(Box::new(CacheLabels {
                hits: format!("{site}.cache.hits"),
                hits_id: None,
                misses: format!("{site}.cache.misses"),
                misses_id: None,
                peer_group: self.site_and("peer_group", &group),
                group_hits_id: None,
                group_misses_id: None,
                peer_group_of: super_peer,
            }));
        }
        self.cache.as_deref_mut().expect("built above when absent")
    }

    /// Set `glare_cache_hit_ratio{site}`.
    pub(super) fn set_hit_ratio(&mut self, m: &mut MetricsRegistry, now: SimTime, ratio: f64) {
        let id = *self.hit_ratio.get_or_insert_with(|| {
            m.gauge_id("glare_cache_hit_ratio", &self.site)
        });
        m.gauge_at(id).set(now, ratio);
    }

    /// Set `glare_inbox_occupancy{site}`.
    pub(super) fn set_inbox_occupancy(
        &mut self,
        m: &mut MetricsRegistry,
        now: SimTime,
        occupancy: u32,
    ) {
        let id = *self.inbox_occupancy.get_or_insert_with(|| {
            m.gauge_id("glare_inbox_occupancy", &self.site)
        });
        m.gauge_at(id).set(now, f64::from(occupancy));
    }

    /// The admission families' `{class, site}` sets and handles, built now
    /// if this is the node's first admission decision; `site_name` is the
    /// node's configured name, which those families have always carried.
    pub(super) fn admission(&mut self, site_name: &str) -> &mut AdmissionLabels {
        self.tenant.get_or_insert_with(|| {
            Box::new(AdmissionLabels {
                sets: TenantLabels::for_site(site_name),
                admitted: [None; 3],
                shed: [None; 3],
            })
        })
    }

    /// Count one `class` decision of the node configured as `site_name`
    /// into `glare_admission_admitted_total` or `glare_admission_shed_total`.
    pub(super) fn count_admission(
        &mut self,
        m: &mut MetricsRegistry,
        site_name: &str,
        class: TenantClass,
        admitted: bool,
    ) {
        let a = self.admission(site_name);
        let (family, slots) = if admitted {
            ("glare_admission_admitted_total", &mut a.admitted)
        } else {
            ("glare_admission_shed_total", &mut a.shed)
        };
        let id = *slots[class.index()]
            .get_or_insert_with(|| m.counter_labeled_id(family, a.sets.get(class.label())));
        m.counter_at(id).inc();
    }
}
