//! Declarative failure injection.
//!
//! A [`FaultPlan`] is a reproducible script of site crashes/restarts,
//! partition windows, and *gray* failures — site slowdowns and link
//! degradations that leave a component up but slow — applied to a
//! [`Simulation`] before it runs. Tests of GLARE's super-peer re-election
//! and deployment migration drive their failure scenarios through this
//! module so scenarios stay data, not code.

use crate::rng::SimRng;
use crate::sim::Simulation;
use crate::time::{SimDuration, SimTime};
use crate::topology::SiteId;

/// One scripted fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Crash `site` at `at`; it stays down until a matching restart.
    Crash {
        /// When the crash happens.
        at: SimTime,
        /// Which site crashes.
        site: SiteId,
    },
    /// Restart `site` at `at`.
    Restart {
        /// When the restart happens.
        at: SimTime,
        /// Which site restarts.
        site: SiteId,
    },
    /// Crash `site` at `at` and tear the last `torn_records` records off
    /// its durable journal (a partial write at the moment of failure).
    /// With durability disabled this degenerates to a plain crash.
    CrashTorn {
        /// When the crash happens.
        at: SimTime,
        /// Which site crashes.
        site: SiteId,
        /// How many tail records the crash corrupts.
        torn_records: usize,
    },
    /// Sever the pair from `from` until `until`.
    Partition {
        /// Partition start.
        from: SimTime,
        /// Partition end (healed).
        until: SimTime,
        /// One side of the cut.
        a: SiteId,
        /// The other side.
        b: SiteId,
    },
    /// Gray failure: `site` stays up but its CPU work costs
    /// `factor_permille / 1000 ×` the healthy price from `from` to `until`.
    ///
    /// The factor is stored in permille (`2500` = 2.5×) so the fault script
    /// stays `Eq`-comparable; it must be > 1000 (an actual slowdown).
    SlowSite {
        /// Degradation start.
        from: SimTime,
        /// Degradation end (recovered).
        until: SimTime,
        /// Which site slows down.
        site: SiteId,
        /// Compute-cost multiplier in permille (1000 = healthy).
        factor_permille: u32,
    },
    /// Gray failure: messages `a → b` (and `b → a` when `symmetric`) take
    /// `factor_permille / 1000 ×` their base+jitter delay from `from` to
    /// `until` — a congested or flaky trunk that delivers, slowly.
    DegradeLink {
        /// Degradation start.
        from: SimTime,
        /// Degradation end (recovered).
        until: SimTime,
        /// Source side of the degraded direction.
        a: SiteId,
        /// Destination side of the degraded direction.
        b: SiteId,
        /// Latency multiplier in permille (1000 = healthy).
        factor_permille: u32,
        /// Degrade both directions (`true`) or only `a → b` (`false`).
        symmetric: bool,
    },
}

/// Convert a builder-facing multiplier to its stored permille form,
/// validating it is a real slowdown.
fn to_permille(factor: f64) -> u32 {
    assert!(factor > 1.0, "degradation factor must exceed 1.0");
    assert!(factor <= 1000.0, "degradation factor out of range");
    (factor * 1000.0).round() as u32
}

/// A reproducible failure script.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a crash.
    pub fn crash(mut self, at: SimTime, site: SiteId) -> Self {
        self.faults.push(Fault::Crash { at, site });
        self
    }

    /// Add a restart.
    pub fn restart(mut self, at: SimTime, site: SiteId) -> Self {
        self.faults.push(Fault::Restart { at, site });
        self
    }

    /// Crash then restart after `downtime`.
    pub fn outage(self, at: SimTime, site: SiteId, downtime: SimDuration) -> Self {
        self.crash(at, site).restart(at + downtime, site)
    }

    /// Add a crash that also tears the tail of the site's journal.
    pub fn crash_torn(mut self, at: SimTime, site: SiteId, torn_records: usize) -> Self {
        self.faults.push(Fault::CrashTorn {
            at,
            site,
            torn_records,
        });
        self
    }

    /// Add a partition window.
    pub fn partition(mut self, from: SimTime, until: SimTime, a: SiteId, b: SiteId) -> Self {
        assert!(from < until, "partition window must be non-empty");
        self.faults.push(Fault::Partition { from, until, a, b });
        self
    }

    /// Script `count` repeated short partitions of the pair: the link goes
    /// down for the first half of every `period` starting at `start` and
    /// heals for the second half — a flapping WAN link. `period` must be at
    /// least 2 ns so each cut window is non-empty.
    pub fn flap(
        mut self,
        site_a: SiteId,
        site_b: SiteId,
        start: SimTime,
        period: SimDuration,
        count: usize,
    ) -> Self {
        assert!(period >= SimDuration::from_nanos(2), "flap period too short");
        let down = SimDuration::from_nanos(period.as_nanos() / 2);
        for k in 0..count {
            let from = start + SimDuration::from_nanos(period.as_nanos() * k as u64);
            self = self.partition(from, from + down, site_a, site_b);
        }
        self
    }

    /// Slow `site` down by `factor ×` (compute cost) over `[from, until)`.
    pub fn slow_site(mut self, from: SimTime, until: SimTime, site: SiteId, factor: f64) -> Self {
        assert!(from < until, "slowdown window must be non-empty");
        self.faults.push(Fault::SlowSite {
            from,
            until,
            site,
            factor_permille: to_permille(factor),
        });
        self
    }

    /// Inflate the latency of the pair `a ↔ b` by `factor ×` over
    /// `[from, until)` (both directions).
    pub fn degrade_link(
        self,
        from: SimTime,
        until: SimTime,
        a: SiteId,
        b: SiteId,
        factor: f64,
    ) -> Self {
        self.degrade_link_dir(from, until, a, b, factor, true)
    }

    /// Like [`FaultPlan::degrade_link`], but with explicit directionality:
    /// `symmetric = false` degrades only `a → b`, modelling an asymmetric
    /// trunk (slow uplink, healthy downlink).
    pub fn degrade_link_dir(
        mut self,
        from: SimTime,
        until: SimTime,
        a: SiteId,
        b: SiteId,
        factor: f64,
        symmetric: bool,
    ) -> Self {
        assert!(from < until, "degradation window must be non-empty");
        assert!(a != b, "cannot degrade a site's loopback");
        self.faults.push(Fault::DegradeLink {
            from,
            until,
            a,
            b,
            factor_permille: to_permille(factor),
            symmetric,
        });
        self
    }

    /// Generate `n` random site slowdowns in `[start, end)`, each lasting
    /// `duration` and multiplying compute cost by `factor`. Deterministic
    /// in the RNG stream, mirroring [`FaultPlan::random_outages`].
    #[allow(clippy::too_many_arguments)]
    pub fn random_slowdowns(
        mut self,
        rng: &mut SimRng,
        n: usize,
        sites: &[SiteId],
        start: SimTime,
        end: SimTime,
        duration: SimDuration,
        factor: f64,
    ) -> Self {
        assert!(!sites.is_empty(), "need at least one site");
        assert!(start < end, "empty slowdown window");
        let span = end.since(start).as_nanos();
        for _ in 0..n {
            let at = start + SimDuration::from_nanos(rng.range(0, span));
            let site = sites[rng.index(sites.len())];
            self = self.slow_site(at, at + duration, site, factor);
        }
        self
    }

    /// Generate `n` random outages across the sites in `[start, end)`, each
    /// lasting `downtime`. Deterministic in the RNG stream.
    pub fn random_outages(
        mut self,
        rng: &mut SimRng,
        n: usize,
        sites: &[SiteId],
        start: SimTime,
        end: SimTime,
        downtime: SimDuration,
    ) -> Self {
        assert!(!sites.is_empty(), "need at least one site");
        assert!(start < end, "empty outage window");
        let span = end.since(start).as_nanos();
        for _ in 0..n {
            let at = start + SimDuration::from_nanos(rng.range(0, span));
            let site = sites[rng.index(sites.len())];
            self = self.outage(at, site, downtime);
        }
        self
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Apply the plan to a simulation (schedules all events).
    pub fn apply(&self, sim: &mut Simulation) {
        for fault in &self.faults {
            match *fault {
                Fault::Crash { at, site } => sim.schedule_crash(at, site),
                Fault::Restart { at, site } => sim.schedule_restart(at, site),
                Fault::CrashTorn {
                    at,
                    site,
                    torn_records,
                } => sim.schedule_crash_torn(at, site, torn_records),
                Fault::Partition { from, until, a, b } => {
                    sim.schedule_call(from, move |s| s.set_partitioned(a, b, true));
                    sim.schedule_call(until, move |s| s.set_partitioned(a, b, false));
                }
                Fault::SlowSite {
                    from,
                    until,
                    site,
                    factor_permille,
                } => {
                    let f = f64::from(factor_permille) / 1000.0;
                    sim.schedule_call(from, move |s| s.set_site_degraded(site, Some(f)));
                    sim.schedule_call(until, move |s| s.set_site_degraded(site, None));
                }
                Fault::DegradeLink {
                    from,
                    until,
                    a,
                    b,
                    factor_permille,
                    symmetric,
                } => {
                    let f = f64::from(factor_permille) / 1000.0;
                    sim.schedule_call(from, move |s| {
                        s.set_link_degraded(a, b, Some(f));
                        if symmetric {
                            s.set_link_degraded(b, a, Some(f));
                        }
                    });
                    sim.schedule_call(until, move |s| {
                        s.set_link_degraded(a, b, None);
                        if symmetric {
                            s.set_link_degraded(b, a, None);
                        }
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Labels;
    use crate::sim::{Actor, ActorId, Ctx, Envelope, Simulation, TimerToken};
    use crate::topology::{LinkSpec, Topology};

    struct Noop;
    impl Actor for Noop {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}
    }

    #[test]
    fn outage_crashes_then_restarts() {
        let mut sim = Simulation::new(Topology::uniform(2), 1);
        sim.add_actor(SiteId(0), Box::new(Noop));
        FaultPlan::new()
            .outage(SimTime::from_secs(1), SiteId(0), SimDuration::from_secs(2))
            .apply(&mut sim);
        sim.start();
        sim.run_until(SimTime::from_millis(1_500));
        assert!(!sim.site(SiteId(0)).is_up());
        sim.run_until(SimTime::from_secs(4));
        assert!(sim.site(SiteId(0)).is_up());
    }

    #[test]
    fn partition_window_opens_and_closes() {
        let mut sim = Simulation::new(Topology::uniform(2), 1);
        sim.add_actor(SiteId(0), Box::new(Noop));
        FaultPlan::new()
            .partition(
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SiteId(0),
                SiteId(1),
            )
            .apply(&mut sim);
        sim.start();
        sim.run_to_quiescence(100);
        // Both schedule_call events executed without panicking; the
        // partition set is empty again afterwards (verified indirectly by
        // sending across after the window in sim-level tests).
        assert!(sim.now() >= SimTime::from_secs(2));
    }

    #[test]
    fn random_outages_deterministic() {
        let plan = |seed| {
            let mut rng = SimRng::from_seed(seed);
            FaultPlan::new()
                .random_outages(
                    &mut rng,
                    5,
                    &[SiteId(0), SiteId(1), SiteId(2)],
                    SimTime::ZERO,
                    SimTime::from_secs(100),
                    SimDuration::from_secs(5),
                )
                .faults()
                .to_vec()
        };
        assert_eq!(plan(9), plan(9));
        assert_ne!(plan(9), plan(10));
        assert_eq!(plan(9).len(), 10, "5 outages = 5 crashes + 5 restarts");
    }

    #[test]
    fn flap_scripts_half_duty_partitions() {
        let plan = FaultPlan::new().flap(
            SiteId(0),
            SiteId(2),
            SimTime::from_secs(10),
            SimDuration::from_secs(4),
            3,
        );
        let faults = plan.faults();
        assert_eq!(faults.len(), 3);
        for (k, f) in faults.iter().enumerate() {
            let expect_from = SimTime::from_secs(10 + 4 * k as u64);
            match *f {
                Fault::Partition { from, until, a, b } => {
                    assert_eq!(from, expect_from);
                    assert_eq!(until, expect_from + SimDuration::from_secs(2));
                    assert_eq!((a, b), (SiteId(0), SiteId(2)));
                }
                ref other => panic!("expected partition, got {other:?}"),
            }
        }
    }

    #[test]
    fn flap_applies_and_heals() {
        let mut sim = Simulation::new(Topology::uniform(2), 1);
        sim.add_actor(SiteId(0), Box::new(Noop));
        FaultPlan::new()
            .flap(
                SiteId(0),
                SiteId(1),
                SimTime::from_secs(1),
                SimDuration::from_secs(2),
                2,
            )
            .apply(&mut sim);
        sim.start();
        sim.run_to_quiescence(100);
        assert!(sim.now() >= SimTime::from_secs(4), "last heal at t=4s ran");
    }

    #[test]
    #[should_panic(expected = "flap period too short")]
    fn flap_rejects_degenerate_period() {
        let _ = FaultPlan::new().flap(
            SiteId(0),
            SiteId(1),
            SimTime::ZERO,
            SimDuration::from_nanos(1),
            1,
        );
    }

    #[test]
    fn slow_site_window_degrades_then_recovers() {
        let mut sim = Simulation::new(Topology::uniform(2), 1);
        sim.enable_events(64);
        sim.add_actor(SiteId(0), Box::new(Noop));
        FaultPlan::new()
            .slow_site(SimTime::from_secs(1), SimTime::from_secs(2), SiteId(0), 4.0)
            .apply(&mut sim);
        sim.start();
        sim.run_until(SimTime::from_millis(1_500));
        assert!(sim.site(SiteId(0)).is_degraded());
        assert_eq!(sim.site(SiteId(0)).degrade_factor(), 4.0);
        let labels = Labels::of(&[("scope", "sites")]);
        assert_eq!(
            sim.metrics()
                .gauge_ref("glare_degraded_sites", &labels)
                .and_then(|g| g.latest()),
            Some(1.0)
        );
        sim.run_to_quiescence(100);
        assert!(!sim.site(SiteId(0)).is_degraded());
        let log = sim.events().expect("events enabled");
        assert_eq!(log.of_kind("site.degraded").count(), 1);
        assert_eq!(log.of_kind("site.recovered").count(), 1);
    }

    #[test]
    fn degrade_link_stretches_delivery_directionally() {
        struct Echo;
        impl Actor for Echo {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
                ctx.send(env.from, ());
            }
        }
        struct Starter {
            peer: ActorId,
        }
        impl Actor for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.timer_after(SimDuration::from_millis(1), "go");
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken, _tag: &str) {
                ctx.send(self.peer, ());
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _env: Envelope) {
                // Echo received: freeze the clock at the arrival instant so
                // the pending heal calls don't advance quiescence time.
                ctx.stop();
            }
        }
        let run = |plan: FaultPlan| {
            let mut topo = Topology::uniform(2);
            topo.set_default_link(LinkSpec {
                latency: SimDuration::from_millis(10),
                bandwidth_bps: 1_000_000_000,
                jitter: 0.0,
            });
            let mut sim = Simulation::new(topo, 1);
            let b = sim.add_actor(SiteId(1), Box::new(Echo));
            sim.add_actor(SiteId(0), Box::new(Starter { peer: b }));
            plan.apply(&mut sim);
            sim.start();
            sim.run_to_quiescence(100);
            sim.now()
        };
        let healthy = run(FaultPlan::new());
        assert!(healthy >= SimTime::from_millis(21) && healthy < SimTime::from_millis(22));
        // One-way: only the outbound 0→1 leg is stretched 3×.
        let asym = run(FaultPlan::new().degrade_link_dir(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SiteId(0),
            SiteId(1),
            3.0,
            false,
        ));
        assert!(asym >= SimTime::from_millis(41) && asym < SimTime::from_millis(42));
        // Symmetric: both legs stretched.
        let sym = run(FaultPlan::new().degrade_link(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SiteId(0),
            SiteId(1),
            3.0,
        ));
        assert!(sym >= SimTime::from_millis(61) && sym < SimTime::from_millis(62));
    }

    #[test]
    fn random_slowdowns_deterministic() {
        let plan = |seed| {
            let mut rng = SimRng::from_seed(seed);
            FaultPlan::new()
                .random_slowdowns(
                    &mut rng,
                    4,
                    &[SiteId(0), SiteId(1), SiteId(2)],
                    SimTime::ZERO,
                    SimTime::from_secs(100),
                    SimDuration::from_secs(5),
                    10.0,
                )
                .faults()
                .to_vec()
        };
        assert_eq!(plan(9), plan(9));
        assert_ne!(plan(9), plan(10));
        assert_eq!(plan(9).len(), 4);
        for f in plan(9) {
            match f {
                Fault::SlowSite {
                    from,
                    until,
                    factor_permille,
                    ..
                } => {
                    assert_eq!(until, from + SimDuration::from_secs(5));
                    assert_eq!(factor_permille, 10_000);
                }
                other => panic!("expected slowdown, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "must exceed 1.0")]
    fn speedup_factor_rejected() {
        let _ = FaultPlan::new().slow_site(
            SimTime::ZERO,
            SimTime::from_secs(1),
            SiteId(0),
            0.5,
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_partition_window_rejected() {
        let _ = FaultPlan::new().partition(
            SimTime::from_secs(2),
            SimTime::from_secs(2),
            SiteId(0),
            SiteId(1),
        );
    }
}
