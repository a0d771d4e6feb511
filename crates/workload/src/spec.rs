//! The `WorkloadSpec` scenario DSL.
//!
//! A spec is a seedable, declarative description of who offers load to
//! the overlay and how: per-tenant request classes (gold / silver /
//! best-effort), open- or closed-loop arrival processes, Zipf-skewed
//! activity popularity, and multiplicative rate modulation (warm-up
//! ramps, diurnal cycles, flash-crowd spikes). Everything the engine
//! does is a pure function of the spec plus its seed, so two runs of the
//! same spec produce byte-identical arrival streams.

use glare_core::admission::TenantClass;
use glare_fabric::{SimDuration, SimTime};

/// Inter-arrival process shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential gaps (a Poisson process at the
    /// instantaneous rate).
    Poisson,
    /// Low-variance arrivals: gaps uniform in `[0.5, 1.5] / rate`.
    Uniform,
}

/// Open- vs closed-loop request generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopMode {
    /// Fire at every scheduled arrival regardless of outstanding
    /// requests — offered load does not back off when the system slows
    /// (the regime where overload control matters).
    Open,
    /// At most `concurrency` requests in flight; a new one is offered
    /// one think-gap after a slot frees. Offered load self-throttles.
    Closed {
        /// Maximum outstanding requests.
        concurrency: u32,
    },
}

/// Linear warm-up ramp: the rate factor climbs from `from` to 1.0 over
/// the first `over` of the run.
#[derive(Clone, Copy, Debug)]
pub struct Ramp {
    /// Starting fraction of the baseline rate (e.g. 0.1 = 10%).
    pub from: f64,
    /// Ramp duration.
    pub over: SimDuration,
}

/// Sinusoidal diurnal cycle: factor `1 + amplitude * sin(2πt/period)`.
#[derive(Clone, Copy, Debug)]
pub struct Diurnal {
    /// Peak deviation from baseline, in `[0, 1)`.
    pub amplitude: f64,
    /// Cycle length (a simulated "day").
    pub period: SimDuration,
}

/// Flash crowd: the rate multiplies by `multiplier` inside the window.
#[derive(Clone, Copy, Debug)]
pub struct Flash {
    /// Window start.
    pub at: SimTime,
    /// Window length.
    pub duration: SimDuration,
    /// Rate multiplier while the window is open (e.g. 5.0).
    pub multiplier: f64,
}

/// Multiplicative rate modulation. Each component defaults to off; the
/// instantaneous rate is `base * ramp(t) * diurnal(t) * flash(t)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateModulation {
    /// Warm-up ramp, if any.
    pub ramp: Option<Ramp>,
    /// Diurnal cycle, if any.
    pub diurnal: Option<Diurnal>,
    /// Flash-crowd window, if any.
    pub flash: Option<Flash>,
}

impl RateModulation {
    /// The combined rate factor at instant `t`, floored at a small
    /// epsilon so a modulated rate never reaches zero (which would stall
    /// the arrival stream forever).
    pub fn factor(&self, t: SimTime) -> f64 {
        let mut f = 1.0;
        if let Some(r) = self.ramp {
            let progress = if r.over == SimDuration::ZERO {
                1.0
            } else {
                (t.as_nanos() as f64 / r.over.as_nanos() as f64).min(1.0)
            };
            f *= r.from + (1.0 - r.from) * progress;
        }
        if let Some(d) = self.diurnal {
            let phase = t.as_nanos() as f64 / d.period.as_nanos() as f64;
            f *= 1.0 + d.amplitude * (2.0 * std::f64::consts::PI * phase).sin();
        }
        if let Some(fl) = self.flash {
            if t >= fl.at && t < fl.at + fl.duration {
                f *= fl.multiplier;
            }
        }
        f.max(1e-6)
    }
}

/// One tenant's traffic contract.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Tenant name (also the RNG fork label — keep it unique).
    pub name: String,
    /// Admission class its requests carry.
    pub class: TenantClass,
    /// Baseline offered rate, requests per simulated second.
    pub rate_hz: f64,
    /// Inter-arrival shape.
    pub arrival: ArrivalProcess,
    /// Open or closed loop.
    pub loop_mode: LoopMode,
    /// Time-varying rate modulation.
    pub modulation: RateModulation,
}

impl TenantSpec {
    /// Open-loop Poisson tenant at `rate_hz`, no modulation.
    pub fn open(name: &str, class: TenantClass, rate_hz: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_owned(),
            class,
            rate_hz,
            arrival: ArrivalProcess::Poisson,
            loop_mode: LoopMode::Open,
            modulation: RateModulation::default(),
        }
    }

    /// Closed-loop tenant with `concurrency` outstanding requests.
    pub fn closed(name: &str, class: TenantClass, rate_hz: f64, concurrency: u32) -> TenantSpec {
        TenantSpec {
            loop_mode: LoopMode::Closed { concurrency },
            ..TenantSpec::open(name, class, rate_hz)
        }
    }

    /// Add a flash-crowd window.
    pub fn with_flash(mut self, at: SimTime, duration: SimDuration, multiplier: f64) -> TenantSpec {
        self.modulation.flash = Some(Flash {
            at,
            duration,
            multiplier,
        });
        self
    }
}

/// A complete workload scenario.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Master seed; every tenant's stream forks from it by name.
    pub seed: u64,
    /// How long tenants offer load (requests arriving after this are not
    /// generated; in-flight ones still complete).
    pub duration: SimDuration,
    /// Activity catalogue, most popular first (Zipf rank order).
    pub activities: Vec<String>,
    /// Zipf exponent over the catalogue (0 = uniform, ~1 = classic skew).
    pub zipf_exponent: f64,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

impl WorkloadSpec {
    /// Empty spec with a catalogue of `n_activities` synthetic names.
    pub fn new(seed: u64, duration: SimDuration, n_activities: usize) -> WorkloadSpec {
        assert!(n_activities > 0, "catalogue must be non-empty");
        WorkloadSpec {
            seed,
            duration,
            activities: (0..n_activities).map(|i| format!("Activity{i}")).collect(),
            zipf_exponent: 1.0,
            tenants: Vec::new(),
        }
    }

    /// Replace the activity catalogue (rank order = popularity order).
    pub fn with_activities(mut self, names: &[&str]) -> WorkloadSpec {
        assert!(!names.is_empty(), "catalogue must be non-empty");
        self.activities = names.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Set the Zipf exponent.
    pub fn with_zipf(mut self, s: f64) -> WorkloadSpec {
        self.zipf_exponent = s;
        self
    }

    /// Add a tenant.
    pub fn tenant(mut self, t: TenantSpec) -> WorkloadSpec {
        self.tenants.push(t);
        self
    }

    /// The canonical three-tier mix the load bench sweeps: one gold, one
    /// silver and one best-effort open-loop Poisson tenant splitting
    /// `total_rate_hz` 20/30/50. Gold's small share is what admission
    /// control must protect when the total exceeds capacity.
    pub fn three_tier(seed: u64, duration: SimDuration, total_rate_hz: f64) -> WorkloadSpec {
        WorkloadSpec::new(seed, duration, 8)
            .tenant(TenantSpec::open("gold", TenantClass::Gold, total_rate_hz * 0.2))
            .tenant(TenantSpec::open(
                "silver",
                TenantClass::Silver,
                total_rate_hz * 0.3,
            ))
            .tenant(TenantSpec::open(
                "besteffort",
                TenantClass::BestEffort,
                total_rate_hz * 0.5,
            ))
    }

    /// The hot-spot scenario: [`WorkloadSpec::three_tier`] with every
    /// tenant's rate multiplied by `multiplier` inside the
    /// `[at, at + flash)` window. The Zipf skew concentrates the surge on
    /// the head of the catalogue, so the spike lands on whichever sites
    /// host the popular types — the flash crowd the autonomic placement
    /// controller must spread back out.
    pub fn flash_crowd(
        seed: u64,
        duration: SimDuration,
        total_rate_hz: f64,
        at: SimTime,
        flash: SimDuration,
        multiplier: f64,
    ) -> WorkloadSpec {
        let mut spec = WorkloadSpec::three_tier(seed, duration, total_rate_hz);
        for t in &mut spec.tenants {
            t.modulation.flash = Some(Flash {
                at,
                duration: flash,
                multiplier,
            });
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn modulation_defaults_to_unity() {
        let m = RateModulation::default();
        assert_eq!(m.factor(SimTime::ZERO), 1.0);
        assert_eq!(m.factor(SimTime::from_secs(100)), 1.0);
    }

    #[test]
    fn ramp_climbs_to_one() {
        let m = RateModulation {
            ramp: Some(Ramp {
                from: 0.2,
                over: SimDuration::from_secs(10),
            }),
            ..Default::default()
        };
        assert!((m.factor(SimTime::ZERO) - 0.2).abs() < 1e-9);
        assert!((m.factor(SimTime::from_secs(5)) - 0.6).abs() < 1e-9);
        assert!((m.factor(SimTime::from_secs(10)) - 1.0).abs() < 1e-9);
        assert!((m.factor(SimTime::from_secs(20)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flash_window_multiplies_inside_only() {
        let m = RateModulation {
            flash: Some(Flash {
                at: SimTime::from_secs(5),
                duration: SimDuration::from_secs(2),
                multiplier: 4.0,
            }),
            ..Default::default()
        };
        assert_eq!(m.factor(SimTime::from_secs(4)), 1.0);
        assert_eq!(m.factor(SimTime::from_secs(5)), 4.0);
        assert_eq!(m.factor(SimTime::from_secs(7)), 1.0);
    }

    #[test]
    fn diurnal_oscillates_around_one() {
        let m = RateModulation {
            diurnal: Some(Diurnal {
                amplitude: 0.5,
                period: SimDuration::from_secs(40),
            }),
            ..Default::default()
        };
        // Quarter period: sin peak.
        assert!((m.factor(SimTime::from_secs(10)) - 1.5).abs() < 1e-9);
        // Three quarters: trough.
        assert!((m.factor(SimTime::from_secs(30)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn factor_never_zero() {
        let m = RateModulation {
            diurnal: Some(Diurnal {
                amplitude: 1.0,
                period: SimDuration::from_secs(4),
            }),
            ..Default::default()
        };
        // Trough of a full-amplitude sine would be 0; the floor holds.
        assert!(m.factor(SimTime::from_secs(3)) > 0.0);
    }

    #[test]
    fn flash_crowd_spikes_every_tenant() {
        let spec = WorkloadSpec::flash_crowd(
            1,
            SimDuration::from_secs(100),
            100.0,
            SimTime::from_secs(20),
            SimDuration::from_secs(30),
            4.0,
        );
        assert_eq!(spec.tenants.len(), 3);
        for t in &spec.tenants {
            assert_eq!(t.modulation.factor(SimTime::from_secs(10)), 1.0);
            assert_eq!(t.modulation.factor(SimTime::from_secs(25)), 4.0);
            assert_eq!(t.modulation.factor(SimTime::from_secs(50)), 1.0);
        }
    }

    #[test]
    fn three_tier_splits_rates() {
        let spec = WorkloadSpec::three_tier(1, ms(1000), 100.0);
        assert_eq!(spec.tenants.len(), 3);
        assert!((spec.tenants[0].rate_hz - 20.0).abs() < 1e-9);
        assert!((spec.tenants[1].rate_hz - 30.0).abs() < 1e-9);
        assert!((spec.tenants[2].rate_hz - 50.0).abs() < 1e-9);
        assert_eq!(spec.tenants[0].class, TenantClass::Gold);
    }
}
