//! The `WorkloadSpec` scenario DSL.
//!
//! A spec is a seedable, declarative description of who offers load to
//! the overlay and how: per-tenant request classes (gold / silver /
//! best-effort), open-loop Poisson arrivals, Zipf-skewed activity
//! popularity (exponent 1 over the catalogue's rank order), and an
//! optional flash-crowd window that multiplies a tenant's rate.
//! Everything the engine does is a pure function of the spec plus its
//! seed, so two runs of the same spec produce byte-identical arrival
//! streams.

use glare_core::admission::TenantClass;
use glare_fabric::{SimDuration, SimTime};

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

/// Multiplicative rate modulation, off by default: the instantaneous
/// rate is `base * flash(t)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateModulation {
    /// Flash-crowd window, if any.
    pub flash: Option<Flash>,
}

impl RateModulation {
    /// The rate factor at instant `t`, floored at a small epsilon so a
    /// modulated rate never reaches zero (which would stall the arrival
    /// stream forever).
    pub(crate) fn factor(&self, t: SimTime) -> f64 {
        let mut f = 1.0;
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
            modulation: RateModulation::default(),
        }
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
            tenants: Vec::new(),
        }
    }

    /// Replace the activity catalogue (rank order = popularity order).
    pub fn with_activities(mut self, names: &[&str]) -> WorkloadSpec {
        assert!(!names.is_empty(), "catalogue must be non-empty");
        self.activities = names.iter().map(|s| (*s).to_owned()).collect();
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
    fn flash_window_multiplies_inside_only() {
        let m = RateModulation {
            flash: Some(Flash {
                at: SimTime::from_secs(5),
                duration: SimDuration::from_secs(2),
                multiplier: 4.0,
            }),
        };
        assert_eq!(m.factor(SimTime::from_secs(4)), 1.0);
        assert_eq!(m.factor(SimTime::from_secs(5)), 4.0);
        assert_eq!(m.factor(SimTime::from_secs(7)), 1.0);
    }

    #[test]
    fn factor_never_zero() {
        let m = RateModulation {
            flash: Some(Flash {
                at: SimTime::from_secs(2),
                duration: SimDuration::from_secs(2),
                multiplier: 0.0,
            }),
        };
        // A zero multiplier would stop the stream; the floor holds.
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
