//! Multi-tenant admission control for the node/RDM request path.
//!
//! GLARE's registration/provisioning promise only matters under sustained
//! load, and sustained load needs a front door: every client-facing query
//! passes an [`AdmissionController`] guarding a bounded per-site inbox.
//! Admission is *lease-based* — each admitted request takes a short shared
//! [`LeaseManager`] ticket on the synthetic `inbox` deployment, so the
//! same QoS machinery that caps concurrent activity clients (§3.2) caps
//! concurrent requests — with class-tiered thresholds on top: best-effort
//! traffic is shed once occupancy crosses half the capacity, silver at
//! three quarters, and only gold may fill the inbox. The headroom between
//! the silver threshold and the hard cap is therefore a *gold reserve*,
//! which is how gold goodput survives a 2x overload while best-effort
//! sheds first.
//!
//! A shed request is answered with a `RetryAfter` hint sized to the
//! overshoot (deterministic, no RNG) which the client side feeds to
//! [`crate::retry::RetryPolicy::next_backoff_after`] so retries respect
//! the server's view of its own congestion.
//!
//! Determinism discipline: the controller draws no randomness and
//! schedules no simulation work. With [`AdmissionConfig::disabled`] (the
//! default everywhere) the node never consults it and every same-seed run
//! is event-identical to a build without the layer; with it enabled but
//! never shedding, the only difference is metrics — the event stream and
//! message timing are unchanged.

use glare_fabric::{SimDuration, SimTime};

use crate::lease::{LeaseKind, LeaseManager};

/// The synthetic lease key the bounded inbox is accounted under.
const INBOX_KEY: &str = "inbox";

/// Request classes, in descending priority.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum TenantClass {
    /// Premium traffic: admitted while the inbox has any room at all.
    Gold,
    /// Standard traffic: shed once occupancy crosses the silver threshold.
    Silver,
    /// Scavenger traffic: shed first, at the best-effort threshold.
    BestEffort,
}

impl TenantClass {
    /// All classes, priority order (gold first).
    pub const ALL: [TenantClass; 3] =
        [TenantClass::Gold, TenantClass::Silver, TenantClass::BestEffort];

    /// Stable lowercase label for metrics/events (`class` label values).
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::Gold => "gold",
            TenantClass::Silver => "silver",
            TenantClass::BestEffort => "best_effort",
        }
    }

    /// Dense index (gold 0, silver 1, best-effort 2) for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            TenantClass::Gold => 0,
            TenantClass::Silver => 1,
            TenantClass::BestEffort => 2,
        }
    }
}

/// Occupancy fraction above which silver traffic is shed: the quarter
/// above it is the gold reserve. Fixed — the tiering is the policy, and
/// only an enabled controller ever computes a class limit.
const SILVER_SHARE: f64 = 0.75;

/// Occupancy fraction above which best-effort traffic is shed.
const BEST_EFFORT_SHARE: f64 = 0.5;

/// Lifetime of an admission ticket. Tickets are released when the reply
/// goes out; the TTL is the backstop for requests that die on a crashed
/// site, so a wedged inbox drains by itself.
const TICKET_TTL: SimDuration = SimDuration::from_secs(2);

/// `RetryAfter` floor quoted to the first shed request past a threshold;
/// the hint grows linearly with the overshoot.
const RETRY_AFTER_BASE: SimDuration = SimDuration::from_millis(250);

/// `RetryAfter` ceiling however deep the overload.
const RETRY_AFTER_MAX: SimDuration = SimDuration::from_secs(10);

/// The bounded-inbox admission behaviour: whether a site has a front
/// door at all, and how many requests fit behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch. `false` (the default) keeps the request path
    /// byte-for-byte the legacy behaviour: no occupancy accounting, no
    /// shedding, no metrics.
    pub enabled: bool,
    /// Hard cap on concurrently admitted requests (the inbox bound).
    pub inbox_capacity: u32,
}

impl AdmissionConfig {
    /// Admission off: the request path is exactly the legacy one.
    pub fn disabled() -> AdmissionConfig {
        AdmissionConfig {
            enabled: false,
            inbox_capacity: u32::MAX,
        }
    }

    /// Bounded inbox of `capacity` slots with the standard class tiers:
    /// best-effort admitted below 50% occupancy, silver below 75%, gold
    /// up to the cap (a 25% gold reserve).
    pub fn bounded(capacity: u32) -> AdmissionConfig {
        assert!(capacity > 0, "inbox capacity must be positive");
        AdmissionConfig {
            enabled: true,
            inbox_capacity: capacity,
        }
    }

    /// Occupancy at which `class` starts shedding (gold = the hard cap).
    pub fn class_limit(&self, class: TenantClass) -> u32 {
        let share = match class {
            TenantClass::Gold => 1.0,
            TenantClass::Silver => SILVER_SHARE,
            TenantClass::BestEffort => BEST_EFFORT_SHARE,
        };
        ((self.inbox_capacity as f64 * share).floor() as u32).max(1)
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::disabled()
    }
}

/// Outcome of one admission check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admitted; the ticket id must be [released](AdmissionController::release)
    /// when the request's reply goes out.
    Admit {
        /// The inbox lease ticket backing this admission.
        ticket: u64,
    },
    /// Shed. The hint tells the client how long to stay away; it is a
    /// floor, not a schedule — clients add their own jitter via
    /// [`crate::retry::RetryPolicy::next_backoff_after`].
    Shed {
        /// Server-suggested minimum wait before retrying.
        retry_after: SimDuration,
    },
}

/// Per-class admitted/shed tallies, read by the bench harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted, by [`TenantClass::index`].
    pub admitted: [u64; 3],
    /// Requests shed, by [`TenantClass::index`].
    pub shed: [u64; 3],
    /// Highest concurrent occupancy observed.
    pub peak_occupancy: u32,
    /// Tickets reclaimed by the TTL backstop instead of a reply release —
    /// each one is a request that died holding an inbox slot (crashed
    /// site, lost reply). Distinguishes leaks from normal drainage.
    pub ttl_released: u64,
}

/// The bounded-inbox controller of one site.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    leases: LeaseManager,
    stats: AdmissionStats,
    /// TTL releases observed since the last [`AdmissionController::take_ttl_released`]
    /// drain — the node turns these into metrics/events.
    pending_ttl: u64,
}

impl AdmissionController {
    /// Controller for `cfg` (inert while `cfg.enabled` is false).
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        let mut leases = LeaseManager::new();
        if cfg.enabled {
            leases.set_capacity(INBOX_KEY, cfg.inbox_capacity);
        }
        AdmissionController {
            cfg,
            leases,
            stats: AdmissionStats::default(),
            pending_ttl: 0,
        }
    }

    /// Whether the controller participates in the request path at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Live admitted-request count at `now` (expired tickets swept).
    ///
    /// Tickets the sweep reclaims were *not* released by a reply — they
    /// leaked (request died on a crashed site, reply lost). The count is
    /// tallied in [`AdmissionStats::ttl_released`] and queued for
    /// [`AdmissionController::take_ttl_released`] so callers can surface
    /// the leak in metrics instead of it draining invisibly.
    pub fn occupancy(&mut self, now: SimTime) -> u32 {
        let swept = self.leases.sweep_expired(now);
        if swept > 0 {
            self.stats.ttl_released += swept as u64;
            self.pending_ttl += swept as u64;
        }
        self.leases.active_count(INBOX_KEY, now) as u32
    }

    /// Admit or shed a `class` request arriving at `now`.
    ///
    /// Draws no randomness: the `RetryAfter` hint is a pure function of
    /// the overshoot, so same-seed runs stay byte-identical.
    pub fn decide(&mut self, class: TenantClass, now: SimTime) -> AdmissionDecision {
        debug_assert!(self.cfg.enabled, "decide() on a disabled controller");
        let occupancy = self.occupancy(now);
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(occupancy);
        let limit = self.cfg.class_limit(class);
        if occupancy >= limit {
            self.stats.shed[class.index()] += 1;
            return AdmissionDecision::Shed {
                retry_after: retry_after(occupancy, limit),
            };
        }
        match self.leases.grant(
            INBOX_KEY,
            class.label(),
            LeaseKind::Shared,
            now,
            now + TICKET_TTL,
        ) {
            Ok(ticket) => {
                let ticket = ticket.id;
                self.stats.admitted[class.index()] += 1;
                self.stats.peak_occupancy = self.stats.peak_occupancy.max(occupancy + 1);
                AdmissionDecision::Admit { ticket }
            }
            Err(_) => {
                // The hard lease cap closed the door between the threshold
                // check and the grant (gold at full inbox).
                self.stats.shed[class.index()] += 1;
                AdmissionDecision::Shed {
                    retry_after: retry_after(occupancy, limit),
                }
            }
        }
    }

    /// Release an admitted request's ticket (its reply went out).
    pub fn release(&mut self, ticket: u64) {
        let _ = self.leases.release(ticket);
    }

    /// Cumulative per-class tallies.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Drain the TTL releases observed since the last call. The node
    /// calls this after every occupancy refresh and converts a nonzero
    /// count into `glare_inbox_ttl_released_total` and an
    /// `inbox.ttl_release` event.
    pub fn take_ttl_released(&mut self) -> u64 {
        std::mem::take(&mut self.pending_ttl)
    }
}

/// Deterministic `RetryAfter`: the base hint scaled by how far past the
/// class threshold the inbox is, capped.
fn retry_after(occupancy: u32, limit: u32) -> SimDuration {
    let overshoot = occupancy.saturating_sub(limit) as u64 + 1;
    let hint = SimDuration::from_nanos(RETRY_AFTER_BASE.as_nanos().saturating_mul(overshoot));
    hint.min(RETRY_AFTER_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn class_limits_tier_the_capacity() {
        let cfg = AdmissionConfig::bounded(8);
        assert_eq!(cfg.class_limit(TenantClass::Gold), 8);
        assert_eq!(cfg.class_limit(TenantClass::Silver), 6);
        assert_eq!(cfg.class_limit(TenantClass::BestEffort), 4);
    }

    #[test]
    fn best_effort_sheds_first_gold_last() {
        let mut c = AdmissionController::new(AdmissionConfig::bounded(4));
        // Fill to the best-effort threshold (4 * 0.5 = 2 slots).
        for _ in 0..2 {
            assert!(matches!(
                c.decide(TenantClass::BestEffort, t(0)),
                AdmissionDecision::Admit { .. }
            ));
        }
        assert!(matches!(
            c.decide(TenantClass::BestEffort, t(0)),
            AdmissionDecision::Shed { .. }
        ));
        // Silver still fits (threshold 3), then sheds.
        assert!(matches!(
            c.decide(TenantClass::Silver, t(0)),
            AdmissionDecision::Admit { .. }
        ));
        assert!(matches!(
            c.decide(TenantClass::Silver, t(0)),
            AdmissionDecision::Shed { .. }
        ));
        // Gold fills the reserve up to the hard cap.
        assert!(matches!(
            c.decide(TenantClass::Gold, t(0)),
            AdmissionDecision::Admit { .. }
        ));
        assert!(matches!(
            c.decide(TenantClass::Gold, t(0)),
            AdmissionDecision::Shed { .. }
        ));
        let s = c.stats();
        assert_eq!(s.admitted, [1, 1, 2]);
        assert_eq!(s.shed, [1, 1, 1]);
        assert_eq!(s.peak_occupancy, 4);
    }

    #[test]
    fn release_frees_a_slot() {
        let mut c = AdmissionController::new(AdmissionConfig::bounded(2));
        let ticket = match c.decide(TenantClass::BestEffort, t(0)) {
            AdmissionDecision::Admit { ticket } => ticket,
            other => panic!("expected admit, got {other:?}"),
        };
        assert!(matches!(
            c.decide(TenantClass::BestEffort, t(0)),
            AdmissionDecision::Shed { .. }
        ));
        c.release(ticket);
        assert!(matches!(
            c.decide(TenantClass::BestEffort, t(0)),
            AdmissionDecision::Admit { .. }
        ));
    }

    #[test]
    fn tickets_expire_by_ttl() {
        let mut c = AdmissionController::new(AdmissionConfig::bounded(2));
        assert!(matches!(
            c.decide(TenantClass::Gold, t(0)),
            AdmissionDecision::Admit { .. }
        ));
        assert_eq!(c.occupancy(t(1)), 1);
        // TICKET_TTL is 2 s: the un-released ticket drains on its own.
        assert_eq!(c.occupancy(t(3)), 0);
        // The leak is visible, and the pending count drains exactly once.
        assert_eq!(c.stats().ttl_released, 1);
        assert_eq!(c.take_ttl_released(), 1);
        assert_eq!(c.take_ttl_released(), 0);
    }

    #[test]
    fn reply_release_is_not_counted_as_ttl_leak() {
        let mut c = AdmissionController::new(AdmissionConfig::bounded(2));
        let ticket = match c.decide(TenantClass::Gold, t(0)) {
            AdmissionDecision::Admit { ticket } => ticket,
            other => panic!("expected admit, got {other:?}"),
        };
        c.release(ticket);
        assert_eq!(c.occupancy(t(10)), 0);
        assert_eq!(c.stats().ttl_released, 0, "reply release mistaken for a leak");
        assert_eq!(c.take_ttl_released(), 0);
    }

    #[test]
    fn retry_after_scales_with_overshoot_and_caps() {
        let mut c = AdmissionController::new(AdmissionConfig::bounded(4));
        // Fill the whole inbox with gold.
        for _ in 0..4 {
            c.decide(TenantClass::Gold, t(0));
        }
        let at_threshold = match c.decide(TenantClass::BestEffort, t(0)) {
            AdmissionDecision::Shed { retry_after } => retry_after,
            other => panic!("expected shed, got {other:?}"),
        };
        // Occupancy 4, best-effort limit 2: overshoot 2 → 3 × base.
        assert_eq!(at_threshold, RETRY_AFTER_BASE * 3);
        assert_eq!(retry_after(1_000_000, 1), RETRY_AFTER_MAX);
    }

    #[test]
    fn decisions_are_pure_no_rng() {
        // Two controllers fed the same sequence produce the same
        // decisions and stats — there is no hidden entropy.
        let run = || {
            let mut c = AdmissionController::new(AdmissionConfig::bounded(3));
            let mut out = Vec::new();
            for i in 0..16u64 {
                let class = TenantClass::ALL[(i % 3) as usize];
                out.push(c.decide(class, SimTime::from_millis(i * 10)));
            }
            (out, c.stats())
        };
        assert_eq!(run(), run());
    }
}
