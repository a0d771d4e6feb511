//! Multi-tenant admission control for the node/RDM request path.
//!
//! GLARE's registration/provisioning promise only matters under sustained
//! load, and sustained load needs a front door: every client-facing query
//! passes an [`AdmissionController`] guarding a bounded per-site inbox.
//! Each admitted request holds a ticket with a fixed time-to-live until its
//! reply goes out — the inbox is a FIFO of TTL'd tickets, the shared-lease
//! cap of §3.2 applied to concurrent requests instead of concurrent
//! activity clients — with class-tiered thresholds on top: best-effort
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

use std::collections::VecDeque;
use std::num::NonZeroU64;

use glare_fabric::{SimDuration, SimTime};

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
/// site, so a wedged inbox drains by itself. Every ticket gets this same
/// lifetime, which is what keeps the inbox in expiry order (see
/// [`AdmissionController`]).
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
    pub(crate) fn class_limit(&self, class: TenantClass) -> u32 {
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
    /// Admitted; the ticket id must be released (`AdmissionController::release`)
    /// when the request's reply goes out.
    Admit {
        /// The inbox ticket backing this admission (numbered from 1, so a
        /// request can carry `Option<NonZeroU64>` in one word).
        ticket: NonZeroU64,
    },
    /// Shed. The hint tells the client how long to stay away; it is a
    /// floor, not a schedule — clients add their own jitter via
    /// [`crate::retry::RetryPolicy::next_backoff_after`].
    Shed {
        /// Server-suggested minimum wait before retrying.
        retry_after: SimDuration,
    },
}

/// The bounded-inbox controller of one site.
///
/// The inbox is a FIFO of `(ticket, expiry)` pairs in grant order. That
/// is also expiry order, because every ticket lives exactly
/// `TICKET_TTL` (2 s) and the controller is asked with a `now` that never goes
/// back (simulated time only moves forward; an amnesia crash builds a new
/// controller). Three things follow, and the code relies on each:
/// - the TTL sweep pops expired tickets from the front and stops at the
///   first live one;
/// - after the sweep every ticket left covers `now`, so occupancy is the
///   inbox length;
/// - tickets are numbered in grant order, so a release finds its ticket by
///   binary search.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Live tickets with their expiry instants, oldest first.
    inbox: VecDeque<(NonZeroU64, SimTime)>,
    /// The id the next admission is granted under.
    next_ticket: NonZeroU64,
    /// TTL releases observed since the last [`AdmissionController::take_ttl_released`]
    /// drain — the node turns these into metrics/events.
    pending_ttl: u64,
}

impl AdmissionController {
    /// Controller for `cfg` (inert while `cfg.enabled` is false).
    pub(crate) fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            inbox: VecDeque::new(),
            next_ticket: NonZeroU64::MIN,
            pending_ttl: 0,
        }
    }

    /// Whether the controller participates in the request path at all.
    pub(crate) fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Live admitted-request count at `now` (expired tickets swept). `now`
    /// must not precede the instant of any earlier call.
    ///
    /// Tickets the sweep reclaims were *not* released by a reply — they
    /// leaked (request died on a crashed site, reply lost). The count is
    /// queued for `take_ttl_released` so the node can surface the leak in
    /// metrics instead of it draining invisibly.
    pub(crate) fn occupancy(&mut self, now: SimTime) -> u32 {
        // A ticket's interval is `[granted, expiry)`: one expiring at `now`
        // no longer covers it.
        let expired = self.inbox.partition_point(|&(_, expiry)| expiry <= now);
        if expired > 0 {
            self.inbox.drain(..expired);
            self.pending_ttl += expired as u64;
        }
        self.inbox.len() as u32
    }

    /// Admit or shed a `class` request arriving at `now`.
    ///
    /// Draws no randomness: the `RetryAfter` hint is a pure function of
    /// the overshoot, so same-seed runs stay byte-identical.
    pub(crate) fn decide(&mut self, class: TenantClass, now: SimTime) -> AdmissionDecision {
        debug_assert!(self.cfg.enabled, "decide() on a disabled controller");
        let occupancy = self.occupancy(now);
        // Every class limit is at most the capacity, so a request under its
        // limit always finds a free slot.
        let limit = self.cfg.class_limit(class);
        if occupancy >= limit {
            return AdmissionDecision::Shed {
                retry_after: retry_after(occupancy, limit),
            };
        }
        let ticket = self.next_ticket;
        self.next_ticket = ticket.checked_add(1).expect("ticket ids outlast any run");
        self.inbox.push_back((ticket, now + TICKET_TTL));
        AdmissionDecision::Admit { ticket }
    }

    /// Release an admitted request's ticket (its reply went out). A ticket
    /// already released or swept is a no-op.
    pub(crate) fn release(&mut self, ticket: NonZeroU64) {
        if let Ok(i) = self.inbox.binary_search_by_key(&ticket, |&(id, _)| id) {
            self.inbox.remove(i);
        }
    }

    /// Drain the TTL releases observed since the last call. The node
    /// calls this after every occupancy refresh and converts a nonzero
    /// count into `glare_inbox_ttl_released_total` and an
    /// `inbox.ttl_release` event.
    pub(crate) fn take_ttl_released(&mut self) -> u64 {
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
    use crate::lease::{LeaseKind, LeaseManager};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The controller as it was while the inbox was a `LeaseManager`
    /// ledger of shared leases on one synthetic key: the reference the
    /// FIFO inbox is held to. A shed is `Err(retry_after)`.
    struct LedgerController {
        cfg: AdmissionConfig,
        leases: LeaseManager,
        pending_ttl: u64,
    }

    const INBOX_KEY: &str = "inbox";

    impl LedgerController {
        fn new(cfg: AdmissionConfig) -> LedgerController {
            let mut leases = LeaseManager::new();
            leases.set_capacity(INBOX_KEY, cfg.inbox_capacity);
            LedgerController {
                cfg,
                leases,
                pending_ttl: 0,
            }
        }

        fn occupancy(&mut self, now: SimTime) -> u32 {
            let swept = self.leases.sweep_expired(now);
            if swept > 0 {
                self.pending_ttl += swept as u64;
            }
            self.leases.active_leases(INBOX_KEY, now).len() as u32
        }

        fn decide(&mut self, class: TenantClass, now: SimTime) -> Result<u64, SimDuration> {
            let occupancy = self.occupancy(now);
            let limit = self.cfg.class_limit(class);
            if occupancy >= limit {
                return Err(retry_after(occupancy, limit));
            }
            let until = now + TICKET_TTL;
            match self.leases.acquire(INBOX_KEY, class.label(), LeaseKind::Shared, now, until) {
                Ok(ticket) => Ok(ticket.id),
                Err(_) => Err(retry_after(occupancy, limit)),
            }
        }

        fn release(&mut self, ticket: u64) {
            let _ = self.leases.release(ticket);
        }
    }

    /// Seeded property: the FIFO inbox decides, hints and sweeps
    /// exactly as the lease ledger did, under random admissions of every
    /// class, releases of live, already released and TTL-swept tickets, and
    /// time steps, many of them onto a ticket's exact expiry instant.
    #[test]
    fn fifo_inbox_equals_the_lease_ledger_under_random_use() {
        use glare_fabric::SimRng;

        let mut rng = SimRng::from_seed(0xAD_1155);
        let mut on_an_expiry = 0;
        for round in 0..200 {
            let cfg = AdmissionConfig::bounded(rng.range(1, 9) as u32);
            let mut fifo = AdmissionController::new(cfg);
            let mut ledger = LedgerController::new(cfg);
            // Every admission, as both sides numbered it, with its expiry.
            let mut granted: Vec<(NonZeroU64, u64, SimTime)> = Vec::new();
            let mut now = SimTime::ZERO;
            for step in 0..300 {
                let at = format!("round {round} step {step}");
                match rng.range(0, 10) {
                    0..=4 => {
                        let class = TenantClass::ALL[rng.index(3)];
                        let decided = match fifo.decide(class, now) {
                            AdmissionDecision::Admit { ticket } => Ok(ticket),
                            AdmissionDecision::Shed { retry_after } => Err(retry_after),
                        };
                        match (decided, ledger.decide(class, now)) {
                            (Ok(ticket), Ok(id)) => granted.push((ticket, id, now + TICKET_TTL)),
                            (Err(a), Err(b)) => assert_eq!(a, b, "{at}: retry_after"),
                            (a, b) => panic!("{at}: fifo {a:?}, ledger {b:?}"),
                        }
                    }
                    5 | 6 if !granted.is_empty() => {
                        let (ticket, id, _) = granted[rng.index(granted.len())];
                        fifo.release(ticket);
                        ledger.release(id);
                    }
                    7 => assert_eq!(fifo.occupancy(now), ledger.occupancy(now), "{at}"),
                    8 => {
                        let ledger_ttl = std::mem::take(&mut ledger.pending_ttl);
                        assert_eq!(fifo.take_ttl_released(), ledger_ttl, "{at}");
                    }
                    _ => {
                        let ahead: Vec<SimTime> =
                            granted.iter().map(|g| g.2).filter(|&e| e >= now).collect();
                        if !ahead.is_empty() && rng.chance(0.5) {
                            now = ahead[rng.index(ahead.len())];
                            on_an_expiry += 1;
                        } else {
                            now += SimDuration::from_millis(rng.range(0, 1_500));
                        }
                    }
                }
            }
        }
        assert!(on_an_expiry > 1_000, "only {on_an_expiry} steps landed on an expiry");
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
        assert_eq!(c.occupancy(t(0)), 4);
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
        assert_eq!(c.take_ttl_released(), 0, "reply release mistaken for a leak");
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
        // decisions and occupancy — there is no hidden entropy.
        let run = || {
            let mut c = AdmissionController::new(AdmissionConfig::bounded(3));
            let mut out = Vec::new();
            for i in 0..16u64 {
                let class = TenantClass::ALL[(i % 3) as usize];
                out.push(c.decide(class, SimTime::from_millis(i * 10)));
            }
            (out, c.occupancy(SimTime::from_millis(160)))
        };
        assert_eq!(run(), run());
    }
}
