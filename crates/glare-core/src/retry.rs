//! Unified retry/backoff and circuit breaking for cross-site calls.
//!
//! Every interaction that crosses a WAN link — remote query probes,
//! super-peer forwarding, lease acquisition, GridFTP transfers, deploy
//! steps — funnels its recovery decisions through one [`RetryPolicy`]:
//! exponential backoff with *decorrelated jitter* (each delay is drawn
//! uniformly from `[base, 3 × previous]`, capped), a per-attempt timeout,
//! and an overall deadline budget. Per-remote-site failure history feeds a
//! [`CircuitBreaker`]: after `threshold` consecutive failures the breaker
//! opens and calls short-circuit without touching the wire until a
//! cooldown elapses, after which a single half-open probe decides whether
//! to close it again.
//!
//! Determinism: all randomness is drawn from the caller's [`SimRng`], and
//! a policy with retries disabled (or a run with no faults) draws nothing
//! — healthy same-seed runs are event-identical with the layer present or
//! absent.

use std::collections::BTreeMap;

use glare_fabric::{SimDuration, SimRng, SimTime};

/// Backoff floor: the first retry waits at least this long. Fixed — no
/// caller ever asked for another floor, and a policy that never retries
/// (`max_attempts == 1`) never draws a backoff, so it never reads this.
pub(crate) const BASE_DELAY: SimDuration = SimDuration::from_millis(250);

/// Backoff ceiling for any single jittered wait (a server's `RetryAfter`
/// hint may exceed it, see [`RetryPolicy::next_backoff_after`]).
pub(crate) const MAX_DELAY: SimDuration = SimDuration::from_secs(5);

/// Budget for one attempt before it is declared failed: what a lost
/// lease call, probe or deploy step costs the synchronous substrate.
/// Equal to the node's probe deadline (`PROBE_TIMEOUT` in `node/msg.rs`).
pub(crate) const ATTEMPT_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Overall budget across all attempts and backoffs; once spent, no
/// further attempt starts even if `max_attempts` remain. Every caller
/// asks [`RetryPolicy::may_attempt`] about attempt 2 or later, which a
/// single-attempt policy refuses on the count alone, so the deadline
/// binds only a policy that retries.
pub(crate) const DEADLINE: SimDuration = SimDuration::from_secs(30);

/// The unified recovery behaviour. The attempt count is what callers
/// vary (1 = legacy, 4 = standard, 3 for workflow activities); the
/// backoff shape, the per-attempt timeout and the overall deadline are
/// the constants above.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Legacy single-attempt behaviour: the call runs exactly once and
    /// failures surface immediately. Draws no randomness, ever.
    pub(crate) fn disabled() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
    }

    /// Defaults tuned for WAN-crossing control messages (probes, lease
    /// calls): a handful of attempts, sub-second floor, bounded tail.
    pub fn standard() -> RetryPolicy {
        RetryPolicy { max_attempts: 4 }
    }

    /// Whether this policy ever retries.
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Whether attempt number `attempt` (1-based) may start after
    /// `elapsed` of the overall budget is already spent.
    pub fn may_attempt(&self, attempt: u32, elapsed: SimDuration) -> bool {
        attempt <= self.max_attempts && elapsed < DEADLINE
    }

    /// Draw the next backoff delay with decorrelated jitter:
    /// `uniform(BASE_DELAY, min(MAX_DELAY, 3 × prev))`, where `prev` is
    /// the previous delay (pass [`SimDuration::ZERO`] before the first
    /// retry — it is clamped up to `BASE_DELAY`, 250 ms).
    ///
    /// Consumes RNG only when called, i.e. only on an actual retry.
    pub fn next_backoff(&self, rng: &mut SimRng, prev: SimDuration) -> SimDuration {
        let base = BASE_DELAY.as_nanos();
        let prev = prev.as_nanos().max(base);
        let hi = prev.saturating_mul(3).min(MAX_DELAY.as_nanos());
        SimDuration::from_nanos(rng.range(base, hi + 1))
    }

    /// Like [`RetryPolicy::next_backoff`], but honoring a server-supplied
    /// `RetryAfter` hint (an overloaded site's admission controller quotes
    /// one when it sheds a request): the drawn backoff is floored at the
    /// hint, and the hint may exceed `MAX_DELAY` (5 s) — the server knows its
    /// own congestion better than the client's static cap does.
    ///
    /// The hint is clamped against what is left of the overall deadline
    /// budget (`DEADLINE - elapsed`): a huge hint must not schedule the
    /// retry past the point where [`RetryPolicy::may_attempt`] would
    /// refuse it anyway — that wastes the attempt without ever sending it.
    /// The clamp applies to the *hint floor* only; the jittered draw is
    /// already bounded by `MAX_DELAY`.
    ///
    /// Consumes RNG exactly as [`RetryPolicy::next_backoff`] does (one
    /// draw per actual retry), so a run that never sheds is byte-identical
    /// with or without hint handling compiled in.
    pub fn next_backoff_after(
        &self,
        rng: &mut SimRng,
        prev: SimDuration,
        retry_after: SimDuration,
        elapsed: SimDuration,
    ) -> SimDuration {
        let remaining = DEADLINE.saturating_sub(elapsed);
        self.next_backoff(rng, prev).max(retry_after.min(remaining))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Circuit breaker states, in the classic three-state scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Calls short-circuit until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe call is allowed through.
    HalfOpen,
}

/// Consecutive-failure circuit breaker for one remote site.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: SimDuration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
}

impl CircuitBreaker {
    /// New closed breaker: opens after `threshold` consecutive failures
    /// and allows a half-open probe `cooldown` after opening.
    pub(crate) fn new(threshold: u32, cooldown: SimDuration) -> CircuitBreaker {
        assert!(threshold > 0, "breaker threshold must be positive");
        CircuitBreaker {
            threshold,
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
        }
    }

    /// Defaults matching [`RetryPolicy::standard`]: open after 3 straight
    /// failures, probe again after 30 s.
    pub(crate) fn standard() -> CircuitBreaker {
        CircuitBreaker::new(3, SimDuration::from_secs(30))
    }

    /// Whether a call may be issued at `now`. Advances Open → HalfOpen
    /// when the cooldown has elapsed. A `now` before the opening instant
    /// (a caller whose own clock lags the charged retry time) counts as
    /// zero elapsed cooldown, not an error.
    pub(crate) fn allow(&mut self, now: SimTime) -> bool {
        if self.state == BreakerState::Open
            && now.saturating_since(self.opened_at) >= self.cooldown
        {
            self.state = BreakerState::HalfOpen;
        }
        self.state != BreakerState::Open
    }

    /// Record a successful call: the breaker closes and the failure run
    /// resets.
    pub(crate) fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record a failed call at `now`. Returns `true` when this failure
    /// transitioned the breaker to Open (either the threshold was reached
    /// or a half-open probe failed).
    pub(crate) fn record_failure(&mut self, now: SimTime) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let opens = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if opens {
            self.state = BreakerState::Open;
            self.opened_at = now;
        }
        opens
    }
}

/// A bank of per-remote breakers, keyed by an ordered id (actor index,
/// site index). `BTreeMap` keeps iteration deterministic for reporting.
#[derive(Clone, Debug)]
pub struct BreakerBank<K: Ord + Copy> {
    template: CircuitBreaker,
    breakers: BTreeMap<K, CircuitBreaker>,
}

impl<K: Ord + Copy> BreakerBank<K> {
    /// A bank whose members are cloned from `template` on first use.
    pub(crate) fn new(template: CircuitBreaker) -> BreakerBank<K> {
        BreakerBank {
            template,
            breakers: BTreeMap::new(),
        }
    }

    /// The breaker for `key`, created on first access.
    pub(crate) fn breaker(&mut self, key: K) -> &mut CircuitBreaker {
        let template = &self.template;
        self.breakers
            .entry(key)
            .or_insert_with(|| template.clone())
    }
}

impl<K: Ord + Copy> Default for BreakerBank<K> {
    fn default() -> Self {
        BreakerBank::new(CircuitBreaker::standard())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_policy_never_retries_and_draws_nothing() {
        let p = RetryPolicy::disabled();
        assert!(!p.retries_enabled());
        assert!(p.may_attempt(1, SimDuration::ZERO));
        assert!(!p.may_attempt(2, SimDuration::ZERO));
    }

    #[test]
    fn backoff_respects_floor_ceiling_and_decorrelation() {
        let p = RetryPolicy::standard();
        let mut rng = SimRng::from_seed(42);
        let mut prev = SimDuration::ZERO;
        for _ in 0..64 {
            let d = p.next_backoff(&mut rng, prev);
            assert!(d >= BASE_DELAY, "floor: {d} >= {BASE_DELAY}");
            assert!(d <= MAX_DELAY, "ceiling: {d} <= {MAX_DELAY}");
            let upper = SimDuration::from_nanos(prev.max(BASE_DELAY).as_nanos().saturating_mul(3));
            assert!(d <= upper, "decorrelated bound");
            prev = d;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::standard();
        let seq = |seed| {
            let mut rng = SimRng::from_seed(seed);
            let mut prev = SimDuration::ZERO;
            (0..10)
                .map(|_| {
                    prev = p.next_backoff(&mut rng, prev);
                    prev
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn retry_after_hint_floors_the_backoff() {
        let p = RetryPolicy::standard();
        // A hint above the policy ceiling wins outright (budget untouched).
        let big = SimDuration::from_secs(20);
        let mut rng = SimRng::from_seed(3);
        assert_eq!(
            p.next_backoff_after(&mut rng, SimDuration::ZERO, big, SimDuration::ZERO),
            big
        );
        // A tiny hint leaves the drawn backoff untouched: same seed, same
        // draw sequence as the plain path.
        let mut a = SimRng::from_seed(9);
        let mut b = SimRng::from_seed(9);
        let plain = p.next_backoff(&mut a, SimDuration::ZERO);
        let hinted = p.next_backoff_after(
            &mut b,
            SimDuration::ZERO,
            SimDuration::from_nanos(1),
            SimDuration::ZERO,
        );
        assert_eq!(plain, hinted);
    }

    #[test]
    fn retry_after_hint_is_clamped_to_remaining_deadline() {
        // DEADLINE is 30s. With 25s already spent, a 20s hint
        // would schedule the retry at t=45s — 15s past the budget, where
        // may_attempt refuses it. The clamp caps the floor at the 5s that
        // remain (the jittered draw can still come in below it).
        let p = RetryPolicy::standard();
        let hint = SimDuration::from_secs(20);
        let elapsed = SimDuration::from_secs(25);
        let mut rng = SimRng::from_seed(3);
        let d = p.next_backoff_after(&mut rng, SimDuration::ZERO, hint, elapsed);
        assert!(d <= SimDuration::from_secs(5), "hint escaped the budget: {d:?}");
        // Same seed, hint fully consumed by the clamp: identical to the
        // plain draw — the clamp adds no RNG consumption.
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        let plain = p.next_backoff(&mut a, SimDuration::ZERO);
        let clamped =
            p.next_backoff_after(&mut b, SimDuration::ZERO, hint, SimDuration::from_secs(30));
        assert_eq!(plain, clamped, "spent budget must zero the hint floor");
    }

    #[test]
    fn deadline_budget_cuts_attempts_short() {
        let p = RetryPolicy::standard();
        assert!(p.may_attempt(2, DEADLINE - SimDuration::from_nanos(1)));
        assert!(!p.may_attempt(2, DEADLINE), "budget spent with attempts left");
        assert!(!p.may_attempt(5, SimDuration::ZERO), "attempt cap");
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::new(3, SimDuration::from_secs(10));
        assert!(b.allow(t(0)));
        assert!(!b.record_failure(t(0)));
        assert!(!b.record_failure(t(1)));
        assert!(b.record_failure(t(2)), "third strike opens");
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.allow(t(5)), "short-circuits while cooling down");
        assert!(b.allow(t(12)), "half-open probe after cooldown");
        assert_eq!(b.state, BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(10));
        assert!(b.record_failure(t(0)));
        assert!(b.allow(t(10)));
        assert!(b.record_failure(t(10)), "probe failure reopens");
        assert!(!b.allow(t(15)));
        assert!(b.allow(t(20)), "new cooldown counted from the reopen");
    }

    #[test]
    fn bank_isolates_remotes_and_iterates_in_key_order() {
        let mut bank: BreakerBank<u32> = BreakerBank::new(CircuitBreaker::new(1, SimDuration::from_secs(5)));
        bank.breaker(9).record_failure(t(0));
        bank.breaker(3).record_success();
        assert_eq!(bank.breakers[&9].state, BreakerState::Open);
        assert_eq!(bank.breakers[&3].state, BreakerState::Closed);
        assert!(!bank.breakers.contains_key(&7));
        let keys: Vec<u32> = bank.breakers.keys().copied().collect();
        assert_eq!(keys, vec![3, 9]);
    }
}
