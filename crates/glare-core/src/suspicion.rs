//! Adaptive, phi-accrual-style failure suspicion and hedged-request
//! policy.
//!
//! Fixed thresholds treat a grid as binary — a peer is reachable inside
//! the node's heartbeat-silence and probe deadlines (`HEARTBEAT_TIMEOUT`,
//! `PROBE_TIMEOUT` in `node/msg.rs`) or it is dead. Gray failures (a
//! 10×-slow super-peer, a degraded trunk link) break that model: the peer
//! still answers, just late, and a fixed threshold either fires on every
//! latency wobble or never notices the straggler. This module replaces
//! the fixed thresholds with *learned* per-peer latency distributions:
//!
//! - [`PeerEstimator`] keeps an exponentially-weighted mean and variance
//!   of one observable per peer — probe round-trips, or heartbeat
//!   inter-arrivals — in the style of the phi-accrual failure detector
//!   (Hayashibara et al.): suspicion is the peer's current silence
//!   normalized against its learned arrival distribution, not a constant.
//! - [`SuspicionTracker`] is a keyed bank of estimators with the derived
//!   policies: an adaptive silence threshold for heartbeat takeover, a
//!   tightened per-remote attempt budget for probe retries, and the
//!   latency quantile a hedged request waits before firing.
//! - [`HedgeConfig`] governs hedged probes: after a deterministic
//!   quantile-derived delay, one extra probe goes to the next-best
//!   replica and the first *useful* response wins. Only idempotent reads
//!   are ever hedged — deploy/register steps mutate remote state, and a
//!   duplicated deploy is a correctness bug, not a latency win.
//!
//! Determinism: nothing here draws randomness or schedules work by
//! itself. [`SuspicionConfig::disabled`] and [`HedgeConfig::disabled`]
//! (the defaults) are strictly observe-only — with them in place a
//! same-seed run is event-identical to a build without the feature.

use std::collections::BTreeMap;

use glare_fabric::SimDuration;

/// EWMA smoothing factor for the mean/variance updates, in `(0, 1]`:
/// gentle smoothing, tuned with the three constants below for the
/// overlay's heartbeat/probe cadences so that healthy seeds never cross a
/// takeover threshold. Fixed — a disabled tracker records nothing and is
/// never warm, so it reads none of the four.
const ALPHA: f64 = 0.2;

/// Samples required before an estimator is *warm*; cold estimators
/// always defer to the configured fixed values.
const MIN_SAMPLES: u64 = 8;

/// Standard deviations of headroom granted above the expected value when
/// deriving thresholds and budgets.
const SIGMAS: f64 = 4.0;

/// Multiplicative safety margin on the learned mean (the expected value
/// is `MARGIN × mean`): absorbs a whole missed beat before any suspicion
/// accrues.
const MARGIN: f64 = 2.0;

/// Whether the adaptive suspicion estimator runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuspicionConfig {
    /// Master switch. Off (the default) keeps every consumer on its
    /// configured fixed threshold and records nothing.
    pub enabled: bool,
}

impl SuspicionConfig {
    /// Estimation off: every threshold stays at its configured value and
    /// observations are discarded. Same-seed runs are event-identical to
    /// runs of a build without the estimator.
    pub fn disabled() -> SuspicionConfig {
        SuspicionConfig { enabled: false }
    }

    /// Estimation on.
    pub fn standard() -> SuspicionConfig {
        SuspicionConfig { enabled: true }
    }
}

impl Default for SuspicionConfig {
    fn default() -> Self {
        SuspicionConfig::disabled()
    }
}

/// Whether probes are hedged. How long a hedge waits is fixed beside the
/// code that arms it (`node/ladder.rs`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// Master switch. Off (the default) arms no hedge timers and sends no
    /// extra probes — same-seed runs are event-identical to a build
    /// without hedging.
    pub enabled: bool,
}

impl HedgeConfig {
    /// Hedging off (the default): no timers, no extra probes, no counters.
    pub fn disabled() -> HedgeConfig {
        HedgeConfig { enabled: false }
    }

    /// Hedging on.
    pub fn standard() -> HedgeConfig {
        HedgeConfig { enabled: true }
    }
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig::disabled()
    }
}

/// EWMA mean/variance over one peer's observable (round-trip times or
/// heartbeat inter-arrivals), in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PeerEstimator {
    mean_ms: f64,
    var_ms2: f64,
    samples: u64,
}

impl PeerEstimator {
    /// Fold one observation in. The first sample seeds the mean; later
    /// samples update mean and variance with the standard EWMA
    /// recurrences (`West 1979` form, so variance stays non-negative).
    pub(crate) fn observe(&mut self, sample: SimDuration) {
        let x = sample.as_millis_f64();
        if self.samples == 0 {
            self.mean_ms = x;
            self.var_ms2 = 0.0;
        } else {
            let delta = x - self.mean_ms;
            self.mean_ms += ALPHA * delta;
            self.var_ms2 = (1.0 - ALPHA) * (self.var_ms2 + ALPHA * delta * delta);
        }
        self.samples += 1;
    }

    /// Learned standard deviation, floored so a near-constant observable
    /// (σ ≈ 0) cannot make the estimator hair-triggered: at least 10 % of
    /// the mean and never below one millisecond.
    pub(crate) fn stddev_floored_ms(&self) -> f64 {
        self.var_ms2
            .max(0.0)
            .sqrt()
            .max(self.mean_ms * 0.1)
            .max(1.0)
    }

    /// Phi-style suspicion of a peer whose observable currently stands at
    /// `elapsed`: zero while inside the expected window
    /// (`MARGIN × mean`), then the number of floored standard deviations
    /// past it. Monotone in `elapsed`, so silence only ever accrues.
    pub(crate) fn suspicion(&self, elapsed: SimDuration) -> f64 {
        let expected = MARGIN * self.mean_ms;
        let excess = elapsed.as_millis_f64() - expected;
        if excess <= 0.0 {
            0.0
        } else {
            excess / self.stddev_floored_ms()
        }
    }

    /// The adaptive budget this estimator implies: expected value plus
    /// [`SIGMAS`] of headroom, in milliseconds.
    fn budget_ms(&self) -> f64 {
        MARGIN * self.mean_ms + SIGMAS * self.stddev_floored_ms()
    }
}

/// A bank of per-peer estimators keyed by an ordered id (actor id, site
/// index), plus the derived adaptive policies. `BTreeMap` keeps reporting
/// iteration deterministic.
#[derive(Clone, Debug)]
pub struct SuspicionTracker<K: Ord + Copy> {
    cfg: SuspicionConfig,
    peers: BTreeMap<K, PeerEstimator>,
}

impl<K: Ord + Copy> SuspicionTracker<K> {
    /// New tracker with the given knobs.
    pub fn new(cfg: SuspicionConfig) -> SuspicionTracker<K> {
        SuspicionTracker {
            cfg,
            peers: BTreeMap::new(),
        }
    }

    /// Whether the estimator is live (observations recorded, thresholds
    /// adapted).
    pub(crate) fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Record one observation for `key`. No-op when disabled, so the
    /// disabled tracker holds no state at all.
    pub(crate) fn observe(&mut self, key: K, sample: SimDuration) {
        if !self.cfg.enabled {
            return;
        }
        self.peers.entry(key).or_default().observe(sample);
    }

    /// Whether `key`'s estimator has enough samples to be trusted.
    pub fn is_warm(&self, key: K) -> bool {
        self.cfg.enabled
            && self.peers.get(&key).is_some_and(|e| e.samples >= MIN_SAMPLES)
    }

    /// Suspicion level of `key` whose observable currently stands at
    /// `elapsed`. Zero when disabled or cold — a cold estimator has no
    /// distribution to be suspicious against.
    pub(crate) fn suspicion(&self, key: K, elapsed: SimDuration) -> f64 {
        if !self.is_warm(key) {
            return 0.0;
        }
        self.peers[&key].suspicion(elapsed)
    }

    /// Adaptive silence threshold before `key` is declared failed:
    /// `MARGIN × mean + SIGMAS × σ` clamped into `[lo, hi]` when warm,
    /// `hi` (the configured fixed threshold) when disabled or cold. The
    /// `hi` clamp means adaptation can only ever *accelerate* detection,
    /// never delay it past the configured value.
    pub(crate) fn silence_threshold(
        &self,
        key: K,
        lo: SimDuration,
        hi: SimDuration,
    ) -> SimDuration {
        if !self.is_warm(key) {
            return hi;
        }
        let ms = self.peers[&key].budget_ms();
        SimDuration::from_nanos((ms * 1e6) as u64).max(lo).min(hi)
    }

    /// Adaptive per-remote attempt budget: the learned
    /// `MARGIN × mean + SIGMAS × σ` capped at the `configured` timeout
    /// (tighten only), or `configured` itself when disabled or cold.
    pub(crate) fn attempt_budget(&self, key: K, configured: SimDuration) -> SimDuration {
        if !self.is_warm(key) {
            return configured;
        }
        let ms = self.peers[&key].budget_ms();
        SimDuration::from_nanos((ms * 1e6) as u64)
            .max(SimDuration::from_millis(1))
            .min(configured)
    }

    /// Deterministic high quantile of `key`'s learned response
    /// distribution (`mean + sigmas × σ`): the delay a hedged request
    /// waits before firing. `None` when disabled or cold.
    pub(crate) fn latency_quantile(&self, key: K, sigmas: f64) -> Option<SimDuration> {
        if !self.is_warm(key) {
            return None;
        }
        let e = &self.peers[&key];
        let ms = e.mean_ms + sigmas * e.stddev_floored_ms();
        Some(SimDuration::from_nanos((ms * 1e6) as u64))
    }

    /// Drop `key`'s history (the peer crashed or left the overlay; its
    /// next incarnation starts cold).
    pub(crate) fn forget(&mut self, key: K) {
        self.peers.remove(&key);
    }
}

impl<K: Ord + Copy> Default for SuspicionTracker<K> {
    fn default() -> Self {
        SuspicionTracker::new(SuspicionConfig::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn warm_tracker(samples: u64, each: SimDuration) -> SuspicionTracker<u32> {
        let mut t = SuspicionTracker::new(SuspicionConfig::standard());
        for _ in 0..samples {
            t.observe(7, each);
        }
        t
    }

    #[test]
    fn inflated_rtts_raise_suspicion_without_any_drops() {
        // A peer that always answered in ~20 ms starts taking 300 ms —
        // nothing is dropped, only slower. Suspicion must rise from zero.
        let t = warm_tracker(20, ms(20));
        assert_eq!(t.suspicion(7, ms(20)), 0.0, "healthy RTT is unsuspicious");
        assert_eq!(t.suspicion(7, ms(39)), 0.0, "one margin beat absorbed");
        let inflated = t.suspicion(7, ms(300));
        assert!(
            inflated > 3.0,
            "10×-inflated latency must look suspicious: {inflated}"
        );
        // And monotone: worse is never less suspicious.
        assert!(t.suspicion(7, ms(600)) > inflated);
    }

    #[test]
    fn recovery_decays_suspicion() {
        // After a slow spell, healthy samples pull the distribution back
        // down and the same elapsed value stops being suspicious.
        let mut t = warm_tracker(20, ms(20));
        for _ in 0..10 {
            t.observe(7, ms(300));
        }
        let during = t.suspicion(7, ms(300));
        assert_eq!(during, 0.0, "the estimator adapted to the slow regime");
        for _ in 0..40 {
            t.observe(7, ms(20));
        }
        let after = t.suspicion(7, ms(300));
        assert!(
            after > 3.0,
            "recovered estimator flags 300 ms again: {after}"
        );
        assert_eq!(t.suspicion(7, ms(25)), 0.0, "healthy RTT is clean again");
    }

    #[test]
    fn cold_and_disabled_estimators_defer_to_configured_values() {
        let cold = warm_tracker(3, ms(20)); // below MIN_SAMPLES
        assert_eq!(cold.suspicion(7, ms(10_000)), 0.0);
        assert_eq!(cold.silence_threshold(7, ms(100), ms(16_000)), ms(16_000));
        assert_eq!(cold.attempt_budget(7, ms(500)), ms(500));
        assert_eq!(cold.latency_quantile(7, 3.0), None);

        let mut off: SuspicionTracker<u32> =
            SuspicionTracker::new(SuspicionConfig::disabled());
        for _ in 0..100 {
            off.observe(7, ms(20));
        }
        assert!(off.peers.is_empty(), "disabled tracker records nothing");
        assert_eq!(off.silence_threshold(7, ms(100), ms(16_000)), ms(16_000));
        assert_eq!(off.attempt_budget(7, ms(500)), ms(500));
    }

    #[test]
    fn warm_thresholds_tighten_but_respect_bounds() {
        // Heartbeats every ~5 s with little jitter: the silence threshold
        // drops from the configured 16 s toward ~2×5 s + headroom, but
        // never below `lo` and never above `hi`.
        let t = warm_tracker(20, ms(5_000));
        let th = t.silence_threshold(7, ms(1_000), ms(16_000));
        assert!(th < ms(16_000), "warm threshold tightens: {th}");
        assert!(th >= ms(10_000), "margin keeps a full missed beat: {th}");
        assert_eq!(
            t.silence_threshold(7, ms(12_000), ms(16_000)),
            ms(12_000),
            "lo clamp"
        );
        // Probe budget: a 40 ms peer tightens the 500 ms attempt timeout.
        let fast = warm_tracker(20, ms(40));
        let budget = fast.attempt_budget(7, ms(500));
        assert!(budget < ms(200), "budget tightened: {budget}");
        assert!(budget >= ms(80), "budget keeps the margin: {budget}");
        // Quantile used for hedge delays sits just above the mean.
        let q = fast.latency_quantile(7, 3.0).unwrap();
        assert!(q >= ms(40) && q < ms(100), "hedge quantile: {q}");
    }

    #[test]
    fn forget_resets_to_cold() {
        let mut t = warm_tracker(20, ms(20));
        assert!(t.is_warm(7));
        t.forget(7);
        assert!(!t.is_warm(7));
    }
}
