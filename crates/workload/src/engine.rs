//! The workload engine: pure arrival streams and the tenant-load actor.
//!
//! Two layers. [`ArrivalStream`] is a *pure* function of the spec — it
//! forks its own RNG from the spec seed by tenant name, draws nothing
//! from the simulation kernel, and two generations of the same spec are
//! byte-identical. [`TenantLoad`] is the DES actor that replays a
//! stream against a [`glare_core::node::GlareNode`], honours
//! `RetryAfter` hints from
//! admission control through [`RetryPolicy::next_backoff_after`], and
//! accumulates per-tenant goodput/shed/latency statistics.

use std::collections::HashMap;
use std::sync::Arc;

use glare_core::admission::TenantClass;
use glare_core::node::{NodeMsg, QueryScope};
use glare_core::retry::RetryPolicy;
use glare_fabric::sync::Mutex;
use glare_fabric::{
    Actor, ActorId, Ctx, Envelope, SimDuration, SimRng, SimTime, SpanHandle, SpanKind, TimerToken,
};

use crate::spec::{ArrivalProcess, LoopMode, TenantSpec, WorkloadSpec};
use crate::zipf::ZipfSampler;

/// One scheduled request: when it's offered and which catalogue entry it
/// asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Arrival {
    /// Offer instant.
    pub at: SimTime,
    /// 0-based index into the spec's activity catalogue.
    pub activity: usize,
}

/// Hard cap on generated arrivals per tenant — a mis-specified rate
/// (say, 1e9 Hz for an hour) fails loudly instead of exhausting memory.
pub const MAX_ARRIVALS_PER_TENANT: usize = 2_000_000;

/// A tenant's precomputed arrival schedule.
#[derive(Clone, Debug)]
pub struct ArrivalStream {
    /// The schedule, in time order.
    pub arrivals: Vec<Arrival>,
}

impl ArrivalStream {
    /// Generate tenant `index` of `spec`'s schedule. Pure: the stream
    /// forks `SimRng::from_seed(spec.seed)` by the tenant's name, so the
    /// result depends only on `(seed, tenant name, spec parameters)` —
    /// not on other tenants, kernel state, or generation order.
    pub fn generate(spec: &WorkloadSpec, index: usize) -> ArrivalStream {
        let tenant = &spec.tenants[index];
        let mut rng = SimRng::from_seed(spec.seed).fork(&format!("workload/{}", tenant.name));
        let zipf = ZipfSampler::new(spec.activities.len(), spec.zipf_exponent);
        let mut arrivals = Vec::new();
        let mut t = SimTime::ZERO;
        let horizon = SimTime::ZERO + spec.duration;
        loop {
            let gap = draw_gap(&mut rng, tenant, t);
            t += gap;
            if t >= horizon {
                break;
            }
            arrivals.push(Arrival {
                at: t,
                activity: zipf.sample(&mut rng),
            });
            assert!(
                arrivals.len() <= MAX_ARRIVALS_PER_TENANT,
                "tenant {} exceeds {MAX_ARRIVALS_PER_TENANT} arrivals — check rate_hz",
                tenant.name
            );
        }
        ArrivalStream { arrivals }
    }

    /// Stable digest of the schedule (FNV-1a over nanos and activity
    /// indices) — the byte-identity tests compare these across runs.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for a in &self.arrivals {
            mix(a.at.as_nanos());
            mix(a.activity as u64);
        }
        h
    }
}

/// Draw the next inter-arrival gap at instant `t` (instantaneous rate =
/// baseline × modulation factor).
fn draw_gap(rng: &mut SimRng, tenant: &TenantSpec, t: SimTime) -> SimDuration {
    assert!(tenant.rate_hz > 0.0, "tenant rate must be positive");
    let rate = tenant.rate_hz * tenant.modulation.factor(t);
    let mean = 1.0 / rate;
    let secs = match tenant.arrival {
        ArrivalProcess::Poisson => rng.exponential(mean),
        ArrivalProcess::Uniform => (0.5 + rng.unit()) * mean,
    };
    // Floor at 1µs so a pathological draw can't produce a zero-length
    // gap and wedge the generator at one instant.
    SimDuration::from_secs_f64(secs.max(1e-6))
}

/// Shared measurement sink for one tenant.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Arrivals offered (open loop: scheduled fires; closed loop: sends).
    pub offered: u64,
    /// Messages sent, including retries after shed.
    pub sent: u64,
    /// Successful responses.
    pub responses: u64,
    /// Responses with at least one deployment.
    pub hits: u64,
    /// `QueryRejected` messages received (sheds observed).
    pub shed: u64,
    /// Re-sends made after honouring a retry-after hint.
    pub retries: u64,
    /// Requests abandoned after the retry budget.
    pub dropped: u64,
    /// Offer-to-response latencies, in completion order.
    pub latencies: Vec<SimDuration>,
}

impl TenantStats {
    /// New shared handle.
    pub fn shared() -> Arc<Mutex<TenantStats>> {
        Arc::new(Mutex::new(TenantStats::default()))
    }
}

/// In-flight request bookkeeping.
struct InFlight {
    offered_at: SimTime,
    activity: usize,
    attempt: u32,
    prev_backoff: SimDuration,
    span: SpanHandle,
}

/// The tenant-load DES actor: replays an [`ArrivalStream`] against one
/// entry node, tagging requests with the tenant's class.
///
/// *Open loop*: fires at every scheduled arrival no matter how many are
/// outstanding. *Closed loop*: keeps at most `concurrency` outstanding
/// and offers the next one think-gap after a slot frees (the gaps reuse
/// the precomputed schedule's spacing).
///
/// On `QueryRejected` the actor honours the server's retry-after hint:
/// the next attempt waits `max(jittered backoff, hint)` via
/// [`RetryPolicy::next_backoff_after`], until the policy's attempt
/// budget runs out and the request is dropped.
pub struct TenantLoad {
    node: ActorId,
    class: TenantClass,
    loop_mode: LoopMode,
    activities: Arc<Vec<String>>,
    schedule: Vec<Arrival>,
    cursor: usize,
    retry: RetryPolicy,
    rng: SimRng,
    in_flight: HashMap<u64, InFlight>,
    next_req: u64,
    stats: Arc<Mutex<TenantStats>>,
}

impl TenantLoad {
    /// Build tenant `index` of `spec`, targeting `node`. The retry
    /// policy only governs shed-retries; pass
    /// [`RetryPolicy::disabled`] to drop shed requests immediately.
    pub fn new(
        spec: &WorkloadSpec,
        index: usize,
        node: ActorId,
        retry: RetryPolicy,
        stats: Arc<Mutex<TenantStats>>,
    ) -> TenantLoad {
        let tenant = &spec.tenants[index];
        let stream = ArrivalStream::generate(spec, index);
        TenantLoad {
            node,
            class: tenant.class,
            loop_mode: tenant.loop_mode,
            activities: Arc::new(spec.activities.clone()),
            schedule: stream.arrivals,
            cursor: 0,
            retry,
            // Separate fork from the arrival stream: retry jitter draws
            // must not perturb the schedule's byte-identity.
            rng: SimRng::from_seed(spec.seed).fork(&format!("workload-retry/{}", tenant.name)),
            in_flight: HashMap::new(),
            next_req: 0,
            stats,
        }
    }

    fn concurrency_cap(&self) -> usize {
        match self.loop_mode {
            LoopMode::Open => usize::MAX,
            LoopMode::Closed { concurrency } => concurrency.max(1) as usize,
        }
    }

    /// Arm a timer for the next scheduled arrival, if any.
    fn arm_next(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(a) = self.schedule.get(self.cursor) {
            let delay = a.at.saturating_since(ctx.now());
            ctx.timer_after(delay, "offer");
        }
    }

    /// Offer the arrival under the cursor (if the loop mode allows).
    fn offer(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(&a) = self.schedule.get(self.cursor) {
            if a.at > ctx.now() {
                break;
            }
            if self.in_flight.len() >= self.concurrency_cap() {
                // Closed loop saturated: this arrival is deferred until
                // a slot frees (offered load self-throttles).
                return;
            }
            self.cursor += 1;
            self.send_request(ctx, a.activity, ctx.now(), 1, SimDuration::ZERO);
            self.stats.lock().offered += 1;
        }
        self.arm_next(ctx);
    }

    fn send_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        activity: usize,
        offered_at: SimTime,
        attempt: u32,
        prev_backoff: SimDuration,
    ) {
        let req_id = self.next_req;
        self.next_req += 1;
        let name = &self.activities[activity];
        let span = ctx.root_span("tenant.query", SpanKind::Request);
        if ctx.trace_enabled() {
            ctx.span_attr(span, "activity", name);
            ctx.span_attr(span, "class", self.class.label());
            ctx.span_attr(span, "attempt", &attempt.to_string());
        }
        self.in_flight.insert(
            req_id,
            InFlight {
                offered_at,
                activity,
                attempt,
                prev_backoff,
                span,
            },
        );
        self.stats.lock().sent += 1;
        ctx.send(
            self.node,
            NodeMsg::QueryDeployments {
                activity: name.clone(),
                req_id,
                reply_to: ctx.self_id,
                scope: QueryScope::Full,
                class: self.class,
            },
        );
    }

    /// A slot freed (response, drop): closed-loop tenants may now offer
    /// a deferred arrival.
    fn slot_freed(&mut self, ctx: &mut Ctx<'_>) {
        if matches!(self.loop_mode, LoopMode::Closed { .. }) {
            self.offer(ctx);
        }
    }
}

impl Actor for TenantLoad {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.downcast::<NodeMsg>() {
            Ok((_, NodeMsg::QueryResponse { req_id, deployments })) => {
                if let Some(f) = self.in_flight.remove(&req_id) {
                    ctx.span_attr(f.span, "hit", if deployments.is_empty() { "0" } else { "1" });
                    ctx.end_span(f.span);
                    let mut s = self.stats.lock();
                    s.responses += 1;
                    if !deployments.is_empty() {
                        s.hits += 1;
                    }
                    s.latencies.push(ctx.now().since(f.offered_at));
                    drop(s);
                    self.slot_freed(ctx);
                }
            }
            Ok((_, NodeMsg::QueryRejected { req_id, retry_after })) => {
                if let Some(f) = self.in_flight.remove(&req_id) {
                    ctx.span_attr(f.span, "shed", "1");
                    ctx.end_span(f.span);
                    self.stats.lock().shed += 1;
                    let next_attempt = f.attempt + 1;
                    let elapsed = ctx.now().since(f.offered_at);
                    if self.retry.retries_enabled()
                        && self.retry.may_attempt(next_attempt, elapsed)
                    {
                        // Honour the server's hint: back off at least
                        // retry_after (clamped to the remaining deadline
                        // budget), plus the policy's jitter.
                        let delay = self.retry.next_backoff_after(
                            &mut self.rng,
                            f.prev_backoff,
                            retry_after,
                            elapsed,
                        );
                        ctx.timer_after_then(delay, "reoffer", req_id);
                        // Park the state under the old id until the
                        // timer fires (the re-send allocates a new id);
                        // parked, it still counts against the closed-loop
                        // cap.
                        self.in_flight.insert(
                            req_id,
                            InFlight {
                                prev_backoff: delay,
                                attempt: next_attempt,
                                span: f.span,
                                ..f
                            },
                        );
                    } else {
                        self.stats.lock().dropped += 1;
                        self.slot_freed(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, tag: &str) {
        if tag == "offer" {
            self.offer(ctx);
            return;
        }
        if tag == "reoffer" {
            let req_id = ctx.take_continuation::<u64>();
            if let Some(f) = req_id.and_then(|id| self.in_flight.remove(&id)) {
                self.stats.lock().retries += 1;
                self.send_request(ctx, f.activity, f.offered_at, f.attempt, f.prev_backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TenantSpec;
    use glare_fabric::percentile;

    fn spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec::new(seed, SimDuration::from_secs(60), 8)
            .tenant(TenantSpec::open("gold", TenantClass::Gold, 5.0))
            .tenant(
                TenantSpec::open("be", TenantClass::BestEffort, 20.0)
                    .with_flash(SimTime::from_secs(20), SimDuration::from_secs(5), 4.0),
            )
    }

    #[test]
    fn same_seed_streams_are_byte_identical() {
        // Satellite: same-seed arrival streams byte-identical.
        let s = spec(42);
        for idx in 0..s.tenants.len() {
            let a = ArrivalStream::generate(&s, idx);
            let b = ArrivalStream::generate(&s, idx);
            assert_eq!(a.arrivals, b.arrivals, "tenant {idx}");
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ArrivalStream::generate(&spec(1), 0);
        let b = ArrivalStream::generate(&spec(2), 0);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn stream_is_independent_of_sibling_tenants() {
        // Dropping the other tenant must not change this tenant's stream
        // (forks are by name, not draw order).
        let full = spec(7);
        let solo = WorkloadSpec::new(7, SimDuration::from_secs(60), 8)
            .tenant(TenantSpec::open("gold", TenantClass::Gold, 5.0));
        assert_eq!(
            ArrivalStream::generate(&full, 0).digest(),
            ArrivalStream::generate(&solo, 0).digest(),
        );
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let s = spec(9);
        let stream = ArrivalStream::generate(&s, 0);
        // 5 Hz over 60 s ≈ 300 arrivals; Poisson sd ≈ 17.
        let n = stream.arrivals.len() as f64;
        assert!((230.0..=370.0).contains(&n), "got {n} arrivals");
        // Sorted by construction.
        assert!(stream.arrivals.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn flash_crowd_raises_local_density() {
        let s = spec(11);
        let stream = ArrivalStream::generate(&s, 1);
        let in_window = stream
            .arrivals
            .iter()
            .filter(|a| a.at >= SimTime::from_secs(20) && a.at < SimTime::from_secs(25))
            .count();
        let before = stream
            .arrivals
            .iter()
            .filter(|a| a.at >= SimTime::from_secs(10) && a.at < SimTime::from_secs(15))
            .count();
        // 4x multiplier: the window should clearly outdraw a plain
        // 5-second slice (both ~100 vs ~400 expected).
        assert!(
            in_window > before * 2,
            "flash window {in_window} vs baseline {before}"
        );
    }

    #[test]
    fn percentiles_and_digest_edge_cases() {
        let mut st = TenantStats::default();
        assert_eq!(percentile(&st.latencies, 0.5), None);
        st.latencies.push(SimDuration::from_millis(10));
        st.latencies.push(SimDuration::from_millis(90));
        assert_eq!(percentile(&st.latencies, 0.0), Some(SimDuration::from_millis(10)));
        assert_eq!(percentile(&st.latencies, 1.0), Some(SimDuration::from_millis(90)));
        let empty = ArrivalStream { arrivals: vec![] };
        assert_eq!(empty.digest(), empty.digest());
    }
}
