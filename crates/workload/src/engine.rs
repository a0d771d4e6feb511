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

use std::collections::VecDeque;
use std::sync::Arc;

use glare_core::admission::TenantClass;
use glare_core::node::{NodeMsg, QueryScope};
use glare_core::retry::RetryPolicy;
use glare_fabric::sync::Mutex;
use glare_fabric::{
    Actor, ActorId, Ctx, Envelope, SimDuration, SimRng, SimTime, SpanHandle, SpanKind, TimerToken,
};

use crate::spec::{TenantSpec, WorkloadSpec};
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

/// Zipf exponent over every catalogue: the classic web/Grid skew.
const ZIPF_EXPONENT: f64 = 1.0;

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
        let zipf = ZipfSampler::new(spec.activities.len(), ZIPF_EXPONENT);
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
}

/// Draw the next exponential inter-arrival gap at instant `t` (a Poisson
/// process at the instantaneous rate = baseline × modulation factor).
fn draw_gap(rng: &mut SimRng, tenant: &TenantSpec, t: SimTime) -> SimDuration {
    assert!(tenant.rate_hz > 0.0, "tenant rate must be positive");
    let rate = tenant.rate_hz * tenant.modulation.factor(t);
    let secs = rng.exponential(1.0 / rate);
    // Floor at 1µs so a pathological draw can't produce a zero-length
    // gap and wedge the generator at one instant.
    SimDuration::from_secs_f64(secs.max(1e-6))
}

/// Shared measurement sink for one tenant.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Arrivals offered (scheduled fires).
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

/// A tenant's requests in flight, indexed by request id: ids are assigned
/// here, one more than the last, so the request with id `base + i` sits in
/// `slots[i]`. A slot empties when its request is answered, dropped or
/// re-sent under a new id; empty slots at the front are dropped (an id
/// below the oldest in flight is never in flight again), so the slab spans
/// the ids assigned since the oldest request still in flight.
#[derive(Default)]
struct InFlightSlab {
    /// The id of `slots[0]`; `base + slots.len()` is the next id assigned.
    base: u64,
    slots: VecDeque<Option<InFlight>>,
}

impl InFlightSlab {
    /// Track `f` under the next request id, which is returned.
    fn push(&mut self, f: InFlight) -> u64 {
        let id = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(f));
        id
    }

    /// The request in flight under `id`; `None` for an id answered,
    /// dropped, re-sent or never assigned.
    fn get_mut(&mut self, id: u64) -> Option<&mut InFlight> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Stop tracking `id`, handing back its request.
    fn remove(&mut self, id: u64) -> Option<InFlight> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        let f = self.slots.get_mut(i)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(f)
    }
}

/// The tenant-load DES actor: replays an [`ArrivalStream`] against one
/// entry node, tagging requests with the tenant's class. The loop is
/// open: it fires at every scheduled arrival no matter how many are
/// outstanding, so offered load does not back off when the system slows
/// (the regime where overload control matters).
///
/// On `QueryRejected` the actor honours the server's retry-after hint:
/// the next attempt waits `max(jittered backoff, hint)` via
/// [`RetryPolicy::next_backoff_after`], until the policy's attempt
/// budget runs out and the request is dropped.
pub struct TenantLoad {
    node: ActorId,
    class: TenantClass,
    /// The catalogue's names, shared with every request that carries one.
    activities: Vec<Arc<str>>,
    schedule: Vec<Arrival>,
    cursor: usize,
    retry: RetryPolicy,
    rng: SimRng,
    in_flight: InFlightSlab,
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
            activities: spec.activities.iter().map(|a| Arc::from(a.as_str())).collect(),
            schedule: stream.arrivals,
            cursor: 0,
            retry,
            // Separate fork from the arrival stream: retry jitter draws
            // must not perturb the schedule's byte-identity.
            rng: SimRng::from_seed(spec.seed).fork(&format!("workload-retry/{}", tenant.name)),
            in_flight: InFlightSlab::default(),
            stats,
        }
    }

    /// Arm a timer for the next scheduled arrival, if any.
    fn arm_next(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(a) = self.schedule.get(self.cursor) {
            let delay = a.at.saturating_since(ctx.now());
            ctx.timer_after(delay, "offer");
        }
    }

    /// Offer every arrival due by now.
    fn offer(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(&a) = self.schedule.get(self.cursor) {
            if a.at > ctx.now() {
                break;
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
        let name = &self.activities[activity];
        let span = ctx.root_span("tenant.query", SpanKind::Request);
        if ctx.trace_enabled() {
            ctx.span_attr(span, "activity", name);
            ctx.span_attr(span, "class", self.class.label());
            ctx.span_attr(span, "attempt", &attempt.to_string());
        }
        let req_id = self.in_flight.push(InFlight {
            offered_at,
            activity,
            attempt,
            prev_backoff,
            span,
        });
        self.stats.lock().sent += 1;
        ctx.send(
            self.node,
            NodeMsg::QueryDeployments {
                activity: Arc::clone(name),
                req_id,
                reply_to: ctx.self_id,
                scope: QueryScope::Full,
                class: self.class,
            },
        );
    }
}

impl Actor for TenantLoad {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        match env.downcast::<NodeMsg>() {
            Ok((_, NodeMsg::QueryResponse { req_id, deployments })) => {
                if let Some(f) = self.in_flight.remove(req_id) {
                    ctx.span_attr(f.span, "hit", if deployments.is_empty() { "0" } else { "1" });
                    ctx.end_span(f.span);
                    let mut s = self.stats.lock();
                    s.responses += 1;
                    if !deployments.is_empty() {
                        s.hits += 1;
                    }
                    s.latencies.push(ctx.now().since(f.offered_at));
                }
            }
            Ok((_, NodeMsg::QueryRejected { req_id, retry_after })) => {
                let Some(f) = self.in_flight.get_mut(req_id) else {
                    return;
                };
                ctx.span_attr(f.span, "shed", "1");
                ctx.end_span(f.span);
                self.stats.lock().shed += 1;
                let next_attempt = f.attempt + 1;
                let elapsed = ctx.now().since(f.offered_at);
                if self.retry.retries_enabled() && self.retry.may_attempt(next_attempt, elapsed) {
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
                    // Park the state in its slot until the timer fires (the
                    // re-send takes a new id).
                    f.prev_backoff = delay;
                    f.attempt = next_attempt;
                } else {
                    self.in_flight.remove(req_id);
                    self.stats.lock().dropped += 1;
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
            if let Some(f) = req_id.and_then(|id| self.in_flight.remove(id)) {
                self.stats.lock().retries += 1;
                self.send_request(ctx, f.activity, f.offered_at, f.attempt, f.prev_backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Flash, TenantSpec};
    use glare_fabric::percentile;

    fn spec(seed: u64) -> WorkloadSpec {
        let mut be = TenantSpec::open("be", TenantClass::BestEffort, 20.0);
        be.modulation.flash = Some(Flash {
            at: SimTime::from_secs(20),
            duration: SimDuration::from_secs(5),
            multiplier: 4.0,
        });
        WorkloadSpec::new(seed, SimDuration::from_secs(60), 8)
            .tenant(TenantSpec::open("gold", TenantClass::Gold, 5.0))
            .tenant(be)
    }

    #[test]
    fn same_seed_streams_are_byte_identical() {
        // Satellite: same-seed arrival streams byte-identical.
        let s = spec(42);
        for idx in 0..s.tenants.len() {
            let a = ArrivalStream::generate(&s, idx);
            let b = ArrivalStream::generate(&s, idx);
            assert_eq!(a.arrivals, b.arrivals, "tenant {idx}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ArrivalStream::generate(&spec(1), 0);
        let b = ArrivalStream::generate(&spec(2), 0);
        assert_ne!(a.arrivals, b.arrivals);
    }

    #[test]
    fn stream_is_independent_of_sibling_tenants() {
        // Dropping the other tenant must not change this tenant's stream
        // (forks are by name, not draw order).
        let full = spec(7);
        let solo = WorkloadSpec::new(7, SimDuration::from_secs(60), 8)
            .tenant(TenantSpec::open("gold", TenantClass::Gold, 5.0));
        assert_eq!(
            ArrivalStream::generate(&full, 0).arrivals,
            ArrivalStream::generate(&solo, 0).arrivals,
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

    /// A node stand-in: holds each query for `hold(req_id)`, then sheds it
    /// if its id is `shed` and answers it empty otherwise.
    struct Stub {
        hold: fn(u64) -> SimDuration,
        shed: Option<u64>,
    }

    impl Actor for Stub {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            if let Ok((_, NodeMsg::QueryDeployments { req_id, reply_to, .. })) = env.downcast() {
                ctx.timer_after_then((self.hold)(req_id), "answer", (reply_to, req_id));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken, _tag: &str) {
            let (to, req_id) = ctx.take_continuation::<(ActorId, u64)>().expect("a held query");
            let msg = if self.shed == Some(req_id) {
                NodeMsg::QueryRejected {
                    req_id,
                    retry_after: SimDuration::from_millis(100),
                }
            } else {
                NodeMsg::QueryResponse {
                    req_id,
                    deployments: Vec::new(),
                }
            };
            ctx.send(to, msg);
        }
    }

    /// Run tenant 0 of `spec` against `stub` until `until`.
    fn run_against(spec: &WorkloadSpec, stub: Stub, until: SimTime) -> Arc<Mutex<TenantStats>> {
        let mut sim = glare_fabric::Simulation::new(glare_fabric::Topology::uniform(1), 1);
        let site = glare_fabric::SiteId(0);
        let node = sim.add_actor(site, Box::new(stub));
        let stats = TenantStats::shared();
        let load = TenantLoad::new(spec, 0, node, RetryPolicy::standard(), stats.clone());
        sim.add_actor(site, Box::new(load));
        sim.start();
        sim.run_until(until);
        stats
    }

    fn in_flight() -> InFlight {
        InFlight {
            offered_at: SimTime::ZERO,
            activity: 0,
            attempt: 1,
            prev_backoff: SimDuration::ZERO,
            span: SpanHandle::NONE,
        }
    }

    /// A shed request is parked in its own slot until its `"reoffer"`
    /// fires, also when it is the oldest in flight — the slot the slab
    /// drops first once it empties, so taking it out and putting it back
    /// would lose it.
    #[test]
    fn a_shed_oldest_request_is_parked_reoffered_and_counted_once() {
        let spec = WorkloadSpec::new(3, SimDuration::from_secs(1), 4)
            .tenant(TenantSpec::open("t", TenantClass::Gold, 50.0));
        let arrivals = ArrivalStream::generate(&spec, 0).arrivals;
        // Request 0 is shed 100 ms after it arrives and every other request
        // is answered after a second, so the shed finds request 0 the
        // oldest of several in flight.
        assert!(arrivals[2].at < arrivals[0].at + SimDuration::from_millis(100));
        let stub = Stub {
            hold: |id| SimDuration::from_millis(if id == 0 { 100 } else { 1_000 }),
            shed: Some(0),
        };
        let stats = run_against(&spec, stub, SimTime::from_secs(10));
        let s = stats.lock();
        assert_eq!(s.offered, arrivals.len() as u64);
        assert_eq!((s.shed, s.retries, s.dropped), (1, 1, 0));
        assert_eq!(s.sent, s.offered + 1, "request 0 was sent twice");
        assert_eq!(s.responses, s.offered, "every request answered once");
    }

    /// Ids below the oldest request in flight, ids whose request left, and
    /// ids not assigned yet read `None`; ids carry on after the slab empties.
    #[test]
    fn stale_and_never_assigned_ids_read_none() {
        let mut slab = InFlightSlab::default();
        let ids: Vec<u64> = (0..4).map(|_| slab.push(in_flight())).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert!(slab.remove(0).is_some() && slab.remove(2).is_some());
        assert!(slab.get_mut(0).is_none(), "stale: below the oldest in flight");
        assert!(slab.get_mut(2).is_none(), "answered");
        assert!(slab.get_mut(4).is_none() && slab.get_mut(u64::MAX).is_none(), "never assigned");
        assert!(slab.remove(0).is_none() && slab.remove(2).is_none() && slab.remove(9).is_none());
        assert!(slab.get_mut(1).is_some() && slab.get_mut(3).is_some());
        assert_eq!(slab.slots.iter().flatten().count(), 2);
        assert!(slab.remove(1).is_some() && slab.remove(3).is_some());
        assert_eq!(slab.slots.iter().flatten().count(), 0);
        assert_eq!(slab.push(in_flight()), 4);
    }

    #[test]
    fn latency_percentile_edge_cases() {
        let mut st = TenantStats::default();
        assert_eq!(percentile(&st.latencies, 0.5), None);
        st.latencies.push(SimDuration::from_millis(10));
        st.latencies.push(SimDuration::from_millis(90));
        assert_eq!(percentile(&st.latencies, 0.0), Some(SimDuration::from_millis(10)));
        assert_eq!(percentile(&st.latencies, 1.0), Some(SimDuration::from_millis(90)));
    }
}
