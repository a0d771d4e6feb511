//! Per-site runtime state: liveness, CPU scheduling and the Unix-style
//! 1-minute load average the paper reports in Fig. 13.
//!
//! CPU-bound work (request handling, notification fan-out, compilation) is
//! priced in reference-CPU time and submitted with [`SiteRuntime::submit`].
//! The runtime keeps one virtual run queue per site: each of the site's
//! cores is busy until some instant, new work starts on the earliest-free
//! core, and the number of unfinished work items is the run-queue length.
//! The kernel samples that length every 5 simulated seconds and folds it
//! into an exponentially-weighted 1-minute load average, exactly like the
//! Unix `uptime` figure the paper measured.

use crate::time::{SimDuration, SimTime};
use crate::topology::SiteSpec;

/// Sampling interval of the load average, matching the classic kernel value.
pub const LOAD_SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// `exp(-5/60)` — decay of the 1-minute load average per 5 s sample.
const LOAD_DECAY_1M: f64 = 0.920_044_414_629_323_1;

/// The crash epoch a [`WorkTicket`] was issued in: all of a ticket that
/// [`SiteRuntime::complete`] reads, and only a ticket yields one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TicketEpoch(u64);

/// Outcome of submitting work to a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkTicket {
    /// When the work item actually starts executing on a core (equals the
    /// submission instant when a core was free; later under queueing).
    pub started_at: SimTime,
    /// When the work item will complete.
    pub completes_at: SimTime,
    /// Site epoch at submission; a crash bumps the epoch and invalidates
    /// outstanding tickets.
    pub epoch: TicketEpoch,
}

/// Mutable runtime state of one simulated site.
#[derive(Clone, Debug)]
pub struct SiteRuntime {
    up: bool,
    epoch: u64,
    speed_factor: f64,
    /// Gray-failure multiplier on compute cost (1.0 = healthy). Set by
    /// [`Fault::SlowSite`](crate::fault::Fault) windows via the kernel.
    degrade_factor: f64,
    /// Instant each core becomes free.
    core_free_at: Vec<SimTime>,
    /// Number of submitted-but-unfinished work items.
    run_queue: u32,
    /// EWMA 1-minute load average.
    load_1m: f64,
    /// Totals for metrics.
    work_items_done: u64,
    busy_time: SimDuration,
}

impl SiteRuntime {
    /// Fresh runtime for a site described by `spec`.
    pub fn new(spec: &SiteSpec) -> Self {
        assert!(spec.cores > 0, "site {:?} must have at least one core", spec.name);
        assert!(
            spec.speed_factor > 0.0,
            "site {:?} speed factor must be positive",
            spec.name
        );
        SiteRuntime {
            up: true,
            epoch: 0,
            speed_factor: spec.speed_factor,
            degrade_factor: 1.0,
            core_free_at: vec![SimTime::ZERO; spec.cores as usize],
            run_queue: 0,
            load_1m: 0.0,
            work_items_done: 0,
            busy_time: SimDuration::ZERO,
        }
    }

    /// Whether the site is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Current crash epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current run-queue length (executing + waiting work items).
    pub fn run_queue_len(&self) -> u32 {
        self.run_queue
    }

    /// Current 1-minute load average.
    pub fn load_average_1m(&self) -> f64 {
        self.load_1m
    }

    /// Total completed work items.
    pub fn work_items_done(&self) -> u64 {
        self.work_items_done
    }

    /// Total CPU-busy time accumulated across cores.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Current gray-failure compute multiplier (1.0 when healthy).
    pub fn degrade_factor(&self) -> f64 {
        self.degrade_factor
    }

    /// Whether the site is currently degraded (slowed but not down).
    pub fn is_degraded(&self) -> bool {
        self.degrade_factor > 1.0
    }

    /// Install (or clear, with `1.0`) a gray-failure compute multiplier.
    /// Work submitted while degraded costs `factor ×` its healthy price;
    /// already-queued work keeps its original completion time.
    pub fn set_degrade_factor(&mut self, factor: f64) {
        assert!(factor >= 1.0, "degrade factor must be ≥ 1.0");
        self.degrade_factor = factor;
    }

    /// Submit a CPU-bound work item costing `cost` of reference-CPU time.
    ///
    /// Returns when it will complete, or `None` when the site is down.
    /// The caller must later call [`SiteRuntime::complete`] with the
    /// returned ticket's epoch at that instant.
    pub fn submit(&mut self, now: SimTime, cost: SimDuration) -> Option<WorkTicket> {
        if !self.up {
            return None;
        }
        let scaled = cost.mul_f64(self.degrade_factor / self.speed_factor);
        // Earliest-free core runs the item (FCFS per site).
        let (idx, &free_at) = self
            .core_free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("site has at least one core");
        let start = free_at.max(now);
        let end = start + scaled;
        self.core_free_at[idx] = end;
        self.run_queue += 1;
        self.busy_time += scaled;
        Some(WorkTicket {
            started_at: start,
            completes_at: end,
            epoch: TicketEpoch(self.epoch),
        })
    }

    /// Mark a previously submitted work item finished, given its ticket's
    /// `epoch`. Returns `false` (and changes nothing) when that is a
    /// pre-crash epoch.
    pub fn complete(&mut self, epoch: TicketEpoch) -> bool {
        if epoch.0 != self.epoch {
            return false;
        }
        assert!(self.run_queue > 0, "complete() without matching submit()");
        self.run_queue -= 1;
        self.work_items_done += 1;
        true
    }

    /// Crash the site: all in-flight work is lost and outstanding tickets
    /// are invalidated via the epoch bump.
    pub fn crash(&mut self, now: SimTime) {
        self.up = false;
        self.epoch += 1;
        self.run_queue = 0;
        for free in &mut self.core_free_at {
            *free = now;
        }
    }

    /// Bring the site back up after a crash.
    pub fn restart(&mut self) {
        self.up = true;
    }

    /// Fold one 5-second sample of the run queue into the 1-minute load
    /// average (Unix formula: `load = load*e^(-5/60) + n*(1-e^(-5/60))`).
    pub fn sample_load(&mut self) {
        let n = f64::from(self.run_queue);
        self.load_1m = self.load_1m * LOAD_DECAY_1M + n * (1.0 - LOAD_DECAY_1M);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SiteSpec;

    fn rt(cores: u32, speed: f64) -> SiteRuntime {
        let mut spec = SiteSpec::reference("t");
        spec.cores = cores;
        spec.speed_factor = speed;
        SiteRuntime::new(&spec)
    }

    #[test]
    fn single_core_serializes_work() {
        let mut s = rt(1, 1.0);
        let t0 = SimTime::ZERO;
        let a = s.submit(t0, SimDuration::from_millis(10)).unwrap();
        let b = s.submit(t0, SimDuration::from_millis(10)).unwrap();
        assert_eq!(a.completes_at, SimTime::from_millis(10));
        assert_eq!(b.completes_at, SimTime::from_millis(20), "FCFS queueing");
        assert_eq!(s.run_queue_len(), 2);
        assert!(s.complete(a.epoch));
        assert!(s.complete(b.epoch));
        assert_eq!(s.run_queue_len(), 0);
        assert_eq!(s.work_items_done(), 2);
    }

    #[test]
    fn multi_core_runs_in_parallel() {
        let mut s = rt(2, 1.0);
        let t0 = SimTime::ZERO;
        let a = s.submit(t0, SimDuration::from_millis(10)).unwrap();
        let b = s.submit(t0, SimDuration::from_millis(10)).unwrap();
        let c = s.submit(t0, SimDuration::from_millis(10)).unwrap();
        assert_eq!(a.completes_at, SimTime::from_millis(10));
        assert_eq!(b.completes_at, SimTime::from_millis(10));
        assert_eq!(c.completes_at, SimTime::from_millis(20), "third waits");
    }

    #[test]
    fn speed_factor_scales_cost() {
        let mut fast = rt(1, 2.0);
        let t = fast.submit(SimTime::ZERO, SimDuration::from_millis(10)).unwrap();
        assert_eq!(t.completes_at, SimTime::from_millis(5));
        let mut slow = rt(1, 0.5);
        let t = slow.submit(SimTime::ZERO, SimDuration::from_millis(10)).unwrap();
        assert_eq!(t.completes_at, SimTime::from_millis(20));
    }

    #[test]
    fn degrade_factor_inflates_new_work_only() {
        let mut s = rt(1, 1.0);
        let before = s.submit(SimTime::ZERO, SimDuration::from_millis(10)).unwrap();
        assert_eq!(before.completes_at, SimTime::from_millis(10));
        s.set_degrade_factor(4.0);
        assert!(s.is_degraded());
        let during = s.submit(SimTime::ZERO, SimDuration::from_millis(10)).unwrap();
        assert_eq!(
            during.completes_at,
            SimTime::from_millis(50),
            "queued behind 10ms, then 40ms degraded execution"
        );
        s.set_degrade_factor(1.0);
        assert!(!s.is_degraded());
        let after = s.submit(SimTime::ZERO, SimDuration::from_millis(10)).unwrap();
        assert_eq!(after.completes_at, SimTime::from_millis(60));
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn degrade_factor_below_one_rejected() {
        rt(1, 1.0).set_degrade_factor(0.5);
    }

    #[test]
    fn crash_invalidates_tickets_and_rejects_work() {
        let mut s = rt(1, 1.0);
        let t = s.submit(SimTime::ZERO, SimDuration::from_millis(10)).unwrap();
        s.crash(SimTime::from_millis(5));
        assert!(!s.is_up());
        assert!(!s.complete(t.epoch), "pre-crash ticket is void");
        assert!(s.submit(SimTime::from_millis(6), SimDuration::from_millis(1)).is_none());
        s.restart();
        assert!(s.is_up());
        let t2 = s
            .submit(SimTime::from_millis(10), SimDuration::from_millis(1))
            .unwrap();
        assert!(s.complete(t2.epoch));
    }

    #[test]
    fn load_average_converges_to_run_queue() {
        let mut s = rt(1, 1.0);
        // Hold 8 items on the queue and sample for 10 simulated minutes.
        for _ in 0..8 {
            s.submit(SimTime::ZERO, SimDuration::from_secs(10_000)).unwrap();
        }
        for _ in 0..120 {
            s.sample_load();
        }
        assert!(
            (s.load_average_1m() - 8.0).abs() < 0.01,
            "load {} should converge to 8",
            s.load_average_1m()
        );
    }

    #[test]
    fn load_average_decays_when_idle() {
        let mut s = rt(1, 1.0);
        let t = s.submit(SimTime::ZERO, SimDuration::from_secs(1)).unwrap();
        for _ in 0..12 {
            s.sample_load();
        }
        let busy = s.load_average_1m();
        s.complete(t.epoch);
        for _ in 0..120 {
            s.sample_load();
        }
        assert!(s.load_average_1m() < busy * 0.01, "load decays toward zero");
    }

    #[test]
    #[should_panic(expected = "without matching submit")]
    fn unbalanced_complete_panics() {
        let mut s = rt(1, 1.0);
        let t = s.submit(SimTime::ZERO, SimDuration::from_millis(1)).unwrap();
        s.complete(t.epoch);
        s.complete(t.epoch);
    }
}
