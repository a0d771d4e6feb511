//! GRAM-equivalent job submission.
//!
//! The paper's workflows instantiate executable deployments "as GRAM
//! jobs" (Example 3), and the JavaCoG deployment channel submits install
//! scripts through GRAM. This module provides the job manager: job
//! descriptions, a submission state machine with queue/poll overheads,
//! and validation against the target host (the executable must exist and
//! be executable).

use glare_fabric::{SimDuration, SimTime, SpanKind, TraceContext, TraceSink};

use crate::host::SiteHost;
use crate::vfs::VPath;

/// Cost of one job submission round-trip (auth, staging, LRM hand-off).
pub const SUBMIT_OVERHEAD: SimDuration = SimDuration::from_millis(1_100);

/// Status-poll granularity: a finished job is only *observed* finished at
/// the next poll, so short jobs round up — one reason the JavaCoG channel
/// is slower than Expect in Table 1.
pub const POLL_INTERVAL: SimDuration = SimDuration::from_millis(2_000);

/// Lifecycle of a GRAM job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Accepted, not yet active.
    Pending,
    /// Running on the site.
    Active,
    /// Finished successfully.
    Done,
    /// Finished with an error.
    Failed,
}

/// A job request: run an executable (already deployed on the site).
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Absolute path of the executable on the target site.
    pub executable: VPath,
    /// Arguments (recorded; semantics belong to the application).
    pub args: Vec<String>,
    /// Declared CPU cost of the run.
    pub cpu_cost: SimDuration,
}

/// A submitted job.
#[derive(Clone, Debug)]
pub struct GramJob {
    /// Job id, unique per manager.
    pub id: u64,
    /// The request.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Diagnostic output.
    pub diagnostics: String,
}

/// Errors from submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GramError {
    /// Executable missing on the site.
    NoSuchExecutable(String),
    /// File exists but is not executable.
    NotExecutable(String),
    /// Unknown job id.
    NoSuchJob(u64),
}

impl std::fmt::Display for GramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GramError::NoSuchExecutable(p) => write!(f, "no such executable: {p}"),
            GramError::NotExecutable(p) => write!(f, "not executable: {p}"),
            GramError::NoSuchJob(id) => write!(f, "no such job: {id}"),
        }
    }
}

impl std::error::Error for GramError {}

/// Per-site job manager.
#[derive(Clone, Debug, Default)]
pub struct GramService {
    next_id: u64,
    jobs: Vec<GramJob>,
}

impl GramService {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate and accept a job. Returns the job id and the submission
    /// overhead the client pays before the job is even pending.
    pub fn submit(
        &mut self,
        host: &SiteHost,
        spec: JobSpec,
    ) -> Result<(u64, SimDuration), GramError> {
        match host.vfs.read_file(&spec.executable) {
            Ok(f) if f.executable => {}
            Ok(_) => return Err(GramError::NotExecutable(spec.executable.to_string())),
            Err(_) => return Err(GramError::NoSuchExecutable(spec.executable.to_string())),
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.push(GramJob {
            id,
            spec,
            state: JobState::Pending,
            diagnostics: String::new(),
        });
        Ok((id, SUBMIT_OVERHEAD))
    }

    /// Like [`GramService::submit`], but records the submission round-trip
    /// as a `gram.submit` service span into `trace`, laid out over
    /// `[at, at + overhead]` and parented under `parent`. Rejected
    /// submissions record nothing.
    pub fn submit_traced(
        &mut self,
        host: &SiteHost,
        spec: JobSpec,
        trace: &mut TraceSink,
        parent: Option<TraceContext>,
        at: SimTime,
    ) -> Result<(u64, SimDuration), GramError> {
        let executable = spec.executable.to_string();
        let (id, overhead) = self.submit(host, spec)?;
        trace.record(
            parent,
            "gram.submit",
            SpanKind::Service,
            None,
            None,
            at,
            at + overhead,
            [("job", id.to_string().into()), ("executable", executable.into())],
        );
        Ok((id, overhead))
    }

    /// Move a pending job to active (the site started executing it).
    pub fn mark_active(&mut self, id: u64) -> Result<(), GramError> {
        self.transition(id, JobState::Pending, JobState::Active, "")
    }

    /// Mark an active job done.
    pub fn mark_done(&mut self, id: u64) -> Result<(), GramError> {
        self.transition(id, JobState::Active, JobState::Done, "")
    }

    /// Mark a job failed from any live state.
    pub fn mark_failed(&mut self, id: u64, why: &str) -> Result<(), GramError> {
        let job = self.job_mut(id)?;
        job.state = JobState::Failed;
        job.diagnostics = why.to_owned();
        Ok(())
    }

    /// Current state of a job.
    pub fn poll(&self, id: u64) -> Result<JobState, GramError> {
        self.jobs
            .iter()
            .find(|j| j.id == id)
            .map(|j| j.state)
            .ok_or(GramError::NoSuchJob(id))
    }

    /// Full job record.
    pub fn job(&self, id: u64) -> Result<&GramJob, GramError> {
        self.jobs
            .iter()
            .find(|j| j.id == id)
            .ok_or(GramError::NoSuchJob(id))
    }

    /// Observed completion latency for a job whose true runtime is
    /// `actual`: submission overhead plus runtime rounded up to the poll
    /// grid.
    pub fn observed_latency(actual: SimDuration) -> SimDuration {
        let polls = actual.as_nanos().div_ceil(POLL_INTERVAL.as_nanos()).max(1);
        SUBMIT_OVERHEAD + POLL_INTERVAL * polls
    }

    /// All jobs (for tests/monitoring).
    pub fn jobs(&self) -> &[GramJob] {
        &self.jobs
    }

    fn job_mut(&mut self, id: u64) -> Result<&mut GramJob, GramError> {
        self.jobs
            .iter_mut()
            .find(|j| j.id == id)
            .ok_or(GramError::NoSuchJob(id))
    }

    fn transition(
        &mut self,
        id: u64,
        from: JobState,
        to: JobState,
        diag: &str,
    ) -> Result<(), GramError> {
        let job = self.job_mut(id)?;
        assert_eq!(
            job.state, from,
            "invalid GRAM transition for job {id}: {:?} -> {to:?}",
            job.state
        );
        job.state = to;
        if !diag.is_empty() {
            job.diagnostics = diag.to_owned();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::VFile;
    use glare_fabric::topology::Platform;

    fn host_with_exe() -> (SiteHost, VPath) {
        let mut h = SiteHost::new("s0", Platform::intel_linux_32());
        let p = VPath::new("/opt/deployments/povray/bin/povray");
        h.vfs.mkdir_p(&p.parent().unwrap()).unwrap();
        h.vfs
            .write_file(
                &p,
                VFile {
                    size: 10,
                    content: b"ELF".to_vec(),
                    executable: true,
                },
            )
            .unwrap();
        (h, p)
    }

    fn spec(p: &VPath) -> JobSpec {
        JobSpec {
            executable: p.clone(),
            args: vec!["scene.pov".into()],
            cpu_cost: SimDuration::from_secs(5),
        }
    }

    #[test]
    fn lifecycle_happy_path() {
        let (h, p) = host_with_exe();
        let mut g = GramService::new();
        let (id, overhead) = g.submit(&h, spec(&p)).unwrap();
        assert_eq!(overhead, SUBMIT_OVERHEAD);
        assert_eq!(g.poll(id).unwrap(), JobState::Pending);
        g.mark_active(id).unwrap();
        assert_eq!(g.poll(id).unwrap(), JobState::Active);
        g.mark_done(id).unwrap();
        assert_eq!(g.poll(id).unwrap(), JobState::Done);
    }

    #[test]
    fn validation_errors() {
        let (mut h, p) = host_with_exe();
        let mut g = GramService::new();
        assert!(matches!(
            g.submit(&h, spec(&VPath::new("/nope"))),
            Err(GramError::NoSuchExecutable(_))
        ));
        h.vfs.chmod_exec(&p, false).unwrap();
        assert!(matches!(
            g.submit(&h, spec(&p)),
            Err(GramError::NotExecutable(_))
        ));
        assert!(matches!(g.poll(99), Err(GramError::NoSuchJob(99))));
    }

    #[test]
    fn failure_from_any_state() {
        let (h, p) = host_with_exe();
        let mut g = GramService::new();
        let (id, _) = g.submit(&h, spec(&p)).unwrap();
        g.mark_failed(id, "node crashed").unwrap();
        assert_eq!(g.poll(id).unwrap(), JobState::Failed);
        assert_eq!(g.job(id).unwrap().diagnostics, "node crashed");
    }

    #[test]
    #[should_panic(expected = "invalid GRAM transition")]
    fn done_before_active_panics() {
        let (h, p) = host_with_exe();
        let mut g = GramService::new();
        let (id, _) = g.submit(&h, spec(&p)).unwrap();
        g.mark_done(id).unwrap();
    }

    #[test]
    fn observed_latency_rounds_to_poll_grid() {
        // 100ms job: 1 poll.
        assert_eq!(
            GramService::observed_latency(SimDuration::from_millis(100)),
            SUBMIT_OVERHEAD + POLL_INTERVAL
        );
        // 2001ms job: 2 polls.
        assert_eq!(
            GramService::observed_latency(SimDuration::from_millis(2_001)),
            SUBMIT_OVERHEAD + POLL_INTERVAL * 2
        );
        // Exactly one interval: 1 poll.
        assert_eq!(
            GramService::observed_latency(POLL_INTERVAL),
            SUBMIT_OVERHEAD + POLL_INTERVAL
        );
        // Zero-length job still costs one poll.
        assert_eq!(
            GramService::observed_latency(SimDuration::ZERO),
            SUBMIT_OVERHEAD + POLL_INTERVAL
        );
    }
}
