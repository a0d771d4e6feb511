//! GRAM-equivalent job submission.
//!
//! The paper's workflows instantiate executable deployments "as GRAM
//! jobs" (Example 3), and the JavaCoG deployment channel submits install
//! scripts through GRAM. This module provides the job manager: a job names
//! the executable to run, and a submission state machine with queue/poll
//! overheads,
//! and validation against the target host (the executable must exist and
//! be executable).

use glare_fabric::{SimDuration, SimTime, SpanKind, TraceContext, TraceSink};

use crate::host::SiteHost;
use crate::vfs::VPath;

/// Cost of one job submission round-trip (auth, staging, LRM hand-off).
pub(crate) const SUBMIT_OVERHEAD: SimDuration = SimDuration::from_millis(1_100);

/// Status-poll granularity: a finished job is only *observed* finished at
/// the next poll, so short jobs round up — one reason the JavaCoG channel
/// is slower than Expect in Table 1.
pub(crate) const POLL_INTERVAL: SimDuration = SimDuration::from_millis(2_000);

/// Lifecycle of a GRAM job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Accepted, not yet active.
    Pending,
    /// Running on the site.
    Active,
    /// Finished successfully.
    Done,
}

/// A submitted job.
#[derive(Clone, Debug)]
pub struct GramJob {
    /// Job id, unique per manager.
    pub id: u64,
    /// Current state.
    pub state: JobState,
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

    /// Validate and accept a job running `executable`, an absolute path on
    /// the site. Returns the job id and the submission overhead the client
    /// pays before the job is even pending.
    pub(crate) fn submit(
        &mut self,
        host: &SiteHost,
        executable: &VPath,
    ) -> Result<(u64, SimDuration), GramError> {
        match host.vfs.read_file(executable) {
            Ok(f) if f.executable => {}
            Ok(_) => return Err(GramError::NotExecutable(executable.to_string())),
            Err(_) => return Err(GramError::NoSuchExecutable(executable.to_string())),
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.push(GramJob {
            id,
            state: JobState::Pending,
        });
        Ok((id, SUBMIT_OVERHEAD))
    }

    /// Like `GramService::submit`, but records the submission round-trip
    /// as a `gram.submit` service span into `trace`, laid out over
    /// `[at, at + overhead]` and parented under `parent`. Rejected
    /// submissions record nothing.
    pub fn submit_traced(
        &mut self,
        host: &SiteHost,
        executable: &VPath,
        trace: &mut TraceSink,
        parent: Option<TraceContext>,
        at: SimTime,
    ) -> Result<(u64, SimDuration), GramError> {
        let (id, overhead) = self.submit(host, executable)?;
        trace.record(
            parent,
            "gram.submit",
            SpanKind::Service,
            None,
            None,
            at,
            at + overhead,
            [("job", id.to_string().into()), ("executable", executable.to_string().into())],
        );
        Ok((id, overhead))
    }

    /// Move a pending job to active (the site started executing it).
    pub fn mark_active(&mut self, id: u64) -> Result<(), GramError> {
        self.transition(id, JobState::Pending, JobState::Active)
    }

    /// Mark an active job done.
    pub fn mark_done(&mut self, id: u64) -> Result<(), GramError> {
        self.transition(id, JobState::Active, JobState::Done)
    }

    /// Observed completion latency for a job whose true runtime is
    /// `actual`: submission overhead plus runtime rounded up to the poll
    /// grid.
    pub fn observed_latency(actual: SimDuration) -> SimDuration {
        let polls = actual.as_nanos().div_ceil(POLL_INTERVAL.as_nanos()).max(1);
        SUBMIT_OVERHEAD + POLL_INTERVAL * polls
    }

    fn job_mut(&mut self, id: u64) -> Result<&mut GramJob, GramError> {
        self.jobs
            .iter_mut()
            .find(|j| j.id == id)
            .ok_or(GramError::NoSuchJob(id))
    }

    fn transition(&mut self, id: u64, from: JobState, to: JobState) -> Result<(), GramError> {
        let job = self.job_mut(id)?;
        assert_eq!(
            job.state, from,
            "invalid GRAM transition for job {id}: {:?} -> {to:?}",
            job.state
        );
        job.state = to;
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

    #[test]
    fn lifecycle_happy_path() {
        let (h, p) = host_with_exe();
        let mut g = GramService::new();
        let (id, overhead) = g.submit(&h, &p).unwrap();
        assert_eq!(overhead, SUBMIT_OVERHEAD);
        assert_eq!(g.job_mut(id).unwrap().state, JobState::Pending);
        g.mark_active(id).unwrap();
        assert_eq!(g.job_mut(id).unwrap().state, JobState::Active);
        g.mark_done(id).unwrap();
        assert_eq!(g.job_mut(id).unwrap().state, JobState::Done);
    }

    #[test]
    fn validation_errors() {
        let (mut h, p) = host_with_exe();
        let mut g = GramService::new();
        assert!(matches!(
            g.submit(&h, &VPath::new("/nope")),
            Err(GramError::NoSuchExecutable(_))
        ));
        h.vfs.chmod_exec(&p, false).unwrap();
        assert!(matches!(
            g.submit(&h, &p),
            Err(GramError::NotExecutable(_))
        ));
        assert_eq!(g.mark_active(99), Err(GramError::NoSuchJob(99)));
    }

    #[test]
    #[should_panic(expected = "invalid GRAM transition")]
    fn done_before_active_panics() {
        let (h, p) = host_with_exe();
        let mut g = GramService::new();
        let (id, _) = g.submit(&h, &p).unwrap();
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
