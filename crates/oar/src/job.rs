//! Job model and lifecycle.

use crate::ast::ResourceRequest;
use std::fmt;
use std::sync::Arc;
use ttt_sim::SimTime;
use ttt_testbed::NodeId;

/// Unique job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Submission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Queue {
    /// Normal user queue.
    Default,
    /// Low-priority, preemptible work.
    Besteffort,
    /// Operator/administrative jobs (the testing framework submits here).
    Admin,
}

/// Who the job belongs to, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// A real (synthetic) user experiment.
    User,
    /// A job submitted by the testing framework.
    Test,
}

/// Lifecycle states, mirroring OAR's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Submitted, not yet planned.
    Waiting,
    /// Planned with a future start (reservation in the Gantt).
    Scheduled,
    /// Resources allocated, job executing.
    Running,
    /// Completed normally (possibly early).
    Terminated,
    /// Failed.
    Error,
    /// Cancelled before completion (e.g. by the external test scheduler
    /// when the job could not start immediately).
    Canceled,
}

impl JobState {
    /// Whether the state is terminal.
    pub fn is_final(self) -> bool {
        matches!(
            self,
            JobState::Terminated | JobState::Error | JobState::Canceled
        )
    }
}

/// A job known to the OAR server.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique id.
    pub id: JobId,
    /// Owner name (user or `"ci"`), shared with the server's other jobs
    /// of the same owner.
    pub user: Arc<str>,
    /// Submission queue.
    pub queue: Queue,
    /// User experiment or framework test.
    pub kind: JobKind,
    /// The resource request, shared with whoever submitted it.
    pub request: Arc<ResourceRequest>,
    /// Current state.
    pub state: JobState,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Planned start (meaningful in `Scheduled` and later states).
    pub scheduled_start: Option<SimTime>,
    /// Actual start.
    pub started_at: Option<SimTime>,
    /// Actual end.
    pub ended_at: Option<SimTime>,
    /// Nodes assigned (fixed at scheduling time).
    pub assigned: Vec<NodeId>,
}

impl Job {
    /// Waiting time: from submission to actual start (None until started).
    pub fn waiting_time(&self) -> Option<ttt_sim::SimDuration> {
        self.started_at.map(|s| s.since(self.submitted_at))
    }

    /// Runtime so far / total (None until started).
    // detlint: allow(pub-fn-only-tests-call) -- the scheduler property test checks every job ran its walltime through it
    pub fn runtime(&self) -> Option<ttt_sim::SimDuration> {
        match (self.started_at, self.ended_at) {
            (Some(s), Some(e)) => Some(e.since(s)),
            _ => None,
        }
    }
}

/// Jobs in the first segment of a [`JobTable`]; segment `k` holds
/// `FIRST_SEGMENT << k` of them.
const FIRST_SEGMENT: usize = 16;

/// Every job a server was ever given, addressed by id.
///
/// A server numbers its jobs densely from 1, so job `id` sits at index
/// `id - 1`. The indices are cut into geometric segments, each allocated
/// once at its full size, so the table grows without ever moving a job,
/// holds at most about twice what it stores, and finds a job with one
/// `leading_zeros` and two indexings. (A single vector finds a job as
/// fast, but copies every job it holds each time it doubles.)
#[derive(Debug, Default)]
pub struct JobTable {
    /// Segment `k` holds the jobs of indices `16 * (2^k - 1)` onwards.
    segments: Vec<Vec<Job>>,
    len: usize,
}

impl JobTable {
    /// Number of jobs held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no job was ever added.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The job `id`; `None` for an id the table does not hold.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        let (k, at) = self.locate(id)?;
        Some(&self.segments[k][at])
    }

    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        let (k, at) = self.locate(id)?;
        Some(&mut self.segments[k][at])
    }

    /// Every job, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.segments.iter().flatten()
    }

    /// The jobs from `id` (at least 1) on, in id order: none when `id` is
    /// past the last job.
    pub(crate) fn iter_from(&self, id: JobId) -> impl Iterator<Item = &Job> {
        let (k, at) = self.locate(id).unwrap_or((self.segments.len(), 0));
        let first = self.segments.get(k).map_or(&[][..], |segment| &segment[at..]);
        first.iter().chain(self.segments.iter().skip(k + 1).flatten())
    }

    /// Add `job`, whose id must be the next one: `len() + 1`.
    pub(crate) fn push(&mut self, job: Job) {
        debug_assert_eq!(job.id.0, self.len as u64 + 1, "job ids are dense from 1");
        let (k, _) = segment_of(self.len);
        if k == self.segments.len() {
            self.segments.push(Vec::with_capacity(FIRST_SEGMENT << k));
        }
        self.segments[k].push(job);
        self.len += 1;
    }

    /// The segment and place in it of job `id`, if the table holds it.
    fn locate(&self, id: JobId) -> Option<(usize, usize)> {
        let index = usize::try_from(id.0.checked_sub(1)?).ok()?;
        (index < self.len).then(|| segment_of(index))
    }
}

/// The segment holding table index `index`, and the index's place in it.
fn segment_of(index: usize) -> (usize, usize) {
    let n = index + FIRST_SEGMENT;
    let k = (n.ilog2() - FIRST_SEGMENT.ilog2()) as usize;
    (k, n - (FIRST_SEGMENT << k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, ResourceRequest};
    use ttt_sim::SimDuration;

    fn job() -> Job {
        Job {
            id: JobId(1),
            user: "alice".into(),
            queue: Queue::Default,
            kind: JobKind::User,
            request: ResourceRequest::nodes(Expr::True, 1, SimDuration::from_hours(1)).into(),
            state: JobState::Waiting,
            submitted_at: SimTime::from_hours(1),
            scheduled_start: None,
            started_at: None,
            ended_at: None,
            assigned: vec![],
        }
    }

    #[test]
    fn final_states() {
        assert!(JobState::Terminated.is_final());
        assert!(JobState::Error.is_final());
        assert!(JobState::Canceled.is_final());
        assert!(!JobState::Waiting.is_final());
        assert!(!JobState::Running.is_final());
        assert!(!JobState::Scheduled.is_final());
    }

    #[test]
    fn waiting_and_runtime() {
        let mut j = job();
        assert!(j.waiting_time().is_none());
        j.started_at = Some(SimTime::from_hours(3));
        assert_eq!(j.waiting_time().unwrap(), SimDuration::from_hours(2));
        assert!(j.runtime().is_none());
        j.ended_at = Some(SimTime::from_hours(4));
        assert_eq!(j.runtime().unwrap(), SimDuration::from_hours(1));
    }

    #[test]
    fn segments_double_from_sixteen() {
        assert_eq!(segment_of(0), (0, 0));
        assert_eq!(segment_of(15), (0, 15));
        assert_eq!(segment_of(16), (1, 0));
        assert_eq!(segment_of(47), (1, 31));
        assert_eq!(segment_of(48), (2, 0));
        // Every index has one place, in order: segment `k` fills 16 << k.
        let mut next = (0, 0);
        for index in 0..100_000 {
            assert_eq!(segment_of(index), next, "{index}");
            next = if next.1 + 1 == FIRST_SEGMENT << next.0 { (next.0 + 1, 0) } else { (next.0, next.1 + 1) };
        }
    }

    #[test]
    fn display() {
        assert_eq!(JobId(42).to_string(), "job-42");
    }
}
