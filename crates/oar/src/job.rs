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
    fn display() {
        assert_eq!(JobId(42).to_string(), "job-42");
    }
}
