//! Core CI data model: jobs, builds, results, causes, triggers.

use std::fmt;
use std::sync::Arc;
use ttt_sim::{SimDuration, SimTime};

/// Result of a build, mirroring Jenkins' weather.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BuildResult {
    /// Everything passed.
    Success,
    /// Ran, but something was off — the paper uses this for testbed jobs
    /// that could not be scheduled immediately and were cancelled.
    Unstable,
    /// The test failed.
    Failure,
    /// Killed before completion.
    Aborted,
}

impl BuildResult {
    /// Whether this result counts as "successful" in the status page's
    /// success-rate metric (only `Success` does).
    pub fn is_success(self) -> bool {
        matches!(self, BuildResult::Success)
    }
}

impl fmt::Display for BuildResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BuildResult::Success => "SUCCESS",
            BuildResult::Unstable => "UNSTABLE",
            BuildResult::Failure => "FAILURE",
            BuildResult::Aborted => "ABORTED",
        };
        f.write_str(s)
    }
}

/// Why a build was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Fired by the job's cron trigger.
    Cron,
    /// Triggered manually through the web interface.
    Manual,
    /// Triggered by the external scheduler (the paper's custom tool).
    ExternalScheduler,
    /// Matrix-Reloaded retry of failed cells.
    Retry,
}

/// One axis of a matrix job, e.g. `image ∈ {debian8-min, …}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Axis name.
    pub name: String,
    /// Axis values.
    pub values: Vec<String>,
}

impl Axis {
    /// Convenience constructor.
    pub fn new(name: &str, values: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Axis {
            name: name.to_string(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }
}

/// Job flavour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Single-configuration job.
    Freestyle,
    /// Matrix job: one build per combination of axis values.
    Matrix {
        /// The axes (slide 15's Matrix Project).
        axes: Vec<Axis>,
    },
}

/// Time-based trigger: fire every `period`, phase-shifted by `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CronTrigger {
    /// Interval between firings.
    pub period: SimDuration,
    /// Offset of the first firing.
    pub offset: SimDuration,
}

impl CronTrigger {
    /// The first firing strictly after `after`, or `None` for a dormant
    /// (zero-period) trigger.
    pub fn next_firing(&self, after: SimTime) -> Option<SimTime> {
        if self.period.is_zero() {
            return None;
        }
        let period = self.period.as_nanos();
        let offset = self.offset.as_nanos();
        // First multiple k with offset + k*period > after.
        let after_n = after.as_nanos();
        let k = if after_n < offset {
            0
        } else {
            (after_n - offset) / period + 1
        };
        Some(SimTime::from_nanos(offset + k * period))
    }

    /// Instants in `(after, until]` when the trigger fires.
    pub fn firings(&self, after: SimTime, until: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        let Some(first) = self.next_firing(after) else {
            return out;
        };
        let period = self.period.as_nanos();
        let mut t = first.as_nanos();
        while t <= until.as_nanos() {
            out.push(SimTime::from_nanos(t));
            t += period;
        }
        out
    }
}

/// A job definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique job name, e.g. `"test_environments"`.
    pub name: String,
    /// Freestyle or matrix.
    pub kind: JobKind,
    /// Optional time trigger (the baseline scheduling mode).
    pub trigger: Option<CronTrigger>,
}

/// Reference to a concrete build (one cell of a matrix counts as a build).
/// Clones share the names: a server writes each job's and each cell's text
/// once, for all of their builds.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BuildRef {
    /// Job name.
    pub job: Arc<str>,
    /// Build number within the job (1-based).
    pub number: u32,
    /// Rendered cell key for matrix builds (e.g. `"cluster=grisou,image=debian9-min"`).
    pub cell: Option<Arc<str>>,
}

impl fmt::Display for BuildRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cell {
            Some(c) => write!(f, "{}#{}[{}]", self.job, self.number, c),
            None => write!(f, "{}#{}", self.job, self.number),
        }
    }
}

/// A status-page target ([`crate::cell_target`]) by number: its position
/// in the [`crate::TargetTable`] of the server that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TargetId(pub u16);

/// A finished (or running) build record.
#[derive(Debug, Clone, PartialEq)]
pub struct Build {
    /// Identity.
    pub r#ref: BuildRef,
    /// The status-page target of its cell, fixed when its (job, cell) pair
    /// was first named. It sits in bytes the record pads anyway.
    pub target: TargetId,
    /// Why it ran.
    pub cause: Cause,
    /// When it entered the queue.
    pub queued_at: SimTime,
    /// When an executor picked it up.
    pub started_at: Option<SimTime>,
    /// When it finished.
    pub finished_at: Option<SimTime>,
    /// Final result (None while running).
    pub result: Option<BuildResult>,
    /// Captured log lines (diagnostics for operators).
    pub log: Vec<String>,
}

impl Build {
    /// Execution duration, if finished.
    pub fn duration(&self) -> Option<SimDuration> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_order_and_success() {
        assert!(BuildResult::Success.is_success());
        assert!(!BuildResult::Unstable.is_success());
        assert_eq!(BuildResult::Failure.to_string(), "FAILURE");
    }

    #[test]
    fn cron_firings_in_window() {
        let t = CronTrigger {
            period: SimDuration::from_hours(6),
            offset: SimDuration::from_hours(1),
        };
        // Fires at 1, 7, 13, 19, 25...
        let f = t.firings(SimTime::ZERO, SimTime::from_hours(24));
        assert_eq!(
            f,
            vec![
                SimTime::from_hours(1),
                SimTime::from_hours(7),
                SimTime::from_hours(13),
                SimTime::from_hours(19),
            ]
        );
        // Window boundaries: after is exclusive, until inclusive.
        let f = t.firings(SimTime::from_hours(1), SimTime::from_hours(7));
        assert_eq!(f, vec![SimTime::from_hours(7)]);
    }

    #[test]
    fn zero_period_never_fires() {
        let t = CronTrigger {
            period: SimDuration::ZERO,
            offset: SimDuration::ZERO,
        };
        assert!(t.firings(SimTime::ZERO, SimTime::from_days(10)).is_empty());
    }

    #[test]
    fn build_timings() {
        let mut b = Build {
            r#ref: BuildRef {
                job: "stdenv".into(),
                number: 3,
                cell: None,
            },
            target: TargetId(0),
            cause: Cause::Cron,
            queued_at: SimTime::from_mins(10),
            started_at: None,
            finished_at: None,
            result: None,
            log: vec![],
        };
        b.started_at = Some(SimTime::from_mins(25));
        b.finished_at = Some(SimTime::from_mins(40));
        assert_eq!(b.duration().unwrap(), SimDuration::from_mins(15));
    }

    #[test]
    fn build_ref_display() {
        let r = BuildRef {
            job: "environments".into(),
            number: 12,
            cell: Some("cluster=grisou,image=debian9-min".into()),
        };
        assert_eq!(r.to_string(), "environments#12[cluster=grisou,image=debian9-min]");
    }
}
