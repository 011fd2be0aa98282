//! # ttt-jobsched — the external test scheduler
//!
//! The paper's main custom development (slides 16–17). Jenkins' time-based
//! scheduling is insufficient because tests need testbed resources that are
//! heavily used: "one cannot just submit a job and wait because it would
//! use a Jenkins worker and it would compete with user requests".
//!
//! This tool is "implemented in an external tool that triggers Jenkins
//! builds. [It] queries the job status and the testbed status, and decides
//! to submit a job based on: resources availability, retry policy
//! (exponential backoff), additional policies (peak hours, avoid several
//! jobs on same site). If the Jenkins build creates a testbed job, but that
//! testbed job fails to be scheduled immediately, it is cancelled and the
//! build is marked as unstable."
//!
//! * [`entry`] — one schedulable test configuration (CI job + cell +
//!   resource request + cadence);
//! * [`scheduler`] — the decision loop and per-configuration retry state;
//! * [`trigger`] — the launch policy a campaign runs: that scheduler, or
//!   the Jenkins cron baseline it is measured against.

#![forbid(unsafe_code)]

mod due;
pub mod entry;
pub mod scheduler;
pub mod trigger;

pub use entry::TestEntry;
pub use scheduler::{Decision, ExternalScheduler, PolicyConfig, SchedulerStats};
pub use trigger::Trigger;
