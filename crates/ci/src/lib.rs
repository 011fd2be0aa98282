//! # ttt-ci — the automation server
//!
//! The paper builds its framework on Jenkins (slides 14–15, 20): matrix
//! jobs (`test_environments`: 14 images × 32 clusters = 448 configurations),
//! the "Matrix Reloaded" plugin to retry failed sub-configurations, a build
//! queue in front of a bounded executor pool, long-term result history, and
//! a REST API the status page consumes. This crate implements that subset;
//! its read API is a job's [`JobHistory`] — live on the server or frozen
//! for a reader — and the status page, the query engine and the digests
//! all consume exactly that: no second copy of a history exists.
//!
//! * [`model`] — jobs, builds, results, causes, cron triggers;
//! * [`matrix`] — axis expansion and failed-cell selection;
//! * [`server`] — queue + executors + history + triggers. The server hands
//!   work items to the campaign orchestrator and receives completions; it
//!   never runs test logic itself. Each (job, cell) pair is a [`CellKey`]
//!   made once, which a caller triggers by and every work item carries;
//! * [`history`] — each job's builds as immutable sealed segments plus an
//!   open tail, so a reader freezes the whole history for the cost of the
//!   tail, with the folds every reader shares (finished builds, their tally
//!   per status-page target, their success series bucketed by a period,
//!   and its two ends) and the table that numbers those targets.

#![forbid(unsafe_code)]

pub mod history;
pub mod matrix;
pub mod model;
pub mod server;

pub use history::{
    cell_target, success_series, tally, trend_ends, Finished, FrozenJob, JobHistory, Segment,
    TargetTable,
};
pub use matrix::{expand_axes, failed_cells, render_cell, Cell};
pub use model::{
    Axis, Build, BuildResult, BuildRef, Cause, CronTrigger, JobKind, JobSpec, TargetId,
};
pub use server::{CellKey, CiServer, WorkItem};
