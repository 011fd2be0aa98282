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
//!   never runs test logic itself;
//! * [`history`] — each job's builds as immutable sealed segments plus an
//!   open tail, so a reader freezes the whole history for the cost of the
//!   tail, with the three folds every reader shares (finished builds,
//!   their success series bucketed by a period, and its two ends).

#![forbid(unsafe_code)]

pub mod history;
pub mod matrix;
pub mod model;
pub mod server;

pub use history::{
    cell_target, success_series, tally, trend_ends, Finished, FrozenJob, JobHistory,
};
pub use matrix::{expand_axes, failed_cells, render_cell, Cell};
pub use model::{Axis, Build, BuildResult, BuildRef, Cause, CronTrigger, JobKind, JobSpec};
pub use server::{CiServer, WorkItem};
