//! # ttt-ci — the automation server
//!
//! The paper builds its framework on Jenkins (slides 14–15, 20): matrix
//! jobs (`test_environments`: 14 images × 32 clusters = 448 configurations),
//! the "Matrix Reloaded" plugin to retry failed sub-configurations, a build
//! queue in front of a bounded executor pool, long-term result history, and
//! a REST API the status page consumes. This crate implements that subset:
//!
//! * [`model`] — jobs, builds, results, causes, cron triggers;
//! * [`matrix`] — axis expansion and failed-cell selection;
//! * [`server`] — queue + executors + history + triggers. The server hands
//!   work items to the campaign orchestrator and receives completions; it
//!   never runs test logic itself;
//! * [`history`] — each job's builds as immutable sealed segments plus an
//!   open tail, so a reader freezes the whole history for the cost of the
//!   tail;
//! * [`rest`] — serializable views mirroring Jenkins' `/api/json`, derived
//!   from the history on demand.

#![forbid(unsafe_code)]

pub mod history;
pub mod matrix;
pub mod model;
pub mod rest;
pub mod server;

pub use history::{FrozenJob, JobHistory};
pub use matrix::{expand_axes, failed_cells, render_cell, Cell};
pub use model::{Axis, Build, BuildResult, BuildRef, Cause, CronTrigger, JobKind, JobSpec};
pub use rest::{cell_target, BuildView, JobView};
pub use server::{CiServer, WorkItem};
