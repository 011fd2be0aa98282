//! # ttt-status — analyzing and summarizing results
//!
//! Slide 18 lists the requirements the stock Jenkins UI could not meet:
//! "per test status, for all sites/clusters; per site or per cluster
//! status, for all tests; historical perspective" — solved by "an external
//! status page that uses Jenkins' REST API". This crate is that page. It
//! consumes the CI server's read API and nothing else: each job's
//! [`ttt_ci::JobHistory`] as a `&[ttt_ci::FrozenJob]`, frozen live
//! (`CiServer::freeze_history`) or held by a read-plane epoch
//! (`snap.jobs`), and the epoch's own service rows. It keeps no second
//! copy of a history or of a service row; it aggregates them into a
//! test × target grid with success-rate history, and renders the ASCII
//! weather table of slide 19.

#![forbid(unsafe_code)]

pub mod grid;
pub mod history;
pub mod services;

pub use grid::{success_series, CellStatus, StatusGrid};
pub use history::{sparkline, worst_targets, HistoryReport};
pub use services::ServicesPanel;

/// Fixtures for the unit tests: histories that ran through a real server.
#[cfg(test)]
pub(crate) mod fixtures {
    use ttt_ci::{BuildResult, Cause, CiServer, FrozenJob, JobKind, JobSpec};
    use ttt_sim::SimTime;

    /// One job whose builds `(cell, result, day)` were triggered on `day`
    /// and, given a result, finished there; `None` leaves the build queued.
    pub(crate) fn job(name: &str, builds: &[(Option<&str>, Option<BuildResult>, u64)]) -> FrozenJob {
        let mut ci = CiServer::new(1);
        ci.register(JobSpec {
            name: name.into(),
            kind: JobKind::Freestyle,
            trigger: None,
        });
        for &(cell, result, day) in builds {
            ci.advance(SimTime::from_days(day));
            match cell {
                Some(cell) => ci.trigger_cells(name, Cause::Cron, &[cell.to_string()]),
                None => ci.trigger(name, Cause::Cron),
            };
            if let Some(result) = result {
                for work in ci.assign() {
                    ci.finish(&work.build, result, vec![]);
                }
            }
        }
        ci.freeze_history().remove(0)
    }
}
