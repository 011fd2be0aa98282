//! REST-like serializable views, mirroring Jenkins' `/api/json`.
//!
//! Slide 18: the status page is "an external status page that uses
//! Jenkins' REST API" — it consumes these views, never the server's
//! internals.

use crate::history::JobHistory;
use crate::model::{Build, BuildResult, Cause};
use crate::server::CiServer;
use serde::{Deserialize, Serialize};
use ttt_sim::SimTime;

/// Extract the status-page target key from a matrix cell string: the
/// cluster or site axis value (images group under their cluster),
/// `"global"` for cell-less builds. Shared by the status grid and the
/// snapshot query engine so both planes bucket builds identically, and
/// borrowed from the cell so bucketing a history allocates nothing.
pub fn cell_target(cell: Option<&str>) -> &str {
    let Some(cell) = cell else {
        return "global";
    };
    for part in cell.split(',') {
        if let Some(v) = part.strip_prefix("cluster=") {
            return v;
        }
        if let Some(v) = part.strip_prefix("site=") {
            return v;
        }
        if let Some(v) = part.strip_prefix("scope=") {
            return v;
        }
    }
    cell
}

/// View of one build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildView {
    /// Build number.
    pub number: u32,
    /// Matrix cell key, if any.
    pub cell: Option<String>,
    /// Trigger cause.
    pub cause: Cause,
    /// Final result (None while queued/running).
    pub result: Option<BuildResult>,
    /// Queue entry time.
    pub queued_at: SimTime,
    /// Completion time, if finished.
    pub finished_at: Option<SimTime>,
    /// Log lines.
    pub log: Vec<String>,
}

impl From<&Build> for BuildView {
    fn from(b: &Build) -> Self {
        BuildView {
            number: b.r#ref.number,
            cell: b.r#ref.cell.clone(),
            cause: b.cause,
            result: b.result,
            queued_at: b.queued_at,
            finished_at: b.finished_at,
            log: b.log.clone(),
        }
    }
}

/// View of one job with its whole history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Job name.
    pub name: String,
    /// Builds in creation order.
    pub builds: Vec<BuildView>,
}

impl JobView {
    /// Render one job's history, live or frozen.
    pub fn from_history(name: &str, history: &JobHistory) -> JobView {
        JobView {
            name: name.to_string(),
            builds: history.iter().map(BuildView::from).collect(),
        }
    }

    /// Extract the view of one job from the server.
    pub fn from_server(server: &CiServer, job: &str) -> JobView {
        Self::from_history(job, server.history(job))
    }

    /// Extract every job's view (the full API dump), in registration order
    /// — a stable, run-to-run deterministic order, so status-page rows
    /// never shuffle between identical campaigns. (Histories only exist
    /// for registered jobs, so registration order covers everything.)
    pub fn all_from_server(server: &CiServer) -> Vec<JobView> {
        server
            .job_names_in_order()
            .iter()
            .map(|j| JobView::from_server(server, j))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{JobKind, JobSpec};

    #[test]
    fn views_serialize_to_json() {
        let mut s = CiServer::new(1);
        s.register(JobSpec {
            name: "disk".into(),
            kind: JobKind::Freestyle,
            trigger: None,
        });
        s.trigger("disk", Cause::Manual);
        let w = s.assign();
        s.finish(&w[0].build, BuildResult::Failure, vec!["write cache off".into()]);
        let view = JobView::from_server(&s, "disk");
        let json = serde_json::to_string(&view).unwrap();
        let back: JobView = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
        assert_eq!(back.builds.len(), 1);
        assert_eq!(back.builds[0].result, Some(BuildResult::Failure));
        assert_eq!(back.builds[0].log, vec!["write cache off".to_string()]);
    }

    #[test]
    fn all_jobs_dump() {
        let mut s = CiServer::new(1);
        for name in ["a", "b", "c"] {
            s.register(JobSpec {
                name: name.into(),
                kind: JobKind::Freestyle,
                trigger: None,
            });
        }
        let views = JobView::all_from_server(&s);
        assert_eq!(views.len(), 3);
        assert!(views.iter().all(|v| v.builds.is_empty()));
    }

    #[test]
    fn all_from_server_is_registration_ordered_and_stable() {
        // Regression: row order used to depend on map iteration; it must
        // be the registration order, identically across runs.
        let build = || {
            let mut s = CiServer::new(1);
            for name in ["zeta", "alpha", "mid"] {
                s.register(JobSpec {
                    name: name.into(),
                    kind: JobKind::Freestyle,
                    trigger: None,
                });
            }
            s
        };
        let names = |s: &CiServer| -> Vec<String> {
            JobView::all_from_server(s).into_iter().map(|v| v.name).collect()
        };
        let a = build();
        let b = build();
        assert_eq!(names(&a), vec!["zeta", "alpha", "mid"]);
        assert_eq!(names(&a), names(&b));
        // Re-registering keeps the original position.
        let mut c = build();
        c.register(JobSpec {
            name: "alpha".into(),
            kind: JobKind::Freestyle,
            trigger: None,
        });
        assert_eq!(names(&c), vec!["zeta", "alpha", "mid"]);
    }
}
