//! The CI server: queue, executors, history, triggers.
//!
//! Benefits the paper keeps Jenkins for (slide 20) — "clean execution
//! environment", "queue to control overloading", "access control …
//! manually", "long-term storage of results history" — map here to: a FIFO
//! queue in front of a bounded executor pool, manual/cron/external trigger
//! causes, and per-job build history (segmented, see [`crate::history`]).
//!
//! The server does not execute test logic. The campaign orchestrator calls
//! [`CiServer::assign`] to pull work onto free executors, runs it, and
//! reports back through [`CiServer::finish`].

use crate::history::{FrozenJob, JobHistory, EMPTY};
use crate::matrix::{expand_axes, render_cell};
use crate::model::{Build, BuildRef, BuildResult, Cause, JobKind, JobSpec};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use ttt_sim::{Buggify, SimTime};

/// A unit of work handed to the orchestrator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// The build to run.
    pub build: BuildRef,
    /// Why it runs.
    pub cause: Cause,
}

/// The automation server.
pub struct CiServer {
    jobs: BTreeMap<String, JobSpec>,
    /// Job names in registration order — the stable order every reader
    /// (status page, epochs) presents jobs in.
    registration_order: Vec<Arc<str>>,
    queue: VecDeque<(BuildRef, Cause)>,
    executors: Vec<Option<BuildRef>>,
    /// Full build history per job, in creation order.
    history: BTreeMap<String, JobHistory>,
    next_number: BTreeMap<String, u32>,
    now: SimTime,
    last_trigger_scan: SimTime,
    /// Chaos hook: when armed, an assignment round can spuriously defer
    /// (executor hiccup). Off by default.
    buggify: Buggify,
    /// Monotone count of assignment attempts — the salt that makes the
    /// rng-free buggify decision deterministic and replayable.
    assign_attempts: u64,
}

impl CiServer {
    /// Create a server with `executors` worker slots.
    ///
    /// # Panics
    /// Panics if `executors` is zero.
    pub fn new(executors: usize) -> Self {
        assert!(executors > 0, "need at least one executor");
        CiServer {
            jobs: BTreeMap::new(),
            registration_order: Vec::new(),
            queue: VecDeque::new(),
            executors: vec![None; executors],
            history: BTreeMap::new(),
            next_number: BTreeMap::new(),
            now: SimTime::ZERO,
            last_trigger_scan: SimTime::ZERO,
            buggify: Buggify::off(),
            assign_attempts: 0,
        }
    }

    /// Arm (or disarm) the buggify chaos hook. The campaign driver calls
    /// this once at construction; rate 0.0 keeps the server byte-identical
    /// to a build without the hook.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// Register (or replace) a job definition. Replacement keeps the
    /// original registration position.
    pub fn register(&mut self, spec: JobSpec) {
        self.history.entry(spec.name.clone()).or_default();
        self.next_number.entry(spec.name.clone()).or_insert(1);
        if !self.jobs.contains_key(&spec.name) {
            self.registration_order.push(spec.name.as_str().into());
        }
        self.jobs.insert(spec.name.clone(), spec);
    }

    /// Registered job names in registration order — the stable presentation
    /// order for the status page and the read plane's epochs.
    pub fn job_names_in_order(&self) -> &[Arc<str>] {
        &self.registration_order
    }

    /// A job definition.
    pub fn job(&self, name: &str) -> Option<&JobSpec> {
        self.jobs.get(name)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The earliest cron firing strictly after the last trigger scan, if
    /// any job has a cron trigger. Event-driven orchestrators use this to
    /// know when [`CiServer::advance`] next has work to do.
    pub fn next_cron_firing(&self) -> Option<SimTime> {
        self.jobs
            .values()
            .filter_map(|spec| spec.trigger?.next_firing(self.last_trigger_scan))
            .min()
    }

    /// Advance time, firing cron triggers in `(last_scan, to]`.
    pub fn advance(&mut self, to: SimTime) {
        assert!(to >= self.now, "time cannot go backwards");
        // Only the jobs that have a trigger: with none — every campaign —
        // the list is empty and costs no allocation.
        let timed: Vec<_> = self
            .jobs
            .iter()
            .filter_map(|(name, spec)| spec.trigger.map(|trigger| (name.clone(), trigger)))
            .collect();
        for (name, trigger) in timed {
            for at in trigger.firings(self.last_trigger_scan, to) {
                self.now = at;
                self.trigger(&name, Cause::Cron);
            }
        }
        self.last_trigger_scan = to;
        self.now = to;
    }

    /// Trigger a job: freestyle jobs enqueue one build, matrix jobs one
    /// build per cell. Cells already queued or running are coalesced
    /// (Jenkins' behaviour under trigger pileup). Returns the enqueued
    /// build references.
    pub fn trigger(&mut self, name: &str, cause: Cause) -> Vec<BuildRef> {
        let Some(spec) = self.jobs.get(name) else {
            return Vec::new();
        };
        let cells: Vec<Option<String>> = match &spec.kind {
            JobKind::Freestyle => vec![None],
            JobKind::Matrix { axes } => expand_axes(axes)
                .iter()
                .map(|c| Some(render_cell(c)))
                .collect(),
        };
        self.enqueue_cells(name, cause, &cells)
    }

    /// Trigger only specific cells of a matrix job (Matrix Reloaded).
    pub fn trigger_cells(&mut self, name: &str, cause: Cause, cells: &[String]) -> Vec<BuildRef> {
        if !self.jobs.contains_key(name) {
            return Vec::new();
        }
        let cells: Vec<Option<String>> = cells.iter().map(|c| Some(c.clone())).collect();
        self.enqueue_cells(name, cause, &cells)
    }

    fn enqueue_cells(
        &mut self,
        name: &str,
        cause: Cause,
        cells: &[Option<String>],
    ) -> Vec<BuildRef> {
        let number = *self.next_number.get(name).unwrap_or(&1);
        let mut enqueued = Vec::new();
        for cell in cells {
            if self.is_pending(name, cell.as_deref()) {
                continue;
            }
            let r = BuildRef {
                job: name.to_string(),
                number,
                cell: cell.clone(),
            };
            self.history.entry(name.to_string()).or_default().push(Build {
                r#ref: r.clone(),
                cause,
                queued_at: self.now,
                started_at: None,
                finished_at: None,
                result: None,
                log: Vec::new(),
            });
            self.queue.push_back((r.clone(), cause));
            enqueued.push(r);
        }
        if !enqueued.is_empty() {
            self.next_number.insert(name.to_string(), number + 1);
        }
        enqueued
    }

    /// Whether an identical job+cell is already queued or running.
    fn is_pending(&self, job: &str, cell: Option<&str>) -> bool {
        self.queue
            .iter()
            .any(|(r, _)| r.job == job && r.cell.as_deref() == cell)
            || self
                .executors
                .iter()
                .flatten()
                .any(|r| r.job == job && r.cell.as_deref() == cell)
    }

    /// Move queued builds onto free executors; returns the work to run.
    ///
    /// When buggify is armed, an individual assignment can spuriously
    /// defer — the executor "hiccups" and the build stays at the head of
    /// the queue for the next round. The decision is hashed from a
    /// monotone attempt counter (no RNG draw), so it replays identically
    /// across engines and shrink/replay runs, and a deferred build is
    /// retried with a fresh salt — delay, never starvation.
    pub fn assign(&mut self) -> Vec<WorkItem> {
        let mut out = Vec::new();
        for slot in self.executors.iter_mut() {
            if slot.is_some() {
                continue;
            }
            let Some((r, cause)) = self.queue.pop_front() else {
                break;
            };
            self.assign_attempts += 1;
            if self.buggify.fire_hashed("ci-assign", self.assign_attempts) {
                self.queue.push_front((r, cause));
                break;
            }
            if let Some(b) = self.history.get_mut(&r.job).and_then(|h| h.pending_mut(&r)) {
                b.started_at = Some(self.now);
            }
            *slot = Some(r.clone());
            out.push(WorkItem { build: r, cause });
        }
        out
    }

    /// Report a build finished. Returns false if the build was not running.
    pub fn finish(&mut self, r: &BuildRef, result: BuildResult, log: Vec<String>) -> bool {
        let Some(slot) = self
            .executors
            .iter_mut()
            .find(|s| s.as_ref() == Some(r))
        else {
            return false;
        };
        *slot = None;
        if let Some(history) = self.history.get_mut(&r.job) {
            if let Some(b) = history.pending_mut(r) {
                b.finished_at = Some(self.now);
                b.result = Some(result);
                b.log = log;
            }
            history.seal_settled();
        }
        true
    }

    /// Builds of one job (all numbers, all cells), in creation order.
    /// Empty for a job nobody registered.
    pub fn history(&self, job: &str) -> &JobHistory {
        self.history.get(job).unwrap_or(&EMPTY)
    }

    /// Every job's history in registration order, frozen for a reader:
    /// names and sealed segments are shared with the server, open tails
    /// are copied. Costs the tails and one pointer per sealed segment,
    /// not the length of the histories.
    pub fn freeze_history(&self) -> Vec<FrozenJob> {
        self.registration_order
            .iter()
            .map(|name| FrozenJob {
                name: Arc::clone(name),
                history: self.history(name).clone(),
            })
            .collect()
    }

    /// All builds of one job sharing a build number (a matrix run).
    pub fn builds_of_number(&self, job: &str, number: u32) -> Vec<&Build> {
        self.history(job)
            .iter()
            .filter(|b| b.r#ref.number == number)
            .collect()
    }

    /// Every job's history, for the status page.
    pub fn all_history(&self) -> &BTreeMap<String, JobHistory> {
        &self.history
    }

    /// Number of builds waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of busy executors.
    pub fn busy_executors(&self) -> usize {
        self.executors.iter().flatten().count()
    }

    /// Total executor slots.
    pub fn executor_count(&self) -> usize {
        self.executors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Axis, CronTrigger};
    use ttt_sim::SimDuration;

    fn freestyle(name: &str) -> JobSpec {
        JobSpec {
            name: name.into(),
            kind: JobKind::Freestyle,
            trigger: None,
        }
    }

    #[test]
    fn trigger_assign_finish_lifecycle() {
        let mut s = CiServer::new(2);
        s.register(freestyle("stdenv"));
        let refs = s.trigger("stdenv", Cause::Manual);
        assert_eq!(refs.len(), 1);
        assert_eq!(s.queue_len(), 1);
        let work = s.assign();
        assert_eq!(work.len(), 1);
        assert_eq!(s.busy_executors(), 1);
        assert_eq!(s.queue_len(), 0);
        assert!(s.finish(&work[0].build, BuildResult::Success, vec!["ok".into()]));
        assert_eq!(s.busy_executors(), 0);
        let h = s.history("stdenv");
        assert_eq!(h.len(), 1);
        assert_eq!(h.open()[0].result, Some(BuildResult::Success));
        assert_eq!(h.open()[0].log, vec!["ok".to_string()]);
    }

    #[test]
    fn matrix_trigger_enqueues_every_cell() {
        let mut s = CiServer::new(4);
        s.register(JobSpec {
            name: "environments".into(),
            kind: JobKind::Matrix {
                axes: vec![
                    Axis::new("image", ["a", "b", "c"]),
                    Axis::new("cluster", ["x", "y"]),
                ],
            },
            trigger: None,
        });
        let refs = s.trigger("environments", Cause::Manual);
        assert_eq!(refs.len(), 6);
        assert!(refs.iter().all(|r| r.number == 1));
        // Executors bound concurrency: only 4 assigned.
        assert_eq!(s.assign().len(), 4);
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn pending_cells_are_coalesced() {
        let mut s = CiServer::new(1);
        s.register(freestyle("oarstate"));
        assert_eq!(s.trigger("oarstate", Cause::Cron).len(), 1);
        // Second trigger while the first is still queued: coalesced.
        assert_eq!(s.trigger("oarstate", Cause::Cron).len(), 0);
        let work = s.assign();
        // Still coalesced while running.
        assert_eq!(s.trigger("oarstate", Cause::Cron).len(), 0);
        s.finish(&work[0].build, BuildResult::Success, vec![]);
        // After completion a new build can be enqueued, with a new number.
        let refs = s.trigger("oarstate", Cause::Cron);
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].number, 2);
    }

    #[test]
    fn matrix_reloaded_retries_only_failures() {
        let mut s = CiServer::new(8);
        s.register(JobSpec {
            name: "env".into(),
            kind: JobKind::Matrix {
                axes: vec![Axis::new("c", ["1", "2", "3"])],
            },
            trigger: None,
        });
        s.trigger("env", Cause::Manual);
        let work = s.assign();
        for (i, w) in work.iter().enumerate() {
            let result = if i == 1 {
                BuildResult::Failure
            } else {
                BuildResult::Success
            };
            s.finish(&w.build, result, vec![]);
        }
        let failed: Vec<String> = crate::matrix::failed_cells(
            &s.builds_of_number("env", 1)
                .into_iter()
                .cloned()
                .collect::<Vec<_>>(),
        )
        .into_iter()
        .map(String::from)
        .collect();
        assert_eq!(failed, vec!["c=2"]);
        let retried = s.trigger_cells("env", Cause::Retry, &failed);
        assert_eq!(retried.len(), 1);
        assert_eq!(retried[0].number, 2);
        assert_eq!(retried[0].cell.as_deref(), Some("c=2"));
    }

    #[test]
    fn cron_triggers_fire_on_advance() {
        let mut s = CiServer::new(2);
        s.register(JobSpec {
            name: "refapi".into(),
            kind: JobKind::Freestyle,
            trigger: Some(CronTrigger {
                period: SimDuration::from_hours(6),
                offset: SimDuration::from_hours(2),
            }),
        });
        s.advance(SimTime::from_hours(24));
        // Fired at 2, 8, 14, 20 — but coalesced while queued: only 1 build.
        assert_eq!(s.history("refapi").len(), 1);
        assert_eq!(s.history("refapi").open()[0].cause, Cause::Cron);
        // Drain, advance again: next firing enqueues anew.
        let w = s.assign();
        s.finish(&w[0].build, BuildResult::Success, vec![]);
        s.advance(SimTime::from_hours(27));
        assert_eq!(s.history("refapi").len(), 2);
    }

    #[test]
    fn queue_times_are_recorded() {
        let mut s = CiServer::new(1);
        s.register(freestyle("a"));
        s.register(freestyle("b"));
        s.trigger("a", Cause::Manual);
        s.trigger("b", Cause::Manual);
        let w1 = s.assign();
        assert_eq!(w1.len(), 1);
        s.advance(SimTime::from_mins(30));
        s.finish(&w1[0].build, BuildResult::Success, vec![]);
        let w2 = s.assign();
        assert_eq!(w2.len(), 1);
        let b = &s.history("b").open()[0];
        assert_eq!(b.queue_time().unwrap(), SimDuration::from_mins(30));
    }

    #[test]
    fn finish_unknown_build_is_false() {
        let mut s = CiServer::new(1);
        s.register(freestyle("a"));
        let r = BuildRef {
            job: "a".into(),
            number: 9,
            cell: None,
        };
        assert!(!s.finish(&r, BuildResult::Success, vec![]));
    }

    #[test]
    fn readers_see_jobs_in_registration_order() {
        // Regression: row order used to depend on map iteration; it must
        // be the registration order, identically across runs.
        let build = || {
            let mut s = CiServer::new(1);
            for name in ["zeta", "alpha", "mid"] {
                s.register(freestyle(name));
            }
            s
        };
        let names = |s: &CiServer| -> Vec<String> {
            s.freeze_history().iter().map(|j| j.name.to_string()).collect()
        };
        assert_eq!(names(&build()), vec!["zeta", "alpha", "mid"]);
        assert_eq!(names(&build()), names(&build()));
        assert!(build().freeze_history().iter().all(|j| j.history.is_empty()));
        // Re-registering keeps the original position.
        let mut c = build();
        c.register(freestyle("alpha"));
        assert_eq!(names(&c), vec!["zeta", "alpha", "mid"]);
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_rejected() {
        let _ = CiServer::new(0);
    }
}
