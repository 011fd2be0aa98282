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

/// One registered job: everything the server keeps under its name.
struct JobRow {
    /// Shared with every build of the job and every frozen history.
    name: Arc<str>,
    spec: JobSpec,
    /// Full build history, in creation order.
    history: JobHistory,
    next_number: u32,
}

/// The automation server.
pub struct CiServer {
    /// The jobs in registration order — the stable order every reader
    /// (status page, epochs) presents them in.
    jobs: Vec<JobRow>,
    /// Job name → row of `jobs`. Key order is the order same-instant cron
    /// triggers fire in and [`CiServer::all_history`] walks.
    by_name: BTreeMap<Arc<str>, usize>,
    /// Every cell any job ever built: each is written once and shared by
    /// all of its builds, so one cell is one `Arc`.
    // detlint: allow(no-unordered-iteration) -- lookup-only interner on the enqueue path; never iterated, so its order cannot leak
    cells: std::collections::HashSet<Arc<str>>,
    queue: VecDeque<(BuildRef, Cause)>,
    executors: Vec<Option<BuildRef>>,
    now: SimTime,
    last_trigger_scan: SimTime,
    /// The first cron firing after `last_trigger_scan`. Only `register` and
    /// `advance` can move it, so the per-step callers scan no job.
    next_cron: Option<SimTime>,
    /// Chaos hook: when armed, an assignment round can spuriously defer
    /// (executor hiccup). Off by default.
    buggify: Buggify,
    /// Monotone count of assignment attempts — the salt that makes the
    /// rng-free buggify decision deterministic and replayable.
    assign_attempts: u64,
}

impl CiServer {
    /// Create a server with `executors` worker slots. With none, builds
    /// queue and [`CiServer::assign`] never hands one out.
    pub fn new(executors: usize) -> Self {
        CiServer {
            jobs: Vec::new(),
            by_name: BTreeMap::new(),
            cells: Default::default(),
            queue: VecDeque::new(),
            executors: vec![None; executors],
            now: SimTime::ZERO,
            last_trigger_scan: SimTime::ZERO,
            next_cron: None,
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
    /// original registration position, the history and the build counter.
    pub fn register(&mut self, spec: JobSpec) {
        if let Some(&row) = self.by_name.get(spec.name.as_str()) {
            self.jobs[row].spec = spec;
        } else {
            let name: Arc<str> = spec.name.as_str().into();
            self.by_name.insert(Arc::clone(&name), self.jobs.len());
            self.jobs.push(JobRow {
                name,
                spec,
                history: JobHistory::new(),
                next_number: 1,
            });
        }
        self.next_cron = self.scan_next_cron();
    }

    /// Registered job names in registration order — the stable presentation
    /// order for the status page and the read plane's epochs.
    pub fn job_names_in_order(&self) -> impl ExactSizeIterator<Item = &Arc<str>> {
        self.jobs.iter().map(|job| &job.name)
    }

    /// A job definition.
    pub fn job(&self, name: &str) -> Option<&JobSpec> {
        self.by_name.get(name).map(|&row| &self.jobs[row].spec)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The earliest cron firing strictly after the last trigger scan, if
    /// any job has a cron trigger. Event-driven orchestrators use this to
    /// know when [`CiServer::advance`] next has work to do.
    pub fn next_cron_firing(&self) -> Option<SimTime> {
        self.next_cron
    }

    fn scan_next_cron(&self) -> Option<SimTime> {
        self.jobs
            .iter()
            .filter_map(|job| job.spec.trigger?.next_firing(self.last_trigger_scan))
            .min()
    }

    /// Advance time, firing cron triggers in `(last_scan, to]` by job name.
    pub fn advance(&mut self, to: SimTime) {
        assert!(to >= self.now, "time cannot go backwards");
        let after = std::mem::replace(&mut self.last_trigger_scan, to);
        if self.next_cron.is_some_and(|at| at <= to) {
            let timed: Vec<_> = self
                .by_name
                .iter()
                .filter_map(|(name, &row)| Some((Arc::clone(name), self.jobs[row].spec.trigger?)))
                .collect();
            for (name, trigger) in timed {
                for at in trigger.firings(after, to) {
                    self.now = at;
                    self.trigger(&name, Cause::Cron);
                }
            }
            self.next_cron = self.scan_next_cron();
        }
        self.now = to;
    }

    /// Trigger a job: freestyle jobs enqueue one build, matrix jobs one
    /// build per cell. Cells already queued or running are coalesced
    /// (Jenkins' behaviour under trigger pileup). Returns the enqueued
    /// build references.
    pub fn trigger(&mut self, name: &str, cause: Cause) -> Vec<BuildRef> {
        let Some(&row) = self.by_name.get(name) else {
            return Vec::new();
        };
        match &self.jobs[row].spec.kind {
            JobKind::Freestyle => self.enqueue(row, cause, &mut std::iter::once(None)),
            JobKind::Matrix { axes } => {
                let cells: Vec<String> = expand_axes(axes).iter().map(render_cell).collect();
                self.enqueue(row, cause, &mut cells.iter().map(|c| Some(c.as_str())))
            }
        }
    }

    /// Trigger only specific cells of a matrix job (Matrix Reloaded).
    pub fn trigger_cells(&mut self, name: &str, cause: Cause, cells: &[String]) -> Vec<BuildRef> {
        match self.by_name.get(name) {
            Some(&row) => self.enqueue(row, cause, &mut cells.iter().map(|c| Some(c.as_str()))),
            None => Vec::new(),
        }
    }

    /// One build per cell not already queued or running, under one number.
    fn enqueue(
        &mut self,
        row: usize,
        cause: Cause,
        cells: &mut dyn Iterator<Item = Option<&str>>,
    ) -> Vec<BuildRef> {
        let number = self.jobs[row].next_number;
        let mut enqueued = Vec::new();
        for cell in cells {
            let cell = cell.map(|cell| self.intern(cell));
            if self.is_pending(&self.jobs[row].name, cell.as_ref()) {
                continue;
            }
            let r = BuildRef {
                job: Arc::clone(&self.jobs[row].name),
                number,
                cell,
            };
            self.jobs[row].history.push(Build {
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
            self.jobs[row].next_number = number + 1;
        }
        enqueued
    }

    /// The server's one copy of `cell`, made on its first build.
    fn intern(&mut self, cell: &str) -> Arc<str> {
        if let Some(held) = self.cells.get(cell) {
            return Arc::clone(held);
        }
        let held: Arc<str> = cell.into();
        self.cells.insert(Arc::clone(&held));
        held
    }

    /// Whether an identical job+cell is already queued or running. Every
    /// queued or running reference was made by `enqueue` from its job's one
    /// name and the one copy of its cell, so an identical one holds the same
    /// `Arc`s.
    fn is_pending(&self, job: &Arc<str>, cell: Option<&Arc<str>>) -> bool {
        let same = |r: &BuildRef| {
            Arc::ptr_eq(&r.job, job)
                && match (&r.cell, cell) {
                    (Some(held), Some(cell)) => Arc::ptr_eq(held, cell),
                    (held, cell) => held.is_none() && cell.is_none(),
                }
        };
        self.queue.iter().any(|(r, _)| same(r)) || self.executors.iter().flatten().any(same)
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
            let job = self.by_name.get(&*r.job).map(|&row| &mut self.jobs[row]);
            if let Some(b) = job.and_then(|job| job.history.pending_mut(&r)) {
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
        if let Some(&row) = self.by_name.get(&*r.job) {
            let history = &mut self.jobs[row].history;
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
        self.by_name
            .get(job)
            .map_or(&EMPTY, |&row| &self.jobs[row].history)
    }

    /// Every job's history in registration order, frozen for a reader:
    /// names and sealed segments are shared with the server, open tails
    /// are copied. Costs the tails and one pointer per sealed segment,
    /// not the length of the histories.
    pub fn freeze_history(&self) -> Vec<FrozenJob> {
        self.jobs
            .iter()
            .map(|job| FrozenJob {
                name: Arc::clone(&job.name),
                history: job.history.clone(),
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

    /// Every job's history, in job-name order.
    pub fn all_history(&self) -> impl Iterator<Item = &JobHistory> {
        self.by_name.values().map(|&row| &self.jobs[row].history)
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
    fn zero_executors_queue_and_never_assign() {
        let mut s = CiServer::new(0);
        s.register(freestyle("a"));
        assert_eq!(s.trigger("a", Cause::Manual).len(), 1);
        assert!(s.assign().is_empty());
        assert_eq!((s.queue_len(), s.busy_executors(), s.executor_count()), (1, 0, 0));
        // Still pending, so a second trigger coalesces.
        assert!(s.trigger("a", Cause::Manual).is_empty());
    }
}
