//! Model-based check of the segmented build history.
//!
//! The server keeps each job's history as sealed segments plus an open
//! tail and looks builds up only in that tail. The reference model below
//! keeps what the server kept before: one flat `Vec<Build>` per job,
//! searched from the front by full `BuildRef` equality. Random operation
//! sequences — triggers, partial matrix retries, assignment rounds with
//! buggified deferrals, out-of-order and bogus finishes — must leave the
//! two indistinguishable through every public accessor, with every return
//! value equal on the way.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use ttt_ci::{
    expand_axes, render_cell, Axis, Build, BuildRef, BuildResult, Cause, CiServer, JobKind,
    JobSpec, WorkItem,
};
use ttt_sim::{Buggify, SimDuration, SimTime};

const EXECUTORS: usize = 3;
const JOBS: [&str; 3] = ["smoke", "matrix", "idle"];

fn specs() -> Vec<JobSpec> {
    let job = |name: &str, kind| JobSpec {
        name: name.to_string(),
        kind,
        trigger: None,
    };
    vec![
        job("smoke", JobKind::Freestyle),
        job(
            "matrix",
            JobKind::Matrix {
                axes: vec![
                    Axis::new("cluster", ["a", "b", "c"]),
                    Axis::new("image", ["x", "y"]),
                ],
            },
        ),
        job("idle", JobKind::Freestyle),
    ]
}

/// The flat reference: the server as it was before histories were
/// segmented, reduced to what these operations touch.
struct Model {
    specs: BTreeMap<String, JobSpec>,
    queue: VecDeque<(BuildRef, Cause)>,
    executors: Vec<Option<BuildRef>>,
    history: BTreeMap<String, Vec<Build>>,
    next_number: BTreeMap<String, u32>,
    now: SimTime,
    buggify: Buggify,
    assign_attempts: u64,
}

impl Model {
    fn new(buggify: Buggify) -> Self {
        Model {
            specs: specs().into_iter().map(|s| (s.name.clone(), s)).collect(),
            queue: VecDeque::new(),
            executors: vec![None; EXECUTORS],
            history: JOBS.iter().map(|j| (j.to_string(), Vec::new())).collect(),
            next_number: JOBS.iter().map(|j| (j.to_string(), 1)).collect(),
            now: SimTime::ZERO,
            buggify,
            assign_attempts: 0,
        }
    }

    fn trigger(&mut self, name: &str, cause: Cause) -> Vec<BuildRef> {
        let Some(spec) = self.specs.get(name) else {
            return Vec::new();
        };
        let cells: Vec<Option<String>> = match &spec.kind {
            JobKind::Freestyle => vec![None],
            JobKind::Matrix { axes } => expand_axes(axes)
                .iter()
                .map(|c| Some(render_cell(c)))
                .collect(),
        };
        self.enqueue(name, cause, &cells)
    }

    fn trigger_cells(&mut self, name: &str, cause: Cause, cells: &[String]) -> Vec<BuildRef> {
        if !self.specs.contains_key(name) {
            return Vec::new();
        }
        let cells: Vec<Option<String>> = cells.iter().cloned().map(Some).collect();
        self.enqueue(name, cause, &cells)
    }

    fn enqueue(&mut self, name: &str, cause: Cause, cells: &[Option<String>]) -> Vec<BuildRef> {
        let number = self.next_number[name];
        let mut enqueued = Vec::new();
        for cell in cells {
            let pending = |r: &BuildRef| r.job == name && r.cell == *cell;
            if self.queue.iter().any(|(r, _)| pending(r))
                || self.executors.iter().flatten().any(pending)
            {
                continue;
            }
            let r = BuildRef {
                job: name.to_string(),
                number,
                cell: cell.clone(),
            };
            self.history
                .entry(name.to_string())
                .or_default()
                .push(Build {
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

    fn find(&mut self, r: &BuildRef) -> Option<&mut Build> {
        self.history
            .get_mut(&r.job)?
            .iter_mut()
            .find(|b| &b.r#ref == r)
    }

    fn assign(&mut self) -> Vec<WorkItem> {
        let mut out = Vec::new();
        for slot in 0..self.executors.len() {
            if self.executors[slot].is_some() {
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
            let now = self.now;
            if let Some(b) = self.find(&r) {
                b.started_at = Some(now);
            }
            self.executors[slot] = Some(r.clone());
            out.push(WorkItem { build: r, cause });
        }
        out
    }

    fn finish(&mut self, r: &BuildRef, result: BuildResult, log: Vec<String>) -> bool {
        let Some(slot) = self.executors.iter_mut().find(|s| s.as_ref() == Some(r)) else {
            return false;
        };
        *slot = None;
        let now = self.now;
        if let Some(b) = self.find(r) {
            b.finished_at = Some(now);
            b.result = Some(result);
            b.log = log;
        }
        true
    }
}

/// Every public view of the server's history equals the model's.
fn assert_same_history(server: &CiServer, model: &Model) {
    for job in JOBS {
        let flat = &model.history[job];
        let history = server.history(job);
        assert_eq!(history.len(), flat.len(), "{job}: len");
        assert_eq!(history.is_empty(), flat.is_empty(), "{job}: is_empty");
        assert!(history.iter().eq(flat.iter()), "{job}: iteration order");
        // `sealed ++ open` is that same order, sealed builds are final,
        // and exactly the full leading runs of final builds are sealed.
        let sealed: Vec<&Build> = history.sealed().iter().flat_map(|s| s.iter()).collect();
        assert!(
            sealed.iter().all(|b| b.result.is_some()),
            "{job}: sealed yet pending"
        );
        assert!(
            sealed.iter().copied().chain(history.open()).eq(flat.iter()),
            "{job}: sealed ++ open"
        );
        let leading_final = flat.iter().take_while(|b| b.result.is_some()).count();
        match history.sealed().first().map(|s| s.len()) {
            Some(segment) => {
                assert!(history.sealed().iter().all(|s| s.len() == segment));
                assert!(
                    leading_final - sealed.len() < segment,
                    "{job}: a full run stayed open"
                );
            }
            None => assert!(
                leading_final < 64,
                "{job}: nothing sealed of {leading_final}"
            ),
        }
        let last = flat.last().map_or(0, |b| b.r#ref.number);
        for number in [0, 1, 2, last / 2, last, last + 1] {
            let expected: Vec<&Build> = flat.iter().filter(|b| b.r#ref.number == number).collect();
            assert_eq!(
                server.builds_of_number(job, number),
                expected,
                "{job}#{number}"
            );
        }
        // The shared fold sees exactly the model's finished builds.
        let finished = flat
            .iter()
            .filter_map(|b| Some((b.r#ref.cell.as_deref(), b.result?, b.finished_at?)));
        assert!(history.finished().eq(finished), "{job}: finished builds");
    }
    // Freezing changes nothing a reader can see.
    for (frozen, job) in server.freeze_history().iter().zip(JOBS) {
        assert_eq!(&*frozen.name, job);
        assert!(
            frozen.history.iter().eq(model.history[job].iter()),
            "{job}: frozen"
        );
    }
    assert!(server.history("nobody").is_empty());
    assert_eq!(server.queue_len(), model.queue.len());
    assert_eq!(
        server.busy_executors(),
        model.executors.iter().flatten().count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn segmented_history_matches_the_flat_model(
        seed in 0u64..1_000_000,
        chaos in 0usize..3,
        ops in prop::collection::vec((0u8..12, 0u64..1_000_000), 300..700),
    ) {
        let buggify = Buggify::new(seed, [0.0, 0.1, 0.5][chaos]);
        let mut server = CiServer::new(EXECUTORS);
        server.set_buggify(buggify);
        for spec in specs() {
            server.register(spec);
        }
        let mut model = Model::new(buggify);
        let cells: Vec<String> = match &specs()[1].kind {
            JobKind::Matrix { axes } => expand_axes(axes).iter().map(render_cell).collect(),
            JobKind::Freestyle => unreachable!("the second job is the matrix"),
        };
        let results = [
            BuildResult::Success,
            BuildResult::Failure,
            BuildResult::Unstable,
            BuildResult::Aborted,
        ];
        for (step, &(op, arg)) in ops.iter().enumerate() {
            let pick = arg as usize;
            match op {
                // Whole-job triggers, the idle job and an unknown one included.
                0 | 1 => {
                    let job = ["smoke", "matrix", "smoke", "nobody"][pick % 4];
                    prop_assert_eq!(
                        server.trigger(job, Cause::Cron),
                        model.trigger(job, Cause::Cron),
                        "step {}: trigger {}", step, job
                    );
                }
                // Matrix-Reloaded retries: a few cells, maybe repeated,
                // maybe one the matrix never had.
                2 => {
                    let mut some: Vec<String> = (0..1 + pick % 3)
                        .map(|k| cells[(pick / 7 + k * (1 + pick % 2)) % cells.len()].clone())
                        .collect();
                    if pick.is_multiple_of(5) {
                        some.push("cluster=z,image=x".to_string());
                    }
                    prop_assert_eq!(
                        server.trigger_cells("matrix", Cause::Retry, &some),
                        model.trigger_cells("matrix", Cause::Retry, &some),
                        "step {}: trigger_cells {:?}", step, &some
                    );
                }
                3..=5 => {
                    prop_assert_eq!(server.assign(), model.assign(), "step {}: assign", step);
                }
                // Finish whichever running build the draw lands on: the
                // order of finishes is unrelated to the order of starts.
                6..=8 => {
                    let running: Vec<BuildRef> =
                        model.executors.iter().flatten().cloned().collect();
                    if let Some(r) = running.get(pick % running.len().max(1)) {
                        let result = results[pick % results.len()];
                        let log = vec![format!("step {step}")];
                        prop_assert!(server.finish(r, result, log.clone()));
                        prop_assert!(model.finish(r, result, log));
                    }
                }
                // Finishes of builds that are not running: never created,
                // or long since final.
                9 => {
                    let job = JOBS[pick % 2];
                    let r = match model.history[job].get(pick % 40) {
                        Some(b) if b.result.is_some() => b.r#ref.clone(),
                        _ => BuildRef {
                            job: job.to_string(),
                            number: 10_000 + pick as u32,
                            cell: None,
                        },
                    };
                    prop_assert!(!server.finish(&r, BuildResult::Success, vec![]));
                    prop_assert!(!model.finish(&r, BuildResult::Success, vec![]));
                }
                _ => {
                    model.now += SimDuration::from_mins(1 + arg % 90);
                    server.advance(model.now);
                }
            }
            if step % 64 == 0 {
                assert_same_history(&server, &model);
            }
        }
        assert_same_history(&server, &model);
    }
}
