//! Model-based check of the server's job table, key table and segmented
//! histories.
//!
//! The server keeps one row per job (spec, history, build counter;
//! registration order is row order) behind one name index, one row per
//! (job, cell) key with a pending flag, each history as sealed segments
//! plus an open tail, and looks builds up only in that tail. The reference
//! model below keeps what the server kept before keys: one name-keyed map
//! each for specs, histories and counters plus a vector of names, one flat
//! `Vec<Build>` per job searched from the front by full `BuildRef`
//! equality, and "pending" answered by scanning the queue and the
//! executors; it numbers keys by first naming, and their status-page
//! targets by first sight in a plain list. Random operation sequences
//! — triggers by name of registered and unregistered jobs, coalesced
//! re-triggers, partial matrix retries with repeated cells, keyed triggers
//! by fresh and long-held keys, re-registration under another kind or cron
//! trigger, late first registrations, cron firings, assignment rounds with
//! buggified deferrals, out-of-order and bogus finishes, finishes by the
//! server's own reference and by an equal one built elsewhere — must leave
//! the two indistinguishable through every public accessor (pending state
//! included), with every return value equal on the way.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use ttt_ci::{
    cell_target, expand_axes, render_cell, tally, Axis, Build, BuildRef, BuildResult, Cause,
    CellKey, CiServer, CronTrigger, JobKind, JobSpec, TargetId, WorkItem,
};
use ttt_sim::{Buggify, SimDuration, SimTime};

const EXECUTORS: usize = 3;
/// Every name an operation may use; `"nobody"` is never registered, the
/// two before it only by a later [`respec`].
const NAMES: [&str; 6] = ["smoke", "matrix", "idle", "zeta", "alpha", "nobody"];

fn job(name: &str, kind: JobKind, trigger: Option<CronTrigger>) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        kind,
        trigger,
    }
}

fn matrix_axes() -> Vec<Axis> {
    vec![
        Axis::new("cluster", ["a", "b", "c"]),
        Axis::new("image", ["x", "y"]),
    ]
}

/// The jobs registered before the first operation.
fn specs() -> Vec<JobSpec> {
    vec![
        job("smoke", JobKind::Freestyle, None),
        job("matrix", JobKind::Matrix { axes: matrix_axes() }, None),
        job("idle", JobKind::Freestyle, None),
    ]
}

/// A registration made mid-run: `smoke` flips between freestyle and a
/// two-cell matrix, `idle` gains and loses a cron trigger, and `zeta` and
/// `alpha` arrive late — in that order or the other — on one shared cron
/// period, so their same-instant firings show which order the server
/// walks its jobs in.
fn respec(pick: usize) -> JobSpec {
    let hourly = |offset| CronTrigger {
        period: SimDuration::from_hours(1),
        offset: SimDuration::from_mins(offset),
    };
    let two_cells = JobKind::Matrix {
        axes: vec![Axis::new("site", ["east", "west"])],
    };
    match pick % 6 {
        0 => job("smoke", JobKind::Freestyle, None),
        1 => job("smoke", two_cells, None),
        2 => job("idle", JobKind::Freestyle, Some(hourly(20))),
        3 => job("idle", JobKind::Freestyle, None),
        4 => job("zeta", JobKind::Freestyle, Some(hourly(0))),
        _ => job("alpha", JobKind::Freestyle, Some(hourly(0))),
    }
}

/// A work item as the model sees it: the key is its number.
type Work = (BuildRef, Cause, usize);

/// A server's work items in the model's terms.
fn work(items: Vec<WorkItem>) -> Vec<Work> {
    items
        .into_iter()
        .map(|w| (w.build, w.cause, w.key.index()))
        .collect()
}

/// The naive reference: the server as it was before its containers
/// became one table and its histories were segmented, reduced to what
/// these operations touch.
struct Model {
    specs: BTreeMap<String, JobSpec>,
    order: Vec<String>,
    /// (job, cell) per key number, in the order the pairs were named.
    keys: Vec<(String, Option<String>)>,
    /// Target texts per target number, in the order keys first met them.
    targets: Vec<String>,
    queue: VecDeque<Work>,
    executors: Vec<Option<Work>>,
    history: BTreeMap<String, Vec<Build>>,
    next_number: BTreeMap<String, u32>,
    now: SimTime,
    last_trigger_scan: SimTime,
    buggify: Buggify,
    assign_attempts: u64,
}

impl Model {
    fn new(buggify: Buggify) -> Self {
        let mut model = Model {
            specs: BTreeMap::new(),
            order: Vec::new(),
            keys: Vec::new(),
            targets: Vec::new(),
            queue: VecDeque::new(),
            executors: vec![None; EXECUTORS],
            history: BTreeMap::new(),
            next_number: BTreeMap::new(),
            now: SimTime::ZERO,
            last_trigger_scan: SimTime::ZERO,
            buggify,
            assign_attempts: 0,
        };
        for spec in specs() {
            model.register(spec);
        }
        model
    }

    fn register(&mut self, spec: JobSpec) {
        self.history.entry(spec.name.clone()).or_default();
        self.next_number.entry(spec.name.clone()).or_insert(1);
        if !self.specs.contains_key(&spec.name) {
            self.order.push(spec.name.clone());
        }
        self.specs.insert(spec.name.clone(), spec);
    }

    fn next_cron_firing(&self) -> Option<SimTime> {
        self.specs
            .values()
            .filter_map(|spec| spec.trigger?.next_firing(self.last_trigger_scan))
            .min()
    }

    fn advance(&mut self, to: SimTime) {
        let timed: Vec<_> = self
            .specs
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

    /// The number of `job`'s `cell` key, given on first naming.
    fn cell_key(&mut self, job: &str, cell: Option<&str>) -> Option<usize> {
        if !self.specs.contains_key(job) {
            return None;
        }
        let named = |(j, c): &(String, Option<String>)| j == job && c.as_deref() == cell;
        Some(match self.keys.iter().position(named) {
            Some(key) => key,
            None => {
                self.keys.push((job.to_string(), cell.map(str::to_string)));
                if !self.targets.iter().any(|t| t == cell_target(cell)) {
                    self.targets.push(cell_target(cell).to_string());
                }
                self.keys.len() - 1
            }
        })
    }

    /// The number of `cell`'s target, by scan.
    fn target(&self, cell: Option<&str>) -> TargetId {
        let at = self.targets.iter().position(|t| t == cell_target(cell));
        TargetId(at.expect("a named cell's target is listed") as u16)
    }

    fn trigger_key(&mut self, key: usize, cause: Cause) -> Option<BuildRef> {
        let (job, cell) = self.keys[key].clone();
        let mut enqueued = self.enqueue(&job, cause, &[cell]);
        assert!(enqueued.len() <= 1);
        enqueued.pop()
    }

    /// Whether a build of key `key` is queued or running, by scan.
    fn is_pending(&self, key: usize) -> bool {
        self.queue.iter().chain(self.executors.iter().flatten()).any(|w| w.2 == key)
    }

    fn enqueue(&mut self, name: &str, cause: Cause, cells: &[Option<String>]) -> Vec<BuildRef> {
        let number = self.next_number[name];
        let mut enqueued = Vec::new();
        for cell in cells {
            let key = self.cell_key(name, cell.as_deref()).expect("registered");
            let pending = |r: &BuildRef| &*r.job == name && r.cell.as_deref() == cell.as_deref();
            if self.queue.iter().any(|(r, _, _)| pending(r))
                || self.executors.iter().flatten().any(|(r, _, _)| pending(r))
            {
                continue;
            }
            let r = BuildRef {
                job: name.into(),
                number,
                cell: cell.as_deref().map(Arc::from),
            };
            let target = self.target(cell.as_deref());
            self.history
                .entry(name.to_string())
                .or_default()
                .push(Build {
                    r#ref: r.clone(),
                    target,
                    cause,
                    queued_at: self.now,
                    started_at: None,
                    finished_at: None,
                    result: None,
                    log: Vec::new(),
                });
            self.queue.push_back((r.clone(), cause, key));
            enqueued.push(r);
        }
        if !enqueued.is_empty() {
            self.next_number.insert(name.to_string(), number + 1);
        }
        enqueued
    }

    fn find(&mut self, r: &BuildRef) -> Option<&mut Build> {
        self.history
            .get_mut(&*r.job)?
            .iter_mut()
            .find(|b| &b.r#ref == r)
    }

    fn assign(&mut self) -> Vec<Work> {
        let mut out = Vec::new();
        for slot in 0..self.executors.len() {
            if self.executors[slot].is_some() {
                continue;
            }
            let Some(item) = self.queue.pop_front() else {
                break;
            };
            self.assign_attempts += 1;
            if self.buggify.fire_hashed("ci-assign", self.assign_attempts) {
                self.queue.push_front(item);
                break;
            }
            let now = self.now;
            if let Some(b) = self.find(&item.0) {
                b.started_at = Some(now);
            }
            self.executors[slot] = Some(item.clone());
            out.push(item);
        }
        out
    }

    fn finish(&mut self, r: &BuildRef, result: BuildResult, log: Vec<String>) -> bool {
        let running = |s: &&mut Option<Work>| s.as_ref().is_some_and(|w| &w.0 == r);
        let Some(slot) = self.executors.iter_mut().find(running) else {
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

/// Every public view of the server's jobs and histories equals the model's.
fn assert_same_history(server: &CiServer, model: &Model) {
    for job in NAMES {
        assert_eq!(server.job(job), model.specs.get(job), "{job}: spec");
        let none = Vec::new();
        let flat = model.history.get(job).unwrap_or(&none);
        let history = server.history(job);
        assert_eq!(history.len(), flat.len(), "{job}: len");
        assert_eq!(history.is_empty(), flat.is_empty(), "{job}: is_empty");
        assert!(history.iter().eq(flat.iter()), "{job}: iteration order");
        // `sealed ++ open` is that same order, sealed builds are final,
        // and exactly the full leading runs of final builds are sealed.
        let sealed: Vec<&Build> = history.sealed().iter().flat_map(|s| s.builds()).collect();
        assert!(
            sealed.iter().all(|b| b.result.is_some()),
            "{job}: sealed yet pending"
        );
        assert!(
            sealed.iter().copied().chain(history.open()).eq(flat.iter()),
            "{job}: sealed ++ open"
        );
        let leading_final = flat.iter().take_while(|b| b.result.is_some()).count();
        match history.sealed().first().map(|s| s.builds().len()) {
            Some(segment) => {
                assert!(history.sealed().iter().all(|s| s.builds().len() == segment));
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
    // Readers see registration order, frozen or live; freezing changes
    // nothing a reader can see; the by-name walk is in name order.
    assert!(server.job_names_in_order().map(|n| &**n).eq(model.order.iter().map(|n| &**n)));
    let frozen = server.freeze_history();
    assert_eq!(frozen.len(), model.order.len());
    for (frozen, job) in frozen.iter().zip(&model.order) {
        assert_eq!(&*frozen.name, job);
        assert!(
            frozen.history.iter().eq(model.history[job].iter()),
            "{job}: frozen"
        );
    }
    assert!(server
        .all_history()
        .map(|h| h.iter().collect::<Vec<_>>())
        .eq(model.history.values().map(|flat| flat.iter().collect::<Vec<_>>())));
    assert_eq!(server.queue_len(), model.queue.len());
    assert_eq!(
        server.busy_executors(),
        model.executors.iter().flatten().count()
    );
    assert_eq!(server.now(), model.now);
    // The server numbers targets as the model does, and finds each by text.
    let targets = server.targets();
    for (i, text) in model.targets.iter().enumerate() {
        let id = TargetId(i as u16);
        assert_eq!(targets.text(id), Some(text.as_str()), "target {i}");
        assert_eq!(targets.id(text), Some(id), "target {text:?}");
    }
    assert_eq!(targets.text(TargetId(model.targets.len() as u16)), None);
    assert_eq!(targets.id("nowhere"), None);
}

/// Every key the server handed out is pending exactly when the model's
/// scan of its queue and executors says so.
fn assert_same_pending(server: &CiServer, model: &Model, held: &[CellKey]) {
    assert_eq!(held.len(), model.keys.len(), "every named pair has one key");
    for (i, &key) in held.iter().enumerate() {
        assert_eq!(key.index(), i);
        assert_eq!(server.is_pending(key), model.is_pending(i), "key {i} {:?}", model.keys[i]);
    }
}

/// The tally each history carries for its sealed part, plus its open
/// tail, is the fold over every finished build — live and frozen.
fn assert_carried_tallies(server: &CiServer, step: usize) {
    for job in NAMES {
        let live = server.history(job);
        let frozen = live.clone();
        assert_eq!(live.tally(), tally(live.finished()), "step {step}: {job}");
        assert_eq!(frozen.tally(), tally(frozen.finished()), "step {step}: {job}, frozen");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn job_table_matches_the_naive_model(
        seed in 0u64..1_000_000,
        chaos in 0usize..3,
        ops in prop::collection::vec((0u8..16, 0u64..1_000_000), 300..700),
    ) {
        let buggify = Buggify::new(seed, [0.0, 0.1, 0.5][chaos]);
        let mut server = CiServer::new(EXECUTORS);
        server.set_buggify(buggify);
        for spec in specs() {
            server.register(spec);
        }
        let mut model = Model::new(buggify);
        let cells: Vec<String> = expand_axes(&matrix_axes()).iter().map(render_cell).collect();
        // Every key the server made, by number; and the references its
        // assignments handed out, which share its `Arc`s.
        let mut held: Vec<CellKey> = Vec::new();
        let mut handed: Vec<BuildRef> = Vec::new();
        let results = [
            BuildResult::Success,
            BuildResult::Failure,
            BuildResult::Unstable,
            BuildResult::Aborted,
        ];
        for (step, &(op, arg)) in ops.iter().enumerate() {
            let pick = arg as usize;
            match op {
                // Whole-job triggers: of the idle job, of jobs registered
                // late or not yet, and of one nobody registers. Builds
                // still queued or running coalesce.
                0 | 1 => {
                    let job = ["smoke", "matrix", "smoke", "nobody", "zeta", "alpha", "idle"][pick % 7];
                    prop_assert_eq!(
                        server.trigger(job, Cause::Manual),
                        model.trigger(job, Cause::Manual),
                        "step {}: trigger {}", step, job
                    );
                }
                // Matrix-Reloaded retries: a few cells, maybe repeated,
                // maybe one the matrix never had, maybe of no job at all.
                2 => {
                    let mut some: Vec<String> = (0..1 + pick % 3)
                        .map(|k| cells[(pick / 7 + k * (1 + pick % 2)) % cells.len()].clone())
                        .collect();
                    if pick.is_multiple_of(5) {
                        some.push("cluster=z,image=x".to_string());
                    }
                    let job = if pick.is_multiple_of(11) { "nobody" } else { "matrix" };
                    prop_assert_eq!(
                        server.trigger_cells(job, Cause::Retry, &some),
                        model.trigger_cells(job, Cause::Retry, &some),
                        "step {}: trigger_cells {} {:?}", step, job, &some
                    );
                }
                3..=5 => {
                    let assigned = server.assign();
                    handed.extend(assigned.iter().map(|w| w.build.clone()));
                    prop_assert_eq!(work(assigned), model.assign(), "step {}: assign", step);
                }
                // Finish whichever running build the draw lands on: the
                // order of finishes is unrelated to the order of starts.
                // The first executor's build is rarely the one, so it
                // sticks at the head of its tail while builds behind it
                // finish: sealing lags, then catches up all at once (two
                // to four segments in one step, in a third of the cases).
                6..=8 => {
                    let stuck = usize::from(!pick.is_multiple_of(16));
                    let running: Vec<BuildRef> =
                        model.executors.iter().skip(stuck).flatten().map(|w| w.0.clone()).collect();
                    if let Some(r) = running.get(pick % running.len().max(1)) {
                        let result = results[pick % results.len()];
                        let log = vec![format!("step {step}")];
                        // The server's own reference (sharing its `Arc`s) or
                        // the model's equal one (its own texts).
                        let own = handed.iter().rev().find(|h| *h == r).filter(|_| !pick.is_multiple_of(3));
                        prop_assert!(server.finish(own.unwrap_or(r), result, log.clone()));
                        prop_assert!(model.finish(r, result, log));
                    }
                }
                // Finishes of builds that are not running: never created,
                // long since final, or of a job nobody registered.
                9 => {
                    let job = NAMES[[0, 1, 5][pick % 3]];
                    let r = match model.history.get(job).and_then(|flat| flat.get(pick % 40)) {
                        Some(b) if b.result.is_some() => b.r#ref.clone(),
                        _ => BuildRef {
                            job: job.into(),
                            number: 10_000 + pick as u32,
                            cell: None,
                        },
                    };
                    prop_assert!(!server.finish(&r, BuildResult::Success, vec![]));
                    prop_assert!(!model.finish(&r, BuildResult::Success, vec![]));
                }
                // Time passes and cron triggers fire.
                10 | 11 => {
                    let to = model.now + SimDuration::from_mins(1 + arg % 90);
                    model.advance(to);
                    server.advance(to);
                }
                // Keyed triggers by a key made now: a cell of the matrix,
                // one it never had, the cell-less build, or a job nobody
                // registered (no key).
                12 | 13 => {
                    let job = ["matrix", "smoke", "idle", "nobody", "alpha"][pick % 5];
                    let cell = match pick / 5 % 4 {
                        0 => None,
                        1 => Some("cluster=z,image=x"),
                        _ => Some(cells[pick / 20 % cells.len()].as_str()),
                    };
                    let key = server.cell_key(job, cell);
                    prop_assert_eq!(key.map(CellKey::index), model.cell_key(job, cell), "step {}: key", step);
                    if let Some(key) = key {
                        if key.index() == held.len() {
                            held.push(key);
                        }
                        prop_assert_eq!(
                            server.trigger_key(key, Cause::ExternalScheduler),
                            model.trigger_key(key.index(), Cause::ExternalScheduler),
                            "step {}: trigger_key {:?}", step, key
                        );
                    }
                }
                // Keyed triggers by a key held since it was made.
                14 => {
                    if let Some(&key) = held.get(pick % held.len().max(1)) {
                        prop_assert_eq!(
                            server.trigger_key(key, Cause::Cron),
                            model.trigger_key(key.index(), Cause::Cron),
                            "step {}: held trigger_key {:?}", step, key
                        );
                    }
                }
                // (Re-)registration: the spec changes, the position, the
                // history, the build counter and the keys do not.
                _ => {
                    server.register(respec(pick));
                    model.register(respec(pick));
                }
            }
            // Keys the name-based triggers made: the server numbers them
            // as the model does, so the next one is the model's next.
            while held.len() < model.keys.len() {
                let (job, cell) = model.keys[held.len()].clone();
                let key = server.cell_key(&job, cell.as_deref());
                prop_assert_eq!(key.map(CellKey::index), Some(held.len()), "step {}", step);
                held.extend(key);
            }
            assert_same_pending(&server, &model, &held);
            prop_assert_eq!(server.next_cron_firing(), model.next_cron_firing(), "step {}", step);
            assert_carried_tallies(&server, step);
            if step % 64 == 0 {
                assert_same_history(&server, &model);
            }
        }
        assert_same_history(&server, &model);
    }
}
