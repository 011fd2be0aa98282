//! The campaign orchestrator: everything wired together over virtual time.
//!
//! [`Campaign::run`] is a next-event driver: it computes the earliest due
//! instant across every subsystem — test completions, naive-cron due
//! dates, rollout phases, scheduler re-examination times, fault/user-load
//! arrivals, operator and metric cadences, OAR job starts/ends and
//! planning-horizon entries — and jumps straight to it, snapped to the
//! decision grid. The lockstep reference driver in [`crate::reference`]
//! visits every grid tick instead. Both run the same per-instant step in
//! the same phase order, every stochastic stream draws at the same
//! instants, and all suite-wide work is gated on due events, so the two
//! produce bit-identical campaigns (guarded by the `engine_equivalence`
//! integration suite).

use crate::config::{CampaignConfig, SchedulingMode, TestbedScale};
use crate::matching::find_fault;
use crate::metrics::CampaignMetrics;
use crate::snapshot::{Publisher, QueryStats, SnapshotHub};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::sync::Arc;
use ttt_bugs::{BugTracker, OperatorModel};
use ttt_ci::{BuildRef, BuildResult, Cause, CiServer, JobKind as CiJobKind, JobSpec, WorkItem};
use ttt_jobsched::{ExternalScheduler, TestEntry};
use ttt_kadeploy::{standard_images, Deployer, Environment};
use ttt_kavlan::KavlanManager;
use ttt_kwapi::MetricStore;
use ttt_oar::{
    FedJob, FedJobState, Federation, JobKind as OarJobKind, Queue, ResourceRequest,
    UserLoadGenerator,
};
use ttt_refapi::RefApi;
use ttt_sim::{Event, EventLog, EventQueue, RngFactory, SimDuration, SimTime};
use ttt_suite::{build_suite, run_test, TestConfig, TestCtx, TestReport};
use ttt_testbed::fault::inject_random;
use ttt_testbed::{FaultInjector, FaultKind, Testbed, TestbedBuilder};

/// A test currently executing on the testbed (completion time is the
/// event-queue key).
struct RunningTest {
    build: BuildRef,
    suite_idx: usize,
    oar_job: FedJob,
    report: TestReport,
}

/// Naive-baseline work blocked on its OAR job starting (holds an executor).
struct BlockedWork {
    build: BuildRef,
    suite_idx: usize,
    oar_job: FedJob,
}

/// The wake-reason labels, indexed by the counter slots of
/// [`Campaign::wake_reasons`] — one per `next_wake` term, in scan order,
/// plus the quiet jump-to-horizon case. The mix of winning reasons is a
/// behavioral fingerprint of a campaign (which subsystems actually drove
/// its timeline), read by the coverage-guided fuzzer. Only the next-event
/// driver populates it; the lockstep reference never computes wakes.
pub const WAKE_REASONS: [&str; 15] = [
    "dirty-nodes",
    "free-executor",
    "test-completion",
    "scheduler-due",
    "naive-due",
    "user-arrival",
    "fault-arrival",
    "oar-event",
    "ci-cron",
    "rollout-phase",
    "operator-cadence",
    "sample-cadence",
    "snapshot-cadence",
    "service-restart",
    "quiet",
];

/// The whole system, advancing in lockstep over virtual time.
pub struct Campaign {
    pub(crate) cfg: CampaignConfig,
    tb: Testbed,
    refapi: RefApi,
    /// Per-site scheduling domains: each site runs its own OAR server and
    /// the driver places work across them.
    fed: Federation,
    ci: CiServer,
    sched: ExternalScheduler,
    kavlan: KavlanManager,
    kwapi: MetricStore,
    deployer: Deployer,
    images: Vec<Environment>,
    injector: FaultInjector,
    userload: UserLoadGenerator,
    tracker: BugTracker,
    operators: OperatorModel,
    metrics: CampaignMetrics,
    suite: Vec<TestConfig>,
    /// Precomputed `suite[i].id()` strings (scheduler callback keys).
    suite_ids: Vec<String>,
    /// Precomputed home scheduling domain per configuration (the site
    /// whose resources the test consumes).
    suite_home: Vec<Option<usize>>,
    /// ci job → cell → suite index (nested so lookups borrow, not clone).
    by_key: BTreeMap<String, BTreeMap<Option<String>, usize>>,
    enabled: Vec<bool>,
    /// Naive mode: per-configuration next-due times.
    naive_due: Vec<SimTime>,
    /// Naive mode: suite indices keyed by due instant (superseded entries
    /// skipped lazily), so a trigger pass costs O(due), not O(suite).
    naive_queue: EventQueue<usize>,
    /// Scratch buffer of due suite indices reused across trigger passes.
    naive_scratch: Vec<usize>,
    next_phase: usize,
    /// In-flight tests keyed by `finish_at`; completions pop in
    /// `(finish_at, submission order)`.
    running: EventQueue<RunningTest>,
    /// Tests completed per site (the domain whose resources the test
    /// held), counted as completions pop — an engine-equivalence
    /// observable.
    site_completions: Vec<u64>,
    blocked: Vec<BlockedWork>,
    rng_inject: SmallRng,
    rng_user: SmallRng,
    rng_sched: SmallRng,
    rng_test: SmallRng,
    now: SimTime,
    last_snapshot: SimTime,
    /// Last operator-model run (operators act on `operator_cadence`).
    last_op_step: SimTime,
    /// Last utilization sample (taken on `sample_cadence`).
    last_sample: SimTime,
    /// Winning `next_wake` term counts, indexed like [`WAKE_REASONS`].
    wake_reasons: [u64; WAKE_REASONS.len()],
    /// Whether the last sample saw the federation saturated (edge detector
    /// for `metrics.saturation_episodes`).
    in_saturation: bool,
    /// Whether the last sample saw a blacked-out site (edge detector for
    /// `metrics.blackout_episodes`).
    in_blackout: bool,
    /// The structured per-run event log, populated only when
    /// [`Campaign::record_events`] armed it before the first step.
    /// Recording is strictly observational: it never draws, never branches
    /// the timeline, and a recording campaign is bit-identical to a silent
    /// one (guarded by the replay suite).
    events: Option<EventLog>,
    /// The read plane's publisher. Armed at construction when
    /// `cfg.queries_per_day > 0`, or on demand via
    /// [`Campaign::arm_snapshots`]; unarmed, no epochs publish.
    publisher: Publisher,
}

impl Campaign {
    /// Assemble a campaign from its configuration.
    pub fn new(cfg: CampaignConfig) -> Self {
        let rngs = RngFactory::new(cfg.seed);
        let mut tb = match &cfg.scale {
            TestbedScale::Paper => TestbedBuilder::paper_scale().build(),
            TestbedScale::Small => TestbedBuilder::small().build(),
            TestbedScale::Custom(specs) => TestbedBuilder::from_specs(specs.clone()).build(),
        };
        let mut refapi = RefApi::new();
        refapi.publish_from(&tb, SimTime::ZERO);

        // Arm buggify before anything draws: rate 0.0 (the default) never
        // fires and never consumes a stream, so unarmed campaigns are
        // byte-identical to pre-buggify ones.
        tb.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        // Install the backbone link model before anything draws. The
        // default Ideal model never draws and never adds latency, so
        // campaigns that predate link models replay byte-identically.
        tb.set_link_model(cfg.link_model);

        // Pre-existing fault burden: drift accumulated before testing
        // started, drawn from the same kind distribution as arrivals.
        let mut rng_burden = rngs.stream("initial-burden");
        // Draw burden kinds from the arrival distribution; a quiescent
        // injector still gets a burden drawn uniformly over all kinds.
        // Service-process faults are excluded: burden models wear that
        // accumulated unnoticed, and a crashed daemon at t=0 is not that —
        // crashes/restarts/link degradation must *arrive* as events (a t=0
        // ServiceCrash on every OAR server would starve a campaign whose
        // rollout has no family able to diagnose it).
        let kinds: Vec<FaultKind> = if cfg.injector.rates_per_day.is_empty() {
            FaultKind::ALL.to_vec()
        } else {
            cfg.injector.rates_per_day.iter().map(|(k, _)| *k).collect()
        };
        let kinds: Vec<FaultKind> = kinds
            .into_iter()
            .filter(|k| !FaultKind::SERVICE_PROCESS.contains(k))
            .collect();
        let mut applied = 0;
        let mut attempts = 0;
        while applied < cfg.initial_fault_burden && attempts < cfg.initial_fault_burden * 20 {
            attempts += 1;
            let Some(&kind) = kinds.choose(&mut rng_burden) else {
                break;
            };
            if inject_random(kind, SimTime::ZERO, &mut tb, &mut rng_burden).is_some() {
                applied += 1;
            }
        }

        let mut fed = Federation::new(&tb, refapi.latest().expect("published"));
        // Same seed/rate; the submit path only uses the rng-free hashed
        // variant, so arming it never shifts a stream.
        fed.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        let sched = ExternalScheduler::new(cfg.policy.clone(), Vec::new());
        let mut ci = CiServer::new(cfg.executors);
        // Same seed and rate as the testbed's hook: the CI side only uses
        // the rng-free hashed variant, so arming it never shifts a stream.
        ci.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        let images = standard_images();
        let suite = build_suite(&tb, &images);
        for family in ttt_suite::Family::ALL {
            ci.register(JobSpec {
                name: family.job_name().to_string(),
                kind: CiJobKind::Freestyle,
                trigger: None,
            });
        }
        let mut by_key: BTreeMap<String, BTreeMap<Option<String>, usize>> = BTreeMap::new();
        for (i, c) in suite.iter().enumerate() {
            by_key
                .entry(c.family.job_name().to_string())
                .or_default()
                .insert(c.cell(), i);
        }
        let suite_ids: Vec<String> = suite.iter().map(|c| c.id()).collect();
        let suite_home: Vec<Option<usize>> = suite
            .iter()
            .map(|c| fed.domain_by_name(&c.site(&tb)))
            .collect();
        let clusters = tb.clusters().iter().map(|c| c.name.clone()).collect();
        let mut kwapi = MetricStore::new(tb.nodes().len(), 600, SimDuration::from_mins(5));
        // Read-plane chaos hooks: both sides only use the rng-free hashed
        // variant on monotone read counters, so arming them never shifts a
        // stream and fires identically across engines.
        refapi.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        kwapi.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        let n = suite.len();
        let sites = fed.len();
        let mut userload = UserLoadGenerator::new(cfg.user_load.clone(), clusters)
            .expect("a built testbed always has at least one cluster");
        userload.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        Campaign {
            sched,
            userload,
            injector: FaultInjector::new(cfg.injector.clone()),
            operators: OperatorModel::new(cfg.operator_capacity_per_week, cfg.operator_triage),
            rng_inject: rngs.stream("inject"),
            rng_user: rngs.stream("userload"),
            rng_sched: rngs.stream("sched"),
            rng_test: rngs.stream("tests"),
            tb,
            refapi,
            fed,
            ci,
            kavlan: KavlanManager::new(),
            kwapi,
            deployer: Deployer::default(),
            images,
            tracker: BugTracker::new(),
            metrics: CampaignMetrics::default(),
            suite,
            suite_ids,
            suite_home,
            by_key,
            enabled: vec![false; n],
            naive_due: vec![SimTime::ZERO; n],
            naive_queue: EventQueue::new(),
            naive_scratch: Vec::new(),
            next_phase: 0,
            running: EventQueue::new(),
            site_completions: vec![0; sites],
            blocked: Vec::new(),
            now: SimTime::ZERO,
            last_snapshot: SimTime::ZERO,
            last_op_step: SimTime::ZERO,
            last_sample: SimTime::ZERO,
            wake_reasons: [0; WAKE_REASONS.len()],
            in_saturation: false,
            in_blackout: false,
            events: None,
            publisher: Publisher::new(
                cfg.queries_per_day,
                cfg.query_users,
                rngs.stream("queries"),
            ),
            cfg,
        }
    }

    /// Arm structured event recording. Call before the first step: the log
    /// then receives fault arrivals/repairs, RPC outcomes, job lifecycle
    /// transitions, wake reasons and daily digest checkpoints. Recording
    /// never perturbs the campaign — no draws, no behavioral branches.
    pub fn record_events(&mut self) {
        self.events = Some(EventLog::new());
        self.tb.set_rpc_trace(true);
    }

    /// Take the recorded event log (None when recording was never armed).
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.tb.set_rpc_trace(false);
        self.events.take()
    }

    /// Append one event when recording is armed; a silent campaign never
    /// builds it. Takes the log field, not `self`, so `event` may borrow
    /// the campaign's other fields.
    fn log_event(events: &mut Option<EventLog>, event: impl FnOnce() -> Event) {
        if let Some(log) = events {
            log.push(event());
        }
    }

    /// The testbed (inspection from examples/benches).
    pub fn testbed(&self) -> &Testbed {
        &self.tb
    }

    /// The bug tracker.
    pub fn tracker(&self) -> &BugTracker {
        &self.tracker
    }

    /// The campaign metrics gathered so far.
    pub fn metrics(&self) -> &CampaignMetrics {
        &self.metrics
    }

    /// The external scheduler (decision counters live here).
    pub fn scheduler(&self) -> &ExternalScheduler {
        &self.sched
    }

    /// The federated resource layer (inspection from examples/benches and
    /// the swarm's conservation oracle).
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// The CI server (executor accounting, build histories).
    pub fn ci(&self) -> &CiServer {
        &self.ci
    }

    /// Tests completed per site, in domain order — populated identically
    /// by both engines (an engine-equivalence observable).
    pub fn site_completions(&self) -> &[u64] {
        &self.site_completions
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Winning wake-reason counts, `(label, count)` with zero entries
    /// skipped. Empty for lockstep reference runs (that driver never
    /// computes wakes), so this is *not* an engine-equivalence observable —
    /// it is the coverage fuzzer's view of which subsystems drove the
    /// timeline.
    pub fn wake_reasons(&self) -> Vec<(&'static str, u64)> {
        WAKE_REASONS
            .iter()
            .zip(self.wake_reasons)
            .filter(|&(_, n)| n > 0)
            .map(|(&r, n)| (r, n))
            .collect()
    }

    /// The read-plane snapshot hub, if armed.
    pub fn snapshot_hub(&self) -> Option<Arc<SnapshotHub>> {
        self.publisher.hub.clone()
    }

    /// Arm the read plane (idempotent) and return its hub. Epochs start
    /// publishing at the next sample-cadence instant. Arming never
    /// perturbs the campaign digest — the read path draws only from its
    /// own `"queries"` stream (and not at all without query volume).
    pub fn arm_snapshots(&mut self) -> Arc<SnapshotHub> {
        self.publisher.arm()
    }

    /// Read-plane traffic counters.
    pub fn query_stats(&self) -> QueryStats {
        self.publisher.query_stats
    }

    /// Running fold over every published snapshot — bit-identical across
    /// engines publishing the same epochs (an equivalence observable).
    pub fn snapshot_fold(&self) -> u64 {
        self.publisher.snapshot_fold
    }

    /// The power metric store (read-only inspection).
    pub fn power_store(&self) -> &MetricStore {
        &self.kwapi
    }

    /// The reference API archive (read-only inspection).
    pub fn refapi(&self) -> &RefApi {
        &self.refapi
    }

    /// Run the whole configured duration.
    pub fn run(&mut self) {
        let end = SimTime::ZERO + self.cfg.duration;
        self.run_until(end);
        self.finalize();
    }

    /// Advance the campaign to `until` (idempotent if already past).
    ///
    /// Asks every subsystem for its earliest due instant and jumps to it
    /// (snapped up to the decision grid), skipping the quiet ticks the
    /// lockstep reference walks one by one. Both process identical
    /// instants whenever anything is due, so the campaigns are
    /// bit-identical.
    pub fn run_until(&mut self, until: SimTime) {
        // The grid is anchored where this call starts, exactly like the
        // lockstep `now + k*tick` sequence.
        let anchor = self.now;
        let tick = self.cfg.tick.as_nanos().max(1);
        while self.now < until {
            // The smallest grid instant > now: any wake at or before it
            // snaps there, so `next_wake` may stop scanning subsystems as
            // soon as one is due that soon.
            let next_grid = {
                let off = (self.now.as_nanos() + 1).saturating_sub(anchor.as_nanos());
                let k = off.div_ceil(tick);
                anchor + SimDuration::from_nanos(k.saturating_mul(tick))
            };
            let t = match self.next_wake(next_grid) {
                Some(wake) => {
                    // Smallest grid instant that is > now and ≥ wake.
                    let wake = wake.max(self.now + SimDuration::from_nanos(1));
                    let off = wake.as_nanos().saturating_sub(anchor.as_nanos());
                    let k = off.div_ceil(tick);
                    (anchor + SimDuration::from_nanos(k.saturating_mul(tick))).min(until)
                }
                // Nothing pending anywhere: jump to the end.
                None => until,
            };
            self.step_to(t);
        }
    }

    /// The earliest instant at which any subsystem has work to do, from
    /// the campaign's current instant. `None` means the world is quiet
    /// until the horizon.
    ///
    /// `next_grid` is the smallest grid instant after `now`: every wake at
    /// or before it snaps there anyway, so the scan stops as soon as one
    /// subsystem is due that soon. In saturated campaigns (something due
    /// every tick) this keeps the event engine's bookkeeping out of the
    /// hot loop — it degrades to lockstep's cost instead of lockstep plus
    /// a full wake computation per tick. Peeks are idempotent (arrival
    /// streams cache their primed draw), so skipping the later terms on
    /// one wake never perturbs any stochastic stream.
    fn next_wake(&mut self, next_grid: SimTime) -> Option<SimTime> {
        match self.next_wake_scan(next_grid) {
            Some((t, reason)) => {
                self.wake_reasons[reason] += 1;
                Self::log_event(&mut self.events, || Event::Wake {
                    at: t,
                    reason: WAKE_REASONS[reason].to_string(),
                });
                Some(t)
            }
            None => {
                // "quiet" is the last slot: nothing pending anywhere.
                self.wake_reasons[WAKE_REASONS.len() - 1] += 1;
                None
            }
        }
    }

    /// The scan behind [`Campaign::next_wake`], returning the winning term
    /// as `(instant, WAKE_REASONS index)` so the wake-reason mix can be
    /// counted without perturbing the timing logic.
    fn next_wake_scan(&mut self, next_grid: SimTime) -> Option<(SimTime, usize)> {
        let mut wake: Option<(SimTime, usize)> = None;
        let mut reason = 0usize;
        macro_rules! merge {
            ($t:expr) => {
                if let Some(t) = $t {
                    // Earliest instant wins; the first term to reach a tied
                    // instant keeps the reason (scan order = priority).
                    if wake.is_none() || wake.is_some_and(|(w, _)| t < w) {
                        wake = Some((t, reason));
                    }
                    if wake.is_some_and(|(w, _)| w <= next_grid) {
                        return wake;
                    }
                }
                reason += 1;
            };
        }
        // Cheapest immediate-wake terms first (each short-circuits the
        // whole scan when it fires).
        //
        // Testbed alive-state changed since the last sync (operator
        // repairs land between syncs): reconcile on the very next grid
        // instant, exactly when the lockstep reference would.
        merge!((!self.tb.alive_dirty().is_empty())
            .then(|| self.now + SimDuration::from_nanos(1)));
        // A free executor with builds still queued: `start_work` can finish
        // a build immediately (unstable — no testbed resources), freeing
        // its executor after the step's assignment pass already ran. The
        // lockstep reference picks the next queued build up on the very
        // next grid instant; wake then so this driver does too.
        merge!((self.ci.queue_len() > 0
            && self.ci.busy_executors() < self.ci.executor_count())
            .then(|| self.now + SimDuration::from_nanos(1)));
        // Test completions.
        merge!(self.running.peek_time());
        // Scheduling decisions (two reason slots, one per mode).
        match self.cfg.mode {
            SchedulingMode::External => {
                merge!(self.sched.next_due_time());
                reason += 1;
            }
            SchedulingMode::NaiveCron { .. } => {
                reason += 1;
                merge!(self.peek_naive_due());
            }
        }
        // User-load candidate arrivals (primed with advance's own draw).
        merge!(self.userload.next_event(self.fed.now(), &mut self.rng_user));
        // Fault and maintenance arrivals.
        merge!(self.injector.next_event(&mut self.rng_inject));
        // OAR job starts/ends and planning-horizon re-plan instants,
        // across every site's queues (the widest scan, hence last of the
        // event sources).
        merge!(self.fed.next_event_time());
        // CI cron triggers (none in campaign configs, but kept honest).
        merge!(self.ci.next_cron_firing());
        // Rollout phases.
        merge!(self.cfg.rollout.phases.get(self.next_phase).map(|p| p.0));
        // Operator and metrics cadences.
        merge!(Some(self.last_op_step + self.cfg.operator_cadence));
        merge!(Some(self.last_sample + self.cfg.sample_cadence));
        merge!(Some(self.last_snapshot + SimDuration::from_days(1)));
        // Scheduled service-process restarts (bounded downtime windows).
        merge!(self.tb.next_service_restart());
        let _ = reason;
        wake
    }

    /// Process the grid instant `t`: the one per-instant step both drivers
    /// share.
    pub(crate) fn step_to(&mut self, t: SimTime) {
        self.now = t;
        // 1. Users compete for the testbed, across all sites.
        self.userload
            .advance_fed(t, &mut self.fed, &mut self.rng_user);
        self.fed.advance(t);
        // 2. Faults arrive.
        let arrived = self.injector.advance(t, &mut self.tb, &mut self.rng_inject);
        if self.events.is_some() {
            for f in &arrived {
                let sig = f.signature();
                let target = sig.split_once('@').map_or(sig.as_str(), |(_, t)| t);
                Self::log_event(&mut self.events, || Event::FaultArrival {
                    at: f.injected_at,
                    fault_id: f.id.0,
                    kind: f.kind.name().to_string(),
                    target: target.to_string(),
                });
            }
        }
        // 2b. Bounded service-restart windows that elapsed complete on
        //     their own: the restart *is* the repair (fault-id order keeps
        //     this deterministic across engines).
        for id in self.tb.due_service_restarts(t) {
            if self.tb.repair(id) {
                Self::log_event(&mut self.events, || Event::FaultRepair { at: t, fault_id: id.0 });
            }
        }
        // 3. Every site's OAR notices dead/repaired hardware (diff of
        //    flipped nodes only — no full testbed rescan), learns whether
        //    its own server process is up (a dead OAR process stops
        //    placement on that domain — without looking anything like a
        //    site blackout), and refreshes the backbone reachability view
        //    (a no-op clear under the ideal link model).
        let dirty = self.tb.take_alive_dirty();
        self.fed.sync_dirty_nodes(&self.tb, &dirty);
        self.fed.sync_process_liveness(&self.tb);
        self.fed.sync_backbone(&self.tb);
        // 4. New test families roll out.
        self.apply_rollout(t);
        // 5. Finish tests whose virtual duration elapsed.
        self.complete_due(t);
        // 6. Naive baseline: blocked builds whose OAR job finally started.
        if !self.blocked.is_empty() {
            self.poll_blocked(t);
        }
        // 7. Scheduling decisions (due entries only).
        self.ci.advance(t);
        match self.cfg.mode {
            SchedulingMode::External => {
                self.sched
                    .run_due(t, &mut self.ci, &self.fed, &mut self.rng_sched);
            }
            SchedulingMode::NaiveCron { period } => self.naive_trigger(t, period),
        }
        // 8. Executors pick work up.
        let work = self.ci.assign();
        for item in work {
            self.start_work(item, t);
        }
        // 9. Operators fix bugs on their cadence, repairing faults.
        if t.since(self.last_op_step) >= self.cfg.operator_cadence {
            self.last_op_step = t;
            let fixed = self.operators.step(&mut self.tracker, t);
            for bug_id in fixed {
                if let Some(bug) = self.tracker.bug(bug_id) {
                    if let Some(fault) = find_fault(&self.tb, &bug.signature.clone()) {
                        if self.tb.repair(fault.id) {
                            Self::log_event(&mut self.events, || Event::FaultRepair {
                                at: t,
                                fault_id: fault.id.0,
                            });
                        }
                    }
                }
            }
        }
        // 10. Metrics sampling on a bounded cadence. Saturation/blackout
        //     episodes are edges observed at the same instants under both
        //     engines, so they stay engine-equivalence observables.
        if t.since(self.last_sample) >= self.cfg.sample_cadence {
            let window_from = self.last_sample;
            self.last_sample = t;
            self.metrics
                .executor_busy
                .push(self.ci.busy_executors() as f64 / self.ci.executor_count() as f64);
            let util = self.fed.utilization();
            self.metrics.oar_utilization.push(util);
            let saturated = util >= 1.0;
            if saturated && !self.in_saturation {
                self.metrics.saturation_episodes += 1;
            }
            self.in_saturation = saturated;
            let blackout = self.fed.dead_domains() > 0;
            if blackout && !self.in_blackout {
                self.metrics.blackout_episodes += 1;
            }
            self.in_blackout = blackout;
            // 10b. The write plane hands the read plane its epoch: every
            //      sample instant (identical across engines) freezes a
            //      snapshot, so this changes nothing unless armed.
            self.publisher.publish(
                &self.tb,
                &mut self.refapi,
                &mut self.kwapi,
                &self.fed,
                &self.ci,
                window_from..t,
            );
        }
        if t.since(self.last_snapshot) >= SimDuration::from_days(1) {
            self.last_snapshot = t;
            self.metrics
                .bug_snapshots
                .push((t, self.tracker.filed(), self.tracker.fixed()));
            Self::log_event(&mut self.events, || Event::Checkpoint {
                at: t,
                tests_run: self.metrics.tests_run,
                tests_failed: self.metrics.tests_failed,
                filed: self.tracker.filed() as u64,
                fixed: self.tracker.fixed() as u64,
                active_faults: self.tb.active_faults().len() as u64,
            });
        }
        // Drain the testbed's RPC envelope trace into the log. The trace
        // is only collected while recording is armed, so a silent campaign
        // pays nothing here.
        if self.events.is_some() {
            for entry in self.tb.take_rpc_trace() {
                Self::log_event(&mut self.events, || Event::RpcOutcome {
                    at: t,
                    site: entry.site.0,
                    service: entry.kind.to_string(),
                    outcome: entry.outcome,
                });
            }
        }
    }

    fn apply_rollout(&mut self, t: SimTime) {
        while self.next_phase < self.cfg.rollout.phases.len() {
            let (at, families) = &self.cfg.rollout.phases[self.next_phase];
            if *at > t {
                break;
            }
            let families = families.clone();
            self.next_phase += 1;
            for idx in 0..self.suite.len() {
                if self.enabled[idx] || !families.contains(&self.suite[idx].family) {
                    continue;
                }
                self.enabled[idx] = true;
                match self.cfg.mode {
                    SchedulingMode::External => {
                        let entry = self.make_entry(idx);
                        self.sched.add_entry(entry, t);
                    }
                    SchedulingMode::NaiveCron { .. } => self.set_naive_due(idx, t),
                }
            }
        }
    }

    fn make_entry(&self, idx: usize) -> TestEntry {
        let cfg = &self.suite[idx];
        TestEntry {
            id: cfg.id(),
            ci_job: cfg.family.job_name().to_string(),
            cell: cfg.cell(),
            site: cfg.site(&self.tb),
            request: self.request_for(idx),
            hardware_centric: cfg.family.hardware_centric(),
            period: cfg.family.period(),
        }
    }

    /// The OAR request for a configuration, honouring the per-node ablation.
    fn request_for(&self, idx: usize) -> ResourceRequest {
        let cfg = &self.suite[idx];
        let request = cfg.resource_request(&self.tb);
        if self.cfg.per_node_hardware && cfg.family.hardware_centric() {
            // Per-node mode: sample three nodes instead of the whole
            // cluster (slide 23's open question).
            if let ttt_suite::Target::Cluster(c) = &cfg.target {
                return ResourceRequest::nodes(
                    ttt_oar::Expr::eq("cluster", c),
                    3,
                    cfg.family.walltime(),
                );
            }
        }
        request
    }

    /// Record a new naive-cron due date for a configuration and index it.
    fn set_naive_due(&mut self, idx: usize, at: SimTime) {
        self.naive_due[idx] = at;
        self.naive_queue.push(at, idx);
    }

    /// The earliest live naive-cron due instant (skipping superseded
    /// queue entries).
    fn peek_naive_due(&mut self) -> Option<SimTime> {
        while let Some((at, &idx)) = self.naive_queue.peek() {
            if self.enabled[idx] && self.naive_due[idx] == at {
                return Some(at);
            }
            self.naive_queue.pop();
        }
        None
    }

    /// Naive baseline: trigger every due configuration on a fixed cron
    /// period, with no availability checks. Due configurations come off
    /// the due-date index in suite order (the order the old full scan
    /// used); nothing else is touched.
    fn naive_trigger(&mut self, t: SimTime, period: SimDuration) {
        let mut due = std::mem::take(&mut self.naive_scratch);
        due.clear();
        {
            let naive_due = &self.naive_due;
            let enabled = &self.enabled;
            due.extend(
                self.naive_queue
                    .drain_due_iter(t)
                    .filter(|&(at, idx)| enabled[idx] && naive_due[idx] == at)
                    .map(|(_, idx)| idx),
            );
        }
        due.sort_unstable();
        due.dedup();
        for &idx in &due {
            let job = self.suite[idx].family.job_name().to_string();
            let cell = self.suite[idx].cell();
            let cells: Vec<String> = cell.into_iter().collect();
            let triggered = self.ci.trigger_cells(&job, Cause::Cron, &cells);
            if !triggered.is_empty() {
                self.set_naive_due(idx, t + period);
            } else {
                // Still pending in CI: check again next tick.
                self.set_naive_due(idx, t + self.cfg.tick);
            }
        }
        self.naive_scratch = due;
    }

    /// An executor picked a build up: create the testbed job and either run
    /// the test (started immediately) or handle the miss per mode.
    fn start_work(&mut self, item: WorkItem, t: SimTime) {
        let Some(&idx) = self
            .by_key
            .get(item.build.job.as_str())
            .and_then(|cells| cells.get(&item.build.cell))
        else {
            self.ci
                .finish(&item.build, BuildResult::Aborted, vec!["unknown cell".into()]);
            return;
        };
        let request = self.request_for(idx);
        let submitted = self.fed.submit(
            "ci",
            Queue::Admin,
            OarJobKind::Test,
            request,
            self.suite_home[idx],
        );
        let oar_job = match submitted {
            Ok(id) => id,
            Err(_) => {
                // Whole target unavailable (e.g. cluster dead): unstable,
                // retry later with backoff.
                self.ci.finish(
                    &item.build,
                    BuildResult::Unstable,
                    vec!["no eligible resources on the testbed".into()],
                );
                self.metrics.unstable_builds += 1;
                Self::log_event(&mut self.events, || Event::JobUnstable {
                    at: t,
                    test: self.suite_ids[idx].clone(),
                });
                match self.cfg.mode {
                    SchedulingMode::External => {
                        let id = &self.suite_ids[idx];
                        self.sched.on_not_immediate(id, t, &mut self.rng_sched)
                    }
                    SchedulingMode::NaiveCron { period } => {
                        self.set_naive_due(idx, t + period);
                    }
                }
                return;
            }
        };
        let started = self.fed.job_state(&oar_job) == FedJobState::Running;
        if started {
            self.execute_test(item.build, idx, oar_job, t);
            return;
        }
        match self.cfg.mode {
            SchedulingMode::External => {
                // The paper's rule: cancel + mark unstable + backoff.
                self.fed.cancel(&oar_job);
                self.ci.finish(
                    &item.build,
                    BuildResult::Unstable,
                    vec!["testbed job could not be scheduled immediately".into()],
                );
                self.metrics.unstable_builds += 1;
                Self::log_event(&mut self.events, || Event::JobUnstable {
                    at: t,
                    test: self.suite_ids[idx].clone(),
                });
                let id = &self.suite_ids[idx];
                self.sched.on_not_immediate(id, t, &mut self.rng_sched);
            }
            SchedulingMode::NaiveCron { .. } => {
                // Submit and wait, holding the executor.
                self.blocked.push(BlockedWork {
                    build: item.build,
                    suite_idx: idx,
                    oar_job,
                });
            }
        }
    }

    /// Naive baseline: release blocked builds whose OAR job started (or
    /// died waiting).
    fn poll_blocked(&mut self, t: SimTime) {
        let mut still = Vec::new();
        let blocked = std::mem::take(&mut self.blocked);
        for work in blocked {
            match self.fed.job_state(&work.oar_job) {
                FedJobState::Running => {
                    self.execute_test(work.build, work.suite_idx, work.oar_job, t);
                }
                FedJobState::Failed => {
                    self.ci.finish(
                        &work.build,
                        BuildResult::Failure,
                        vec!["testbed job failed before start".into()],
                    );
                    self.record_result(work.suite_idx, false, t);
                }
                FedJobState::Pending | FedJobState::Done => still.push(work),
            }
        }
        self.blocked = still;
    }

    /// Run the test script now; bookkeeping happens when its virtual
    /// duration elapses.
    fn execute_test(&mut self, build: BuildRef, idx: usize, oar_job: FedJob, t: SimTime) {
        let assigned = self.fed.assigned_nodes(&oar_job);
        let report = {
            let cfg = &self.suite[idx];
            // Scripts see the OAR server of the site they run on (the
            // primary part for cross-site co-allocations).
            let mut ctx = TestCtx {
                tb: &mut self.tb,
                refapi: &self.refapi,
                oar: &self.fed.domain(oar_job.primary_domain()).oar,
                kavlan: &mut self.kavlan,
                kwapi: &mut self.kwapi,
                deployer: &self.deployer,
                images: &self.images,
                assigned: &assigned,
                now: t,
                rng: &mut self.rng_test,
            };
            run_test(cfg, &mut ctx)
        };
        let walltime = self.suite[idx].family.walltime();
        let finish_at = t + report.duration.min(walltime);
        Self::log_event(&mut self.events, || Event::JobStarted {
            at: t,
            test: self.suite_ids[idx].clone(),
            site: oar_job.primary_domain() as u16,
        });
        self.running.push(
            finish_at,
            RunningTest {
                build,
                suite_idx: idx,
                oar_job,
                report,
            },
        );
    }

    /// Complete every test whose `finish_at` elapsed, earliest first (FIFO
    /// among ties) — popped straight off the completion queue.
    fn complete_due(&mut self, t: SimTime) {
        while let Some((finish_at, r)) = self.running.pop_due(t) {
            // The site whose resources the test held (primary part for
            // cross-site co-allocations).
            let site = r.oar_job.primary_domain();
            self.site_completions[site] += 1;
            Self::log_event(&mut self.events, || Event::JobCompleted {
                at: finish_at,
                test: self.suite_ids[r.suite_idx].clone(),
                site: site as u16,
                passed: r.report.passed(),
            });
            self.fed.complete_early(&r.oar_job);
            let result = if r.report.passed() {
                BuildResult::Success
            } else {
                BuildResult::Failure
            };
            self.ci.finish(&r.build, result, r.report.log_lines());
            let family = self.suite[r.suite_idx].family.job_name();
            for d in &r.report.diagnostics {
                self.tracker.file(&d.signature, family, &d.message, t);
                // Attribute the detection to the fault kind behind the
                // diagnostic — the detected half of the injected × detected
                // coverage feature. Unattributable diagnostics (fault
                // already repaired, stale symptom) stay unclassified.
                if let Some(kind) = find_fault(&self.tb, &d.signature).map(|f| f.kind) {
                    *self
                        .metrics
                        .detected_by_kind
                        .entry(kind.name().to_string())
                        .or_insert(0) += 1;
                }
            }
            self.record_result(r.suite_idx, r.report.passed(), t);
        }
    }

    fn record_result(&mut self, idx: usize, passed: bool, t: SimTime) {
        self.metrics.tests_run += 1;
        if !passed {
            self.metrics.tests_failed += 1;
        }
        let v = if passed { 1.0 } else { 0.0 };
        self.metrics.monthly_success.push(t, v);
        self.metrics.weekly_success.push(t, v);
        *self
            .metrics
            .completions_per_family
            .entry(self.suite[idx].family.job_name().to_string())
            .or_insert(0) += 1;
        match self.cfg.mode {
            SchedulingMode::External => self.sched.on_finished(&self.suite_ids[idx], t),
            SchedulingMode::NaiveCron { period } => {
                self.set_naive_due(idx, t + period);
            }
        }
    }

    /// Final pass: derive latency statistics from OAR and CI histories.
    pub(crate) fn finalize(&mut self) {
        for (_, job) in self.fed.all_jobs() {
            if job.kind == OarJobKind::User {
                if let Some(w) = job.waiting_time() {
                    self.metrics
                        .user_wait_hours
                        .push(w.as_secs_f64() / 3600.0);
                }
            }
        }
        for builds in self.ci.all_history().values() {
            for b in builds.iter() {
                if let Some(f) = b.finished_at {
                    self.metrics
                        .test_latency_hours
                        .push(f.since(b.queued_at).as_secs_f64() / 3600.0);
                }
            }
        }
        self.metrics
            .bug_snapshots
            .push((self.now, self.tracker.filed(), self.tracker.fixed()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;

    #[test]
    fn small_campaign_runs_and_finds_bugs() {
        let mut c = Campaign::new(CampaignConfig::small(42));
        let hub = c.arm_snapshots();
        c.run();
        let m = c.metrics();
        assert!(m.tests_run > 50, "tests run: {}", m.tests_run);
        // 4 initial faults plus two weeks of arrivals: something is found.
        assert!(c.tracker().filed() > 0, "no bugs filed");
        // Operators fixed at least one.
        assert!(c.tracker().fixed() > 0, "no bugs fixed");
        // The read plane published epochs with real content.
        let snap = hub.latest().expect("epochs published");
        assert_eq!(snap.epoch, hub.published());
        assert!(!snap.jobs.is_empty());
        assert!(snap.jobs.iter().any(|j| !j.history.is_empty()));
        assert!(!snap.queues.is_empty());
        assert!(!snap.services.is_empty());
        assert!(snap.description_version.is_some());
        // And the query engine answers off it: some job finished builds
        // against the global target or a concrete site by now.
        let grid_like = snap.jobs.iter().any(|j| {
            crate::snapshot::QueryEngine::answer(
                &snap,
                &crate::snapshot::Query::StatusCell {
                    job: j.name.to_string(),
                    target: "global".into(),
                },
            ) != crate::snapshot::QueryAnswer::NotFound
        });
        let census = crate::snapshot::QueryEngine::answer(&snap, &crate::snapshot::Query::ServiceCensus);
        assert!(matches!(
            census,
            crate::snapshot::QueryAnswer::Census { up, down } if up + down > 0
        ));
        let _ = grid_like;
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = |seed| {
            let mut c = Campaign::new(CampaignConfig::small(seed));
            c.run();
            (
                c.metrics().tests_run,
                c.metrics().tests_failed,
                c.tracker().filed(),
                c.tracker().fixed(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut c = Campaign::new(CampaignConfig::small(seed));
            c.run();
            (c.metrics().tests_run, c.tracker().filed())
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn repairs_reduce_active_faults() {
        let mut cfg = CampaignConfig::small(9);
        cfg.initial_fault_burden = 6;
        // No arrivals, but a burden drawn from reliably-detectable kinds.
        cfg.injector = ttt_testbed::InjectorConfig {
            rates_per_day: vec![
                (ttt_testbed::FaultKind::CpuCStatesDrift, 0.0),
                (ttt_testbed::FaultKind::DiskWriteCacheDrift, 0.0),
                (ttt_testbed::FaultKind::ConsoleDead, 0.0),
                (ttt_testbed::FaultKind::BiosVersionDrift, 0.0),
            ],
            maintenance_per_day: 0.0,
            maintenance_spread: 0,
        };
        cfg.duration = SimDuration::from_days(21);
        let mut c = Campaign::new(cfg);
        let initial = c.testbed().active_faults().len();
        assert!(initial > 0);
        c.run();
        assert!(
            c.testbed().active_faults().len() < initial,
            "operators should have repaired faults ({} -> {})",
            initial,
            c.testbed().active_faults().len()
        );
    }

    #[test]
    fn naive_mode_runs() {
        let mut cfg = CampaignConfig::small(11);
        cfg.mode = SchedulingMode::NaiveCron {
            period: SimDuration::from_days(1),
        };
        cfg.duration = SimDuration::from_days(5);
        let mut c = Campaign::new(cfg);
        c.run();
        assert!(c.metrics().tests_run > 10);
    }

    #[test]
    fn unstable_builds_appear_under_contention() {
        // Saturate the testbed with user load so immediate starts fail.
        let mut cfg = CampaignConfig::small(13);
        cfg.user_load.peak_jobs_per_day = 300.0;
        cfg.user_load.whole_cluster_prob = 0.5;
        cfg.duration = SimDuration::from_days(4);
        let mut c = Campaign::new(cfg);
        c.run();
        // Deferrals definitely happened; builds were triggered only when
        // resources looked free, so unstable stays low but present-or-zero.
        let stats = &c.scheduler().stats;
        assert!(
            stats.deferred_resources > 0,
            "heavy load should defer launches: {stats:?}"
        );
    }
}
