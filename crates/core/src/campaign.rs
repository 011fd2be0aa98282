//! The campaign orchestrator: everything wired together over virtual time.
//!
//! [`Campaign::run`] is a next-event driver: it computes the earliest due
//! instant across every subsystem — test completions, naive-cron due
//! dates, rollout phases, scheduler re-examination times, fault/user-load
//! arrivals, operator and metric cadences, OAR job starts/ends and
//! planning-horizon entries — and jumps straight to it, snapped to the
//! decision grid. The lockstep reference driver in [`crate::reference`]
//! visits every grid tick instead. Both run the same per-instant
//! step — [`PHASES`], in order — every stochastic stream draws at the same
//! instants, and all suite-wide work is gated on due events, so the two
//! produce bit-identical campaigns (guarded by the `engine_equivalence`
//! integration suite). Launch policy lives behind one
//! [`Trigger`](ttt_jobsched::Trigger); everything a run records about
//! itself goes through one crate-private observer.

use crate::config::{CampaignConfig, SchedulingMode, TestbedScale};
use crate::observe::Observer;
use crate::snapshot::{Publisher, QueryStats, SnapshotHub};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttt_bugs::{BugTracker, OperatorModel};
use ttt_ci::{BuildRef, BuildResult, CiServer, JobKind as CiJobKind, JobSpec, WorkItem};
use ttt_jobsched::{TestEntry, Trigger};
use ttt_kadeploy::{standard_images, Deployer, Environment};
use ttt_kavlan::KavlanManager;
use ttt_kwapi::MetricStore;
use ttt_oar::{
    FedJob, FedJobState, Federation, JobKind as OarJobKind, Queue, ResourceRequest,
    UserLoadGenerator,
};
use ttt_refapi::RefApi;
use ttt_sim::{EventLog, EventQueue, RngFactory, SimDuration, SimTime};
use ttt_suite::{build_suite, run_test, TestConfig, TestCtx, TestReport};
use ttt_testbed::fault::{find_fault, inject_random};
use ttt_testbed::{FaultInjector, FaultKind, Layer, Testbed, TestbedBuilder};

/// One test configuration, referred to everywhere by its index in
/// `Campaign::suite`; only `Campaign::by_key` turns a name back into one.
struct SuiteRow {
    config: TestConfig,
    /// Home scheduling domain: the site whose resources the test consumes.
    home: Option<usize>,
    /// Launch-list slot from [`Trigger::enroll`]; `None` until rolled out.
    slot: Option<usize>,
}

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

/// The wake-reason labels, indexed by the counter slots behind
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

/// One phase of the per-instant step: its name and what it runs.
pub type Phase = (&'static str, fn(&mut Campaign, SimTime));

/// The per-instant step as named phases, in execution order. Both drivers
/// reach them only through `Campaign::step_to`; a per-phase clock or
/// counter keys on the names.
pub const PHASES: [Phase; 11] = [
    ("user-load", Campaign::user_load),
    ("federation-advance", Campaign::federation_advance),
    ("fault-arrival", Campaign::fault_arrival),
    ("dirty-sync", Campaign::dirty_sync),
    ("rollout", Campaign::rollout),
    ("completions", Campaign::completions),
    ("blocked-builds", Campaign::blocked_builds),
    ("scheduling", Campaign::scheduling),
    ("executor-assignment", Campaign::executor_assignment),
    ("operators", Campaign::operators),
    ("sampling-publish", Campaign::sampling_publish),
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
    /// Launch policy: the external scheduler or the cron baseline.
    trigger: Trigger,
    kavlan: KavlanManager,
    kwapi: MetricStore,
    deployer: Deployer,
    images: Vec<Environment>,
    injector: FaultInjector,
    userload: UserLoadGenerator,
    tracker: BugTracker,
    operators: OperatorModel,
    /// Everything the run records about itself.
    pub(crate) observer: Observer,
    suite: Vec<SuiteRow>,
    /// ci job → cell → row of `suite`: the one place a CI build name is
    /// turned back into a row.
    by_key: BTreeMap<&'static str, BTreeMap<Option<Arc<str>>, usize>>,
    /// The next entry of `cfg.rollout.phases` to apply.
    next_phase: usize,
    /// In-flight tests keyed by `finish_at`; completions pop in
    /// `(finish_at, submission order)`.
    running: EventQueue<RunningTest>,
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
    /// The read plane's publisher. Armed at construction when
    /// `cfg.queries_per_day > 0`, or on demand via
    /// [`Campaign::arm_snapshots`]; unarmed, no epochs publish.
    publisher: Publisher,
    /// Wall time spent in each phase, indexed like [`PHASES`]; `None`
    /// until [`Campaign::clock_phases`]. Host time only: no digest, metric
    /// or event reads it.
    phase_wall: Option<[Duration; PHASES.len()]>,
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
            .filter(|k| k.spec().layer != Layer::Process)
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

        // detlint: allow(no-unwrap-in-lib) -- `publish_from` at the top of `new` published version 1
        let mut fed = Federation::new(&tb, refapi.latest().expect("published"));
        // Same seed/rate; the submit path only uses the rng-free hashed
        // variant, so arming it never shifts a stream.
        fed.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        let trigger = match cfg.mode {
            SchedulingMode::External => Trigger::external(cfg.policy.clone()),
            SchedulingMode::NaiveCron { period } => Trigger::cron(period, cfg.tick),
        };
        let mut ci = CiServer::new(cfg.executors);
        // Same seed and rate as the testbed's hook: the CI side only uses
        // the rng-free hashed variant, so arming it never shifts a stream.
        ci.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        let images = standard_images();
        let suite: Vec<SuiteRow> = build_suite(&tb, &images)
            .into_iter()
            .map(|config| SuiteRow {
                home: fed.domain_by_name(&config.site(&tb)),
                config,
                slot: None,
            })
            .collect();
        for family in ttt_suite::Family::ALL {
            ci.register(JobSpec {
                name: family.job_name().to_string(),
                kind: CiJobKind::Freestyle,
                trigger: None,
            });
        }
        let mut by_key: BTreeMap<_, BTreeMap<_, _>> = BTreeMap::new();
        for (i, row) in suite.iter().enumerate() {
            by_key
                .entry(row.config.family.job_name())
                .or_default()
                .insert(row.config.cell().map(Arc::from), i);
        }
        let clusters: Vec<String> = tb.clusters().iter().map(|c| c.name.clone()).collect();
        let mut kwapi = MetricStore::new(tb.nodes().len(), 600, SimDuration::from_mins(5));
        // Read-plane chaos hooks: both sides only use the rng-free hashed
        // variant on monotone read counters, so arming them never shifts a
        // stream and fires identically across engines.
        refapi.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        kwapi.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        let sites = fed.len();
        // No cluster to be affine to: users ask for "any nodes", an empty
        // topology never satisfies them, and the campaign idles.
        let mut user_load = cfg.user_load.clone();
        if clusters.is_empty() {
            user_load.cluster_affinity = 0.0;
        }
        let mut userload = UserLoadGenerator::new(user_load, clusters)
            // detlint: allow(no-unwrap-in-lib) -- affinity was zeroed above when there are no clusters, the one config `new` rejects
            .expect("cluster affinity is zero whenever there are no clusters");
        userload.set_buggify(ttt_sim::Buggify::new(cfg.seed, cfg.buggify_rate));
        Campaign {
            trigger,
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
            observer: Observer::new(sites),
            suite,
            by_key,
            next_phase: 0,
            running: EventQueue::new(),
            blocked: Vec::new(),
            now: SimTime::ZERO,
            last_snapshot: SimTime::ZERO,
            last_op_step: SimTime::ZERO,
            last_sample: SimTime::ZERO,
            publisher: Publisher::new(
                cfg.queries_per_day,
                cfg.query_users,
                rngs.stream("queries"),
            ),
            phase_wall: None,
            cfg,
        }
    }

    /// Arm structured event recording. Call before the first step: the log
    /// then receives fault arrivals/repairs, RPC outcomes, job lifecycle
    /// transitions, wake reasons and daily digest checkpoints. Recording
    /// never perturbs the campaign — no draws, no behavioral branches.
    pub fn record_events(&mut self) {
        self.observer.arm_events();
        self.tb.set_rpc_trace(true);
    }

    /// Take the recorded event log (None when recording was never armed).
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.tb.set_rpc_trace(false);
        self.observer.take_events()
    }

    /// Arm the per-phase wall clock (and reset it). Like recording, timing
    /// never perturbs the campaign.
    pub fn clock_phases(&mut self) {
        self.phase_wall = Some([Duration::ZERO; PHASES.len()]);
    }

    /// Wall time spent in each phase since [`Campaign::clock_phases`], in
    /// execution order; empty when the clock was never armed.
    pub fn phase_wall(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        let names = PHASES.iter().map(|&(name, _)| name);
        names.zip(self.phase_wall.into_iter().flatten())
    }

    /// The testbed (inspection from examples/benches).
    pub fn testbed(&self) -> &Testbed {
        &self.tb
    }

    /// The bug tracker.
    pub fn tracker(&self) -> &BugTracker {
        &self.tracker
    }

    /// The launch policy (decision counters live here).
    pub fn trigger(&self) -> &Trigger {
        &self.trigger
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

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
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
            let wake = self.next_wake(next_grid);
            self.observer.woke(wake);
            let t = match wake {
                Some((wake, _)) => {
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
    /// the campaign's current instant, as `(instant, WAKE_REASONS index of
    /// the winning term)`. `None` means the world is quiet until the
    /// horizon.
    ///
    /// `next_grid` is the smallest grid instant after `now`: every wake at
    /// or before it snaps there anyway, so the scan stops as soon as one
    /// subsystem is due that soon. In saturated campaigns (something due
    /// every tick) this keeps the event engine's bookkeeping out of the
    /// hot loop — it degrades to lockstep's cost instead of lockstep plus
    /// a full wake computation per tick. Peeks are idempotent (arrival
    /// streams cache their primed draw), so skipping the later terms on
    /// one wake never perturbs any stochastic stream.
    fn next_wake(&mut self, next_grid: SimTime) -> Option<(SimTime, usize)> {
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
        // Launch decisions (two reason slots, one per `Trigger` arm).
        for due in self.trigger.wake_terms() {
            merge!(due);
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
        // Read once: no phase arms the clock, and a silent step then pays
        // one load for all eleven phases.
        let clocked = self.phase_wall.is_some();
        for (slot, (_, phase)) in PHASES.iter().enumerate() {
            // detlint: allow(no-wall-clock) -- operator-facing phase timing, read only by `phase_wall`; never simulation state
            let started = clocked.then(Instant::now);
            phase(self, t);
            if let (Some(wall), Some(started)) = (&mut self.phase_wall, started) {
                wall[slot] += started.elapsed();
            }
        }
    }

    /// Users compete for the testbed, across all sites.
    fn user_load(&mut self, t: SimTime) {
        self.userload
            .advance_fed(t, &mut self.fed, &mut self.rng_user);
    }

    fn federation_advance(&mut self, t: SimTime) {
        self.fed.advance(t);
    }

    /// Faults arrive, and bounded service-restart windows that elapsed
    /// complete on their own: the restart *is* the repair (fault-id order
    /// keeps this deterministic across engines).
    fn fault_arrival(&mut self, t: SimTime) {
        let arrived = self.injector.advance(t, &mut self.tb, &mut self.rng_inject);
        self.observer.faults_arrived(arrived);
        for id in self.tb.due_service_restarts(t) {
            if self.tb.repair(id) {
                self.observer.fault_repaired(t, id.0);
            }
        }
    }

    /// Every site's OAR notices dead/repaired hardware (diff of flipped
    /// nodes only — no full testbed rescan), learns whether its own server
    /// process is up (a dead OAR process stops placement on that domain —
    /// without looking anything like a site blackout), and refreshes the
    /// backbone reachability view (a no-op clear under the ideal link
    /// model).
    fn dirty_sync(&mut self, _t: SimTime) {
        let dirty = self.tb.take_alive_dirty();
        self.fed.sync_dirty_nodes(&self.tb, &dirty);
        self.fed.sync_process_liveness(&self.tb);
        self.fed.sync_backbone(&self.tb);
    }

    /// New test families roll out.
    fn rollout(&mut self, t: SimTime) {
        while self.next_phase < self.cfg.rollout.phases.len() {
            let (at, families) = &self.cfg.rollout.phases[self.next_phase];
            if *at > t {
                break;
            }
            let families = families.clone();
            self.next_phase += 1;
            for idx in 0..self.suite.len() {
                let row = &self.suite[idx];
                if row.slot.is_some() || !families.contains(&row.config.family) {
                    continue;
                }
                let entry = self.make_entry(idx);
                self.suite[idx].slot = Some(self.trigger.enroll(idx, entry, t));
            }
        }
    }

    fn make_entry(&self, idx: usize) -> TestEntry {
        let cfg = &self.suite[idx].config;
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
        let cfg = &self.suite[idx].config;
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

    /// Complete every test whose `finish_at` elapsed, earliest first (FIFO
    /// among ties) — popped straight off the completion queue.
    fn completions(&mut self, t: SimTime) {
        while let Some((finish_at, r)) = self.running.pop_due(t) {
            // The site whose resources the test held (primary part for
            // cross-site co-allocations).
            let site = r.oar_job.primary_domain();
            let passed = r.report.passed();
            let config = &self.suite[r.suite_idx].config;
            self.observer.job_completed(finish_at, config, site, passed);
            self.fed.complete_early(&r.oar_job);
            let result = if passed {
                BuildResult::Success
            } else {
                BuildResult::Failure
            };
            self.ci.finish(&r.build, result, r.report.log_lines());
            let family = config.family.job_name();
            for d in &r.report.diagnostics {
                self.tracker.file(&d.signature, family, &d.message, t);
                // Attribute the detection to the fault kind behind the
                // diagnostic. Unattributable diagnostics (fault already
                // repaired, stale symptom) stay unclassified.
                if let Some(fault) = find_fault(&self.tb, &d.signature) {
                    self.observer.detected(fault.kind.name());
                }
            }
            self.record_result(r.suite_idx, passed, t);
        }
    }

    fn record_result(&mut self, idx: usize, passed: bool, t: SimTime) {
        let row = &self.suite[idx];
        self.observer
            .test_result(t, row.config.family.job_name(), passed);
        if let Some(slot) = row.slot {
            self.trigger.on_finished(slot, t);
        }
    }

    /// Cron baseline: release blocked builds whose OAR job started (or
    /// died waiting).
    fn blocked_builds(&mut self, t: SimTime) {
        if self.blocked.is_empty() {
            return;
        }
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

    /// Launch decisions, over the due configurations only.
    fn scheduling(&mut self, t: SimTime) {
        self.ci.advance(t);
        self.trigger
            .run_due(t, &mut self.ci, &self.fed, &mut self.rng_sched);
    }

    /// Executors pick work up.
    fn executor_assignment(&mut self, t: SimTime) {
        for item in self.ci.assign() {
            self.start_work(item, t);
        }
    }

    /// An executor picked a build up: create the testbed job and either run
    /// the test (started immediately) or handle the miss as the launch
    /// policy says.
    fn start_work(&mut self, item: WorkItem, t: SimTime) {
        let Some(&idx) = self
            .by_key
            .get(&*item.build.job)
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
            self.suite[idx].home,
        );
        let Ok(oar_job) = submitted else {
            // Whole target unavailable (e.g. cluster dead).
            self.mark_unstable(&item.build, idx, "no eligible resources on the testbed", t);
            return;
        };
        if self.fed.job_state(&oar_job) == FedJobState::Running {
            self.execute_test(item.build, idx, oar_job, t);
        } else if self.trigger.waits_for_resources() {
            // Submit and wait, holding the executor.
            self.blocked.push(BlockedWork {
                build: item.build,
                suite_idx: idx,
                oar_job,
            });
        } else {
            // The paper's rule: cancel + mark unstable + backoff.
            self.fed.cancel(&oar_job);
            let why = "testbed job could not be scheduled immediately";
            self.mark_unstable(&item.build, idx, why, t);
        }
    }

    /// The build got no testbed resources: unstable, and the launch policy
    /// decides when the configuration is tried again.
    fn mark_unstable(&mut self, build: &BuildRef, idx: usize, why: &str, t: SimTime) {
        self.ci
            .finish(build, BuildResult::Unstable, vec![why.to_string()]);
        let row = &self.suite[idx];
        self.observer.build_unstable(t, &row.config);
        if let Some(slot) = row.slot {
            self.trigger.on_not_immediate(slot, t, &mut self.rng_sched);
        }
    }

    /// Run the test script now; bookkeeping happens when its virtual
    /// duration elapses.
    fn execute_test(&mut self, build: BuildRef, idx: usize, oar_job: FedJob, t: SimTime) {
        let assigned = self.fed.assigned_nodes(&oar_job);
        let report = {
            let cfg = &self.suite[idx].config;
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
        let config = &self.suite[idx].config;
        let finish_at = t + report.duration.min(config.family.walltime());
        self.observer
            .job_started(t, config, oar_job.primary_domain());
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

    /// Operators fix bugs on their cadence, repairing faults.
    fn operators(&mut self, t: SimTime) {
        if t.since(self.last_op_step) < self.cfg.operator_cadence {
            return;
        }
        self.last_op_step = t;
        for bug_id in self.operators.step(&mut self.tracker, t) {
            let Some(bug) = self.tracker.bug(bug_id) else {
                continue;
            };
            let Some(fault) = find_fault(&self.tb, &bug.signature).map(|f| f.id) else {
                continue;
            };
            if self.tb.repair(fault) {
                self.observer.fault_repaired(t, fault.0);
            }
        }
    }

    /// Metrics sampling on a bounded cadence, the read plane's epoch, the
    /// daily checkpoint, and the step's RPC trace. Every cadence instant is
    /// visited by both engines, so the saturation/blackout edges stay
    /// engine-equivalence observables.
    fn sampling_publish(&mut self, t: SimTime) {
        if t.since(self.last_sample) >= self.cfg.sample_cadence {
            let window_from = self.last_sample;
            self.last_sample = t;
            self.observer.sampled(
                // No executors: none busy, not 0/0.
                self.ci.busy_executors() as f64 / self.ci.executor_count().max(1) as f64,
                self.fed.utilization(),
                self.fed.dead_domains() > 0,
            );
            // The write plane hands the read plane its epoch: every
            // sample instant (identical across engines) freezes a
            // snapshot, so this changes nothing unless armed.
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
            self.observer.checkpoint(
                t,
                self.tracker.filed(),
                self.tracker.fixed(),
                self.tb.active_faults().len(),
            );
        }
        // Only collected while recording is armed, so a silent campaign
        // hands over an empty trace.
        self.observer.rpc_outcomes(t, self.tb.take_rpc_trace());
    }

    /// Final pass: derive latency statistics from OAR and CI histories.
    pub(crate) fn finalize(&mut self) {
        for (_, job) in self.fed.all_jobs() {
            if job.kind == OarJobKind::User {
                if let Some(w) = job.waiting_time() {
                    self.observer.user_waited(w);
                }
            }
        }
        for builds in self.ci.all_history() {
            for b in builds.iter() {
                if let Some(f) = b.finished_at {
                    self.observer.build_latency(f.since(b.queued_at));
                }
            }
        }
        self.observer
            .bug_snapshot(self.now, self.tracker.filed(), self.tracker.fixed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CampaignConfig;

    #[test]
    fn phase_names_are_unique_kebab_case() {
        let names: std::collections::BTreeSet<&str> = PHASES.iter().map(|p| p.0).collect();
        assert_eq!(names.len(), PHASES.len(), "duplicate phase name");
        let kebab = |n: &str| n.split('-').all(|w| !w.is_empty() && w.bytes().all(|b| b.is_ascii_lowercase()));
        assert!(names.iter().all(|n| kebab(n)), "{names:?}");
    }

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
    fn cron_baseline_runs() {
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
        let stats = c.trigger().stats();
        assert!(
            stats.deferred_resources > 0,
            "heavy load should defer launches: {stats:?}"
        );
    }
}
