//! Allocation and sharing guards for the read plane.
//!
//! An epoch shares with its predecessor everything that did not change
//! (sealed history segments, the indexed property database, unchanged
//! service rows) and the renderers walk that shared state in place. These
//! tests pin both halves with a counting allocator and `Arc::ptr_eq`:
//!
//! * the status page renders an epoch as it is: a `ServicesPanel` over an
//!   epoch's rows makes no allocator call at all, and a `StatusGrid`'s
//!   calls are bounded by its distinct cells, not by the builds it walks —
//!   a per-render copy of the histories or the rows cannot pass either;
//! * consecutive epochs must hold the *same* allocations for what did not
//!   move between them;
//! * a status-cell or job-trend answer makes no allocator call: both read
//!   target numbers and segment headers the write side fixed;
//! * what arming the read plane adds to a campaign's allocator calls must
//!   not grow with the campaign's length.
//!
//! The same allocator pins the write side's cost of one launched test: a
//! CI build's names are written once per job and once per cell, not once
//! per build or per holder, and a cell's status-page target is numbered
//! without an allocation of its own; a sealed segment, header included, is one
//! call, and the build record keeps its size; OAR's availability probe
//! collects no node, and a test's request is built once and shared by
//! each of its jobs; a
//! server's job table grows by doubling segments, never a call per job,
//! a test's reservation leaves the chart with it, so no timeline grows, and
//! a scheduling pass plans its waiting jobs in a list it keeps.
//! And it pins g5k-checks' walk: the description families compare a
//! conformant node without an allocator call, and a mismatch is rendered
//! only where a field differs. Nodes share their cluster's hardware
//! template until a fault drifts them: repairing a node copies nothing, and
//! a drifted node's copy is made once and written in place after that. The
//! deployment families allocate per call:
//! a deployment costs the same for 8 nodes as for 64, a `multireboot` run
//! nothing per node, and a `cmdline` run one header buffer.
//!
//! The allocator counts per thread, so the tests of this file can run in
//! parallel without polluting each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;
use throughout::ci::{Build, BuildResult, Cause, CiServer, JobKind, JobSpec, TargetId};
use throughout::core::snapshot::{CampaignSnapshot, Query, QueryAnswer, QueryEngine};
use throughout::core::{Campaign, CampaignConfig};
use throughout::kadeploy::{standard_images, DeployConfig, Deployer};
use throughout::nodecheck::check_node;
use throughout::oar::{
    AvailabilityProbe, Expr, Federation, FedJobState, Job, JobKind as OarJobKind, OarServer, Queue,
    ResourceRequest,
};
use throughout::refapi::{describe, PropValue};
use throughout::sim::rng::stream_rng;
use throughout::sim::{SimDuration, SimTime};
use throughout::status::{ServicesPanel, StatusGrid};
use throughout::suite::testutil::Harness;
use throughout::suite::{run_test, Family, Target, TestConfig, TestCtx};
use throughout::testbed::gen::grid_specs;
use throughout::testbed::{FaultKind, FaultTarget, NodeId, TestbedBuilder};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without
    /// a destructor, so touching it from inside the allocator is safe.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread requested in blocks of at least one OAR job's
    /// size: where a job table's storage shows.
    static JOB_SIZED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if bytes >= size_of::<Job>() {
        let _ = JOB_SIZED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `small(2017)` with the read plane armed (or not).
fn small(armed: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::small(2017);
    if armed {
        cfg.queries_per_day = 1_000.0;
        cfg.query_users = 10;
    }
    cfg
}

#[test]
fn snapshot_renders_do_not_clone_the_views() {
    let mut c = Campaign::new(small(true));
    let hub = c.snapshot_hub().expect("armed config builds a hub");
    c.run_until(SimTime::from_days(10));
    let snap = hub.latest().expect("epochs published");

    // The grid owns two strings per distinct cell, its two label lists
    // and the map's nodes: a handful of calls per cell, however many
    // builds each cell tallied. (Copying the histories first cost three
    // calls per build.)
    let (grid, calls) = allocations_during(|| StatusGrid::from_jobs(&snap.jobs));
    let cells = grid.cells.len() as u64;
    let finished: u64 = grid.cells.values().map(|c| c.total).sum();
    assert!(
        finished > 6 * cells + 16,
        "need long histories to make the point: {finished} builds in {cells} cells"
    );
    assert!(
        calls <= 6 * cells + 16,
        "a grid of {cells} cells over {finished} builds made {calls} allocator calls"
    );

    // The panel shows the epoch's own rows.
    let (panel, calls) = allocations_during(|| ServicesPanel::new(snap.services.clone()));
    assert_eq!(calls, 0, "a panel over an epoch's rows copies nothing");
    assert!(Arc::ptr_eq(&panel.rows, &snap.services));
}

/// Walk an armed campaign hour by hour and compare every epoch with its
/// predecessor: whatever did not change is the same allocation.
#[test]
fn consecutive_epochs_share_what_did_not_change() {
    let mut c = Campaign::new(small(true));
    let hub = c.snapshot_hub().expect("armed config builds a hub");
    let mut prev: Option<Arc<CampaignSnapshot>> = None;
    let (mut shared_segments, mut shared_rows, mut shared_targets) = (0usize, 0usize, 0usize);
    for hour in 1..=5 * 24 {
        c.run_until(SimTime::from_hours(hour));
        let next = hub.latest().expect("an epoch per hour");
        if let Some(prev) = &prev {
            assert_eq!(next.epoch, prev.epoch + 1);
            // History: names always, and every segment the older epoch
            // saw sealed is the very same segment in the newer one.
            for (old, new) in prev.jobs.iter().zip(&next.jobs) {
                assert!(Arc::ptr_eq(&old.name, &new.name));
                let (old, new) = (old.history.sealed(), new.history.sealed());
                assert!(old.len() <= new.len(), "sealed segments never go away");
                for (a, b) in old.iter().zip(new) {
                    assert!(Arc::ptr_eq(a, b), "hour {hour}: a sealed segment was copied");
                }
                shared_segments += old.len();
            }
            // The target table, until a new target appears: then the
            // newer one numbers every older target as before.
            if Arc::ptr_eq(&prev.targets, &next.targets) {
                shared_targets += 1;
            } else {
                let mut id = 0;
                while let Some(text) = prev.targets.text(TargetId(id)) {
                    assert_eq!(next.targets.text(TargetId(id)), Some(text));
                    id += 1;
                }
            }
            // The property database, its index included: one per version.
            assert_eq!(next.description_version, prev.description_version);
            assert!(Arc::ptr_eq(&prev.properties, &next.properties));
            let filter = Query::NodeFilter {
                key: "gpu".into(),
                value: "NO".into(),
            };
            match (
                QueryEngine::answer(prev, &filter),
                QueryEngine::answer(&next, &filter),
            ) {
                (QueryAnswer::Nodes(a), QueryAnswer::Nodes(b)) => {
                    assert!(!a.is_empty());
                    assert!(Arc::ptr_eq(&a, &b), "the answer is the index's own list");
                }
                other => panic!("unexpected {other:?}"),
            }
            // Service rows: shared exactly when nothing in them moved.
            assert_eq!(
                Arc::ptr_eq(&prev.services, &next.services),
                prev.services == next.services,
                "hour {hour}: rows are shared iff unchanged"
            );
            shared_rows += usize::from(Arc::ptr_eq(&prev.services, &next.services));
            // Site names, across sections and epochs.
            for (old, new) in prev.queues.iter().zip(&next.queues) {
                assert!(Arc::ptr_eq(&old.site, &new.site));
            }
        }
        prev = Some(next);
    }
    assert!(shared_segments > 0, "five days must seal some history");
    assert!(shared_rows > 0, "service rows must survive some epoch unchanged");
    assert!(shared_targets > 0, "the target table must survive some epoch");
}

/// The two status-page reads that used to walk whole histories answer
/// every job of a ten-day epoch, at every target and period, without one
/// allocator call.
#[test]
fn status_cell_and_job_trend_answers_allocate_nothing() {
    let mut c = Campaign::new(small(true));
    let hub = c.snapshot_hub().expect("armed config builds a hub");
    c.run_until(SimTime::from_days(10));
    let snap = hub.latest().expect("epochs published");
    let mut targets: Vec<String> = vec!["global".into(), "nowhere".into()];
    let mut id = 0;
    while let Some(text) = snap.targets.text(TargetId(id)) {
        targets.push(text.to_string());
        id += 1;
    }
    let mut queries = Vec::new();
    for job in &snap.jobs {
        for target in &targets {
            queries.push(Query::StatusCell {
                job: job.name.to_string(),
                target: target.clone(),
            });
        }
        for period_mins in [0, 60, 1440, 10_080, u64::MAX] {
            queries.push(Query::JobTrend {
                job: job.name.to_string(),
                period_mins,
            });
        }
    }
    let (answers, calls) = allocations_during(|| {
        queries
            .iter()
            .map(|q| QueryEngine::answer(&snap, q))
            .filter(|a| *a != QueryAnswer::NotFound)
            .count()
    });
    assert!(answers > 2 * snap.jobs.len(), "{answers} answers found something");
    assert_eq!(calls, 0, "{} status-cell and job-trend answers", queries.len());
}

/// A build record carries its target number in bytes it padded before.
#[test]
fn a_build_record_keeps_its_size() {
    assert_eq!(size_of::<Build>(), 112);
}

/// Numbering a new target allocates nothing of its own: 512 keys of 512
/// new targets cost their 512 cell texts and the doubling of five buffers
/// (the key rows, the job's sorted keys, and the table's texts, ends and
/// order), and 512 more keys of those same targets cost their texts alone,
/// give or take one doubling of the first two.
#[test]
fn a_new_target_costs_only_the_tables_growth() {
    let mut ci = CiServer::new(1);
    ci.register(JobSpec {
        name: "disk".into(),
        kind: JobKind::Freestyle,
        trigger: None,
    });
    let fresh: Vec<String> = (0..512).map(|i| format!("cluster=c{i}")).collect();
    let known: Vec<String> = (0..512).map(|i| format!("cluster=c{i},image=x")).collect();
    let mut key_all = |cells: &[String]| {
        allocations_during(|| {
            for cell in cells {
                ci.cell_key("disk", Some(cell)).expect("registered");
            }
        })
        .1
    };
    let fresh_calls = key_all(&fresh);
    let known_calls = key_all(&known);
    assert!(fresh_calls <= 512 + 5 * 12, "{fresh_calls} calls for 512 new targets");
    assert!(known_calls <= 512 + 2, "{known_calls} calls for 512 known targets");
    assert_eq!(ci.targets().text(TargetId(511)), Some("c511"));
}

/// Allocator calls of `run_until(day 3)` and of `run_until(day 6)` after
/// it, for one campaign.
fn allocations_by_half(cfg: CampaignConfig) -> (u64, u64) {
    let mut c = Campaign::new(cfg);
    let ((), early) = allocations_during(|| c.run_until(SimTime::from_days(3)));
    let ((), late) = allocations_during(|| c.run_until(SimTime::from_days(6)));
    (early, late)
}

/// What arming the read plane costs in allocator calls must not depend on
/// how long the campaign has been running: days 4–6 publish the same 72
/// epochs as days 1–3, over histories twice as long. (With a full copy of
/// every history in every epoch the second half cost 1.40× the first,
/// 36 200 calls against 25 783; sharing sealed segments it is 1.07×.)
#[test]
fn publishing_does_not_cost_more_as_history_grows() {
    let (armed_early, armed_late) = allocations_by_half(small(true));
    let (plain_early, plain_late) = allocations_by_half(small(false));
    let early = armed_early - plain_early;
    let late = armed_late - plain_late;
    assert!(early > 0, "arming must publish something in days 1-3");
    assert!(
        late as f64 <= 1.25 * early as f64,
        "publishing cost {late} allocator calls over days 4-6 against {early} over days 1-3"
    );
}

#[test]
fn a_launched_test_costs_ci_a_handful_of_allocations() {
    let mut ci = CiServer::new(4);
    ci.register(JobSpec {
        name: "disk".into(),
        kind: JobKind::Freestyle,
        trigger: None,
    });
    let cell = ["cluster=grisou".to_string()];
    let cycle = |ci: &mut CiServer| {
        assert_eq!(ci.trigger_cells("disk", Cause::ExternalScheduler, &cell).len(), 1);
        let work = ci.assign();
        assert_eq!(work.len(), 1);
        assert!(ci.finish(&work[0].build, BuildResult::Success, Vec::new()));
    };
    // Warm the queue and the history's buffers.
    for _ in 0..64 {
        cycle(&mut ci);
    }
    let ((), calls) = allocations_during(|| {
        for _ in 0..64 {
            cycle(&mut ci);
        }
    });
    // Per cycle: the two returned vectors, and a history segment sealed
    // every eighth build. The cell's name was written at its first build
    // and is shared by every later one (history record, queue entry,
    // executor slot, returned references); a name written per build costs
    // one more, a name copied per holder thirteen and more.
    assert!(
        calls <= 64 * 3,
        "{calls} allocator calls for 64 launched tests"
    );
}

/// The launch path proper: a key made once, a keyed trigger, assignment
/// into a kept buffer and a finish. No vector is returned and no name is
/// looked up, so the only calls left are the history's: a sealed segment
/// per eight builds, its header in the same allocation, and the list of
/// segments doubling once (9 measured;
/// the by-name cycle above adds its two returned vectors per launch).
#[test]
fn a_keyed_launch_costs_ci_only_its_sealed_segments() {
    let mut ci = CiServer::new(4);
    ci.register(JobSpec {
        name: "disk".into(),
        kind: JobKind::Freestyle,
        trigger: None,
    });
    let key = ci.cell_key("disk", Some("cluster=grisou")).expect("registered");
    let mut work = Vec::new();
    let mut cycle = |ci: &mut CiServer| {
        assert!(ci.trigger_key(key, Cause::ExternalScheduler).is_some());
        ci.assign_into(&mut work);
        let item = work.pop().expect("one free executor");
        assert_eq!(item.key, key);
        assert!(ci.finish(&item.build, BuildResult::Success, Vec::new()));
    };
    for _ in 0..64 {
        cycle(&mut ci);
    }
    let ((), calls) = allocations_during(|| {
        for _ in 0..64 {
            cycle(&mut ci);
        }
    });
    assert!(calls <= 64 / 8 + 1, "{calls} allocator calls for 64 keyed launches");
}

/// Run one configuration on `alpha` of the harness and count the
/// allocator calls of `run_test` alone.
fn run_counted(h: &mut Harness, family: Family, assigned: &[NodeId]) -> (bool, u64) {
    run_counted_on(h, family, Target::Cluster("alpha".into()), assigned)
}

/// [`run_counted`] on any target.
fn run_counted_on(h: &mut Harness, family: Family, target: Target, assigned: &[NodeId]) -> (bool, u64) {
    let cfg = TestConfig { family, target };
    let mut ctx = TestCtx {
        tb: &mut h.tb,
        refapi: &h.refapi,
        oar: &h.oar,
        kavlan: &mut h.kavlan,
        kwapi: &mut h.kwapi,
        deployer: &h.deployer,
        images: &h.images,
        assigned,
        now: h.now,
        rng: &mut h.rng,
    };
    let (report, calls) = allocations_during(|| run_test(&cfg, &mut ctx));
    (report.passed(), calls)
}

#[test]
fn a_conformant_node_costs_the_description_checks_no_allocation() {
    let mut h = Harness::new(1);
    let alpha = h.tb.cluster_by_name("alpha").expect("small testbed").nodes.clone();

    // The `refapi` sweep walks every node of the cluster; `oarproperties`
    // reads two values of its node. Neither renders a conformant one.
    assert_eq!(run_counted(&mut h, Family::Refapi, &[]), (true, 0), "{} nodes", alpha.len());
    assert_eq!(run_counted(&mut h, Family::OarProperties, &alpha[..1]), (true, 0));

    // One drifted field costs its mismatch: the key, the two values and
    // the list that holds them.
    h.tb.apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(alpha[0]), SimTime::ZERO)
        .expect("the fault applies");
    let desc = h.refapi.latest().expect("the harness publishes a description");
    let (report, calls) = allocations_during(|| check_node(&h.tb, desc, alpha[0]));
    assert_eq!(report.keys(), ["cpu/cstates"]);
    assert!(calls <= 4, "{calls} allocator calls for one drifted field");
}

/// A repair reads the cluster's template in place: repairing a condition
/// fault, or the drift that made the node differ from its template, makes
/// no allocator call, and the repaired node shares the template again.
/// (Every node repair copied the template whole, of any kind: 28 calls on
/// `alpha`.)
#[test]
fn a_node_repair_allocates_nothing() {
    let mut tb = TestbedBuilder::small().build();
    let node = tb.clusters()[0].nodes[0];
    for kind in [FaultKind::NodeDead, FaultKind::ConsoleDead, FaultKind::TurboDrift] {
        let fault = tb
            .apply_fault(kind, FaultTarget::Node(node), SimTime::ZERO)
            .expect("the fault applies");
        let (repaired, calls) = allocations_during(|| tb.repair(fault.id));
        assert!(repaired);
        assert_eq!(calls, 0, "{kind}: {calls} allocator calls to repair");
    }
    assert!(Arc::ptr_eq(&tb.node(node).hardware, &tb.clusters()[0].reference));
}

/// The first drift copies the node's hardware off its template; a second
/// drift writes that copy in place and allocates at most its new value (a
/// firmware or BIOS version string). (Each drift also copied the
/// template's string it compared with, and the BIOS version grew while it
/// was formatted: 2 and 3 calls.)
#[test]
fn a_second_drift_allocates_at_most_one_call() {
    let mut tb = TestbedBuilder::small().build();
    let node = tb.clusters()[0].nodes[0];
    tb.apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(node), SimTime::ZERO)
        .expect("the first drift applies");
    for kind in [FaultKind::BiosVersionDrift, FaultKind::DiskFirmwareDrift, FaultKind::TurboDrift] {
        let (fault, calls) =
            allocations_during(|| tb.apply_fault(kind, FaultTarget::Node(node), SimTime::ZERO));
        assert!(fault.is_some(), "{kind} applies");
        assert!(calls <= 1, "{kind}: {calls} allocator calls on a drifted node");
    }
}

/// The external scheduler asks "could this start right now?" before every
/// launch. For a request of one group the probe is the planner counting
/// what it would pick: no node list, no copy, no allocator call. (It made
/// two per probe, for a whole cluster and for one node, while it collected
/// the nodes and copied them.)
#[test]
fn probing_a_startable_request_costs_no_allocation() {
    let tb = TestbedBuilder::small().build();
    let fed = Federation::new(&tb, &describe(&tb, 1, SimTime::ZERO));
    for family in [Family::Disk, Family::Console] {
        let cfg = TestConfig {
            family,
            target: Target::Cluster("alpha".into()),
        };
        let request = cfg.resource_request(&tb);
        // The first probe fills the filter's match-set cache.
        assert!(fed.can_start_now("east", &request));
        let (startable, calls) = allocations_during(|| fed.can_start_now("east", &request));
        assert!(startable);
        assert_eq!(calls, 0, "{family:?}: {calls} allocator calls for one probe");
    }
}

/// A federation of the small testbed and a `disk` test's request on
/// `alpha`, whose enrolment round trip the three tests below repeat: probe,
/// submit the request, which the job shares rather than copies, start on
/// the nodes placement found, run for the given time, end early.
fn round_trip_world() -> (Federation, impl Fn(&mut Federation, SimDuration)) {
    let tb = TestbedBuilder::small().build();
    let fed = Federation::new(&tb, &describe(&tb, 1, SimTime::ZERO));
    let cfg = TestConfig {
        family: Family::Disk,
        target: Target::Cluster("alpha".into()),
    };
    let request = Arc::new(cfg.resource_request(&tb));
    let cycle = move |fed: &mut Federation, run: SimDuration| {
        assert!(fed.can_start_now("east", &request));
        let job = fed
            .submit("ci", Queue::Admin, OarJobKind::Test, Arc::clone(&request), None)
            .expect("an idle cluster takes the test");
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        fed.advance(fed.now() + run);
        assert!(fed.complete_early(&job));
    };
    (fed, cycle)
}

/// One enrolled test's round trip on an idle cluster. 66 calls for 64
/// cycles measured: the node list each job keeps, and the growth of the
/// job table (one segment) and of the event queue. (76 with the job table
/// in an ordered map, a tree node every few jobs; 3.2 per cycle with the owner
/// name copied per job and the federated handle's one part in a list of
/// its own; 12.2 with a request built per submission, collected by the
/// probe and planned again by admission.)
#[test]
fn a_test_round_trip_through_oar_allocates_only_what_it_keeps() {
    let (mut fed, cycle) = round_trip_world();
    // Warm the match-set cache and give each of alpha's timelines its
    // buffer, which a released reservation leaves empty, not freed.
    for _ in 0..64 {
        cycle(&mut fed, SimDuration::ZERO);
    }
    let ((), calls) = allocations_during(|| {
        for _ in 0..64 {
            cycle(&mut fed, SimDuration::ZERO);
        }
    });
    assert!(calls <= 66, "{calls} allocator calls for 64 round trips");
}

/// A server's job table grows by segments that double, allocated once
/// each: 10 000 jobs cost it a logarithmic number of allocator calls and
/// at most twice their size, whereas an ordered map allocates a tree node
/// every few jobs and a single vector copies every job at each doubling.
/// Each round trip keeps one node list of its own, so everything beyond
/// one call per job is growth: the table's, and the event queue's (a job
/// ended early leaves its walltime event behind until its instant). 40
/// calls and 3.01 MB in job-sized blocks measured; the ordered map made
/// 1 693 calls and 3.44 MB.
#[test]
fn ten_thousand_jobs_grow_the_job_table_without_a_call_per_job() {
    const JOBS: u64 = 10_000;
    let (mut fed, cycle) = round_trip_world();
    let bytes_before = JOB_SIZED_BYTES.with(Cell::get);
    let ((), calls) = allocations_during(|| {
        for _ in 0..JOBS {
            cycle(&mut fed, SimDuration::ZERO);
        }
    });
    let bytes = JOB_SIZED_BYTES.with(Cell::get) - bytes_before;
    assert_eq!(fed.all_jobs().count() as u64, JOBS);
    let growth = calls - JOBS;
    assert!(growth <= 40, "{growth} allocator calls beyond one node list per job");
    // The largest segment at 10 000 jobs holds 8 192 of them.
    let segment = 8_192 * size_of::<Job>() as u64;
    let table = 2 * JOBS * size_of::<Job>() as u64;
    assert!(bytes <= table + segment, "{bytes} bytes requested in job-sized blocks");
}

/// A day of round trips on `alpha`, each test running one minute before it
/// ends early: its reservation leaves the chart with it, so every timeline
/// of the east part stays empty and none grows. Each round trip keeps one
/// node list; the rest is the growth of the job table and of the event
/// queue, which holds each test's walltime event until its instant.
/// 27 calls of growth measured. (544 while an ended test kept the minute
/// it ran on the chart until a daily collection: each of alpha's
/// timelines, and the end index, grew all day.)
#[test]
fn a_day_of_round_trips_leaves_every_timeline_empty() {
    const ROUND_TRIPS: u64 = 24 * 60;
    let (mut fed, cycle) = round_trip_world();
    let east = fed.domain_by_name("east").expect("the small testbed has an east site");
    let ((), calls) = allocations_during(|| {
        for _ in 0..ROUND_TRIPS {
            cycle(&mut fed, SimDuration::from_mins(1));
            let chart = fed.domain(east).oar.gantt();
            assert_eq!(chart.reservations().count(), 0, "at {}", fed.now());
        }
    });
    let growth = calls - ROUND_TRIPS;
    assert!(growth <= 27, "{growth} allocator calls beyond one node list per round trip");
}

/// A scheduling pass tries each waiting job at now and at every
/// reservation end within the planning horizon, listed into one buffer the
/// server keeps across passes. Behind a booking of all of `alpha` that
/// outlasts the horizon, a pass over jobs pinned to `alpha` finds no start
/// for any and makes no allocator call (a list built per job made one call
/// per waiting job).
#[test]
fn a_scheduling_pass_plans_waiting_jobs_without_allocating() {
    const WAITING: usize = 16;
    let tb = TestbedBuilder::small().build();
    let mut oar = OarServer::new(&tb, &describe(&tb, 1, SimTime::ZERO));
    let alpha = || Expr::eq("cluster", "alpha");
    let mut submit = |request| {
        oar.submit("u", Queue::Default, OarJobKind::User, request)
            .expect("alpha can take the request")
    };
    submit(ResourceRequest::all_nodes(alpha(), SimDuration::from_days(8)));
    let queued: Vec<_> = (0..WAITING)
        .map(|_| submit(ResourceRequest::nodes(alpha(), 1, SimDuration::from_hours(1))))
        .collect();
    assert_eq!(oar.waiting_count(), WAITING);
    // The pass after the first cancellation grows the scratch buffers.
    assert!(oar.cancel(queued[0]));
    let (cancelled, calls) = allocations_during(|| oar.cancel(queued[1]));
    assert!(cancelled);
    assert_eq!(oar.waiting_count(), WAITING - 2);
    assert_eq!(calls, 0, "{calls} allocator calls for a pass over {} waiting jobs", WAITING - 2);
}

/// A deployment allocates per call, not per node: the image name is
/// interned once and shared by the report and every node it reached, and
/// the rounds write their outcomes in place. Deploying 8 or 64 healthy
/// nodes costs the same allocator calls, 5 measured: the name, the
/// outcomes and three index lists. (A placeholder reason, a round outcome
/// list and a copied name per node made it 22 and 134.)
#[test]
fn a_deployment_allocates_per_call_not_per_node() {
    let env = standard_images().into_iter().next().expect("a standard image");
    let healthy = Deployer::new(DeployConfig {
        step_fail_prob: 0.0,
        ..Default::default()
    });
    let calls = |n: usize| {
        let mut tb = TestbedBuilder::from_specs(grid_specs(2, 4, 8)).build();
        let nodes: Vec<NodeId> = tb.nodes().iter().map(|n| n.id).take(n).collect();
        assert_eq!(nodes.len(), n);
        let mut rng = stream_rng(1, "deploy");
        let (report, calls) =
            allocations_during(|| healthy.deploy(&mut tb, &env, &nodes, &mut rng));
        assert_eq!((report.rounds, report.failures().len()), (1, 0));
        calls
    };
    let (eight, sixty_four) = (calls(8), calls(64));
    assert_eq!(eight, sixty_four, "8 nodes: {eight} allocator calls, 64 nodes: {sixty_four}");
    assert!(eight <= 6, "{eight} allocator calls for one deployment");
}

/// A property value pads to the formatter's width in place, as `oarnodes`
/// lays out its cells: no allocator call into a buffer already large
/// enough. (Its `Display` rendered a `String` first and ignored the width.)
#[test]
fn a_property_value_pads_without_allocating() {
    use std::fmt::Write;
    let (yes, seven) = (PropValue::Bool(true), PropValue::Int(7));
    assert_eq!(format!("{yes:<5}|{seven:>3}"), "YES  |  7");
    let alpha = PropValue::Str("alpha".into());
    let mut out = String::with_capacity(64);
    let ((), calls) = allocations_during(|| {
        write!(out, "{yes:<5}|{seven:>3}|{alpha:^9}|").expect("a String takes every write");
    });
    assert_eq!(out, "YES  |  7|  alpha  |");
    assert_eq!(calls, 0, "{calls} allocator calls to format three values");
}

/// `cmdline` prints `oarstat` and `oarnodes` and checks their headers: it
/// formats every row, as the real tools do, into a sink that keeps the
/// first line only. One run costs that line's buffer whatever the number
/// of live jobs (it rendered both tables whole into strings it dropped:
/// 26.3 calls a run, more with each live job).
#[test]
fn a_cmdline_run_keeps_only_the_headers_it_checks() {
    let mut h = Harness::new(1);
    let site = || Target::Site("east".into());
    let (idle_passed, idle) = run_counted_on(&mut h, Family::Cmdline, site(), &[]);
    for user in ["u1", "u2", "u3", "u4"] {
        for _ in 0..10 {
            let request = ResourceRequest::nodes(Expr::True, 1, SimDuration::from_hours(2));
            h.oar.submit(user, Queue::Default, OarJobKind::User, request).expect("the request fits");
        }
    }
    assert_eq!(h.oar.live_jobs().count(), 40);
    let (busy_passed, busy) = run_counted_on(&mut h, Family::Cmdline, site(), &[]);
    assert!(idle_passed && busy_passed);
    assert_eq!(idle, busy, "no job: {idle} allocator calls, 40 live jobs: {busy}");
    assert!(idle <= 1, "{idle} allocator calls for one cmdline run");
}

/// `multireboot` reboots each node five times and keeps a running mean:
/// a healthy node costs no allocator call, so one node and the whole
/// testbed cost the same (0 measured). It copied each node's name and
/// kept a list of its boot times: two calls per node.
#[test]
fn a_multireboot_run_allocates_nothing_per_node() {
    let mut h = Harness::new(1);
    let all: Vec<NodeId> = h.tb.nodes().iter().map(|n| n.id).collect();
    let (passed_one, one) = run_counted(&mut h, Family::MultiReboot, &all[..1]);
    let (passed_all, every) = run_counted(&mut h, Family::MultiReboot, &all);
    assert!(passed_one && passed_all);
    assert_eq!(one, every, "1 node: {one} allocator calls, {} nodes: {every}", all.len());
}
