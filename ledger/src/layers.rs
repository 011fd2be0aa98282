//! Leaf drivers: one span per call into a layer, the calls the criterion
//! benches under `crates/bench/benches/` make plus the federation, chaos
//! and read-plane paths they never reached. Each driver reports the median
//! span as the per-layer metric of the same name.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use ttt_ci::{expand_axes, Axis, BuildResult, Cause, CiServer, JobKind as CiJobKind, JobSpec};
use ttt_core::snapshot::{random_query, SnapshotHub};
use ttt_jobsched::{ExternalScheduler, PolicyConfig, TestEntry};
use ttt_kadeploy::{standard_images, Deployer, Environment};
use ttt_kavlan::{KavlanManager, VlanKind};
use ttt_kwapi::{MetricStore, PowerSampler};
use ttt_nodecheck::check_node;
use ttt_oar::userload::UserLoadConfig;
use ttt_oar::{
    parse_request, Expr, Federation, JobKind, OarServer, Queue, ResourceRequest, UserLoadGenerator,
};
use ttt_refapi::{all_properties, describe, RefApi, TestbedDescription};
use ttt_scengen::{parse_scenario, run_seed, to_scenario_json, Oracles, ScenarioSpec};
use ttt_sim::rng::stream_rng;
use ttt_sim::{Buggify, Event, EventLog, SimDuration, SimTime};
use ttt_suite::{build_suite, run_test, Family, Target, TestConfig, TestCtx};
use ttt_testbed::gen::grid_specs;
use ttt_testbed::{
    FaultInjector, FaultKind, FaultTarget, InjectorConfig, NodeId, Testbed, TestbedBuilder,
};

use crate::metrics::{per_layer, per_second};
use crate::stats::median;
use crate::trace::Tracer;

/// Spans per driver: the floor the issue sets for a `_p50`.
const CALLS: usize = 30;
/// Spans per driver in the `--quick` smoke.
const QUICK_CALLS: usize = 3;
/// Seeds in the swarm block behind `scengen.run_seed.ms`.
const SEED_BLOCK: usize = 32;
/// Calls folded into one span where a single call is too short for the
/// clock (the `.ns` rows): the span is divided by this.
const BATCH: usize = 1000;

/// Per-layer values by metric name, in the declared unit.
pub type Values = BTreeMap<&'static str, f64>;

/// The span recorder plus the values derived so far.
pub struct Leaves<'t> {
    tr: &'t mut Tracer,
    /// Metric values, by declared name.
    pub values: Values,
    quick: bool,
    calls: usize,
}

impl<'t> Leaves<'t> {
    /// Record into `tr`; `quick` runs three calls per driver, not thirty.
    pub fn new(tr: &'t mut Tracer, quick: bool) -> Self {
        Leaves {
            tr,
            values: Values::new(),
            quick,
            calls: if quick { QUICK_CALLS } else { CALLS },
        }
    }

    /// Store `seconds` per call under `name`, in the row's declared unit.
    fn record(&mut self, name: &'static str, seconds: f64) {
        let unit = per_layer(name).map_or("s", |m| m.unit);
        self.values.insert(name, seconds * per_second(unit));
    }

    /// One span per call: `input(i)` is built before the span, `call`
    /// runs inside it, and both its input and its output are dropped
    /// after it.
    fn timed<I, O>(
        &mut self,
        name: &'static str,
        mut input: impl FnMut(usize) -> I,
        mut call: impl FnMut(&mut I) -> O,
    ) {
        for i in 0..self.calls {
            let mut x = input(i);
            let out = self.tr.span(name, || call(&mut x));
            drop(black_box((out, x)));
        }
        let p50 = median(&self.tr.seconds(name));
        self.record(name, p50);
    }

    /// One span per [`BATCH`] calls, for calls too short to time alone.
    fn batched<O>(&mut self, name: &'static str, mut call: impl FnMut(usize) -> O) {
        for b in 0..self.calls {
            self.tr.span(name, || {
                for i in 0..BATCH {
                    black_box(call(b * BATCH + i));
                }
            });
        }
        let p50 = median(&self.tr.seconds(name));
        self.record(name, p50 / BATCH as f64);
    }
}

/// A built world: the testbed, its published description and the images.
struct World {
    tb: Testbed,
    desc: TestbedDescription,
    images: Vec<Environment>,
}

/// Metric names of the rows measured once per world.
struct WorldRows {
    build: &'static str,
    describe: &'static str,
    fed_new: &'static str,
    fed_submit: &'static str,
    fed_advance: &'static str,
    fed_next: &'static str,
    user_advance: &'static str,
    /// Measured on one world only: the peek does not depend on its size.
    user_next: Option<&'static str>,
    /// User jobs per day at the diurnal peak, as the world's scenario sets.
    peak_jobs_per_day: f64,
}

const PAPER_ROWS: WorldRows = WorldRows {
    build: "testbed.build.ms.paper",
    describe: "refapi.describe.ms.paper",
    fed_new: "oar.federation.new.ms.paper",
    fed_submit: "oar.federation.submit.us.paper",
    fed_advance: "oar.federation.advance.us.paper",
    fed_next: "oar.federation.next_event_time.ns.paper",
    user_advance: "oar.userload.advance_fed.us.paper",
    user_next: Some("oar.userload.next_event.ns"),
    peak_jobs_per_day: 250.0,
};

const GRID64_ROWS: WorldRows = WorldRows {
    build: "testbed.build.ms.grid64",
    describe: "refapi.describe.ms.grid64",
    fed_new: "oar.federation.new.ms.grid64",
    fed_submit: "oar.federation.submit.us.grid64",
    fed_advance: "oar.federation.advance.us.grid64",
    fed_next: "oar.federation.next_event_time.ns.grid64",
    user_advance: "oar.userload.advance_fed.us.grid64",
    user_next: None,
    peak_jobs_per_day: 1920.0,
};

fn small_request(i: usize) -> ResourceRequest {
    ResourceRequest::nodes(Expr::True, (i % 8) as u32 + 1, SimDuration::from_hours(1))
}

/// The rows that exist once per world: building it, and the federation
/// and user-load paths whose cost grows with the number of sites.
fn world_rows(l: &mut Leaves, rows: &WorldRows, build: impl Fn() -> Testbed, seed: u64) -> World {
    l.timed(rows.build, |_| (), |_| build());
    let tb = build();
    l.timed(rows.describe, |_| (), |_| describe(&tb, 1, SimTime::ZERO));
    let desc = describe(&tb, 1, SimTime::ZERO);
    l.timed(rows.fed_new, |_| (), |_| Federation::new(&tb, &desc));

    // One federation takes every submission, so the queues the later calls
    // plan against fill up as they do in a campaign.
    let mut fed = Federation::new(&tb, &desc);
    l.timed(
        rows.fed_submit,
        |i| Some(small_request(i)),
        |req| {
            let req = req.take().expect("every call gets a fresh request");
            fed.submit("ledger", Queue::Default, JobKind::User, req, None)
                .is_ok()
        },
    );
    l.batched(rows.fed_next, |_| fed.next_event_time());
    // Each advance crosses the end of the hour-long jobs submitted before
    // it: eight completions and the dispatch of whatever they unblock.
    let fed = RefCell::new(fed);
    l.timed(
        rows.fed_advance,
        |i| {
            for k in 0..8 {
                let _ = fed.borrow_mut().submit(
                    "ledger",
                    Queue::Default,
                    JobKind::User,
                    small_request(k),
                    None,
                );
            }
            SimTime::from_hours(i as u64 + 2)
        },
        |to| fed.borrow_mut().advance(*to),
    );

    let clusters: Vec<String> = tb.clusters().iter().map(|c| c.name.clone()).collect();
    let config = UserLoadConfig {
        peak_jobs_per_day: rows.peak_jobs_per_day,
        ..UserLoadConfig::default()
    };
    let mut users = UserLoadGenerator::new(config, clusters)
        .expect("a built testbed always has at least one cluster");
    let mut rng = stream_rng(seed, "ledger-userload");
    let mut fed = Federation::new(&tb, &desc);
    l.timed(
        rows.user_advance,
        |i| SimTime::from_hours(i as u64 + 1),
        |until| users.advance_fed(*until, &mut fed, &mut rng),
    );
    if let Some(name) = rows.user_next {
        l.batched(name, |_| users.next_event(fed.now(), &mut rng));
    }
    World {
        tb,
        desc,
        images: standard_images(),
    }
}

fn paper_axes() -> Vec<Axis> {
    let images: Vec<String> = (0..14).map(|i| format!("img{i}")).collect();
    let clusters: Vec<String> = (0..32).map(|i| format!("cluster{i}")).collect();
    vec![Axis::new("image", images), Axis::new("cluster", clusters)]
}

fn family_ci() -> CiServer {
    let mut ci = CiServer::new(16);
    for family in Family::ALL {
        ci.register(JobSpec {
            name: family.job_name().to_string(),
            kind: CiJobKind::Freestyle,
            trigger: None,
        });
    }
    ci
}

fn nodes_of(tb: &Testbed, cluster: &str) -> Vec<NodeId> {
    tb.cluster_by_name(cluster)
        .map(|c| c.nodes.clone())
        .expect("the paper-scale testbed names this cluster")
}

/// The work layers a paper-scale campaign spends its time in.
fn paper_work(l: &mut Leaves, w: &World, seed: u64) {
    let World { tb, desc, images } = w;
    l.timed("oar.server.new.ms", |_| (), |_| OarServer::new(tb, desc));
    l.timed("suite.build_suite.ms", |_| (), |_| build_suite(tb, images));

    // suite: one representative configuration per cost class.
    let mut refapi = RefApi::new();
    refapi.publish_from(tb, SimTime::ZERO);
    let oar = OarServer::new(tb, desc);
    let grisou = nodes_of(tb, "grisou");
    let one_node = vec![grisou[0]];
    let cluster = |name: &str| Target::Cluster(name.to_string());
    let (mut runs, mut failures) = (0u32, 0u32);
    for (name, family, target, assigned) in [
        (
            "suite.run_test.refapi.us",
            Family::Refapi,
            cluster("grisou"),
            &one_node,
        ),
        (
            "suite.run_test.disk.us",
            Family::Disk,
            cluster("grisou"),
            &grisou,
        ),
        (
            "suite.run_test.environments.us",
            Family::Environments,
            Target::ImageCluster {
                image: "debian9-min".into(),
                cluster: "grisou".into(),
            },
            &one_node,
        ),
    ] {
        let cfg = TestConfig { family, target };
        let deployer = Deployer::default();
        l.timed(
            name,
            |i| {
                (
                    tb.clone(),
                    KavlanManager::new(),
                    MetricStore::new(tb.nodes().len(), 600, SimDuration::from_mins(1)),
                    stream_rng(seed + i as u64, "ledger-suite"),
                )
            },
            |(tbx, kavlan, kwapi, rng)| {
                let mut ctx = TestCtx {
                    tb: tbx,
                    refapi: &refapi,
                    oar: &oar,
                    kavlan,
                    kwapi,
                    deployer: &deployer,
                    images,
                    assigned,
                    now: SimTime::from_hours(3),
                    rng,
                };
                let passed = run_test(&cfg, &mut ctx).passed();
                runs += 1;
                failures += u32::from(!passed);
                passed
            },
        );
    }
    l.values.insert(
        "suite.run_test.fail_share",
        f64::from(failures) / f64::from(runs.max(1)),
    );

    // kadeploy: 50 and 200 nodes of the two largest clusters.
    let env = images
        .iter()
        .find(|e| e.name == "debian9-base")
        .expect("the standard images include debian9-base");
    let mut pool = nodes_of(tb, "graphene");
    pool.extend(nodes_of(tb, "griffon"));
    let (mut requested, mut deployed) = (0usize, 0usize);
    for (name, n) in [
        ("kadeploy.deploy.us.50", 50),
        ("kadeploy.deploy.us.200", 200),
    ] {
        l.timed(
            name,
            |i| (tb.clone(), stream_rng(seed + i as u64, "ledger-deploy")),
            |(tbx, rng)| {
                let report = Deployer::default().deploy(tbx, env, &pool[..n], rng);
                requested += n;
                deployed += report.deployed().len();
                report.makespan
            },
        );
    }
    l.values.insert(
        "kadeploy.deploy.node_fail_share",
        1.0 - deployed as f64 / requested.max(1) as f64,
    );

    let site = tb.node(grisou[0]).site;
    l.timed(
        "kavlan.set_vlan_all.us",
        |_| {
            let mut kavlan = KavlanManager::new();
            let vlan = kavlan.create_vlan(VlanKind::Local, Some(site));
            (kavlan, vlan)
        },
        |(kavlan, vlan)| kavlan.set_vlan_all(tb, &grisou, *vlan),
    );

    l.batched("nodecheck.check_node.us", |i| {
        check_node(tb, desc, grisou[i % grisou.len()])
    });
    l.timed(
        "nodecheck.full_sweep.ms",
        |_| (),
        |_| {
            tb.nodes()
                .iter()
                .map(|n| check_node(tb, desc, n.id).mismatches.len())
                .sum::<usize>()
        },
    );

    let axes = paper_axes();
    l.timed("ci.expand_axes.us", |_| (), |_| expand_axes(&axes));
    l.timed(
        "ci.trigger_assign_finish_448.us",
        |_| {
            let mut ci = CiServer::new(16);
            ci.register(JobSpec {
                name: "environments".into(),
                kind: CiJobKind::Matrix { axes: paper_axes() },
                trigger: None,
            });
            ci
        },
        |ci| {
            ci.trigger("environments", Cause::Manual);
            let mut done = 0;
            loop {
                let work = ci.assign();
                if work.is_empty() {
                    break done;
                }
                for w in work {
                    ci.finish(&w.build, BuildResult::Success, vec![]);
                    done += 1;
                }
            }
        },
    );

    let entries: Vec<TestEntry> = build_suite(tb, images)
        .iter()
        .map(|cfg| TestEntry {
            id: cfg.id(),
            ci_job: cfg.family.job_name().to_string(),
            cell: cfg.cell(),
            site: cfg.site(tb),
            request: cfg.resource_request(tb),
            hardware_centric: cfg.family.hardware_centric(),
            period: cfg.family.period(),
        })
        .collect();
    l.timed(
        "jobsched.first_tick_751.us",
        |i| {
            (
                ExternalScheduler::new(PolicyConfig::default(), entries.clone()),
                family_ci(),
                stream_rng(seed + i as u64, "ledger-sched"),
            )
        },
        // 03:00 Monday: off-peak, empty testbed.
        |(sched, ci, rng)| sched.tick(SimTime::from_hours(3), ci, &oar, rng).len(),
    );

    const PAPER_REQUEST: &str =
        "cluster='a' and gpu='YES'/nodes=1+cluster='b' and eth10g='Y'/nodes=2,walltime=2";
    l.batched("oar.parse_request.ns", |_| {
        parse_request(PAPER_REQUEST, SimDuration::from_hours(1)).is_ok()
    });
    l.timed(
        "oar.server.submit_100.us",
        |_| OarServer::new(tb, desc),
        |server| {
            for i in 0..100 {
                let _ = server.submit("ledger", Queue::Default, JobKind::User, small_request(i));
            }
            server.busy_nodes()
        },
    );
    let whole_cluster =
        ResourceRequest::all_nodes(Expr::eq("cluster", "graphene"), SimDuration::from_hours(2));
    l.batched("oar.server.immediate_assignment.ns", |_| {
        oar.immediate_assignment(&whole_cluster)
    });
}

/// The chaos paths: fault arrival and repair, liveness reconciliation,
/// buggify draws and event-log writes.
fn chaos(l: &mut Leaves, w: &World, seed: u64) {
    let World { tb, desc, .. } = w;
    let first = tb.clusters()[0].nodes[0];
    l.timed(
        "testbed.fault_apply_repair.us",
        |_| tb.clone(),
        |tbx| {
            let fault = tbx.apply_fault(
                FaultKind::CpuCStatesDrift,
                FaultTarget::Node(first),
                SimTime::ZERO,
            );
            fault.map(|f| tbx.repair(f.id))
        },
    );

    // One simulated day of default-rate arrivals per call, on one testbed
    // that keeps accumulating them.
    let mut injector = FaultInjector::new(InjectorConfig::default());
    let mut rng = stream_rng(seed, "ledger-inject");
    let mut drifting = tb.clone();
    l.timed(
        "testbed.injector.advance.us",
        |i| SimTime::from_days(i as u64 + 1),
        |until| injector.advance(*until, &mut drifting, &mut rng).len(),
    );

    // A whole cluster dies: the federation reconciles every flipped node.
    let cluster = tb.clusters()[0].nodes.clone();
    l.timed(
        "oar.federation.sync_dirty_nodes.us",
        |_| {
            let mut tbx = tb.clone();
            let fed = Federation::new(&tbx, desc);
            for &n in &cluster {
                tbx.apply_fault(FaultKind::NodeDead, FaultTarget::Node(n), SimTime::ZERO);
            }
            let dirty = tbx.take_alive_dirty();
            (tbx, fed, dirty)
        },
        |(tbx, fed, dirty)| fed.sync_dirty_nodes(tbx, dirty),
    );

    let buggify = Buggify::new(seed, 0.10);
    let mut rng = stream_rng(seed, "ledger-buggify");
    l.batched("sim.buggify.fire.ns", |_| {
        buggify.fire("oar-submit", &mut rng)
    });

    // Pushes of pre-built events into a log that grows as a run's does.
    let mut log = EventLog::new();
    let mut events: Vec<Event> = (0..l.calls * BATCH)
        .map(|k| Event::JobUnstable {
            at: SimTime::from_secs(k as u64),
            test: "environments/grisou/debian9-min".to_string(),
        })
        .collect();
    l.batched("sim.eventlog.push.ns", |_| {
        log.push(events.pop().expect("one event was built per push"));
    });
}

/// The read plane's write side and the swarm's fixed costs.
fn publish_and_swarm(l: &mut Leaves, w: &World, seed: u64) {
    let World { tb, desc, .. } = w;
    l.timed("refapi.all_properties.ms", |_| (), |_| all_properties(desc));

    let sampler = PowerSampler::default();
    let loads = BTreeMap::new();
    let mut rng = stream_rng(seed, "ledger-kwapi");
    let mut store = MetricStore::new(tb.nodes().len(), 3600, SimDuration::from_mins(1));
    l.timed(
        "kwapi.sample_all.us",
        |i| SimTime::from_secs(i as u64 + 1),
        |t| sampler.sample_all(tb, &loads, *t, &mut store, &mut rng),
    );
    sampler.run(
        tb,
        &loads,
        SimTime::from_secs(60),
        SimTime::from_secs(600),
        &mut store,
        &mut rng,
    );
    let node = tb.nodes()[0].id;
    l.batched("kwapi.mean_10min.ns", |_| {
        store
            .power(node)
            .mean(SimTime::ZERO, SimTime::from_secs(600))
    });

    // The swarm: detection and conservation oracles on a 32-seed block
    // (one seed per span), and what expanding and parsing a scenario cost.
    let oracles = Oracles {
        detection: true,
        conservation: true,
        ..Oracles::none()
    };
    let block = if l.quick { QUICK_CALLS } else { SEED_BLOCK };
    for s in 0..block as u64 {
        let outcome = l.tr.span("scengen.run_seed.ms", || {
            run_seed(seed + s, &oracles, false)
        });
        black_box(outcome.tests_run);
    }
    let p50 = median(&l.tr.seconds("scengen.run_seed.ms"));
    l.record("scengen.run_seed.ms", p50);
    l.timed(
        "scengen.from_seed.us",
        |i| seed + i as u64,
        |s| ScenarioSpec::from_seed(*s),
    );
    let text = to_scenario_json(&ScenarioSpec::from_seed(seed));
    l.timed(
        "scengen.parse_scenario.us",
        |_| (),
        |_| parse_scenario(&text).is_ok(),
    );
    l.batched("sim.stream_rng.ns", |i| {
        stream_rng(seed + i as u64, "ledger-stream")
    });
}

/// The read plane's fixed costs against a live hub.
pub fn hub_rows(l: &mut Leaves, hub: &Arc<SnapshotHub>, seed: u64) {
    l.batched("core.snapshot.hub_latest.ns", |_| hub.latest());
    let snap = hub
        .latest()
        .expect("the hub holds the epochs just collected");
    let mut rng = stream_rng(seed, "ledger-random-query");
    l.batched("core.snapshot.random_query.ns", |_| {
        random_query(&mut rng, &snap)
    });
}

/// Run every leaf driver that needs no campaign.
pub fn run(l: &mut Leaves, seed: u64) {
    let paper = world_rows(
        l,
        &PAPER_ROWS,
        || TestbedBuilder::paper_scale().build(),
        seed,
    );
    let _grid64 = world_rows(
        l,
        &GRID64_ROWS,
        || TestbedBuilder::from_specs(grid_specs(64, 2, 8)).build(),
        seed,
    );
    paper_work(l, &paper, seed);
    chaos(l, &paper, seed);
    publish_and_swarm(l, &paper, seed);
}
