//! Every metric the ledger declares: name, unit, direction, regression
//! bound and the end-to-end metric a per-layer row is expected to move.
//! `BENCHMARK.json` is printed from these tables (`--contract`).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: emitted by every workload's untraced run.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Whether the value is an exact count (compared exactly between two
    /// sets of the same commit) rather than a clock.
    pub exact: bool,
    /// What a user of the system sees in it.
    pub why: &'static str,
}

/// A per-layer metric: emitted by every workload's traced run.
pub struct PerLayer {
    /// Metric name: `<layer>.<what>.<unit or world>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload the row should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in print order.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
        why: "median wall seconds of Campaign::new for the workload's world, at host speed 1",
    },
    EndToEnd {
        name: "sim_days_per_s",
        unit: "d/s",
        better: Higher,
        bound: 0.2,
        exact: false,
        why: "simulated days per wall second of Campaign::run at host speed 1, median over reps",
    },
    EndToEnd {
        name: "allocs_per_sim_day",
        unit: "1/d",
        better: Lower,
        bound: 0.01,
        exact: true,
        why: "allocator calls during run per simulated day",
    },
    EndToEnd {
        name: "alloc_kib_per_sim_day",
        unit: "KiB/d",
        better: Lower,
        bound: 0.01,
        exact: true,
        why: "KiB requested from the allocator during run per simulated day",
    },
    EndToEnd {
        name: "peak_live_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.02,
        exact: true,
        why: "allocator high-water of live bytes over new + run",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.2,
        exact: false,
        why: "verified answers per wall second of one closed-loop reader at host speed 1, against the first week of epochs",
    },
];

const SETUP: &str = "setup_s everywhere; nothing else";
const RUN: &str = "sim_days_per_s on the workload run; the tail shows cadence stalls";
const PAPER_WORK: &str = "sim_days_per_s on paper_180d; no move on quiet_year";
const OAR: &str =
    "sim_days_per_s on grid64_week and read_plane (grid64 rows), paper_180d (paper rows)";
const CHAOS: &str = "sim_days_per_s and allocs_per_sim_day on chaos_week; no move on quiet_year";
const PUBLISH: &str = "sim_days_per_s and allocs_per_sim_day on read_plane; none on grid64_week";
const READ: &str = "queries_per_s on every workload, read_plane first";
const SWARM: &str = "no end-to-end metric here; swarm/fuzz cost kept visible";
const EXACT: &str = "must be identical between parent and change for any perf or simplicity change";
const HOST: &str = "validity of the run, not the program";

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer metrics, in print order.
pub const PER_LAYER: [PerLayer; 75] = [
    row("core.new.ms", "ms", Lower, SETUP),
    row("testbed.build.ms.paper", "ms", Lower, SETUP),
    row("testbed.build.ms.grid64", "ms", Lower, SETUP),
    row("refapi.describe.ms.paper", "ms", Lower, SETUP),
    row("refapi.describe.ms.grid64", "ms", Lower, SETUP),
    row("oar.server.new.ms", "ms", Lower, SETUP),
    row("oar.federation.new.ms.paper", "ms", Lower, SETUP),
    row("oar.federation.new.ms.grid64", "ms", Lower, SETUP),
    row("suite.build_suite.ms", "ms", Lower, SETUP),
    row("core.run_until.day_ms_p50", "ms", Lower, RUN),
    row("core.run_until.day_ms_tail", "ms", Lower, RUN),
    row("core.run_until.tail_pct", "%", Higher, "which percentile day_ms_tail is: the highest with ten samples beyond"),
    row("core.run_until.day1_ms", "ms", Lower, "the start-up burst: first simulated day against day_ms_p50"),
    row("core.finalize.ms", "ms", Lower, RUN),
    row("suite.run_test.refapi.us", "us", Lower, PAPER_WORK),
    row("suite.run_test.disk.us", "us", Lower, PAPER_WORK),
    row("suite.run_test.environments.us", "us", Lower, PAPER_WORK),
    row("suite.run_test.fail_share", "share", Lower, PAPER_WORK),
    row("kadeploy.deploy.us.50", "us", Lower, PAPER_WORK),
    row("kadeploy.deploy.us.200", "us", Lower, PAPER_WORK),
    row("kadeploy.deploy.node_fail_share", "share", Lower, PAPER_WORK),
    row("kavlan.set_vlan_all.us", "us", Lower, PAPER_WORK),
    row("nodecheck.check_node.us", "us", Lower, PAPER_WORK),
    row("nodecheck.full_sweep.ms", "ms", Lower, PAPER_WORK),
    row("ci.expand_axes.us", "us", Lower, PAPER_WORK),
    row("ci.trigger_assign_finish_448.us", "us", Lower, PAPER_WORK),
    row("jobsched.first_tick_751.us", "us", Lower, PAPER_WORK),
    row("jobsched.triggered_share", "share", Higher, PAPER_WORK),
    row("oar.parse_request.ns", "ns", Lower, OAR),
    row("oar.server.submit_100.us", "us", Lower, OAR),
    row("oar.server.immediate_assignment.ns", "ns", Lower, OAR),
    row("oar.federation.submit.us.paper", "us", Lower, OAR),
    row("oar.federation.submit.us.grid64", "us", Lower, OAR),
    row("oar.federation.advance.us.paper", "us", Lower, OAR),
    row("oar.federation.advance.us.grid64", "us", Lower, OAR),
    row("oar.federation.next_event_time.ns.paper", "ns", Lower, "as the oar rows, and sim_days_per_s on quiet_year"),
    row("oar.federation.next_event_time.ns.grid64", "ns", Lower, "as the oar rows, and sim_days_per_s on quiet_year"),
    row("oar.userload.advance_fed.us.paper", "us", Lower, OAR),
    row("oar.userload.advance_fed.us.grid64", "us", Lower, OAR),
    row("oar.userload.next_event.ns", "ns", Lower, OAR),
    row("testbed.fault_apply_repair.us", "us", Lower, CHAOS),
    row("testbed.injector.advance.us", "us", Lower, CHAOS),
    row("oar.federation.sync_dirty_nodes.us", "us", Lower, CHAOS),
    row("sim.buggify.fire.ns", "ns", Lower, CHAOS),
    row("sim.eventlog.push.ns", "ns", Lower, CHAOS),
    row("core.eventlog.events_per_sim_day", "1/d", Lower, CHAOS),
    row("core.publish.ms_per_epoch", "ms", Lower, PUBLISH),
    row("core.snapshot.epochs_published", "count", Higher, PUBLISH),
    row("refapi.all_properties.ms", "ms", Lower, PUBLISH),
    row("kwapi.sample_all.us", "us", Lower, PUBLISH),
    row("core.snapshot.answer.status_cell.us", "us", Lower, READ),
    row("core.snapshot.answer.job_trend.us", "us", Lower, READ),
    row("core.snapshot.answer.node_filter.us", "us", Lower, READ),
    row("core.snapshot.answer.metrics_window.us", "us", Lower, READ),
    row("core.snapshot.answer.queue_depth.us", "us", Lower, READ),
    row("core.snapshot.answer.service_census.us", "us", Lower, READ),
    row("core.snapshot.answer.us_tail", "us", Lower, READ),
    row("core.snapshot.answer.tail_pct", "%", Higher, "which percentile us_tail is: the highest with ten samples beyond"),
    row("core.snapshot.node_filter_share", "share", Lower, "share of single-reader answer time spent in node_filter"),
    row("core.snapshot.hub_latest.ns", "ns", Lower, READ),
    row("core.snapshot.random_query.ns", "ns", Lower, READ),
    row("kwapi.mean_10min.ns", "ns", Lower, READ),
    row("scengen.digest_capture.ms", "ms", Lower, SWARM),
    row("scengen.run_seed.ms", "ms", Lower, SWARM),
    row("scengen.from_seed.us", "us", Lower, SWARM),
    row("scengen.parse_scenario.us", "us", Lower, SWARM),
    row("sim.stream_rng.ns", "ns", Lower, SWARM),
    row("core.sim.tests_run", "count", Higher, EXACT),
    row("core.sim.bugs_filed", "count", Higher, EXACT),
    row("core.sim.digest_fold", "hash48", Higher, EXACT),
    row("core.alloc_jitter", "count", Lower, "largest difference in allocator calls between reps of one run; 0 when counts repeat exactly"),
    row("core.unattributed_share", "share", Lower, "the residual of run wall the leaf rows do not explain"),
    row("host.cpus", "count", Higher, HOST),
    row("host.runq_wait_share", "share", Lower, HOST),
    row("host.trace_overhead_pct", "%", Lower, HOST),
];

/// Multiplier from seconds to `unit` (`ns`, `us`, `ms` or `s`).
pub fn per_second(unit: &str) -> f64 {
    match unit {
        "ns" => 1e9,
        "us" => 1e6,
        "ms" => 1e3,
        _ => 1.0,
    }
}

/// The declared per-layer row called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
