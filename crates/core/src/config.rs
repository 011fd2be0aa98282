//! Campaign configuration.

use ttt_oar::userload::UserLoadConfig;
use ttt_sim::{SimDuration, SimTime};
use ttt_suite::Family;
use ttt_testbed::gen::ClusterSpec;
use ttt_testbed::{InjectorConfig, LinkModelSpec};

/// Which testbed to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestbedScale {
    /// The paper-scale instance: 8 sites, 32 clusters, 894 nodes.
    Paper,
    /// The small 14-node instance for fast tests.
    Small,
    /// An arbitrary generated topology (the scenario grammar's testbeds):
    /// whatever cluster specifications the caller composed.
    Custom(Vec<ClusterSpec>),
}

/// How test launches are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// The paper's external scheduler (availability + backoff + policies).
    External,
    /// Baseline: Jenkins-native cron triggers with blocking waits — builds
    /// hold an executor until their testbed job starts (slide 16's "one
    /// cannot just submit a job and wait").
    NaiveCron {
        /// Cron period for every job.
        period: SimDuration,
    },
}

/// Staged activation of test families over the campaign ("tests still
/// being added", slide 23).
#[derive(Debug, Clone)]
pub struct Rollout {
    /// `(activation time, families switched on at that time)`.
    pub phases: Vec<(SimTime, Vec<Family>)>,
}

impl Rollout {
    /// Everything active from the start.
    pub fn all_at_start() -> Self {
        Rollout {
            phases: vec![(SimTime::ZERO, Family::ALL.to_vec())],
        }
    }

    /// The paper-like staged rollout over four months.
    pub fn staged() -> Self {
        Rollout {
            phases: vec![
                (
                    SimTime::ZERO,
                    vec![
                        Family::Refapi,
                        Family::OarState,
                        Family::Cmdline,
                        Family::SidApi,
                        Family::StdEnv,
                    ],
                ),
                (
                    SimTime::from_days(30),
                    vec![
                        Family::Environments,
                        Family::DellBios,
                        Family::OarProperties,
                        Family::Console,
                    ],
                ),
                (
                    SimTime::from_days(60),
                    vec![
                        Family::ParallelDeploy,
                        Family::MultiReboot,
                        Family::MultiDeploy,
                        Family::Kavlan,
                    ],
                ),
                (
                    SimTime::from_days(90),
                    vec![Family::Kwapi, Family::MpiGraph, Family::Disk],
                ),
            ],
        }
    }
}

/// Full campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: every stochastic stream derives from it.
    pub seed: u64,
    /// Testbed size.
    pub scale: TestbedScale,
    /// Virtual duration of the campaign.
    pub duration: SimDuration,
    /// Decision-loop cadence: the time grid on which decisions are made.
    /// [`Campaign::run`](crate::Campaign::run) visits only the grid
    /// instants where something is due; the lockstep reference driver
    /// visits every one.
    pub tick: SimDuration,
    /// How often the operator model runs (bug fixing happens at these
    /// instants, aligned to the decision grid).
    pub operator_cadence: SimDuration,
    /// How often executor/OAR utilization is sampled. Bounded-cadence
    /// sampling replaces the old one-sample-per-tick behaviour, so
    /// year-long runs cost a fixed number of samples per virtual hour
    /// regardless of tick length.
    pub sample_cadence: SimDuration,
    /// CI executor pool size. Zero means no build ever leaves the CI queue:
    /// the campaign runs to its horizon with no test run.
    pub executors: usize,
    /// Fault arrival configuration.
    pub injector: InjectorConfig,
    /// Faults pre-applied at t=0 (accumulated drift from before testing
    /// started — what the framework initially digs out).
    pub initial_fault_burden: usize,
    /// Synthetic user load.
    pub user_load: UserLoadConfig,
    /// Scheduling mode (external vs naive baseline).
    pub mode: SchedulingMode,
    /// Operator fixing capacity, bugs per week.
    pub operator_capacity_per_week: f64,
    /// Operator triage delay.
    pub operator_triage: SimDuration,
    /// Family activation schedule.
    pub rollout: Rollout,
    /// When true, hardware-centric tests request a 3-node sample instead
    /// of the whole cluster — the "per-node scheduling" open question of
    /// slide 23, as an ablation.
    pub per_node_hardware: bool,
    /// Buggify rate for IO-shaped callsites (0.0 = off, the default).
    /// When non-zero, the testbed's RPC envelope, the deployment engine
    /// and the CI assignment path inject chaos at this per-call rate,
    /// seeded deterministically from `seed`.
    pub buggify_rate: f64,
    /// Backbone link model ([`LinkModelSpec::Ideal`] = the historical free
    /// backbone, the default). A non-ideal model adds per-pair latency and
    /// loss to every control-plane service call and makes backbone
    /// partitions binding for federation spillover and co-allocation.
    pub link_model: LinkModelSpec,
    /// Read-plane query volume in queries per simulated day (0.0 = read
    /// plane disarmed, the default). When non-zero the campaign publishes
    /// snapshot epochs into its [`crate::snapshot::SnapshotHub`] and
    /// answers a bounded inline sample of this volume per epoch. Armed or
    /// not, the campaign digest is bit-identical.
    pub queries_per_day: f64,
    /// Number of distinct simulated query users the daily volume is
    /// attributed to (folds into the per-answer digest; 0 = anonymous).
    pub query_users: u64,
}

impl CampaignConfig {
    /// A small fast configuration for unit and integration tests.
    pub fn small(seed: u64) -> Self {
        CampaignConfig {
            seed,
            scale: TestbedScale::Small,
            duration: SimDuration::from_days(10),
            tick: SimDuration::from_mins(15),
            operator_cadence: SimDuration::from_hours(1),
            sample_cadence: SimDuration::from_hours(1),
            executors: 4,
            injector: InjectorConfig::default(),
            initial_fault_burden: 4,
            user_load: UserLoadConfig {
                peak_jobs_per_day: 30.0,
                ..Default::default()
            },
            mode: SchedulingMode::External,
            operator_capacity_per_week: 5.0,
            operator_triage: SimDuration::from_days(1),
            rollout: Rollout::all_at_start(),
            per_node_hardware: false,
            buggify_rate: 0.0,
            link_model: LinkModelSpec::Ideal,
            queries_per_day: 0.0,
            query_users: 0,
        }
    }
}
