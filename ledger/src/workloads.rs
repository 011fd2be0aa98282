//! The five workloads: which campaign each one runs and why.

use ttt_core::scenario::{
    grid_of_grids_scenario, multi_site_scenario, no_testing_scenario, paper_scenario,
};
use ttt_core::CampaignConfig;
use ttt_sim::SimDuration;
use ttt_testbed::{InjectorConfig, LinkModelSpec};

/// Read-plane volume the armed campaigns publish under: two million
/// queries a simulated day from one million tenant users.
pub const QUERIES_PER_DAY: f64 = 2_000_000.0;
/// See [`QUERIES_PER_DAY`].
pub const QUERY_USERS: u64 = 1_000_000;

/// The campaign seed of every workload. `--seed` draws the query traffic and
/// the leaf drivers' inputs, not the campaign: across campaign seeds the
/// same workload's `sim_days_per_s` differs by up to 2x (grid64_week, seeds
/// 1..6) and its allocation counts by 18-25 %, more than any regression
/// bound could absorb, so the campaign is a fixed input like a trace file.
pub const CAMPAIGN_SEED: u64 = 42;

/// One named workload.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether the run records the structured event log.
    pub record_events: bool,
    /// Whether the world is the 64-site grid (else the paper's 8 sites).
    pub grid64: bool,
    config: fn(u64) -> CampaignConfig,
}

impl Workload {
    /// The campaign configuration; `quick` divides the horizon by ten (the
    /// smoke mode), never the world.
    pub fn config(&self, quick: bool) -> CampaignConfig {
        let mut cfg = (self.config)(CAMPAIGN_SEED);
        if quick {
            cfg.duration = SimDuration::from_nanos(cfg.duration.as_nanos() / 10);
        }
        cfg
    }
}

/// Switch the read plane on for `cfg`.
pub fn armed(mut cfg: CampaignConfig) -> CampaignConfig {
    cfg.queries_per_day = QUERIES_PER_DAY;
    cfg.query_users = QUERY_USERS;
    cfg
}

/// `cfg` with the read plane armed if it was off, and off if it was armed.
pub fn toggled(mut cfg: CampaignConfig) -> CampaignConfig {
    if cfg.queries_per_day > 0.0 {
        cfg.queries_per_day = 0.0;
        cfg.query_users = 0;
        cfg
    } else {
        armed(cfg)
    }
}

fn grid64_week(seed: u64) -> CampaignConfig {
    let mut cfg = grid_of_grids_scenario(seed, 64);
    cfg.duration = SimDuration::from_days(7);
    cfg
}

fn quiet_year(seed: u64) -> CampaignConfig {
    let mut cfg = no_testing_scenario(seed);
    cfg.injector = InjectorConfig::quiescent();
    cfg.initial_fault_burden = 0;
    cfg.user_load.peak_jobs_per_day = 0.0;
    cfg.duration = SimDuration::from_days(360);
    cfg.tick = SimDuration::from_mins(1);
    cfg
}

fn chaos_week(seed: u64) -> CampaignConfig {
    let mut cfg = multi_site_scenario(seed);
    cfg.duration = SimDuration::from_days(7);
    cfg.tick = SimDuration::from_mins(1);
    cfg.buggify_rate = 0.10;
    cfg.link_model = LinkModelSpec::DistanceTiered;
    cfg
}

/// Every workload, in the order a round runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_180d",
        why: "The paper's six-month staged-rollout campaign on 894 nodes/8 sites: suite, kadeploy, \
              jobsched, ci and oar work dominates; the engine loop is a small share.",
        record_events: false,
        grid64: false,
        config: paper_scenario,
    },
    Workload {
        name: "grid64_week",
        why: "A 64-site grid-of-grids week (1024 nodes): federation width, user load and dirty sync \
              dominate; seven days so the steady state outweighs the day-1 burst.",
        record_events: false,
        grid64: true,
        config: grid64_week,
    },
    Workload {
        name: "quiet_year",
        why: "360 days with no tests, faults or users on a 1-minute grid: only the engine loop, cadences \
              and sampling run. The bypass workload: work-layer gains must show nothing here.",
        record_events: false,
        grid64: false,
        config: quiet_year,
    },
    Workload {
        name: "chaos_week",
        why: "A multi-site week at buggify 0.10 with distance-tiered links and the event log armed: \
              failure arms, RPC envelope, failover/spillover and log writes, where paper_180d is blind.",
        record_events: true,
        grid64: false,
        config: chaos_week,
    },
    Workload {
        name: "read_plane",
        why: "grid64_week with the read plane armed at 2M queries/day: the writer publishes 168 epochs, \
              so publish-time work shows as sim_days_per_s down beside queries_per_s up.",
        record_events: false,
        grid64: true,
        config: |seed| armed(grid64_week(seed)),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
