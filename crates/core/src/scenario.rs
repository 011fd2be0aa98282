//! Scenario presets for the paper's experiments.

use crate::config::{CampaignConfig, Rollout, SchedulingMode, TestbedScale};
use ttt_oar::userload::UserLoadConfig;
use ttt_sim::SimDuration;
use ttt_testbed::{InjectorConfig, LinkModelSpec};

/// The longitudinal paper scenario (experiments E8/E9): paper-scale
/// testbed, six months, staged family rollout, fault rates and operator
/// capacity calibrated so the campaign lands in the neighbourhood of the
/// paper's "118 bugs filed (inc. 84 already fixed)" and "85 % → 93 %"
/// success-rate trend.
pub fn paper_scenario(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        scale: TestbedScale::Paper,
        duration: SimDuration::from_days(180),
        tick: SimDuration::from_mins(15),
        operator_cadence: SimDuration::from_hours(1),
        sample_cadence: SimDuration::from_hours(1),
        executors: 16,
        injector: InjectorConfig::default().scaled(0.38),
        initial_fault_burden: 45,
        user_load: UserLoadConfig {
            peak_jobs_per_day: 250.0,
            cluster_affinity: 0.6,
            whole_cluster_prob: 0.10,
        },
        mode: SchedulingMode::External,
        operator_capacity_per_week: 3.3,
        operator_triage: SimDuration::from_days(2),
        rollout: Rollout::staged(),
        per_node_hardware: false,
        buggify_rate: 0.0,
        link_model: LinkModelSpec::Ideal,
        queries_per_day: 0.0,
        query_users: 0,
    }
}

/// The scheduling-policy comparison scenario (experiment E12): one month,
/// all families active from the start, heavy user load. Run once with
/// [`SchedulingMode::External`] and once with [`SchedulingMode::NaiveCron`]
/// and compare executor occupancy, user-job delay and time-to-result.
pub fn scheduling_scenario(seed: u64, mode: SchedulingMode) -> CampaignConfig {
    CampaignConfig {
        seed,
        scale: TestbedScale::Paper,
        duration: SimDuration::from_days(30),
        tick: SimDuration::from_mins(15),
        operator_cadence: SimDuration::from_hours(1),
        sample_cadence: SimDuration::from_hours(1),
        executors: 16,
        injector: InjectorConfig::default().scaled(0.2),
        initial_fault_burden: 10,
        user_load: UserLoadConfig {
            peak_jobs_per_day: 150.0,
            cluster_affinity: 0.6,
            whole_cluster_prob: 0.08,
        },
        mode,
        operator_capacity_per_week: 4.0,
        operator_triage: SimDuration::from_days(2),
        rollout: Rollout::all_at_start(),
        per_node_hardware: false,
        buggify_rate: 0.0,
        link_model: LinkModelSpec::Ideal,
        queries_per_day: 0.0,
        query_users: 0,
    }
}

/// The multi-site federation scenario: the paper-scale 8-site testbed
/// under heavy load with the site-scoped fault classes (power outages,
/// inter-site partitions, clock skew) arriving aggressively, so the
/// federated scheduling paths — per-site queues, outage failover,
/// saturation spillover — dominate the run.
pub fn multi_site_scenario(seed: u64) -> CampaignConfig {
    let mut cfg = scheduling_scenario(seed, SchedulingMode::External);
    for (kind, rate) in &mut cfg.injector.rates_per_day {
        if kind.is_site_fault() {
            *rate = 0.5;
        }
    }
    cfg
}

/// The grid-of-grids scale-out scenario: a generated federation of
/// `sites` sites (two eight-node clusters per site, collision-free names
/// from [`ttt_testbed::gen::grid_specs`]) under the scheduling-scenario
/// service mix. This is the federation's scale axis: hundreds of
/// sites, one OAR scheduling domain each, with the user load and
/// executor pool widened so every site sees traffic.
pub fn grid_of_grids_scenario(seed: u64, sites: u32) -> CampaignConfig {
    let mut cfg = scheduling_scenario(seed, SchedulingMode::External);
    cfg.scale = TestbedScale::Custom(ttt_testbed::gen::grid_specs(sites, 2, 8));
    cfg.executors = (sites as usize * 2).clamp(16, 128);
    cfg.user_load.peak_jobs_per_day = (sites as f64 * 30.0).max(150.0);
    cfg
}

/// The no-testing baseline: same world as [`paper_scenario`] but no test
/// family ever activates, so faults accumulate silently — the situation
/// slides 10–13 motivate the framework with.
pub fn no_testing_scenario(seed: u64) -> CampaignConfig {
    CampaignConfig {
        rollout: Rollout { phases: vec![] },
        ..paper_scenario(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let p = paper_scenario(1);
        assert_eq!(p.scale, TestbedScale::Paper);
        assert_eq!(p.duration, SimDuration::from_days(180));
        assert_eq!(p.rollout.phases.len(), 4);

        let s = scheduling_scenario(1, SchedulingMode::External);
        assert_eq!(s.rollout.phases.len(), 1);

        let n = no_testing_scenario(1);
        assert!(n.rollout.phases.is_empty());
        assert_eq!(n.initial_fault_burden, p.initial_fault_burden);
    }

    #[test]
    fn grid_of_grids_spans_the_requested_sites() {
        let g = grid_of_grids_scenario(1, 64);
        let TestbedScale::Custom(specs) = &g.scale else {
            panic!("grid scenario must carry a generated topology");
        };
        assert_eq!(specs.len(), 128);
        let sites: std::collections::BTreeSet<&str> =
            specs.iter().map(|c| c.site.as_str()).collect();
        assert_eq!(sites.len(), 64);
        assert_eq!(g.executors, 128);
    }
}
