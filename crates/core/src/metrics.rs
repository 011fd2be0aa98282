//! Campaign-level metrics.

use std::collections::BTreeMap;
use ttt_sim::{OnlineStats, PeriodSeries, SimDuration, SimTime};

/// Everything the experiments report.
#[derive(Debug, Clone)]
pub struct CampaignMetrics {
    /// Per-30-day test success rate (experiment E9).
    pub monthly_success: PeriodSeries,
    /// Per-7-day test success rate (finer view).
    pub weekly_success: PeriodSeries,
    /// Snapshots of `(time, bugs filed, bugs fixed)` (experiment E8).
    pub bug_snapshots: Vec<(SimTime, usize, usize)>,
    /// Test runs completed.
    pub tests_run: u64,
    /// Test runs that failed (found something).
    pub tests_failed: u64,
    /// Builds cancelled as unstable (testbed job not immediately
    /// schedulable).
    pub unstable_builds: u64,
    /// CI executor occupancy samples (fraction busy, per tick).
    pub executor_busy: OnlineStats,
    /// OAR utilization samples (fraction of alive nodes busy, per tick).
    pub oar_utilization: OnlineStats,
    /// Waiting time of completed *user* jobs, hours.
    pub user_wait_hours: OnlineStats,
    /// Queue-to-finish latency of completed test builds, hours.
    pub test_latency_hours: OnlineStats,
    /// Completed runs per family.
    pub completions_per_family: BTreeMap<&'static str, u64>,
    /// Diagnostics filed per fault kind (keyed by the kind's stable name):
    /// how often the testing pipeline *detected* each kind. Together with
    /// the testbed's injection ledger this is the injected × detected
    /// feature the coverage-guided fuzzer fingerprints.
    pub detected_by_kind: BTreeMap<&'static str, u64>,
    /// Rising edges of testbed saturation (every alive node busy) observed
    /// at the utilization-sampling cadence.
    pub saturation_episodes: u64,
    /// Rising edges of a site blackout (some site with zero alive nodes)
    /// observed at the sampling cadence.
    pub blackout_episodes: u64,
}

impl Default for CampaignMetrics {
    fn default() -> Self {
        CampaignMetrics {
            monthly_success: PeriodSeries::new(SimDuration::from_days(30)),
            weekly_success: PeriodSeries::new(SimDuration::from_days(7)),
            bug_snapshots: Vec::new(),
            tests_run: 0,
            tests_failed: 0,
            unstable_builds: 0,
            executor_busy: OnlineStats::new(),
            oar_utilization: OnlineStats::new(),
            user_wait_hours: OnlineStats::new(),
            test_latency_hours: OnlineStats::new(),
            completions_per_family: BTreeMap::new(),
            detected_by_kind: BTreeMap::new(),
            saturation_episodes: 0,
            blackout_episodes: 0,
        }
    }
}

impl CampaignMetrics {
    /// Overall test success ratio.
    pub fn success_ratio(&self) -> f64 {
        if self.tests_run == 0 {
            0.0
        } else {
            1.0 - self.tests_failed as f64 / self.tests_run as f64
        }
    }

    /// Monthly success percentages, `(month index, percent)`.
    pub fn monthly_success_percent(&self) -> Vec<(usize, f64)> {
        self.monthly_success
            .means()
            .into_iter()
            .map(|(i, m)| (i, m * 100.0))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn success_ratio_handles_empty() {
        let m = CampaignMetrics::default();
        assert_eq!(m.success_ratio(), 0.0);
    }

    #[test]
    fn success_ratio_counts() {
        let mut m = CampaignMetrics::default();
        m.tests_run = 10;
        m.tests_failed = 2;
        assert!((m.success_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn monthly_percent_scales() {
        let mut m = CampaignMetrics::default();
        m.monthly_success.push(SimTime::from_days(5), 1.0);
        m.monthly_success.push(SimTime::from_days(6), 0.0);
        let pct = m.monthly_success_percent();
        assert_eq!(pct.len(), 1);
        assert!((pct[0].1 - 50.0).abs() < 1e-12);
    }
}
