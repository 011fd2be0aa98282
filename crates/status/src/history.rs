//! Historical views: success-rate trends per job and compact sparklines.
//!
//! Slide 18's third requirement is the "historical perspective" — the
//! status page must show whether a test's health is improving or decaying,
//! not just its latest colour.

use crate::grid::StatusGrid;
use std::collections::BTreeMap;
use ttt_ci::{success_series, FrozenJob};
use ttt_sim::SimDuration;

/// Per-job success-rate history.
#[derive(Debug, Clone, Default)]
pub struct HistoryReport {
    /// Period length asked for (buckets are never shorter than a minute).
    pub period: SimDuration,
    /// Per-job series of `(period index, success fraction)`.
    pub per_job: BTreeMap<String, Vec<(usize, f64)>>,
}

impl HistoryReport {
    /// Build per-job histories from the CI server's read API — every
    /// job's history, frozen live or held by a read-plane epoch. A row's
    /// two ends are, bit for bit, `ttt_core::snapshot::QueryEngine`'s
    /// job-trend answer against the same jobs ([`ttt_ci::trend_ends`]):
    /// `tests/query_plane.rs` checks it on every epoch of two armed days.
    pub fn from_jobs(jobs: &[FrozenJob], period: SimDuration) -> Self {
        let mut per_job = BTreeMap::new();
        for job in jobs {
            let means = success_series([&job.history], period).means();
            if !means.is_empty() {
                per_job.insert(job.name.to_string(), means);
            }
        }
        HistoryReport { period, per_job }
    }

    /// Trend of one job: latest-period success minus first-period success
    /// (positive = improving).
    pub fn trend(&self, job: &str) -> Option<f64> {
        let series = self.per_job.get(job)?;
        let first = series.first()?.1;
        let last = series.last()?.1;
        Some(last - first)
    }

    /// Unicode sparkline of one job's history (`▁▂▃▄▅▆▇█`).
    pub fn sparkline(&self, job: &str) -> Option<String> {
        let series = self.per_job.get(job)?;
        Some(sparkline(series.iter().map(|(_, v)| *v)))
    }

    /// Render every job as `name  sparkline  first%→last%`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .per_job
            .keys()
            .map(|j| j.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for (job, series) in &self.per_job {
            let spark = sparkline(series.iter().map(|(_, v)| *v));
            let first = series.first().map(|(_, v)| v * 100.0).unwrap_or(0.0);
            let last = series.last().map(|(_, v)| v * 100.0).unwrap_or(0.0);
            out.push_str(&format!(
                "{job:<width$}  {spark}  {first:5.1}% → {last:5.1}%\n"
            ));
        }
        out
    }
}

/// Render values in `[0, 1]` as a Unicode sparkline.
pub fn sparkline(values: impl Iterator<Item = f64>) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    values
        .map(|v| {
            let idx = (v.clamp(0.0, 1.0) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx]
        })
        .collect()
}

/// Identify the worst targets of a grid (lowest success ratio with at
/// least `min_builds` finished builds) — the operators' to-do list.
pub fn worst_targets(grid: &StatusGrid, n: usize, min_builds: u64) -> Vec<(String, f64)> {
    let mut totals: BTreeMap<&String, (u64, u64)> = BTreeMap::new();
    for ((_, target), cell) in &grid.cells {
        let e = totals.entry(target).or_default();
        e.0 += cell.total;
        e.1 += cell.successes;
    }
    let mut v: Vec<(String, f64)> = totals
        .into_iter()
        .filter(|(_, (total, _))| *total >= min_builds)
        .map(|(t, (total, ok))| (t.clone(), ok as f64 / total as f64))
        .collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    v.truncate(n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::job;
    use ttt_ci::BuildResult::{Failure, Success};

    fn jobs() -> Vec<FrozenJob> {
        vec![job(
            "disk",
            &[
                // Week 0: 1/2 success; week 1: 2/2.
                (Some("cluster=a"), Some(Failure), 1),
                (Some("cluster=a"), Some(Success), 2),
                (Some("cluster=a"), Some(Success), 8),
                (Some("cluster=b"), Some(Success), 9),
            ],
        )]
    }

    #[test]
    fn history_buckets_and_trend() {
        let h = HistoryReport::from_jobs(&jobs(), SimDuration::from_days(7));
        let series = &h.per_job["disk"];
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 0.5).abs() < 1e-12);
        assert!((series[1].1 - 1.0).abs() < 1e-12);
        assert!((h.trend("disk").unwrap() - 0.5).abs() < 1e-12);
        assert!(h.trend("nope").is_none());
    }

    #[test]
    fn sparkline_shape() {
        assert_eq!(sparkline([0.0, 0.5, 1.0].into_iter()), "▁▅█");
        let h = HistoryReport::from_jobs(&jobs(), SimDuration::from_days(7));
        assert_eq!(h.sparkline("disk").unwrap().chars().count(), 2);
    }

    #[test]
    fn render_contains_all_jobs() {
        let h = HistoryReport::from_jobs(&jobs(), SimDuration::from_days(7));
        let s = h.render();
        assert!(s.contains("disk"));
        assert!(s.contains('→'));
    }

    #[test]
    fn worst_targets_orders_ascending() {
        let grid = StatusGrid::from_jobs(&jobs());
        let worst = worst_targets(&grid, 5, 1);
        assert_eq!(worst[0].0, "a"); // 2/3 success
        assert!((worst[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(worst[1].0, "b"); // 1/1
        // min_builds filters thin targets.
        let filtered = worst_targets(&grid, 5, 2);
        assert_eq!(filtered.len(), 1);
    }
}
