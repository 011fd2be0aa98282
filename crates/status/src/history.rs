//! Historical views: success-rate trends per job and compact sparklines.
//!
//! Slide 18's third requirement is the "historical perspective" — the
//! status page must show whether a test's health is improving or decaying,
//! not just its latest colour.

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
    fn history_buckets_per_period() {
        let h = HistoryReport::from_jobs(&jobs(), SimDuration::from_days(7));
        let series = &h.per_job["disk"];
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 0.5).abs() < 1e-12);
        assert!((series[1].1 - 1.0).abs() < 1e-12);
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
}
