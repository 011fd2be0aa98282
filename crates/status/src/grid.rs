//! The test × target status grid.

use std::collections::BTreeMap;
use ttt_ci::{cell_target, BuildResult, FrozenJob};
use ttt_sim::{PeriodSeries, SimDuration};

/// Aggregated status of one (test, target) cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellStatus {
    /// Result of the most recent finished build.
    pub latest: Option<BuildResult>,
    /// Finished builds seen.
    pub total: u64,
    /// Successful builds seen.
    pub successes: u64,
}

impl CellStatus {
    /// Success ratio over the recorded history.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.successes as f64 / self.total as f64
        }
    }

    /// One-character weather symbol for the ASCII grid.
    pub fn symbol(&self) -> char {
        match self.latest {
            None => '·',
            Some(BuildResult::Success) => '✓',
            Some(BuildResult::Unstable) => '~',
            Some(BuildResult::Failure) => '✗',
            Some(BuildResult::Aborted) => '!',
        }
    }
}

/// The status grid: tests on rows, targets (clusters/sites) on columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusGrid {
    /// Row labels (job names), sorted.
    pub jobs: Vec<String>,
    /// Column labels (targets), sorted.
    pub targets: Vec<String>,
    /// Cell statuses keyed by `(job, target)`.
    pub cells: BTreeMap<(String, String), CellStatus>,
}

impl StatusGrid {
    /// Build the grid from the CI server's read API — every job's history,
    /// frozen live (`CiServer::freeze_history`) or held by a read-plane
    /// epoch (`&snap.jobs`); finished builds only. Walks the shared
    /// history in place, bucketing by [`ttt_ci::cell_target`]. Every cell
    /// equals `ttt_core::snapshot::QueryEngine`'s status-cell answer
    /// against the same jobs: `tests/query_plane.rs` checks it on every
    /// epoch of two armed days.
    pub fn from_jobs(jobs: &[FrozenJob]) -> StatusGrid {
        let mut cells: BTreeMap<(String, String), CellStatus> = BTreeMap::new();
        for job in jobs {
            // Tally under the borrowed target first, so the owned keys are
            // allocated per distinct cell, not per finished build.
            let mut by_target: BTreeMap<&str, CellStatus> = BTreeMap::new();
            job.history.finished().for_each(|(cell, result, _)| {
                let status = by_target.entry(cell_target(cell)).or_default();
                status.total += 1;
                status.successes += u64::from(result.is_success());
                status.latest = Some(result);
            });
            for (target, status) in by_target {
                cells.insert((job.name.to_string(), target.to_string()), status);
            }
        }
        let mut jobs: Vec<String> = cells.keys().map(|(j, _)| j.clone()).collect();
        jobs.sort();
        jobs.dedup();
        let mut targets: Vec<String> = cells.keys().map(|(_, t)| t.clone()).collect();
        targets.sort();
        targets.dedup();
        StatusGrid {
            jobs,
            targets,
            cells,
        }
    }

    /// Status of one cell.
    pub fn cell(&self, job: &str, target: &str) -> Option<&CellStatus> {
        self.cells.get(&(job.to_string(), target.to_string()))
    }

    /// Success ratio of one test across every target (slide 18's "per test
    /// status, for all sites/clusters").
    pub fn job_ratio(&self, job: &str) -> f64 {
        self.ratio_where(|(j, _)| j == job)
    }

    /// Success ratio of one target across every test ("per site or per
    /// cluster status, for all tests").
    pub fn target_ratio(&self, target: &str) -> f64 {
        self.ratio_where(|(_, t)| t == target)
    }

    /// Overall success ratio.
    pub fn overall_ratio(&self) -> f64 {
        self.ratio_where(|_| true)
    }

    fn ratio_where<F: Fn(&(String, String)) -> bool>(&self, pred: F) -> f64 {
        let (mut total, mut ok) = (0u64, 0u64);
        for (key, cell) in &self.cells {
            if pred(key) {
                total += cell.total;
                ok += cell.successes;
            }
        }
        if total == 0 {
            0.0
        } else {
            ok as f64 / total as f64
        }
    }

    /// Render the slide-19-style weather table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .jobs
            .iter()
            .map(|j| j.len())
            .max()
            .unwrap_or(4)
            .max(4);
        // Header.
        out.push_str(&format!("{:width$} ", "", width = width));
        for t in &self.targets {
            out.push_str(&format!("{:>8.8}", t));
        }
        out.push('\n');
        for job in &self.jobs {
            out.push_str(&format!("{job:width$} "));
            for target in &self.targets {
                let sym = self
                    .cell(job, target)
                    .map(|c| c.symbol())
                    .unwrap_or(' ');
                out.push_str(&format!("{sym:>8}"));
            }
            out.push_str(&format!("  {:5.1}%\n", self.job_ratio(job) * 100.0));
        }
        out.push_str(&format!(
            "{:width$} overall {:5.1}%\n",
            "",
            self.overall_ratio() * 100.0,
            width = width
        ));
        out
    }
}

/// Success-rate history: fraction of successful builds per period, over
/// every finished build of every job (experiment E9's monthly series).
pub fn success_series(jobs: &[FrozenJob], period: SimDuration) -> PeriodSeries {
    ttt_ci::success_series(jobs.iter().map(|j| &j.history), period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::job;

    fn jobs() -> Vec<FrozenJob> {
        use BuildResult::{Failure, Success, Unstable};
        vec![
            job(
                "disk",
                &[
                    (Some("cluster=grisou"), Some(Success), 1),
                    (Some("cluster=grisou"), Some(Failure), 2),
                    (Some("cluster=nova"), Some(Success), 2),
                ],
            ),
            job(
                "kavlan",
                &[
                    (Some("site=nancy"), Some(Unstable), 1),
                    (None, Some(Success), 40),
                ],
            ),
        ]
    }

    #[test]
    fn grid_shape_and_cells() {
        let g = StatusGrid::from_jobs(&jobs());
        assert_eq!(g.jobs, vec!["disk".to_string(), "kavlan".to_string()]);
        assert!(g.targets.contains(&"grisou".to_string()));
        assert!(g.targets.contains(&"nancy".to_string()));
        assert!(g.targets.contains(&"global".to_string()));
        let cell = g.cell("disk", "grisou").unwrap();
        assert_eq!(cell.total, 2);
        assert_eq!(cell.successes, 1);
        assert_eq!(cell.latest, Some(BuildResult::Failure));
        assert_eq!(cell.symbol(), '✗');
    }

    #[test]
    fn ratios_per_job_target_and_overall() {
        let g = StatusGrid::from_jobs(&jobs());
        assert!((g.job_ratio("disk") - 2.0 / 3.0).abs() < 1e-12);
        assert!((g.target_ratio("grisou") - 0.5).abs() < 1e-12);
        assert!((g.overall_ratio() - 3.0 / 5.0).abs() < 1e-12);
        assert_eq!(g.job_ratio("nope"), 0.0);
    }

    #[test]
    fn unstable_counts_as_not_success() {
        let g = StatusGrid::from_jobs(&jobs());
        let cell = g.cell("kavlan", "nancy").unwrap();
        assert_eq!(cell.successes, 0);
        assert_eq!(cell.symbol(), '~');
    }

    #[test]
    fn render_contains_rows_and_ratio() {
        let g = StatusGrid::from_jobs(&jobs());
        let s = g.render();
        assert!(s.contains("disk"), "{s}");
        assert!(s.contains("kavlan"));
        assert!(s.contains("overall"));
        assert!(s.contains('✓'));
    }

    #[test]
    fn success_series_buckets_by_period() {
        let series = success_series(&jobs(), SimDuration::from_days(30));
        // Period 0: 4 builds (days 1-2), 2 successes → 0.5.
        let p = series.periods();
        assert_eq!(p[0].count(), 4);
        assert!((p[0].mean() - 0.5).abs() < 1e-12);
        // Period 1: the day-40 success.
        assert_eq!(p[1].count(), 1);
        assert!((p[1].mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn running_builds_are_ignored() {
        use BuildResult::{Failure, Success};
        let disk = job(
            "disk",
            &[
                (Some("cluster=grisou"), Some(Success), 1),
                (Some("cluster=grisou"), Some(Failure), 2),
                (Some("cluster=grisou"), None, 3),
            ],
        );
        assert_eq!(disk.history.len(), 3);
        let g = StatusGrid::from_jobs(&[disk]);
        assert_eq!(g.cell("disk", "grisou").unwrap().total, 2);
    }
}
