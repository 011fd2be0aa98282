//! Matrix expansion and Matrix-Reloaded cell selection.

use crate::model::{Axis, Build, BuildResult};
use std::collections::BTreeMap;

/// One matrix cell: axis name → chosen value. Ordered so the rendered key
/// is canonical.
pub type Cell = BTreeMap<String, String>;

/// Render a cell as a canonical string key, e.g.
/// `"cluster=grisou,image=debian9-min"`.
pub fn render_cell(cell: &Cell) -> String {
    cell.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Expand axes into the full cartesian product of cells.
///
/// With the paper's axes (14 images × 32 clusters) this yields the 448
/// configurations of slide 15.
pub fn expand_axes(axes: &[Axis]) -> Vec<Cell> {
    let mut cells: Vec<Cell> = vec![Cell::new()];
    for axis in axes {
        let mut next = Vec::with_capacity(cells.len() * axis.values.len());
        for cell in &cells {
            for value in &axis.values {
                let mut c = cell.clone();
                c.insert(axis.name.clone(), value.clone());
                next.push(c);
            }
        }
        cells = next;
    }
    // An empty axis list yields one empty cell, which expands to nothing
    // meaningful — treat it as no cells.
    if axes.is_empty() {
        return Vec::new();
    }
    cells
}

/// Matrix Reloaded: the cells of a finished matrix build that did not
/// succeed, in expansion order. These are the ones worth retrying.
// detlint: allow(pub-fn-only-tests-call) -- Matrix Reloaded's retry list, driven by tests/matrix_reloaded.rs
pub fn failed_cells(cell_builds: &[Build]) -> Vec<&str> {
    cell_builds
        .iter()
        .filter(|b| {
            b.result
                .map(|r| r != BuildResult::Success)
                .unwrap_or(false)
        })
        .filter_map(|b| b.r#ref.cell.as_deref())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BuildRef, Cause, TargetId};
    use ttt_sim::SimTime;

    #[test]
    fn paper_matrix_expands_to_448() {
        let images: Vec<String> = (0..14).map(|i| format!("img{i}")).collect();
        let clusters: Vec<String> = (0..32).map(|i| format!("c{i}")).collect();
        let axes = vec![Axis::new("image", images), Axis::new("cluster", clusters)];
        let cells = expand_axes(&axes);
        assert_eq!(cells.len(), 448, "slide 15: 14 × 32 = 448");
        // Cells are unique.
        let keys: std::collections::HashSet<String> = cells.iter().map(render_cell).collect();
        assert_eq!(keys.len(), 448);
    }

    #[test]
    fn single_axis_expansion() {
        let cells = expand_axes(&[Axis::new("site", ["nancy", "lyon"])]);
        assert_eq!(cells.len(), 2);
        assert_eq!(render_cell(&cells[0]), "site=nancy");
    }

    #[test]
    fn empty_axes_give_no_cells() {
        assert!(expand_axes(&[]).is_empty());
    }

    #[test]
    fn cell_rendering_is_canonical() {
        let mut a = Cell::new();
        a.insert("image".into(), "debian9-min".into());
        a.insert("cluster".into(), "grisou".into());
        // BTreeMap ordering: cluster before image regardless of insertion.
        assert_eq!(render_cell(&a), "cluster=grisou,image=debian9-min");
    }

    fn build(cell: &str, result: Option<BuildResult>) -> Build {
        Build {
            r#ref: BuildRef {
                job: "environments".into(),
                number: 1,
                cell: Some(cell.into()),
            },
            target: TargetId(0),
            cause: Cause::Cron,
            queued_at: SimTime::ZERO,
            started_at: Some(SimTime::ZERO),
            finished_at: result.map(|_| SimTime::from_mins(5)),
            result,
            log: vec![],
        }
    }

    #[test]
    fn failed_cells_selects_non_success() {
        let builds = vec![
            build("a=1", Some(BuildResult::Success)),
            build("a=2", Some(BuildResult::Failure)),
            build("a=3", Some(BuildResult::Unstable)),
            build("a=4", None), // still running: not retried
        ];
        assert_eq!(failed_cells(&builds), vec!["a=2", "a=3"]);
    }
}
