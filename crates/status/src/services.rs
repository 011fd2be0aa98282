//! The service-process panel: per-site daemon liveness.
//!
//! The status grid answers "which tests fail where"; this panel answers
//! the operator's next question — "is the site down, or just its daemon?"
//! A powered site whose OAR server process crashed shows up here as
//! `CRASHED` with its chaos ledger (crashes / restarts / dropped calls),
//! while the power-outage case never reaches this table at all (the grid's
//! `oarstate` row already carries it).

use std::sync::Arc;
use ttt_core::snapshot::ServiceLiveness;

/// The panel: every registered process, site-major. It shows the rows a
/// read-plane epoch holds (`snap.services`) — or, for a live reader,
/// [`ServiceLiveness::rows_from_testbed`] — as they are: building a panel
/// copies nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServicesPanel {
    /// All rows, in the registry's stable order.
    pub rows: Arc<[ServiceLiveness]>,
}

impl ServicesPanel {
    /// A panel over `rows`.
    pub fn new(rows: Arc<[ServiceLiveness]>) -> ServicesPanel {
        ServicesPanel { rows }
    }

    /// Rows whose process is currently down — the pager view.
    pub fn down(&self) -> Vec<&ServiceLiveness> {
        self.rows.iter().filter(|r| !r.up).collect()
    }

    /// Rows that saw chaos at some point (non-zero ledger), for digests
    /// and post-campaign reports.
    #[cfg(test)]
    pub fn touched(&self) -> Vec<&ServiceLiveness> {
        self.rows
            .iter()
            .filter(|r| r.crashes + r.restarts + r.dropped_calls > 0)
            .collect()
    }

    /// Render the ASCII table. Healthy, never-touched processes are
    /// folded into a single summary line to keep the page readable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<12} {:>6} {:<16} {:>7} {:>8} {:>7}\n",
            "service", "site", "host", "state", "crashes", "restarts", "dropped"
        ));
        let mut quiet = 0usize;
        for r in self.rows.iter() {
            if r.up && r.crashes + r.restarts + r.dropped_calls == 0 {
                quiet += 1;
                continue;
            }
            out.push_str(&format!(
                "{:<18} {:<12} {:>6} {:<16} {:>7} {:>8} {:>7}\n",
                r.service,
                r.site,
                r.host.map(|h| h.to_string()).unwrap_or_else(|| "-".into()),
                r.state,
                r.crashes,
                r.restarts,
                r.dropped_calls
            ));
        }
        out.push_str(&format!("({quiet} healthy processes not shown)\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(service: &'static str, state: &str, crashes: u64, restarts: u64) -> ServiceLiveness {
        ServiceLiveness {
            service,
            site: "s0".into(),
            host: Some(0),
            state: state.into(),
            up: state == "up",
            crashes,
            restarts,
            dropped_calls: 0,
        }
    }

    fn panel() -> ServicesPanel {
        ServicesPanel::new(Arc::new([
            row("oar-server", "CRASHED", 1, 0),
            row("kadeploy-server", "up", 0, 0),
            row("kwapi-server", "restarting@30m", 1, 0),
            row("kavlan-server", "up", 1, 1),
        ]))
    }

    #[test]
    fn panel_flags_down_processes_only() {
        let panel = panel();
        let down = panel.down();
        assert_eq!(down.len(), 2);
        assert_eq!(down[0].service, "oar-server");
        assert_eq!(down[1].state, "restarting@30m");
    }

    #[test]
    fn render_folds_quiet_rows() {
        let s = panel().render();
        assert!(s.contains("CRASHED"), "{s}");
        assert!(!s.contains("kadeploy-server"), "quiet rows must fold: {s}");
        assert!(s.contains("(1 healthy processes not shown)"), "{s}");
    }

    #[test]
    fn recovery_clears_the_pager_but_keeps_the_ledger() {
        let panel = panel();
        let touched = panel.touched();
        assert_eq!(touched.len(), 3);
        let recovered = touched[2];
        assert!(recovered.up && !panel.down().contains(&recovered));
        assert_eq!((recovered.crashes, recovered.restarts), (1, 1));
    }
}
