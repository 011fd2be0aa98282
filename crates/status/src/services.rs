//! The service-process panel: per-site daemon liveness.
//!
//! The status grid answers "which tests fail where"; this panel answers
//! the operator's next question — "is the site down, or just its daemon?"
//! A powered site whose OAR server process crashed shows up here as
//! `CRASHED` with its chaos ledger (crashes / restarts / dropped calls),
//! while the power-outage case never reaches this table at all (the grid's
//! `oarstate` row already carries it).

use ttt_core::snapshot::CampaignSnapshot;
use ttt_sim::rpc::Liveness;
use ttt_testbed::{ProcessRegistry, Testbed};

/// One service process, flattened for presentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRow {
    /// Service name (e.g. `oar-server`).
    pub service: String,
    /// Site name the process serves.
    pub site: String,
    /// Host node index, if pinned.
    pub host: Option<u32>,
    /// Rendered liveness: `up`, `CRASHED` or `restarting@<min>m`.
    pub state: String,
    /// Whether the process answers right now.
    pub up: bool,
    /// Lifetime halts (crash or restart faults).
    pub crashes: u64,
    /// Lifetime recoveries.
    pub restarts: u64,
    /// Calls the RPC envelope refused or dropped.
    pub dropped_calls: u64,
}

/// The panel: every registered process, site-major.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServicesPanel {
    /// All rows, in the registry's stable order.
    pub rows: Vec<ServiceRow>,
}

impl ServicesPanel {
    /// Build the panel from a process registry, naming sites through the
    /// testbed.
    pub fn from_testbed(tb: &Testbed) -> ServicesPanel {
        Self::from_registry(tb.processes(), |idx| {
            tb.sites()
                .get(idx)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("site-{idx}"))
        })
    }

    /// Build the panel from a published read-plane epoch. The snapshot's
    /// `ServiceLiveness` rows mirror `ServiceRow` field-for-field (same
    /// rendering, captured by `rows_from_testbed`), so this is a plain
    /// borrow-and-map — no registry walk, no testbed access.
    pub fn from_snapshot(snap: &CampaignSnapshot) -> ServicesPanel {
        ServicesPanel {
            rows: snap
                .services
                .iter()
                .map(|r| ServiceRow {
                    service: r.service.to_string(),
                    site: r.site.to_string(),
                    host: r.host,
                    state: r.state.clone(),
                    up: r.up,
                    crashes: r.crashes,
                    restarts: r.restarts,
                    dropped_calls: r.dropped_calls,
                })
                .collect(),
        }
    }

    /// Build the panel from a registry alone, with a site-naming function.
    pub fn from_registry(
        reg: &ProcessRegistry,
        site_name: impl Fn(usize) -> String,
    ) -> ServicesPanel {
        let rows = reg
            .iter()
            .map(|e| {
                let state = match e.state {
                    Liveness::Up => "up".to_string(),
                    Liveness::Crashed => "CRASHED".to_string(),
                    Liveness::RestartingAt(t) => {
                        format!("restarting@{}m", t.as_secs() / 60)
                    }
                };
                ServiceRow {
                    service: e.id.kind.to_string(),
                    site: site_name(e.id.site.index()),
                    host: e.host.map(|n| n.0),
                    state,
                    up: e.state.is_up(),
                    crashes: e.crashes,
                    restarts: e.restarts,
                    dropped_calls: e.dropped_calls,
                }
            })
            .collect();
        ServicesPanel { rows }
    }

    /// Rows whose process is currently down — the pager view.
    pub fn down(&self) -> Vec<&ServiceRow> {
        self.rows.iter().filter(|r| !r.up).collect()
    }

    /// Rows that saw chaos at some point (non-zero ledger), for digests
    /// and post-campaign reports.
    pub fn touched(&self) -> Vec<&ServiceRow> {
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
        for r in &self.rows {
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
    use ttt_sim::SimTime;
    use ttt_testbed::{NodeId, ServiceKind, SiteId};

    fn reg() -> ProcessRegistry {
        ProcessRegistry::new(2, |s| Some(NodeId(s as u32 * 8)))
    }

    #[test]
    fn panel_flags_down_processes_only() {
        let mut r = reg();
        r.crash(SiteId(0), ServiceKind::OarServer);
        r.schedule_restart(SiteId(1), ServiceKind::KwapiServer, SimTime::from_mins(30));
        let panel = ServicesPanel::from_registry(&r, |i| format!("s{i}"));
        let down = panel.down();
        assert_eq!(down.len(), 2);
        assert_eq!(down[0].service, "oar-server");
        assert_eq!(down[0].state, "CRASHED");
        assert_eq!(down[1].state, "restarting@30m");
        assert_eq!(panel.touched().len(), 2);
    }

    #[test]
    fn render_folds_quiet_rows() {
        let mut r = reg();
        r.crash(SiteId(0), ServiceKind::OarServer);
        let panel = ServicesPanel::from_registry(&r, |i| format!("s{i}"));
        let s = panel.render();
        assert!(s.contains("CRASHED"), "{s}");
        assert!(!s.contains("kadeploy-server"), "quiet rows must fold: {s}");
        assert!(s.contains("healthy processes not shown"));
    }

    #[test]
    fn recovery_clears_the_pager_but_keeps_the_ledger() {
        let mut r = reg();
        r.crash(SiteId(0), ServiceKind::OarServer);
        r.mark_up(SiteId(0), ServiceKind::OarServer);
        let panel = ServicesPanel::from_registry(&r, |i| format!("s{i}"));
        assert!(panel.down().is_empty());
        assert_eq!(panel.touched().len(), 1);
        assert_eq!(panel.touched()[0].crashes, 1);
        assert_eq!(panel.touched()[0].restarts, 1);
    }
}
