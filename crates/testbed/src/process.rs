//! Simulated service processes: every per-site service runs as a process
//! pinned to a host node, and that process can be killed.
//!
//! This is the testbed half of the FoundationDB simulation model (site →
//! host node → process → service interface): [`ProcessRegistry`] maps a
//! [`ServiceId`] (`kind` × `site`) to its host node plus a
//! [`Liveness`] state, and keeps the per-process chaos ledger (crash,
//! restart and dropped-call counters) that the campaign digest exposes as
//! engine-equivalence observables. The domain-agnostic primitives
//! (`Liveness`, `LinkQuality`, `Buggify`) live in `ttt_sim::rpc`.

use crate::ids::{NodeId, SiteId};
use crate::services::ServiceKind;
use ttt_sim::rpc::Liveness;
use ttt_sim::SimTime;

/// Identity of one service process: which service, on which site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId {
    /// What the process serves.
    pub kind: ServiceKind,
    /// The site whose node hosts it.
    pub site: SiteId,
}

impl std::fmt::Display for ServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.site, self.kind)
    }
}

/// One registered service process.
#[derive(Debug, Clone)]
pub struct ProcessEntry {
    /// Identity (kind × site).
    pub id: ServiceId,
    /// The node hosting the process (the site's first node; identity and
    /// status-page metadata — host death is a separate fault axis).
    pub host: Option<NodeId>,
    /// Current liveness.
    pub state: Liveness,
    /// Times the process halted (crash or restart fault).
    pub crashes: u64,
    /// Times it came back up (bounded restart elapsing, or repair).
    pub restarts: u64,
    /// Calls the RPC envelope refused or dropped on the way to it.
    pub dropped_calls: u64,
}

/// The registry of every simulated service process, indexed
/// `[site][ServiceKind::ALL position]` like the service arena itself.
#[derive(Debug, Clone, Default)]
pub struct ProcessRegistry {
    entries: Vec<Vec<ProcessEntry>>,
}

impl ProcessRegistry {
    /// Build the registry for `n_sites` sites, pinning each process to the
    /// host node picked by the caller (`host_of(site)`).
    pub fn new(n_sites: usize, host_of: impl Fn(usize) -> Option<NodeId>) -> Self {
        let entries = (0..n_sites)
            .map(|s| {
                ServiceKind::ALL
                    .iter()
                    .map(|&kind| ProcessEntry {
                        id: ServiceId {
                            kind,
                            site: SiteId(s as u16),
                        },
                        host: host_of(s),
                        state: Liveness::Up,
                        crashes: 0,
                        restarts: 0,
                        dropped_calls: 0,
                    })
                    .collect()
            })
            .collect();
        ProcessRegistry { entries }
    }

    /// One process entry.
    pub fn entry(&self, site: SiteId, kind: ServiceKind) -> &ProcessEntry {
        &self.entries[site.index()][kind.index()]
    }

    fn entry_mut(&mut self, site: SiteId, kind: ServiceKind) -> &mut ProcessEntry {
        &mut self.entries[site.index()][kind.index()]
    }

    /// Whether the process is listening.
    pub fn is_up(&self, site: SiteId, kind: ServiceKind) -> bool {
        self.entry(site, kind).state.is_up()
    }

    /// Halt the process with no scheduled restart. Returns false if it was
    /// already down (fault application treats that as a no-op).
    pub fn crash(&mut self, site: SiteId, kind: ServiceKind) -> bool {
        let e = self.entry_mut(site, kind);
        if !e.state.is_up() {
            return false;
        }
        e.state = Liveness::Crashed;
        e.crashes += 1;
        true
    }

    /// Halt the process with a restart scheduled at `until`. Returns false
    /// if it was already down.
    pub fn schedule_restart(&mut self, site: SiteId, kind: ServiceKind, until: SimTime) -> bool {
        let e = self.entry_mut(site, kind);
        if !e.state.is_up() {
            return false;
        }
        e.state = Liveness::RestartingAt(until);
        e.crashes += 1;
        true
    }

    /// Bring the process back up. Counts a restart only on a real
    /// transition (idempotent under double repair).
    pub fn mark_up(&mut self, site: SiteId, kind: ServiceKind) {
        let e = self.entry_mut(site, kind);
        if !e.state.is_up() {
            e.state = Liveness::Up;
            e.restarts += 1;
        }
    }

    /// Record one call the envelope refused or dropped before reaching the
    /// service.
    pub fn note_lost_call(&mut self, site: SiteId, kind: ServiceKind) {
        self.entry_mut(site, kind).dropped_calls += 1;
    }

    /// The earliest scheduled restart instant across every process — a
    /// campaign wake term.
    pub fn next_restart(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .flatten()
            .filter_map(|e| e.state.restart_at())
            .min()
    }

    /// Every entry, site-major (stable order for digests and status pages).
    pub fn iter(&self) -> impl Iterator<Item = &ProcessEntry> {
        self.entries.iter().flatten()
    }

    /// Per-kind lifetime counters `(kind name, crashes, restarts,
    /// dropped calls)`, in [`ServiceKind::ALL`] order, all-zero rows
    /// skipped — the digest's per-service observables.
    pub fn counters_by_kind(&self) -> Vec<(String, u64, u64, u64)> {
        ServiceKind::ALL
            .iter()
            .enumerate()
            .filter_map(|(i, kind)| {
                let (mut c, mut r, mut d) = (0, 0, 0);
                for site in &self.entries {
                    c += site[i].crashes;
                    r += site[i].restarts;
                    d += site[i].dropped_calls;
                }
                (c + r + d > 0).then(|| (kind.to_string(), c, r, d))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> ProcessRegistry {
        ProcessRegistry::new(2, |s| Some(NodeId(s as u32 * 10)))
    }

    #[test]
    fn processes_start_up_and_pinned() {
        let r = reg();
        let site = SiteId(1);
        assert!(r.is_up(site, ServiceKind::OarServer));
        assert_eq!(r.entry(site, ServiceKind::OarServer).host, Some(NodeId(10)));
        assert_eq!(r.iter().count(), 2 * ServiceKind::ALL.len());
        assert!(r.next_restart().is_none());
    }

    #[test]
    fn crash_is_transition_guarded() {
        let mut r = reg();
        let site = SiteId(0);
        assert!(r.crash(site, ServiceKind::KadeployServer));
        assert!(!r.is_up(site, ServiceKind::KadeployServer));
        // Crashing a dead process is a no-op (fault application rejects it).
        assert!(!r.crash(site, ServiceKind::KadeployServer));
        assert_eq!(r.entry(site, ServiceKind::KadeployServer).crashes, 1);
        r.mark_up(site, ServiceKind::KadeployServer);
        assert!(r.is_up(site, ServiceKind::KadeployServer));
        r.mark_up(site, ServiceKind::KadeployServer);
        assert_eq!(r.entry(site, ServiceKind::KadeployServer).restarts, 1);
    }

    #[test]
    fn scheduled_restart_is_the_wake_term() {
        let mut r = reg();
        let at = SimTime::from_mins(45);
        assert!(r.schedule_restart(SiteId(0), ServiceKind::OarServer, at));
        assert!(r.schedule_restart(SiteId(1), ServiceKind::OarServer, SimTime::from_mins(30)));
        assert_eq!(r.next_restart(), Some(SimTime::from_mins(30)));
        r.mark_up(SiteId(1), ServiceKind::OarServer);
        assert_eq!(r.next_restart(), Some(at));
    }

    #[test]
    fn counters_roll_up_per_kind() {
        let mut r = reg();
        r.crash(SiteId(0), ServiceKind::OarServer);
        r.crash(SiteId(1), ServiceKind::OarServer);
        r.note_lost_call(SiteId(0), ServiceKind::OarServer);
        let rows = r.counters_by_kind();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], ("oar-server".to_string(), 2, 0, 1));
    }
}
