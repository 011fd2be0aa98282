//! The bug tracker.

use std::collections::BTreeMap;
use std::fmt;
use ttt_sim::SimTime;
use ttt_testbed::{FaultId, Signature};

/// Unique bug identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BugId(pub u64);

impl fmt::Display for BugId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bug-{}", self.0)
    }
}

/// Bug lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugState {
    /// Filed, not yet fixed.
    Open,
    /// Fixed by an operator.
    Fixed,
}

/// One filed bug.
#[derive(Debug, Clone, PartialEq)]
pub struct Bug {
    /// Identifier.
    pub id: BugId,
    /// The diagnostic signature it was filed under.
    pub signature: Signature,
    /// The fault the first report that resolved one was filed against;
    /// operators repair this id. `None` while no report resolved a fault.
    pub fault: Option<FaultId>,
    /// The test family that found it.
    pub family: &'static str,
    /// Operator-facing message from the first report.
    pub message: String,
    /// When first reported.
    pub first_seen: SimTime,
    /// When last reported.
    pub last_seen: SimTime,
    /// How many test runs reported it.
    pub reports: u64,
    /// Lifecycle state.
    pub state: BugState,
    /// When fixed, if fixed.
    pub fixed_at: Option<SimTime>,
}

/// The tracker: deduplicates diagnostics into bugs by signature.
///
/// A signature that recurs *after* its bug was fixed opens a fresh bug (a
/// regression), matching how real trackers count.
#[derive(Debug, Clone, Default)]
pub struct BugTracker {
    bugs: Vec<Bug>,
    /// Signature → index of the currently-open bug for it, if any.
    open_by_signature: BTreeMap<Signature, usize>,
}

impl BugTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        BugTracker::default()
    }

    /// File a diagnostic, with the active fault it resolved to (if any).
    /// Returns the bug id and whether a new bug was created (false =
    /// duplicate of an open bug). A duplicate binds its fault only to a
    /// bug no earlier report bound: the first report that resolves a
    /// fault keeps it.
    pub fn file(
        &mut self,
        signature: &Signature,
        fault: Option<FaultId>,
        family: &'static str,
        message: &str,
        now: SimTime,
    ) -> (BugId, bool) {
        if let Some(&idx) = self.open_by_signature.get(signature) {
            let bug = &mut self.bugs[idx];
            bug.reports += 1;
            bug.last_seen = now;
            bug.fault = bug.fault.or(fault);
            return (bug.id, false);
        }
        let id = BugId(self.bugs.len() as u64);
        self.bugs.push(Bug {
            id,
            signature: signature.clone(),
            fault,
            family,
            message: message.to_string(),
            first_seen: now,
            last_seen: now,
            reports: 1,
            state: BugState::Open,
            fixed_at: None,
        });
        self.open_by_signature
            .insert(signature.clone(), self.bugs.len() - 1);
        (id, true)
    }

    /// Mark a bug fixed. Returns false if unknown or already fixed.
    pub fn fix(&mut self, id: BugId, now: SimTime) -> bool {
        let Some(bug) = self.bugs.get_mut(id.0 as usize) else {
            return false;
        };
        if bug.state == BugState::Fixed {
            return false;
        }
        bug.state = BugState::Fixed;
        bug.fixed_at = Some(now);
        self.open_by_signature.remove(&bug.signature);
        true
    }

    /// All bugs, in filing order.
    pub fn bugs(&self) -> &[Bug] {
        &self.bugs
    }

    /// One bug.
    pub fn bug(&self, id: BugId) -> Option<&Bug> {
        self.bugs.get(id.0 as usize)
    }

    /// Total bugs filed so far (the paper's "118 bugs filed").
    pub fn filed(&self) -> usize {
        self.bugs.len()
    }

    /// Bugs fixed so far (the paper's "84 already fixed").
    pub fn fixed(&self) -> usize {
        self.bugs
            .iter()
            .filter(|b| b.state == BugState::Fixed)
            .count()
    }

    /// Currently open bugs, oldest first.
    pub fn open(&self) -> Vec<&Bug> {
        self.bugs
            .iter()
            .filter(|b| b.state == BugState::Open)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_testbed::Symptom;

    #[test]
    fn filing_dedups_by_signature() {
        let mut t = BugTracker::new();
        let sig = Symptom::CpuCStates.on("n1");
        let (id1, new1) = t.file(&sig, None, "refapi", "drift", SimTime::from_days(1));
        let (id2, new2) = t.file(&sig, None, "stdenv", "drift", SimTime::from_days(2));
        assert!(new1);
        assert!(!new2);
        assert_eq!(id1, id2);
        assert_eq!(t.filed(), 1);
        assert_eq!(t.bug(id1).unwrap().reports, 2);
        assert_eq!(t.bug(id1).unwrap().last_seen, SimTime::from_days(2));
    }

    #[test]
    fn a_duplicate_binds_a_fault_only_to_an_unbound_bug() {
        let mut t = BugTracker::new();
        let sig = Symptom::ConsoleDead.on("n1");
        let day = SimTime::from_days;
        let (id, _) = t.file(&sig, None, "console", "m", day(1));
        assert_eq!(t.bug(id).unwrap().fault, None);
        // The first report that resolves a fault binds it...
        t.file(&sig, Some(FaultId(7)), "console", "m", day(2));
        assert_eq!(t.bug(id).unwrap().fault, Some(FaultId(7)));
        // ...and later reports, resolved or not, never rebind it.
        t.file(&sig, Some(FaultId(9)), "console", "m", day(3));
        t.file(&sig, None, "console", "m", day(4));
        assert_eq!(t.bug(id).unwrap().fault, Some(FaultId(7)));
        assert_eq!(t.bug(id).unwrap().reports, 4);
    }

    #[test]
    fn different_signatures_different_bugs() {
        let mut t = BugTracker::new();
        t.file(&Symptom::NodeDead.on("n1"), None, "x", "m", SimTime::ZERO);
        t.file(&Symptom::NodeDead.on("n2"), None, "x", "m", SimTime::ZERO);
        assert_eq!(t.filed(), 2);
    }

    #[test]
    fn fix_and_regression() {
        let mut t = BugTracker::new();
        let sig = Symptom::DiskFirmware.on("n1");
        let (id, _) = t.file(&sig, None, "disk", "m", SimTime::from_days(1));
        assert!(t.fix(id, SimTime::from_days(3)));
        assert!(!t.fix(id, SimTime::from_days(4)), "double fix rejected");
        assert_eq!(t.fixed(), 1);
        // The same signature recurring afterwards is a *new* bug.
        let (id2, new) = t.file(&sig, None, "disk", "m", SimTime::from_days(10));
        assert!(new);
        assert_ne!(id, id2);
        assert_eq!(t.filed(), 2);
        assert_eq!(t.open().len(), 1);
    }

    #[test]
    fn open_is_oldest_first() {
        let mut t = BugTracker::new();
        t.file(&Symptom::NodeDead.on("a"), None, "x", "m", SimTime::from_days(1));
        t.file(&Symptom::NodeDead.on("b"), None, "x", "m", SimTime::from_days(2));
        let open = t.open();
        assert_eq!(open.len(), 2);
        assert!(open[0].first_seen <= open[1].first_seen);
    }
}
