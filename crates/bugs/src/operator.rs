//! The operator model: bounded fixing capacity.
//!
//! The gap between "118 filed" and "84 fixed" at submission time exists
//! because operators fix bugs at a finite rate while tests keep finding
//! new ones. The model is a fluid approximation: `capacity_per_week` bugs
//! per week, oldest open bug first, with fractional budget carried over.

use crate::tracker::{BugId, BugTracker};
use ttt_sim::{SimDuration, SimTime};

/// Operators fixing bugs at a bounded rate.
#[derive(Debug, Clone)]
pub struct OperatorModel {
    /// Bugs fixed per week of virtual time.
    pub capacity_per_week: f64,
    /// Minimum age of a bug before operators act on it (triage delay).
    pub triage_delay: SimDuration,
    /// Accumulated fractional fixing budget.
    budget: f64,
    /// Last time the model ran.
    last_step: SimTime,
}

impl OperatorModel {
    /// Create a model fixing `capacity_per_week` bugs per week.
    pub fn new(capacity_per_week: f64, triage_delay: SimDuration) -> Self {
        OperatorModel {
            capacity_per_week,
            triage_delay,
            budget: 0.0,
            last_step: SimTime::ZERO,
        }
    }

    /// Advance the operators to `now`, fixing as many triaged open bugs as
    /// the accumulated budget allows. Returns the bugs fixed, oldest first.
    pub fn step(&mut self, tracker: &mut BugTracker, now: SimTime) -> Vec<BugId> {
        let elapsed_weeks = now.since(self.last_step).as_secs_f64() / (7.0 * 86_400.0);
        self.last_step = now;
        self.budget += elapsed_weeks * self.capacity_per_week;
        let mut fixed = Vec::new();
        while self.budget >= 1.0 {
            let candidate = tracker
                .open()
                .into_iter()
                .find(|b| now.since(b.first_seen) >= self.triage_delay)
                .map(|b| b.id);
            let Some(id) = candidate else { break };
            tracker.fix(id, now);
            fixed.push(id);
            self.budget -= 1.0;
        }
        // Idle operators do not stockpile unlimited budget: cap at one
        // week's worth so a quiet month doesn't cause an instant burst.
        self.budget = self.budget.min(self.capacity_per_week.max(1.0));
        fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_testbed::Symptom;

    fn filed(tracker: &mut BugTracker, n: usize, at: SimTime) {
        for i in 0..n {
            tracker.file(&Symptom::NodeDead.on(format!("{at}-{i}")), None, "fam", "m", at);
        }
    }

    #[test]
    fn fixes_at_the_configured_rate() {
        let mut tracker = BugTracker::new();
        let mut ops = OperatorModel::new(5.0, SimDuration::ZERO);
        filed(&mut tracker, 20, SimTime::ZERO);
        // After one week: 5 fixed.
        let fixed = ops.step(&mut tracker, SimTime::from_days(7));
        assert_eq!(fixed.len(), 5);
        // After another two weeks: 10 more.
        let fixed = ops.step(&mut tracker, SimTime::from_days(21));
        assert_eq!(fixed.len(), 10);
        assert_eq!(tracker.fixed(), 15);
    }

    #[test]
    fn budget_does_not_stockpile() {
        let mut tracker = BugTracker::new();
        let mut ops = OperatorModel::new(5.0, SimDuration::ZERO);
        // A quiet year...
        ops.step(&mut tracker, SimTime::from_days(365));
        // ...then 100 bugs arrive at once: at most ~1 week of budget fires.
        filed(&mut tracker, 100, SimTime::from_days(365));
        let fixed = ops.step(&mut tracker, SimTime::from_days(365));
        assert!(fixed.len() <= 5, "{}", fixed.len());
    }

    #[test]
    fn triage_delay_holds_young_bugs() {
        let mut tracker = BugTracker::new();
        let mut ops = OperatorModel::new(100.0, SimDuration::from_days(3));
        filed(&mut tracker, 4, SimTime::from_days(10));
        // One day later: bugs are younger than the triage delay.
        assert!(ops.step(&mut tracker, SimTime::from_days(11)).is_empty());
        // Four days later they are old enough.
        let fixed = ops.step(&mut tracker, SimTime::from_days(14));
        assert_eq!(fixed.len(), 4);
    }

    #[test]
    fn oldest_bugs_fixed_first() {
        let mut tracker = BugTracker::new();
        let mut ops = OperatorModel::new(1.0, SimDuration::ZERO);
        let (old, _) = tracker.file(&Symptom::NodeDead.on("old"), None, "f", "m", SimTime::from_days(1));
        tracker.file(&Symptom::NodeDead.on("new"), None, "f", "m", SimTime::from_days(5));
        // One week elapsed => budget for exactly one fix: the oldest.
        let fixed = ops.step(&mut tracker, SimTime::from_days(7));
        assert_eq!(fixed, vec![old]);
    }
}
