//! The lockstep reference driver: visit every grid tick, due or not.
//!
//! Nothing runs a campaign this way for its results — it is the slow,
//! obviously-correct loop that the equivalence oracles diff
//! [`Campaign::run`] against. It shares the per-instant step, so any
//! divergence is in which instants the next-event driver chose to visit.

use crate::campaign::Campaign;
use ttt_sim::SimTime;

impl Campaign {
    /// [`Campaign::run`] under the lockstep reference driver.
    pub fn run_lockstep(&mut self) {
        let end = SimTime::ZERO + self.cfg.duration;
        self.run_lockstep_until(end);
        self.finalize();
    }

    /// [`Campaign::run_until`] under the lockstep reference driver, which
    /// stops at the horizon too.
    pub fn run_lockstep_until(&mut self, until: SimTime) {
        let until = until.min(SimTime::ZERO + self.cfg.duration);
        while self.now() < until {
            let t = (self.now() + self.cfg.tick).min(until);
            self.step_to(t);
        }
    }
}
