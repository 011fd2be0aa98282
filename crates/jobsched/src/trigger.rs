//! Launch policy: the paper's external scheduler, or the Jenkins cron
//! baseline it is compared against (slides 16–17), behind one value.

use crate::due::DueIndex;
use crate::entry::TestEntry;
use crate::scheduler::{ExternalScheduler, PolicyConfig, SchedulerStats};
use rand::Rng;
use ttt_ci::{Cause, CiServer};
use ttt_oar::AvailabilityProbe;
use ttt_sim::{SimDuration, SimTime};

/// Who decides that a test configuration's build starts, and what happens
/// to a build whose testbed job cannot start at once.
#[derive(Debug)]
pub enum Trigger {
    /// The external scheduler: availability, backoff, peak hours and the
    /// same-site cap; a build that misses its resources is cancelled.
    External(ExternalScheduler),
    /// Jenkins-native cron: every configuration fires on a fixed period
    /// with no availability check, and a build holds its executor until
    /// its testbed job starts.
    NaiveCron(NaiveCron),
}

/// State of the [`Trigger::NaiveCron`] arm.
#[derive(Debug)]
pub struct NaiveCron {
    period: SimDuration,
    /// How soon a configuration whose last build is still pending in CI is
    /// looked at again.
    retry: SimDuration,
    entries: Vec<CronEntry>,
    due: DueIndex,
}

#[derive(Debug)]
struct CronEntry {
    rank: usize,
    ci_job: String,
    cell: Option<String>,
    next_due: SimTime,
}

impl NaiveCron {
    fn set_due(&mut self, i: usize, at: SimTime) {
        self.entries[i].next_due = at;
        self.due.push(at, i);
    }

    fn rearm(&mut self, i: usize, now: SimTime) {
        if i < self.entries.len() {
            self.set_due(i, now + self.period);
        }
    }

    fn next_due_time(&mut self) -> Option<SimTime> {
        let entries = &self.entries;
        self.due.next_time(|at, i| entries[i].next_due == at)
    }

    fn run_due(&mut self, now: SimTime, ci: &mut CiServer) {
        let entries = &self.entries;
        let mut due = self.due.take_due(now, |at, i| entries[i].next_due == at);
        // Cron fires in suite order, whatever order rollout enrolled in.
        due.sort_unstable_by_key(|&i| entries[i].rank);
        for &i in &due {
            let e = &self.entries[i];
            let triggered = ci.trigger_cells(&e.ci_job, Cause::Cron, e.cell.as_slice());
            let delay = if triggered.is_empty() {
                // Still pending in CI.
                self.retry
            } else {
                self.period
            };
            self.set_due(i, now + delay);
        }
        self.due.recycle(due);
    }
}

impl Trigger {
    /// The external scheduler under `policy`, over no entries yet.
    pub fn external(policy: PolicyConfig) -> Self {
        Trigger::External(ExternalScheduler::new(policy, Vec::new()))
    }

    /// The cron baseline: fire every `period`, look again after `retry`
    /// while the previous build is still pending in CI.
    pub fn cron(period: SimDuration, retry: SimDuration) -> Self {
        Trigger::NaiveCron(NaiveCron {
            period,
            retry,
            entries: Vec::new(),
            due: DueIndex::default(),
        })
    }

    /// Put a configuration on the launch list, due at `now`; returns its
    /// slot there, which the completion callbacks take (a slot nobody
    /// enrolled is ignored). `rank` is its position in the suite: cron
    /// fires due configurations in suite order, the external scheduler in
    /// the order they were enrolled.
    pub fn enroll(&mut self, rank: usize, entry: TestEntry, now: SimTime) -> usize {
        match self {
            Trigger::External(sched) => sched.add_entry(entry, now),
            Trigger::NaiveCron(cron) => {
                let slot = cron.entries.len();
                cron.entries.push(CronEntry {
                    rank,
                    ci_job: entry.ci_job,
                    cell: entry.cell,
                    next_due: now,
                });
                cron.due.push(now, slot);
                slot
            }
        }
    }

    /// When the next launch decision is due, as `[external, cron]`: one
    /// wake term per arm, the arm not running always `None`.
    pub fn wake_terms(&mut self) -> [Option<SimTime>; 2] {
        match self {
            Trigger::External(sched) => [sched.next_due_time(), None],
            Trigger::NaiveCron(cron) => [None, cron.next_due_time()],
        }
    }

    /// One launch pass at `now` over the due configurations.
    pub fn run_due<R: Rng>(
        &mut self,
        now: SimTime,
        ci: &mut CiServer,
        oar: &impl AvailabilityProbe,
        rng: &mut R,
    ) {
        match self {
            // No decision list materialized on the campaign hot path.
            Trigger::External(sched) => sched.pass(now, ci, oar, rng, &mut |_, _| {}),
            Trigger::NaiveCron(cron) => cron.run_due(now, ci),
        }
    }

    /// Whether a build whose testbed job did not start at once keeps its
    /// executor and waits (slide 16's "one cannot just submit a job and
    /// wait"), instead of being cancelled and marked unstable.
    pub fn waits_for_resources(&self) -> bool {
        matches!(self, Trigger::NaiveCron(_))
    }

    /// The build of the configuration in `slot` was marked unstable because
    /// its testbed job could not start: back off, or wait for the next period.
    pub fn on_not_immediate<R: Rng>(&mut self, slot: usize, now: SimTime, rng: &mut R) {
        match self {
            Trigger::External(sched) => sched.on_not_immediate(slot, now, rng),
            Trigger::NaiveCron(cron) => cron.rearm(slot, now),
        }
    }

    /// The test of the configuration in `slot` completed (any result): its
    /// next run is due one period later.
    pub fn on_finished(&mut self, slot: usize, now: SimTime) {
        match self {
            Trigger::External(sched) => sched.on_finished(slot, now),
            Trigger::NaiveCron(cron) => cron.rearm(slot, now),
        }
    }

    /// Decision counters (all zero under cron, which decides nothing).
    pub fn stats(&self) -> SchedulerStats {
        match self {
            Trigger::External(sched) => sched.stats.clone(),
            Trigger::NaiveCron(_) => SchedulerStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_ci::{JobKind, JobSpec};
    use ttt_oar::{Expr, OarServer, ResourceRequest};
    use ttt_refapi::describe;
    use ttt_sim::rng::stream_rng;
    use ttt_testbed::TestbedBuilder;

    fn entry(job: &str) -> TestEntry {
        TestEntry {
            id: format!("{job}/alpha"),
            ci_job: job.into(),
            cell: Some("cluster=alpha".into()),
            site: "east".into(),
            request: ResourceRequest::nodes(Expr::True, 1, SimDuration::from_hours(1)),
            hardware_centric: false,
            period: SimDuration::from_days(7),
        }
    }

    #[test]
    fn cron_fires_in_suite_order_and_rearms() {
        let tb = TestbedBuilder::small().build();
        let oar = OarServer::new(&tb, &describe(&tb, 1, SimTime::ZERO));
        let mut ci = CiServer::new(2);
        for name in ["disk", "refapi"] {
            ci.register(JobSpec {
                name: name.into(),
                kind: JobKind::Freestyle,
                trigger: None,
            });
        }
        let mut rng = stream_rng(1, "sched");
        let (day, tick) = (SimDuration::from_days(1), SimDuration::from_mins(15));
        let mut t = Trigger::cron(day, tick);
        assert!(t.waits_for_resources());
        assert_eq!(t.wake_terms(), [None, None]);
        // Enrolled against suite order: rank decides who fires first.
        let refapi = t.enroll(5, entry("refapi"), SimTime::ZERO);
        let disk = t.enroll(2, entry("disk"), SimTime::ZERO);
        assert_eq!((refapi, disk), (0, 1));
        assert_eq!(t.wake_terms(), [None, Some(SimTime::ZERO)]);
        t.run_due(SimTime::ZERO, &mut ci, &oar, &mut rng);
        let fired = ci.assign();
        let fired: Vec<&str> = fired.iter().map(|w| &*w.build.job).collect();
        assert_eq!(fired, ["disk", "refapi"]);
        assert_eq!(t.wake_terms(), [None, Some(SimTime::ZERO + day)]);
        // Both still running a period later: looked at again one retry on.
        t.run_due(SimTime::ZERO + day, &mut ci, &oar, &mut rng);
        assert_eq!(ci.queue_len(), 0);
        assert_eq!(t.wake_terms(), [None, Some(SimTime::ZERO + day + tick)]);
        // A completion supersedes the retry date.
        let done = SimTime::ZERO + day + tick;
        t.on_finished(disk, done);
        t.on_not_immediate(refapi, done, &mut rng);
        assert_eq!(t.wake_terms(), [None, Some(done + day)]);
        // A slot nobody enrolled has no date to move.
        t.on_finished(2, done + day);
        t.on_not_immediate(751, done + day, &mut rng);
        assert_eq!(t.wake_terms(), [None, Some(done + day)]);
        assert_eq!(t.stats(), SchedulerStats::default());
    }
}
