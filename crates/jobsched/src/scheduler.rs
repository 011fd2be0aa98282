//! The decision loop.

use crate::due::DueIndex;
use crate::entry::TestEntry;
use rand::Rng;
use std::collections::BTreeMap;
use ttt_ci::{Cause, CiServer};
use ttt_oar::AvailabilityProbe;
use ttt_sim::{Calendar, ExponentialBackoff, HourRange, SimDuration, SimTime};

/// Scheduling policies (slide 17).
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Hours during which hardware-centric tests are not launched.
    pub peak_hours: HourRange,
    /// Whether the peak-hours policy is enabled.
    pub avoid_peak_hours: bool,
    /// Maximum concurrently-active test configurations per site
    /// ("avoid several jobs on same site").
    pub max_active_per_site: usize,
    /// Retry policy when resources are unavailable.
    pub backoff: ExponentialBackoff,
    /// How often a configuration is re-examined when nothing else forces a
    /// date (lower bound between decision attempts).
    pub reexamine: SimDuration,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            peak_hours: HourRange::new(9, 19),
            avoid_peak_hours: true,
            max_active_per_site: 2,
            backoff: ExponentialBackoff::default(),
            reexamine: SimDuration::from_mins(10),
        }
    }
}

/// What the scheduler decided for one entry during a tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// A CI build was triggered for the entry.
    Triggered,
    /// Deferred: inside peak hours (hardware-centric entries only).
    DeferredPeak,
    /// Deferred: too many active tests on the same site.
    DeferredSite,
    /// Deferred: testbed resources not available right now → backoff.
    DeferredResources,
    /// Deferred: the entry is already pending in CI (queued or running).
    DeferredPending,
}

#[derive(Debug, Clone)]
struct EntryState {
    next_due: SimTime,
    /// Consecutive resource-unavailability deferrals (drives backoff).
    failures: u32,
    /// Whether a build for this entry is currently in flight.
    active: bool,
    /// Interned site (index into `active_per_site`), so the per-site
    /// concurrency cap compares no strings on the decision path.
    site: usize,
}

impl EntryState {
    /// Whether an indexed due date still describes a decision to make (it
    /// is superseded once the entry re-armed or went in flight).
    fn is_live(&self, at: SimTime) -> bool {
        !self.active && self.next_due == at
    }
}

/// The external scheduler.
#[derive(Debug)]
pub struct ExternalScheduler {
    policy: PolicyConfig,
    entries: Vec<TestEntry>,
    states: Vec<EntryState>,
    /// Entry indices keyed by their `next_due` instant; every due-date
    /// assignment pushes here.
    due: DueIndex,
    site_ids: BTreeMap<String, usize>,
    /// Count of in-flight entries per interned site.
    active_per_site: Vec<usize>,
    /// Decision counters for reporting (experiment E12).
    pub stats: SchedulerStats,
}

/// Aggregate decision counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Builds triggered.
    pub triggered: u64,
    /// Deferrals due to peak hours.
    pub deferred_peak: u64,
    /// Deferrals due to the same-site cap.
    pub deferred_site: u64,
    /// Deferrals due to resource unavailability (backoff).
    pub deferred_resources: u64,
    /// Builds cancelled because the testbed job did not start immediately.
    pub cancelled_not_immediate: u64,
}

impl ExternalScheduler {
    /// Create a scheduler over a fixed set of entries. All entries are due
    /// immediately.
    pub fn new(policy: PolicyConfig, entries: Vec<TestEntry>) -> Self {
        let mut s = ExternalScheduler {
            policy,
            entries: Vec::new(),
            states: Vec::new(),
            due: DueIndex::default(),
            site_ids: BTreeMap::new(),
            active_per_site: Vec::new(),
            stats: SchedulerStats::default(),
        };
        for entry in entries {
            s.add_entry(entry, SimTime::ZERO);
        }
        s
    }

    /// The tracked entries.
    pub fn entries(&self) -> &[TestEntry] {
        &self.entries
    }

    /// Add an entry mid-campaign ("tests still being added", slide 23), due
    /// at `now`. Returns its slot: the index the completion callbacks take.
    pub fn add_entry(&mut self, entry: TestEntry, now: SimTime) -> usize {
        let slot = self.entries.len();
        let site = match self.site_ids.get(&entry.site) {
            Some(&site) => site,
            None => {
                self.site_ids.insert(entry.site.clone(), self.active_per_site.len());
                self.active_per_site.push(0);
                self.active_per_site.len() - 1
            }
        };
        self.entries.push(entry);
        self.states.push(EntryState {
            next_due: now,
            failures: 0,
            active: false,
            site,
        });
        self.due.push(now, slot);
        slot
    }

    /// Record a new due date for entry `i` and index it for pickup.
    fn set_due(&mut self, i: usize, at: SimTime) {
        self.states[i].next_due = at;
        self.due.push(at, i);
    }

    /// When the earliest entry becomes due, skipping superseded queue
    /// entries. O(log n) amortized — this is what the event-driven campaign
    /// engine polls instead of scanning every entry.
    pub fn next_due_time(&mut self) -> Option<SimTime> {
        let states = &self.states;
        self.due.next_time(|at, i| states[i].is_live(at))
    }

    /// One decision pass at instant `now`: examine every due entry,
    /// apply the policies, trigger CI builds where everything lines up.
    /// Returns per-entry decisions for entries that were due.
    ///
    /// Due entries come off the due-date index, not a scan over every
    /// entry; they are processed in entry order (exactly the order the old
    /// full scan used), so decisions — and therefore backoff-jitter RNG
    /// draws — are unchanged.
    pub fn tick<R: Rng>(
        &mut self,
        now: SimTime,
        ci: &mut CiServer,
        oar: &impl AvailabilityProbe,
        rng: &mut R,
    ) -> Vec<(String, Decision)> {
        let mut out = Vec::new();
        self.pass(now, ci, oar, rng, &mut |id, d| out.push((id.to_string(), d)));
        out
    }

    /// The decision pass behind [`ExternalScheduler::tick`]; `record` sees
    /// each due entry's decision (all are counted in [`SchedulerStats`]).
    pub(crate) fn pass<R: Rng>(
        &mut self,
        now: SimTime,
        ci: &mut CiServer,
        oar: &impl AvailabilityProbe,
        rng: &mut R,
        record: &mut dyn FnMut(&str, Decision),
    ) {
        let states = &self.states;
        let due = self.due.take_due(now, |at, i| states[i].is_live(at));
        for &i in &due {
            let decision = self.decide(i, now, ci, oar, rng);
            record(&self.entries[i].id, decision);
        }
        self.due.recycle(due);
    }

    fn decide<R: Rng>(
        &mut self,
        i: usize,
        now: SimTime,
        ci: &mut CiServer,
        oar: &impl AvailabilityProbe,
        rng: &mut R,
    ) -> Decision {
        let entry = &self.entries[i];

        // Policy 1: peak hours (hardware-centric tests only — taking a
        // whole cluster at 2pm on a Wednesday would anger users).
        if self.policy.avoid_peak_hours
            && entry.hardware_centric
            && Calendar::is_peak(now, self.policy.peak_hours)
        {
            self.set_due(i, now + self.policy.reexamine);
            self.stats.deferred_peak += 1;
            return Decision::DeferredPeak;
        }

        // Policy 2: same-site concurrency cap.
        let site_active = self.active_per_site[self.states[i].site];
        if site_active >= self.policy.max_active_per_site {
            self.set_due(i, now + self.policy.reexamine);
            self.stats.deferred_site += 1;
            return Decision::DeferredSite;
        }

        // Policy 3: resource availability on the testbed, queried from OAR
        // (a federation answers for the entry's home site, spillover
        // included; a single server ignores the site).
        if !oar.can_start_now(&entry.site, &entry.request) {
            let delay = self
                .policy
                .backoff
                .delay_jittered(self.states[i].failures, rng);
            self.states[i].failures = self.states[i].failures.saturating_add(1);
            self.set_due(i, now + delay);
            self.stats.deferred_resources += 1;
            return Decision::DeferredResources;
        }

        // Everything lines up: trigger the CI build for this cell.
        let triggered = match &entry.cell {
            Some(cell) => {
                ci.trigger_cells(&entry.ci_job, Cause::ExternalScheduler, std::slice::from_ref(cell))
            }
            None => ci.trigger(&entry.ci_job, Cause::ExternalScheduler),
        };
        if triggered.is_empty() {
            // Already queued or running in CI: wait for it to finish.
            self.set_due(i, now + self.policy.reexamine);
            return Decision::DeferredPending;
        }
        self.states[i].active = true;
        self.active_per_site[self.states[i].site] += 1;
        self.stats.triggered += 1;
        Decision::Triggered
    }

    /// The orchestrator reports that the testbed job created by the build
    /// of entry `i` could not start immediately: per the paper, the job is
    /// cancelled, the build marked unstable, and the entry retries with
    /// exponential backoff. A slot nobody enrolled is ignored.
    pub fn on_not_immediate<R: Rng>(&mut self, i: usize, now: SimTime, rng: &mut R) {
        if i >= self.entries.len() {
            return;
        }
        self.clear_active(i);
        let delay = self
            .policy
            .backoff
            .delay_jittered(self.states[i].failures, rng);
        self.states[i].failures = self.states[i].failures.saturating_add(1);
        self.set_due(i, now + delay);
        self.stats.cancelled_not_immediate += 1;
    }

    /// The orchestrator reports the test of entry `i` completed (any result):
    /// backoff resets, next run one period later. A slot nobody enrolled is ignored.
    pub fn on_finished(&mut self, i: usize, now: SimTime) {
        if i >= self.entries.len() {
            return;
        }
        self.clear_active(i);
        self.states[i].failures = 0;
        self.set_due(i, now + self.entries[i].period);
    }

    fn clear_active(&mut self, i: usize) {
        if self.states[i].active {
            self.states[i].active = false;
            let c = &mut self.active_per_site[self.states[i].site];
            *c = c.saturating_sub(1);
        }
    }

    /// Entries currently in flight.
    pub fn active_count(&self) -> usize {
        self.states.iter().filter(|s| s.active).count()
    }

    /// When the earliest non-active entry becomes due (for tick pacing).
    pub fn next_due(&self) -> Option<SimTime> {
        self.states
            .iter()
            .filter(|s| !s.active)
            .map(|s| s.next_due)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_ci::{Axis, JobKind, JobSpec};
    use ttt_oar::{Expr, JobKind as OarJobKind, OarServer, Queue, ResourceRequest};
    use ttt_refapi::describe;
    use ttt_sim::rng::stream_rng;
    use ttt_testbed::TestbedBuilder;

    fn setup() -> (ttt_testbed::Testbed, OarServer, CiServer) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let oar = OarServer::new(&tb, &desc);
        let mut ci = CiServer::new(4);
        ci.register(JobSpec {
            name: "disk".into(),
            kind: JobKind::Matrix {
                axes: vec![Axis::new("cluster", ["alpha", "gamma"])],
            },
            trigger: None,
        });
        (tb, oar, ci)
    }

    fn entry(id: &str, cluster: &str, hardware: bool) -> TestEntry {
        TestEntry {
            id: id.into(),
            ci_job: "disk".into(),
            cell: Some(format!("cluster={cluster}")),
            site: "east".into(),
            request: ResourceRequest::all_nodes(
                Expr::eq("cluster", cluster),
                SimDuration::from_hours(1),
            ),
            hardware_centric: hardware,
            period: SimDuration::from_days(7),
        }
    }

    // Day 0 of a campaign is a Monday; 03:00 is off-peak, 14:00 is peak.
    const OFFPEAK: SimTime = SimTime::from_hours(3);
    const PEAK: SimTime = SimTime::from_hours(14);

    #[test]
    fn triggers_when_everything_lines_up() {
        let (_tb, oar, mut ci) = setup();
        let mut s = ExternalScheduler::new(
            PolicyConfig::default(),
            vec![entry("disk/alpha", "alpha", true)],
        );
        let mut rng = stream_rng(1, "sched");
        let decisions = s.tick(OFFPEAK, &mut ci, &oar, &mut rng);
        assert_eq!(decisions, vec![("disk/alpha".to_string(), Decision::Triggered)]);
        assert_eq!(ci.queue_len(), 1);
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.stats.triggered, 1);
        // While active, the entry is not re-examined.
        assert!(s.tick(OFFPEAK, &mut ci, &oar, &mut rng).is_empty());
    }

    #[test]
    fn peak_hours_defer_hardware_tests_only() {
        let (_tb, oar, mut ci) = setup();
        let mut s = ExternalScheduler::new(
            PolicyConfig::default(),
            vec![
                entry("disk/alpha", "alpha", true),
                entry("disk/gamma", "gamma", false),
            ],
        );
        let mut rng = stream_rng(2, "sched");
        let decisions = s.tick(PEAK, &mut ci, &oar, &mut rng);
        assert!(decisions.contains(&("disk/alpha".to_string(), Decision::DeferredPeak)));
        assert!(decisions.contains(&("disk/gamma".to_string(), Decision::Triggered)));
        assert_eq!(s.stats.deferred_peak, 1);
    }

    #[test]
    fn weekend_peak_hours_do_not_defer() {
        let (_tb, oar, mut ci) = setup();
        let mut s = ExternalScheduler::new(
            PolicyConfig::default(),
            vec![entry("disk/alpha", "alpha", true)],
        );
        let mut rng = stream_rng(3, "sched");
        // Saturday 14:00 (day 5).
        let saturday = SimTime::from_days(5) + SimDuration::from_hours(14);
        let decisions = s.tick(saturday, &mut ci, &oar, &mut rng);
        assert_eq!(decisions[0].1, Decision::Triggered);
    }

    #[test]
    fn same_site_cap_defers() {
        let (_tb, oar, mut ci) = setup();
        let policy = PolicyConfig {
            max_active_per_site: 1,
            ..Default::default()
        };
        let mut s = ExternalScheduler::new(
            policy,
            vec![
                entry("disk/alpha", "alpha", false),
                entry("disk/gamma", "gamma", false),
            ],
        );
        let mut rng = stream_rng(4, "sched");
        let decisions = s.tick(OFFPEAK, &mut ci, &oar, &mut rng);
        let triggered = decisions.iter().filter(|(_, d)| *d == Decision::Triggered).count();
        let deferred = decisions.iter().filter(|(_, d)| *d == Decision::DeferredSite).count();
        assert_eq!((triggered, deferred), (1, 1));
        // After the first finishes, the second can go.
        s.on_finished(0, OFFPEAK + SimDuration::from_hours(1));
        let t2 = OFFPEAK + SimDuration::from_hours(2);
        let decisions = s.tick(t2, &mut ci, &oar, &mut rng);
        assert_eq!(decisions, vec![("disk/gamma".to_string(), Decision::Triggered)]);
    }

    #[test]
    fn busy_resources_trigger_backoff() {
        let (_tb, mut oar, mut ci) = setup();
        // Occupy all of alpha with a user job for 10 hours.
        oar.submit(
            "user",
            Queue::Default,
            OarJobKind::User,
            ResourceRequest::nodes(Expr::eq("cluster", "alpha"), 4, SimDuration::from_hours(10)),
        )
        .unwrap();
        let mut s = ExternalScheduler::new(
            PolicyConfig::default(),
            vec![entry("disk/alpha", "alpha", true)],
        );
        let mut rng = stream_rng(5, "sched");
        let d = s.tick(OFFPEAK, &mut ci, &oar, &mut rng);
        assert_eq!(d[0].1, Decision::DeferredResources);
        assert_eq!(s.stats.deferred_resources, 1);
        // Next due is pushed by roughly the base backoff (30 min ±10%).
        let due = s.next_due().unwrap();
        let delta = due.since(OFFPEAK).as_secs_f64();
        assert!((1500.0..2100.0).contains(&delta), "delay {delta}s");
        // Immediately re-ticking does nothing (not due).
        assert!(s.tick(OFFPEAK + SimDuration::from_mins(1), &mut ci, &oar, &mut rng).is_empty());
    }

    #[test]
    fn backoff_grows_then_resets() {
        let (_tb, mut oar, mut ci) = setup();
        oar.submit(
            "user",
            Queue::Default,
            OarJobKind::User,
            ResourceRequest::nodes(Expr::eq("cluster", "alpha"), 4, SimDuration::from_hours(200)),
        )
        .unwrap();
        let policy = PolicyConfig {
            backoff: ExponentialBackoff {
                jitter: 0.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = ExternalScheduler::new(policy, vec![entry("disk/alpha", "alpha", true)]);
        let mut rng = stream_rng(6, "sched");
        let mut t = OFFPEAK;
        let mut delays = Vec::new();
        for _ in 0..3 {
            s.tick(t, &mut ci, &oar, &mut rng);
            let due = s.next_due().unwrap();
            delays.push(due.since(t).as_secs());
            t = due;
            // Keep the clock off-peak by wrapping into night hours: use the
            // actual due time, deferrals re-examine regardless of hour for
            // non-peak reasons.
        }
        assert_eq!(delays, vec![1800, 3600, 7200], "exponential backoff");
        // A successful completion resets the backoff.
        s.on_finished(0, t);
        s.tick(t + SimDuration::from_days(7), &mut ci, &oar, &mut rng);
        // (resources still busy: 200h job) → deferral delay back to base.
        let due = s.next_due().unwrap();
        assert_eq!(due.since(t + SimDuration::from_days(7)).as_secs(), 1800);
    }

    #[test]
    fn not_immediate_cancellation_counts_and_backs_off() {
        let (_tb, oar, mut ci) = setup();
        let mut s = ExternalScheduler::new(
            PolicyConfig::default(),
            vec![entry("disk/alpha", "alpha", true)],
        );
        let mut rng = stream_rng(7, "sched");
        s.tick(OFFPEAK, &mut ci, &oar, &mut rng);
        assert_eq!(s.active_count(), 1);
        s.on_not_immediate(0, OFFPEAK + SimDuration::from_mins(5), &mut rng);
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.stats.cancelled_not_immediate, 1);
        assert!(s.next_due().unwrap() > OFFPEAK + SimDuration::from_mins(5));
    }

    #[test]
    fn due_index_agrees_with_state_scan() {
        let (_tb, oar, mut ci) = setup();
        let mut s = ExternalScheduler::new(
            PolicyConfig::default(),
            vec![
                entry("disk/alpha", "alpha", true),
                entry("disk/gamma", "gamma", false),
            ],
        );
        let mut rng = stream_rng(9, "sched");
        // Drive several passes; after each, the indexed next-due must match
        // a brute-force scan over entry states.
        let mut t = OFFPEAK;
        for _ in 0..6 {
            s.tick(t, &mut ci, &oar, &mut rng);
            assert_eq!(s.next_due_time(), s.next_due(), "at {t}");
            let due = match s.next_due() {
                Some(d) => d.max(t + SimDuration::from_mins(1)),
                None => t + SimDuration::from_hours(1),
            };
            // Simulate completions so entries churn through states.
            if s.active_count() > 0 {
                s.on_finished(1, due);
                s.on_not_immediate(0, due, &mut rng);
            }
            assert_eq!(s.next_due_time(), s.next_due());
            t = due;
        }
    }

    #[test]
    fn entries_can_be_added_mid_campaign() {
        let (_tb, oar, mut ci) = setup();
        let mut s = ExternalScheduler::new(PolicyConfig::default(), vec![]);
        let mut rng = stream_rng(8, "sched");
        assert!(s.tick(OFFPEAK, &mut ci, &oar, &mut rng).is_empty());
        assert_eq!(s.add_entry(entry("disk/alpha", "alpha", false), OFFPEAK), 0);
        let d = s.tick(OFFPEAK, &mut ci, &oar, &mut rng);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, Decision::Triggered);
    }

    #[test]
    fn callbacks_on_a_slot_nobody_enrolled_change_nothing() {
        let (_tb, oar, mut ci) = setup();
        let mut s = ExternalScheduler::new(
            PolicyConfig::default(),
            vec![entry("disk/alpha", "alpha", false)],
        );
        let mut rng = stream_rng(10, "sched");
        s.tick(OFFPEAK, &mut ci, &oar, &mut rng);
        let before = (s.active_count(), s.next_due_time(), s.stats.clone());
        let mut untouched = rng.clone();
        for slot in [1, 751, usize::MAX] {
            s.on_finished(slot, PEAK);
            s.on_not_immediate(slot, PEAK, &mut rng);
        }
        assert_eq!((s.active_count(), s.next_due_time(), s.stats.clone()), before);
        // Not even a backoff-jitter draw.
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }
}
