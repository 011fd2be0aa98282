//! What a campaign records about itself.
//!
//! The step hands [`Observer`] facts by value; the observer holds no
//! testbed, federation, CI or tracker and returns nothing, so recording
//! cannot draw from a stream or branch the timeline — a recording
//! campaign is bit-identical to a silent one by construction.

use crate::campaign::{Campaign, WAKE_REASONS};
use crate::metrics::CampaignMetrics;
use ttt_sim::{Event, EventLog, SimDuration, SimTime};
use ttt_suite::TestConfig;
use ttt_testbed::{Fault, RpcTraceEntry};

pub(crate) struct Observer {
    metrics: CampaignMetrics,
    /// Tests completed per site (the domain whose resources the test
    /// held) — an engine-equivalence observable.
    site_completions: Vec<u64>,
    /// Winning `next_wake` term counts, indexed like [`WAKE_REASONS`].
    wake_reasons: [u64; WAKE_REASONS.len()],
    /// Whether the last sample saw the federation saturated / a site
    /// blacked out (edge detectors for the episode counters).
    in_saturation: bool,
    in_blackout: bool,
    /// The structured event log; `None` until armed, and a silent
    /// campaign never builds an event.
    events: Option<EventLog>,
}

impl Observer {
    pub(crate) fn new(sites: usize) -> Self {
        Observer {
            metrics: CampaignMetrics::default(),
            site_completions: vec![0; sites],
            wake_reasons: [0; WAKE_REASONS.len()],
            in_saturation: false,
            in_blackout: false,
            events: None,
        }
    }

    /// Arm the log and introduce every fault already `active` (the t=0
    /// burden) at its injection instant. They were counted when they
    /// arrived, so they are not counted again.
    pub(crate) fn arm_events(&mut self, active: &[Fault]) {
        let mut log = EventLog::new();
        for f in active {
            log.push(arrival(f));
        }
        self.events = Some(log);
    }

    pub(crate) fn take_events(&mut self) -> Option<EventLog> {
        self.events.take()
    }

    fn log(&mut self, event: impl FnOnce() -> Event) {
        if let Some(log) = &mut self.events {
            log.push(event());
        }
    }

    /// The next-event driver chose its wake: `(instant, WAKE_REASONS
    /// slot)`, or `None` for a quiet jump to the horizon (the last slot).
    pub(crate) fn woke(&mut self, wake: Option<(SimTime, usize)>) {
        let Some((at, slot)) = wake else {
            self.wake_reasons[WAKE_REASONS.len() - 1] += 1;
            return;
        };
        self.wake_reasons[slot] += 1;
        self.log(|| Event::Wake {
            at,
            reason: WAKE_REASONS[slot].to_string(),
        });
    }

    /// Faults were applied: the one place injections are counted.
    pub(crate) fn faults_arrived(&mut self, arrived: Vec<Fault>) {
        for f in arrived {
            self.metrics.injected_by_kind[f.kind as usize] += 1;
            self.log(|| arrival(&f));
        }
    }

    pub(crate) fn fault_repaired(&mut self, at: SimTime, fault_id: u64) {
        self.log(|| Event::FaultRepair { at, fault_id });
    }

    pub(crate) fn job_started(&mut self, at: SimTime, test: &TestConfig, site: usize) {
        self.log(|| Event::JobStarted {
            at,
            test: test.id(),
            site: site as u16,
        });
    }

    pub(crate) fn job_completed(
        &mut self,
        at: SimTime,
        test: &TestConfig,
        site: usize,
        passed: bool,
    ) {
        self.site_completions[site] += 1;
        self.log(|| Event::JobCompleted {
            at,
            test: test.id(),
            site: site as u16,
            passed,
        });
    }

    /// A diagnostic was attributed to the fault kind behind it — the
    /// detected half of the injected × detected coverage feature.
    pub(crate) fn detected(&mut self, kind: &'static str) {
        *self.metrics.detected_by_kind.entry(kind).or_insert(0) += 1;
    }

    /// A test's result was accounted at `at` (its completion step, or the
    /// step that saw its testbed job die before start).
    pub(crate) fn test_result(&mut self, at: SimTime, family: &'static str, passed: bool) {
        self.metrics.tests_run += 1;
        if !passed {
            self.metrics.tests_failed += 1;
        }
        let v = if passed { 1.0 } else { 0.0 };
        self.metrics.monthly_success.push(at, v);
        self.metrics.weekly_success.push(at, v);
        *self
            .metrics
            .completions_per_family
            .entry(family)
            .or_insert(0) += 1;
    }

    pub(crate) fn build_unstable(&mut self, at: SimTime, test: &TestConfig) {
        self.metrics.unstable_builds += 1;
        self.log(|| Event::JobUnstable {
            at,
            test: test.id(),
        });
    }

    /// One sample-cadence reading. Saturation and blackout episodes are
    /// rising edges between consecutive readings.
    pub(crate) fn sampled(&mut self, executor_busy: f64, utilization: f64, blackout: bool) {
        self.metrics.executor_busy.push(executor_busy);
        self.metrics.oar_utilization.push(utilization);
        let saturated = utilization >= 1.0;
        if saturated && !self.in_saturation {
            self.metrics.saturation_episodes += 1;
        }
        self.in_saturation = saturated;
        if blackout && !self.in_blackout {
            self.metrics.blackout_episodes += 1;
        }
        self.in_blackout = blackout;
    }

    /// The tracker's running totals at `at`.
    pub(crate) fn bug_snapshot(&mut self, at: SimTime, filed: usize, fixed: usize) {
        self.metrics.bug_snapshots.push((at, filed, fixed));
    }

    /// The daily checkpoint: enough running totals to localize a
    /// divergence between two logs in time.
    pub(crate) fn checkpoint(&mut self, at: SimTime, filed: usize, fixed: usize, active: usize) {
        self.bug_snapshot(at, filed, fixed);
        let (tests_run, tests_failed) = (self.metrics.tests_run, self.metrics.tests_failed);
        self.log(|| Event::Checkpoint {
            at,
            tests_run,
            tests_failed,
            filed: filed as u64,
            fixed: fixed as u64,
            active_faults: active as u64,
        });
    }

    /// The envelope outcomes the testbed traced during the step at `at`
    /// (empty unless recording armed the trace).
    pub(crate) fn rpc_outcomes(&mut self, at: SimTime, trace: Vec<RpcTraceEntry>) {
        for entry in trace {
            self.log(|| Event::RpcOutcome {
                at,
                site: entry.site.0,
                service: entry.kind.to_string(),
                outcome: entry.outcome,
            });
        }
    }

    pub(crate) fn user_waited(&mut self, wait: SimDuration) {
        self.metrics
            .user_wait_hours
            .push(wait.as_secs_f64() / 3600.0);
    }

    pub(crate) fn build_latency(&mut self, latency: SimDuration) {
        self.metrics
            .test_latency_hours
            .push(latency.as_secs_f64() / 3600.0);
    }
}

fn arrival(f: &Fault) -> Event {
    Event::FaultArrival {
        at: f.injected_at,
        fault_id: f.id.0,
        kind: f.kind.name().to_string(),
        target: f.target.to_string(),
    }
}

/// Reading back what the observer recorded.
impl Campaign {
    /// The campaign metrics gathered so far.
    pub fn metrics(&self) -> &CampaignMetrics {
        &self.observer.metrics
    }

    /// Tests completed per site, in domain order — populated identically
    /// by both engines (an engine-equivalence observable).
    pub fn site_completions(&self) -> &[u64] {
        &self.observer.site_completions
    }

    /// Winning wake-reason counts, `(label, count)` with zero entries
    /// skipped. Empty for lockstep reference runs (that driver never
    /// computes wakes), so this is *not* an engine-equivalence observable —
    /// it is the coverage fuzzer's view of which subsystems drove the
    /// timeline.
    pub fn wake_reasons(&self) -> Vec<(&'static str, u64)> {
        WAKE_REASONS
            .iter()
            .zip(self.observer.wake_reasons)
            .filter(|&(_, n)| n > 0)
            .map(|(&r, n)| (r, n))
            .collect()
    }
}
