//! Structured, append-only per-run event logs.
//!
//! A campaign that records its run produces an [`EventLog`]: the ordered
//! stream of everything observable that happened — fault arrivals and
//! repairs, RPC envelope outcomes, test-job lifecycle transitions, wake
//! reasons, and periodic digest checkpoints. The log is an *artifact*: it
//! serializes to JSON next to the scenario that produced it, and a replay
//! harness can re-drive the same scenario and bitwise-compare both the
//! event stream and the final digest against the original run.
//!
//! Two comparison grains matter:
//!
//! * [`EventLog::observable_events`] excludes [`Event::Wake`] entries —
//!   wake reasons are a next-event-engine fingerprint that the lockstep
//!   engine never produces, exactly like the campaign digest's
//!   `wake_reasons` field is excluded from engine-equivalence diffs;
//! * the full stream (wakes included) must replay bit-identically when the
//!   same engine re-runs the same scenario.
//!
//! The sim crate defines only the vocabulary; the campaign driver decides
//! when to record (recording is off by default and costs nothing when off).

use crate::time::SimTime;

/// One recorded campaign event. Payloads are plain strings/ints so the
/// log stays readable as JSON and the sim crate needs no knowledge of the
/// testbed's fault or service vocabularies.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A fault arrived (injector arrival, maintenance drift, or initial
    /// burden applied at t=0).
    FaultArrival {
        /// Virtual instant of the arrival.
        at: SimTime,
        /// The testbed-wide fault id.
        fault_id: u64,
        /// Stable fault-kind name (e.g. `"console-dead"`).
        kind: String,
        /// Human-readable target (node/site/service signature).
        target: String,
    },
    /// A fault was repaired (operator fix or an elapsed restart window).
    FaultRepair {
        /// Virtual instant of the repair.
        at: SimTime,
        /// The testbed-wide fault id.
        fault_id: u64,
    },
    /// An enveloped service call completed (success or failure).
    RpcOutcome {
        /// Virtual instant the step processing the call ran at.
        at: SimTime,
        /// Target site index.
        site: u16,
        /// Service kind name.
        service: String,
        /// `"ok"`, or the failure rendered (`"refused"`, `"dropped"`, …).
        outcome: String,
    },
    /// A test job started executing on the testbed.
    JobStarted {
        /// Virtual start instant.
        at: SimTime,
        /// The suite configuration id.
        test: String,
        /// Scheduling-domain (site) index the job's resources live on.
        site: u16,
    },
    /// A test job's virtual duration elapsed and it was accounted.
    JobCompleted {
        /// Virtual completion instant.
        at: SimTime,
        /// The suite configuration id.
        test: String,
        /// Scheduling-domain (site) index the job's resources lived on.
        site: u16,
        /// Whether the test passed.
        passed: bool,
    },
    /// A build could not get testbed resources and was marked unstable.
    JobUnstable {
        /// Virtual instant of the failed launch.
        at: SimTime,
        /// The suite configuration id.
        test: String,
    },
    /// The next-event engine woke for a reason (never emitted by the
    /// lockstep engine — excluded from cross-engine comparisons).
    Wake {
        /// The instant the engine woke at.
        at: SimTime,
        /// The winning wake-reason label.
        reason: String,
    },
    /// A periodic digest checkpoint (daily snapshot cadence): enough of
    /// the campaign's running totals to localize a divergence in time.
    Checkpoint {
        /// Snapshot instant.
        at: SimTime,
        /// Tests run so far.
        tests_run: u64,
        /// Tests failed so far.
        tests_failed: u64,
        /// Bugs filed so far.
        filed: u64,
        /// Bugs fixed so far.
        fixed: u64,
        /// Faults active on the testbed right now.
        active_faults: u64,
    },
}
serde::record!(enum Event {
    FaultArrival { at, fault_id, kind, target },
    FaultRepair { at, fault_id },
    RpcOutcome { at, site, service, outcome },
    JobStarted { at, test, site },
    JobCompleted { at, test, site, passed },
    JobUnstable { at, test },
    Wake { at, reason },
    Checkpoint { at, tests_run, tests_failed, filed, fixed, active_faults },
});

impl Event {
    /// The instant this event was recorded at.
    pub fn at(&self) -> SimTime {
        match self {
            Event::FaultArrival { at, .. }
            | Event::FaultRepair { at, .. }
            | Event::RpcOutcome { at, .. }
            | Event::JobStarted { at, .. }
            | Event::JobCompleted { at, .. }
            | Event::JobUnstable { at, .. }
            | Event::Wake { at, .. }
            | Event::Checkpoint { at, .. } => *at,
        }
    }

    /// Whether this event is part of the engine-comparable stream (wake
    /// events are a next-event-engine-only fingerprint).
    pub fn is_observable(&self) -> bool {
        !matches!(self, Event::Wake { .. })
    }
}

/// An append-only event stream for one campaign run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
}
serde::record!(struct EventLog { events });

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Append one event. Events must be pushed in the order the campaign
    /// processed them — the log is the replay oracle, so order is meaning.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The full recorded stream, in append order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The engine-comparable stream: every event except wakes.
    pub fn observable_events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.is_observable())
    }

    /// Whether two logs agree on every engine-comparable event, in order.
    /// This is the cross-engine replay check: lockstep and next-event runs
    /// of the same scenario must agree here even though only the latter
    /// records wakes.
    pub fn observably_equal(&self, other: &EventLog) -> bool {
        self.observable_events().eq(other.observable_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(at_h: u64, id: u64) -> Event {
        Event::FaultArrival {
            at: SimTime::from_hours(at_h),
            fault_id: id,
            kind: "console-dead".into(),
            target: "node:alpha-1".into(),
        }
    }

    #[test]
    fn append_order_is_preserved() {
        let mut log = EventLog::new();
        log.push(arrival(1, 0));
        log.push(Event::FaultRepair {
            at: SimTime::from_hours(2),
            fault_id: 0,
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].at(), SimTime::from_hours(1));
        assert_eq!(log.events()[1].at(), SimTime::from_hours(2));
    }

    #[test]
    fn wake_events_are_excluded_from_observable_comparison() {
        let mut with_wakes = EventLog::new();
        with_wakes.push(Event::Wake {
            at: SimTime::from_hours(1),
            reason: "fault-arrival".into(),
        });
        with_wakes.push(arrival(1, 0));
        let mut without = EventLog::new();
        without.push(arrival(1, 0));
        assert!(with_wakes.observably_equal(&without));
        assert_ne!(with_wakes, without);
    }

    #[test]
    fn observable_divergence_is_detected() {
        let mut a = EventLog::new();
        a.push(arrival(1, 0));
        let mut b = EventLog::new();
        b.push(arrival(1, 1));
        assert!(!a.observably_equal(&b));
    }

    #[test]
    fn log_roundtrips_through_json() {
        let mut log = EventLog::new();
        log.push(arrival(3, 7));
        log.push(Event::Checkpoint {
            at: SimTime::from_hours(24),
            tests_run: 10,
            tests_failed: 1,
            filed: 2,
            fixed: 0,
            active_faults: 3,
        });
        let json = serde_json::to_string(&log).unwrap();
        let back: EventLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);

        // The wire format itself, one event per variant: externally
        // tagged, fields in declaration order, `at` a bare integer.
        for text in [
            r#"{"FaultArrival":{"at":5,"fault_id":7,"kind":"k","target":"t"}}"#,
            r#"{"FaultRepair":{"at":5,"fault_id":7}}"#,
            r#"{"RpcOutcome":{"at":5,"site":1,"service":"s","outcome":"ok"}}"#,
            r#"{"JobStarted":{"at":5,"test":"t","site":2}}"#,
            r#"{"JobCompleted":{"at":5,"test":"t","site":2,"passed":true}}"#,
            r#"{"JobUnstable":{"at":5,"test":"t"}}"#,
            r#"{"Wake":{"at":5,"reason":"r"}}"#,
            r#"{"Checkpoint":{"at":5,"tests_run":1,"tests_failed":2,"filed":3,"fixed":4,"active_faults":5}}"#,
        ] {
            let event: Event = serde_json::from_str(text).unwrap();
            assert_eq!(event.at(), SimTime::from_nanos(5));
            assert_eq!(serde_json::to_string(&event).unwrap(), text);
        }
        for (text, why) in [
            ("[]", "expected enum value"),
            (r#"{"Nope":{}}"#, "unknown variant"),
            (r#"{"Wake":{"at":1}}"#, "missing field `reason`"),
        ] {
            let err = serde_json::from_str::<Event>(text).unwrap_err().to_string();
            assert!(err.contains(why), "{text}: {err}");
        }
    }
}
