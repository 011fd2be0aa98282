//! Replayable per-run artifacts: scenario, digest, event log.
//!
//! A run log is everything one campaign run leaves behind — the exact
//! [`ScenarioSpec`] it lowered, the bitwise [`CampaignDigest`] it
//! produced, and the structured
//! [`EventLog`](ttt_sim::EventLog) of what happened along the way (fault
//! arrivals and repairs, RPC outcomes, job lifecycle, wake reasons,
//! digest checkpoints). [`run_logged`] produces one; [`replay_run_log`]
//! consumes one from disk, re-drives the campaign from the embedded spec,
//! and bitwise-diffs both the digest and the observable event stream
//! against the original — the determinism claim, checked end to end from
//! an on-disk artifact.
//!
//! Event recording is purely observational: a recorded run and a silent
//! run of the same spec produce identical digests (pinned by a test
//! here), so logging a run never changes what it reproduces.

use crate::grammar::ScenarioSpec;
use crate::oracle::CampaignDigest;
use crate::scenario_file::envelope_version;
use std::fmt;
use ttt_core::Campaign;
use ttt_sim::EventLog;

/// Format version of run-log artifacts — the only one this build reads.
pub const RUN_LOG_VERSION: u32 = 3;

/// Why a run log could not be replayed — and, when it came off disk,
/// *which file* it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// The file the artifact was read from, when known.
    /// [`replay_run_log_file`] fills it in.
    pub path: Option<String>,
    /// What actually went wrong.
    pub kind: ReplayErrorKind,
}

/// The failure itself, independent of where the artifact came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayErrorKind {
    /// The artifact was written by an incompatible revision.
    Version {
        /// The version the artifact declares.
        found: u32,
    },
    /// The artifact is not valid JSON, or its contents (the embedded
    /// scenario included) do not validate under this build.
    Parse(String),
}

impl ReplayError {
    fn parse(message: impl Into<String>) -> Self {
        ReplayError {
            path: None,
            kind: ReplayErrorKind::Parse(message.into()),
        }
    }

    fn with_path(mut self, path: &str) -> Self {
        self.path = Some(path.to_string());
        self
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(path) = &self.path {
            write!(f, "{path}: ")?;
        }
        match &self.kind {
            ReplayErrorKind::Version { found } => write!(
                f,
                "run log version {found} incompatible with this build (reads v{RUN_LOG_VERSION})"
            ),
            ReplayErrorKind::Parse(e) => write!(f, "unreadable run log: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// One run's replayable record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLogArtifact {
    /// Artifact format version ([`RUN_LOG_VERSION`]).
    pub version: u32,
    /// The exact spec the run lowered.
    pub spec: ScenarioSpec,
    /// The digest the run produced, floats bitwise.
    pub digest: CampaignDigest,
    /// The structured event stream of the run.
    pub events: EventLog,
}
serde::record!(struct RunLogArtifact { version, spec, digest, events });

impl RunLogArtifact {
    /// Serialize to the version-tagged JSON envelope.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Parse an artifact: version mismatches and parse failures are
    /// reported (with the file path when the caller attaches one), never
    /// panics.
    pub fn from_json(json: &str) -> Result<RunLogArtifact, ReplayError> {
        let value = serde_json::parse(json).map_err(|e| ReplayError::parse(e.to_string()))?;
        match envelope_version(&value) {
            Some(RUN_LOG_VERSION) => {}
            Some(found) => {
                return Err(ReplayError {
                    path: None,
                    kind: ReplayErrorKind::Version { found },
                })
            }
            None => return Err(ReplayError::parse("run log has no \"version\" field")),
        }
        serde::Deserialize::from_value(&value).map_err(|e| ReplayError::parse(e.to_string()))
    }
}

/// Run `spec` with event recording on, and package the result as a
/// replayable artifact.
pub fn run_logged(spec: &ScenarioSpec) -> RunLogArtifact {
    let mut campaign = Campaign::new(spec.campaign_config());
    campaign.record_events();
    campaign.run();
    let events = campaign
        .take_event_log()
        // detlint: allow(no-unwrap-in-lib) -- `record_events` above armed the log before the run
        .expect("recording was enabled before the run");
    RunLogArtifact {
        version: RUN_LOG_VERSION,
        spec: spec.clone(),
        digest: CampaignDigest::capture(&campaign),
        events,
    }
}

/// The outcome of replaying a run log: the fresh run's digest and events,
/// diffed against the artifact's.
#[derive(Debug, Clone)]
pub struct RunLogReplay {
    /// Digest fields that diverged (empty on a faithful replay; the
    /// field names come from [`CampaignDigest::diff`], which excludes the
    /// driver-private wake-reason mix).
    pub digest_diff: Vec<&'static str>,
    /// Whether the observable event streams (everything but `Wake`, which
    /// the lockstep reference never emits) match exactly.
    pub events_match: bool,
    /// The digest the replay produced.
    pub digest: CampaignDigest,
    /// The event log the replay produced.
    pub events: EventLog,
}

impl RunLogReplay {
    /// Did the replay reproduce the original run bit-for-bit?
    pub fn is_identical(&self) -> bool {
        self.digest_diff.is_empty() && self.events_match
    }
}

/// Re-drive the campaign recorded in `artifact` and bitwise-diff the
/// result against it.
pub fn replay_run_log(artifact: &RunLogArtifact) -> RunLogReplay {
    let fresh = run_logged(&artifact.spec);
    RunLogReplay {
        digest_diff: fresh.digest.diff(&artifact.digest),
        events_match: fresh.events.observably_equal(&artifact.events),
        digest: fresh.digest,
        events: fresh.events,
    }
}

/// [`replay_run_log`] from a file on disk, every failure attributed to
/// the path — the shape CI uses to re-check an uploaded trophy log.
pub fn replay_run_log_file(path: &std::path::Path) -> Result<RunLogReplay, ReplayError> {
    let shown = path.display().to_string();
    let json = std::fs::read_to_string(path)
        .map_err(|e| ReplayError::parse(format!("cannot read file: {e}")).with_path(&shown))?;
    let artifact = RunLogArtifact::from_json(&json).map_err(|e| e.with_path(&shown))?;
    Ok(replay_run_log(&artifact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::run_campaign;

    #[test]
    fn recording_does_not_change_the_campaign() {
        // The event log is observational: a recorded run must produce the
        // same digest, bit for bit, as a silent run of the same spec.
        let spec = ScenarioSpec::from_seed(5);
        let silent = CampaignDigest::capture(&run_campaign(&spec));
        let logged = run_logged(&spec);
        assert_eq!(logged.digest.diff(&silent), Vec::<&str>::new());
        assert!(!logged.events.is_empty(), "a campaign run must leave events");
    }

    #[test]
    fn run_log_roundtrips_and_replays_identically() {
        let spec = ScenarioSpec::from_seed(8);
        let artifact = run_logged(&spec);
        let json = artifact.to_json().unwrap();
        let back = RunLogArtifact::from_json(&json).unwrap();
        assert_eq!(back, artifact);
        let replay = replay_run_log(&back);
        assert!(
            replay.is_identical(),
            "replay diverged: digest fields {:?}, events_match {}",
            replay.digest_diff,
            replay.events_match
        );
    }

    #[test]
    fn reference_driver_agrees_on_the_observable_event_stream() {
        // Wake events are private to the next-event driver; everything
        // else is the campaign's observable behaviour and must match the
        // lockstep reference.
        let spec = ScenarioSpec::from_seed(4);
        let next_event = run_logged(&spec);
        let mut reference = Campaign::new(spec.campaign_config());
        reference.record_events();
        reference.run_lockstep();
        let lockstep = reference.take_event_log().expect("recording was enabled");
        assert!(
            next_event.events.observably_equal(&lockstep),
            "lockstep event stream diverges from next-event"
        );
    }

    #[test]
    fn tampered_artifacts_are_reported_not_replayed() {
        match RunLogArtifact::from_json("{\"version\": 99}") {
            Err(ReplayError {
                kind: ReplayErrorKind::Version { found: 99 },
                ..
            }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        // The previous revision's envelope (it named an engine) is
        // reported with its version, never parsed.
        match RunLogArtifact::from_json("{\"version\": 2, \"engine\": \"lockstep\"}") {
            Err(e) if e.kind == (ReplayErrorKind::Version { found: 2 }) => {
                assert_eq!(
                    e.to_string(),
                    "run log version 2 incompatible with this build (reads v3)"
                );
            }
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(RunLogArtifact::from_json("not json").is_err());
        assert!(RunLogArtifact::from_json("{\"spec\": {}}").is_err());
    }
}
