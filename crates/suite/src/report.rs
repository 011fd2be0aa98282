//! Test outcome model.

use std::fmt::Write as _;
use ttt_sim::SimDuration;
use ttt_testbed::Signature;

/// Outcome of one test run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestStatus {
    /// Everything the test checks held.
    Ok,
    /// At least one check failed; see the diagnostics.
    Failed,
}

/// One issue found by a test, with enough context for an operator.
///
/// `signature` is stable across runs of the same underlying problem, so the
/// bug tracker can deduplicate reports on it and the repair loop can locate
/// the fault through `ttt_testbed::find_fault`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable dedup key.
    pub signature: Signature,
    /// Operator-facing explanation.
    pub message: String,
}

impl Diagnostic {
    /// Convenience constructor.
    pub fn new(signature: Signature, message: impl Into<String>) -> Self {
        Diagnostic {
            signature,
            message: message.into(),
        }
    }
}

/// Result of one test-configuration run.
#[derive(Debug, Clone, PartialEq)]
pub struct TestReport {
    /// Overall status.
    pub status: TestStatus,
    /// Issues found (non-empty iff `Failed`, by construction via [`TestReport::from_diagnostics`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Virtual time the test consumed.
    pub duration: SimDuration,
}

impl TestReport {
    /// Build a report: failed iff any diagnostics.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>, duration: SimDuration) -> Self {
        TestReport {
            status: if diagnostics.is_empty() {
                TestStatus::Ok
            } else {
                TestStatus::Failed
            },
            diagnostics,
            duration,
        }
    }

    /// Whether the run passed.
    pub fn passed(&self) -> bool {
        self.status == TestStatus::Ok
    }

    /// Render log lines for the CI build record.
    pub fn log_lines(&self) -> Vec<String> {
        self.diagnostics
            .iter()
            .map(|d| {
                // Sized up front: the signature renders in several pieces.
                let Signature { symptom, subject } = &d.signature;
                let len = symptom.name().len() + 1 + subject.len() + 2 + d.message.len();
                let mut line = String::with_capacity(len);
                let _ = write!(line, "{}: {}", d.signature, d.message);
                line
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_testbed::Symptom;

    #[test]
    fn status_follows_diagnostics() {
        let ok = TestReport::from_diagnostics(vec![], SimDuration::from_mins(5));
        assert!(ok.passed());
        let bad = TestReport::from_diagnostics(
            vec![Diagnostic::new(Symptom::CpuCStates.on("n1"), "drift")],
            SimDuration::from_mins(5),
        );
        assert!(!bad.passed());
        assert_eq!(bad.log_lines(), vec!["cpu-cstates@n1: drift".to_string()]);
    }
}
