//! Test outcome model.

use ttt_sim::SimDuration;

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
/// `signature` is stable across runs of the same underlying problem and is
/// formatted compatibly with `ttt_testbed::Fault::signature()` (e.g.
/// `"cpu-cstates@grisou-3"`), so the bug tracker can deduplicate reports
/// and the repair loop can locate the fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable dedup key.
    pub signature: String,
    /// Operator-facing explanation.
    pub message: String,
}

impl Diagnostic {
    /// Convenience constructor.
    pub fn new(signature: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            signature: signature.into(),
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
            .map(|d| format!("{}: {}", d.signature, d.message))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_follows_diagnostics() {
        let ok = TestReport::from_diagnostics(vec![], SimDuration::from_mins(5));
        assert!(ok.passed());
        let bad = TestReport::from_diagnostics(
            vec![Diagnostic::new("cpu-cstates@n1", "drift")],
            SimDuration::from_mins(5),
        );
        assert!(!bad.passed());
        assert_eq!(bad.log_lines(), vec!["cpu-cstates@n1: drift".to_string()]);
    }
}
