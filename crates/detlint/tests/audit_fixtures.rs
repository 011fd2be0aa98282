//! Fixtures for the buggify-surface audit and registry reconciliation.

use ttt_detlint::{lint, FileKind, RegistryEntry, SourceFile};

fn reg(name: &str, crate_name: &str) -> RegistryEntry {
    RegistryEntry {
        name: name.into(),
        crate_name: crate_name.into(),
    }
}

fn oar_file(text: &str) -> SourceFile {
    SourceFile {
        path: "crates/oar/src/server.rs".into(),
        crate_name: "ttt_oar".into(),
        kind: FileKind::Lib,
        text: text.into(),
    }
}

const TWO_FNS_ONE_ARMED: &str = r#"
pub fn submit(&mut self, r: Request) -> Result<Job, SubmitError> {
    if self.buggify.fire_hashed("oar-submit", self.attempts) {
        return Err(SubmitError::TransientlyRefused);
    }
    Ok(self.admit(r))
}

pub fn validate(&self, r: &Request) -> Result<(), SubmitError> {
    Ok(())
}

pub fn not_a_candidate(&self) -> usize {
    0
}
"#;

#[test]
fn density_counts_covered_and_total() {
    let report = lint(&[oar_file(TWO_FNS_ONE_ARMED)], &[reg("oar-submit", "ttt_oar")]);
    let oar = report
        .audit
        .crates
        .iter()
        .find(|c| c.crate_name == "ttt_oar")
        .expect("service crate always reported");
    assert_eq!((oar.covered, oar.total), (1, 2));
    assert_eq!(report.audit.uncovered.len(), 1);
    assert_eq!(report.audit.uncovered[0].fn_name, "validate");
    assert_eq!(report.audit.fires.len(), 1);
    assert_eq!(report.audit.fires[0].callsite, "oar-submit");
    // Registered and fired: no reconciliation violations.
    assert!(report.violations.is_empty());
}

#[test]
fn unregistered_callsite_is_a_violation() {
    let report = lint(&[oar_file(TWO_FNS_ONE_ARMED)], &[]);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, "unregistered-buggify-callsite");
}

#[test]
fn stale_registration_is_a_violation() {
    let report = lint(
        &[oar_file(TWO_FNS_ONE_ARMED)],
        &[reg("oar-submit", "ttt_oar"), reg("ghost-site", "ttt_oar")],
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, "stale-buggify-registration");
    assert!(report.violations[0].message.contains("ghost-site"));
}

#[test]
fn fires_in_cfg_test_do_not_count() {
    let text = r#"
pub fn submit(&mut self) -> Result<(), E> {
    Ok(())
}
#[cfg(test)]
mod tests {
    fn t() { b.fire("test-only-site", &mut rng); }
}
"#;
    let report = lint(&[oar_file(text)], &[]);
    assert!(report.audit.fires.is_empty());
    // And the surface fn is simply uncovered, not a violation.
    assert_eq!(report.audit.uncovered.len(), 1);
    assert!(report.violations.is_empty());
}

#[test]
fn fmt_result_is_not_surface() {
    let text = r#"
impl fmt::Display for E {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e")
    }
}
"#;
    let report = lint(&[oar_file(text)], &[]);
    let oar = report
        .audit
        .crates
        .iter()
        .find(|c| c.crate_name == "ttt_oar")
        .expect("service crate always reported");
    assert_eq!(oar.total, 0);
}

#[test]
fn a_type_merely_named_like_result_is_not_surface() {
    let text = r#"
pub fn finished(&self) -> impl Iterator<Item = (BuildResult, SimTime)> + '_ {
    self.iter().filter_map(|b| Some((b.result?, b.finished_at?)))
}
"#;
    let report = lint(&[oar_file(text)], &[]);
    assert!(report.audit.uncovered.is_empty());
}

#[test]
fn non_service_crates_are_reconciled_but_not_surfaced() {
    let testbed = SourceFile {
        path: "crates/testbed/src/testbed.rs".into(),
        crate_name: "ttt_testbed".into(),
        kind: FileKind::Lib,
        text: r#"
pub fn call(&mut self) -> Result<(), RpcError> {
    if self.buggify.fire("testbed-service-call", rng) { return Err(RpcError::Timeout); }
    Ok(())
}
"#
        .into(),
    };
    let report = lint(&[testbed], &[reg("testbed-service-call", "ttt_testbed")]);
    // The fire is seen (reconciliation) …
    assert_eq!(report.audit.fires.len(), 1);
    assert!(report.violations.is_empty());
    // … but ttt_testbed is not part of the audited service surface.
    assert!(report
        .audit
        .crates
        .iter()
        .all(|c| c.crate_name != "ttt_testbed"));
}
