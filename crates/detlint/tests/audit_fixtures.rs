//! Fixtures for the buggify-surface audit and registry reconciliation.

use ttt_detlint::{lint, FileKind, LintReport, RegistryEntry, SourceFile};

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

fn rules_fired(report: &LintReport) -> Vec<(&str, u32)> {
    report
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect()
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
    // Registered and fired: the only violation is the unarmed fn.
    assert_eq!(rules_fired(&report), vec![("unarmed-service-fn", 9)]);
    assert!(report.violations[0].message.contains("`validate`"));
}

#[test]
fn unarmed_surface_fn_fires_unless_escaped() {
    let bare = "\n/// Parse a request.\npub fn parse(s: &str) -> Result<u8, E> {\n    Ok(0)\n}\n";
    let report = lint(&[oar_file(bare)], &[]);
    assert_eq!(rules_fired(&report), vec![("unarmed-service-fn", 3)]);

    // An escape above the doc comment reaches the `fn` line: the fn is
    // excused from the density, not armed.
    let escaped = bare.replacen(
        "\n",
        "\n// detlint: allow(unarmed-service-fn) -- pure parser, no IO to perturb\n",
        1,
    );
    let report = lint(&[oar_file(&escaped)], &[]);
    assert_eq!(rules_fired(&report), vec![]);
    let oar = report
        .audit
        .crates
        .iter()
        .find(|c| c.crate_name == "ttt_oar")
        .expect("service crate always reported");
    assert_eq!((oar.covered, oar.escaped, oar.total), (0, 1, 1));
}

#[test]
fn unregistered_callsite_is_a_violation() {
    let report = lint(&[oar_file(TWO_FNS_ONE_ARMED)], &[]);
    assert_eq!(
        rules_fired(&report),
        vec![
            ("unregistered-buggify-callsite", 3),
            ("unarmed-service-fn", 9)
        ]
    );
}

#[test]
fn stale_registration_is_a_violation() {
    let report = lint(
        &[oar_file(TWO_FNS_ONE_ARMED)],
        &[reg("oar-submit", "ttt_oar"), reg("ghost-site", "ttt_oar")],
    );
    let stale: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "stale-buggify-registration")
        .collect();
    assert_eq!(stale.len(), 1);
    assert!(stale[0].message.contains("ghost-site"));
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
    // So the surface fn is unarmed.
    assert_eq!(rules_fired(&report), vec![("unarmed-service-fn", 2)]);
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
