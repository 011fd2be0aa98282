//! The baseline ratchet: equal debt passes, grown debt fails, shrunk
//! debt warns, and unexplained exemptions are failures in themselves.

use ttt_detlint::report::{
    ratchet, write_baseline, Baseline, BaselineBuggify, BaselineCrate, BaselineRule,
    BaselineUncovered, BASELINE_VERSION,
};
use ttt_detlint::{lint, FileKind, LintReport, SourceFile};

fn lib_with_unwraps(n: usize) -> SourceFile {
    let body: String = (0..n)
        .map(|i| format!("    let x{i} = Some({i}).unwrap();\n"))
        .collect();
    SourceFile {
        path: "crates/x/src/a.rs".into(),
        crate_name: "ttt_x".into(),
        kind: FileKind::Lib,
        text: format!("fn f() {{\n{body}}}\n"),
    }
}

fn report_with_unwraps(n: usize) -> LintReport {
    lint(&[lib_with_unwraps(n)], &[])
}

fn baseline_unwraps(count: usize, reason: &str) -> Baseline {
    Baseline {
        version: 1,
        rules: vec![BaselineRule {
            rule: "no-unwrap-in-lib".into(),
            file: "crates/x/src/a.rs".into(),
            count,
            reason: reason.into(),
        }],
        buggify: BaselineBuggify::default(),
    }
}

#[test]
fn equal_debt_passes() {
    let out = ratchet(&report_with_unwraps(2), &baseline_unwraps(2, "grandfathered"));
    assert!(out.clean(), "failures: {:?}", out.failures);
    assert!(out.warnings.is_empty());
}

#[test]
fn grown_debt_fails() {
    let out = ratchet(&report_with_unwraps(3), &baseline_unwraps(2, "grandfathered"));
    assert!(!out.clean());
    assert!(out.failures[0].contains("grew from 2 to 3"));
}

#[test]
fn shrunk_debt_warns() {
    let out = ratchet(&report_with_unwraps(1), &baseline_unwraps(2, "grandfathered"));
    assert!(out.clean());
    assert_eq!(out.warnings.len(), 1);
    assert!(out.warnings[0].contains("tighten"));
}

#[test]
fn unbaselined_violation_fails_with_lines() {
    let empty = Baseline {
        version: BASELINE_VERSION,
        ..Baseline::default()
    };
    let out = ratchet(&report_with_unwraps(1), &empty);
    assert!(!out.clean());
    assert!(out.failures[0].contains("unbaselined"));
    assert!(out.failures[0].contains("line(s) 2"));
}

#[test]
fn empty_reason_is_a_failure_even_when_counts_match() {
    let out = ratchet(&report_with_unwraps(2), &baseline_unwraps(2, "  "));
    assert!(!out.clean());
    assert!(out.failures[0].contains("empty reason"));
}

#[test]
fn foreign_version_fails_even_when_debt_matches() {
    let mut baseline = baseline_unwraps(2, "grandfathered");
    baseline.version = 99;
    let out = ratchet(&report_with_unwraps(2), &baseline);
    assert_eq!(out.failures, vec!["baseline version 99 is not 1".to_string()]);
}

#[test]
fn stale_entry_warns() {
    let out = ratchet(&report_with_unwraps(0), &baseline_unwraps(2, "grandfathered"));
    assert!(out.clean());
    assert!(out.warnings[0].contains("stale baseline entry"));
}

fn service_report(armed: bool) -> LintReport {
    let fire = if armed {
        "    if self.buggify.fire_hashed(\"oar-submit\", n) { return Err(E); }\n"
    } else {
        ""
    };
    let f = SourceFile {
        path: "crates/oar/src/server.rs".into(),
        crate_name: "ttt_oar".into(),
        kind: FileKind::Lib,
        text: format!("pub fn submit(&mut self) -> Result<(), E> {{\n{fire}    Ok(())\n}}\n"),
    };
    let reg = ttt_detlint::RegistryEntry {
        name: "oar-submit".into(),
        crate_name: "ttt_oar".into(),
    };
    lint(&[f], std::slice::from_ref(&reg))
}

#[test]
fn uncovered_surface_fn_needs_an_exemption() {
    // The report has one uncovered Result fn and a stale registration
    // (the fixture never fires); exempt the fn, baseline the stale
    // registration out of the way, and the run is clean.
    let report = service_report(false);
    let out = ratchet(&report, &Baseline::default());
    assert!(out
        .failures
        .iter()
        .any(|f| f.contains("no buggify arm and no exemption")));

    let baseline = Baseline {
        version: 1,
        rules: vec![BaselineRule {
            rule: "stale-buggify-registration".into(),
            file: "crates/sim/src/rpc.rs".into(),
            count: 1,
            reason: "fixture registry".into(),
        }],
        buggify: BaselineBuggify {
            crates: vec![],
            uncovered: vec![BaselineUncovered {
                crate_name: "ttt_oar".into(),
                file: "crates/oar/src/server.rs".into(),
                fn_name: "submit".into(),
                reason: "fixture: deliberately bare".into(),
            }],
        },
    };
    let out = ratchet(&report, &baseline);
    assert!(out.clean(), "failures: {:?}", out.failures);
}

#[test]
fn coverage_floor_ratchets_both_ways() {
    let floor = |covered| Baseline {
        version: 1,
        rules: vec![],
        buggify: BaselineBuggify {
            crates: vec![BaselineCrate {
                crate_name: "ttt_oar".into(),
                covered,
                total: 1,
            }],
            uncovered: vec![],
        },
    };
    // Armed report at floor 1: clean, no warnings about coverage.
    let out = ratchet(&service_report(true), &floor(1));
    assert!(out.clean(), "failures: {:?}", out.failures);
    // Armed report above floor 0: clean plus a raise-the-floor nudge.
    let out = ratchet(&service_report(true), &floor(0));
    assert!(out.clean());
    assert!(out.warnings.iter().any(|w| w.contains("raise the floor")));
    // Unarmed report under floor 1: coverage regression fails.
    let report = service_report(false);
    let out = ratchet(&report, &floor(1));
    assert!(out
        .failures
        .iter()
        .any(|f| f.contains("dropped below floor")));
}

#[test]
fn write_baseline_carries_reasons_over() {
    let report = report_with_unwraps(2);
    let prev = baseline_unwraps(2, "carried reason");
    let next = write_baseline(&report, Some(&prev));
    assert_eq!(next.rules.len(), 1);
    assert_eq!(next.rules[0].reason, "carried reason");
    assert_eq!(next.rules[0].count, 2);
    // Without a predecessor the reason is empty — and the validator
    // treats that as a failure until a human fills it in.
    let fresh = write_baseline(&report, None);
    assert!(fresh.rules[0].reason.is_empty());
    let out = ratchet(&report, &fresh);
    assert!(!out.clean());
}
